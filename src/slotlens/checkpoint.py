"""Single-file checkpoint format.

Layout: an 8-byte magic, a little-endian uint32 manifest length, a JSON
manifest (sorted keys), then a raw little-endian tensor blob addressed by
the manifest's per-tensor offset table. The same model state always
serializes to the same bytes, so determinism can be asserted on files.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import PAD_TOKEN, UNK_TOKEN, LabelMaps, Vocab
from .model import JointModel, ModelConfig

MAGIC = b"SLOTLENS"
FORMAT_VERSION = 1


class CheckpointFormatError(ValueError):
    """Not a checkpoint file, or manifest/blob structure is inconsistent."""


class CheckpointCorruptError(ValueError):
    """Checkpoint recognized but truncated or internally out of bounds."""


class CheckpointVersionError(ValueError):
    """Format version differs from what this code writes."""


@dataclass
class Checkpoint:
    config: ModelConfig
    label_maps: LabelMaps
    vocab: Vocab
    params: dict[str, np.ndarray]
    optimizer: dict | None
    metadata: dict


def _le(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def save_checkpoint(
    path: str | Path,
    model: JointModel,
    maps: LabelMaps,
    vocab: Vocab,
    metadata: dict | None = None,
    include_optimizer: bool = False,
) -> Path:
    """Write the model, its label inventories, and vocab to one file."""
    tensors: dict[str, np.ndarray] = dict(model.params.state_dict())
    optim_entry = None
    if include_optimizer:
        state = model.params.optimizer_state()
        optim_entry = {"step_count": state["step_count"], "m": [], "v": []}
        for kind in ("m", "v"):
            for name, arr in sorted(state[kind].items()):
                blob_name = f"adam.{kind}.{name}"
                tensors[blob_name] = arr
                optim_entry[kind].append(name)

    table = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = _le(tensors[name])
        raw = arr.tobytes()
        table.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": str(np.dtype(arr.dtype.str.lstrip("<>="))),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "label_maps": {
            "intents": maps.intents,
            "slot_types": maps.slot_types,
            "bio_labels": maps.bio_labels,
        },
        "vocab": vocab.id_to_token,
        "params": table,
        "optimizer": optim_entry,
        "metadata": metadata or {},
    }
    encoded = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.array(len(encoded), dtype="<u4").tobytes())
        f.write(encoded)
        for raw in blobs:
            f.write(raw)
    return path


def _require_keys(table, keys: tuple[str, ...], path, where: str) -> None:
    if not isinstance(table, dict):
        raise CheckpointFormatError(f"{path}: {where} is not a JSON object")
    for key in keys:
        if key not in table:
            raise CheckpointFormatError(f"{path}: {where} has no {key!r} key")


_LABEL_KEYS = ("intents", "slot_types", "bio_labels")
_DTYPES = ("float16", "float32", "float64")


def _check(ok: bool, path, where: str, value, expected: str) -> None:
    if not ok:
        raise CheckpointFormatError(f"{path}: {where} is {value!r:.80}, expected {expected}")


def _check_entry(ok: bool, path, entry: dict, key: str, expected: str) -> None:
    """``_check`` for one key of a ``params`` entry, which names the entry only
    on failure: a load checks every key of every tensor."""
    if not ok:
        _check(False, path, f"params entry {entry['name']!r} key {key!r}", entry[key],
               expected)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@functools.cache
def _config_types() -> dict[str, type]:
    return get_type_hints(ModelConfig)  # resolving annotations takes ~0.25 ms


def _config_from_manifest(raw_config, path) -> ModelConfig:
    """Build the config, naming the first missing, unknown or mistyped key."""
    _require_keys(raw_config, (), path, "config")
    unknown = set(raw_config) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise CheckpointFormatError(f"{path}: unknown config keys {sorted(unknown)}")
    hints = _config_types()
    for f in fields(ModelConfig):
        if f.name not in raw_config:
            if f.default is MISSING:
                raise CheckpointFormatError(f"{path}: config has no {f.name!r} key")
            continue
        value, want = raw_config[f.name], hints[f.name]
        # JSON has one number type: a float field may hold an integer
        ok = isinstance(value, (int, float) if want is float else want)
        _check(ok and (want is bool or not isinstance(value, bool)), path,
               f"config key {f.name!r}", value, want.__name__)
    try:
        return ModelConfig(**raw_config)
    except ValueError as e:
        raise CheckpointFormatError(f"{path}: invalid config: {e}") from e


def _check_manifest(manifest, path) -> None:
    """Check the type of every manifest field the loader reads, naming the
    first bad key, before any tensor is built."""
    _require_keys(manifest, ("params", "config", "label_maps", "vocab"), path, "manifest")
    _check(isinstance(manifest["params"], list), path, "manifest key 'params'",
           manifest["params"], "a list")
    for entry in manifest["params"]:
        _require_keys(entry, ("name", "shape", "dtype", "offset", "nbytes"), path,
                      "params entry")
        _check(isinstance(entry["name"], str), path, "params entry key 'name'",
               entry["name"], "a string")
        _check_entry(entry["dtype"] in _DTYPES, path, entry, "dtype",
                     "one of " + ", ".join(_DTYPES))
        _check_entry(isinstance(entry["shape"], list) and all(map(_is_count, entry["shape"])),
                     path, entry, "shape", "a list of non-negative integers")
        for key in ("offset", "nbytes"):
            _check_entry(_is_count(entry[key]), path, entry, key, "a non-negative integer")
    end, last = 0, None
    for entry in sorted(manifest["params"], key=itemgetter("offset", "nbytes")):
        if entry["offset"] < end:
            raise CheckpointFormatError(
                f"{path}: params entry {entry['name']!r} key 'offset' is {entry['offset']}, "
                f"inside tensor {last!r}, which ends at {end}"
            )
        end, last = entry["offset"] + entry["nbytes"], entry["name"]
    lm = manifest["label_maps"]
    _require_keys(lm, _LABEL_KEYS, path, "label_maps")
    for key in _LABEL_KEYS:
        _check(_is_str_list(lm[key]), path, f"label_maps key {key!r}", lm[key],
               "a list of strings")
    vocab = manifest["vocab"]
    _check(_is_str_list(vocab), path, "manifest key 'vocab'", vocab, "a list of strings")
    _check(vocab[:2] == [PAD_TOKEN, UNK_TOKEN], path, "the start of manifest key 'vocab'",
           vocab[:2], repr([PAD_TOKEN, UNK_TOKEN]))
    optimizer = manifest.get("optimizer")
    if optimizer:
        _require_keys(optimizer, ("step_count", "m", "v"), path, "optimizer")
        _check(_is_count(optimizer["step_count"]), path, "optimizer key 'step_count'",
               optimizer["step_count"], "a non-negative integer")
        stored = {entry["name"] for entry in manifest["params"]}
        for kind in ("m", "v"):
            names = optimizer[kind]
            _check(_is_str_list(names) and len(set(names)) == len(names), path,
                   f"optimizer key {kind!r}", names, "a list of distinct strings")
            for name in names:
                if f"adam.{kind}.{name}" not in stored:
                    raise CheckpointFormatError(
                        f"{path}: optimizer key {kind!r} names {name!r}, "
                        f"which has no stored 'adam.{kind}.' tensor"
                    )


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint; every tensor round-trips bit-exactly."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint file")
    header_end = len(MAGIC) + 4
    (manifest_len,) = np.frombuffer(data[len(MAGIC) : header_end], dtype="<u4")
    manifest_end = header_end + int(manifest_len)
    if manifest_end > len(data):
        raise CheckpointCorruptError(f"{path}: manifest truncated")
    try:
        manifest = json.loads(data[header_end:manifest_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"{path}: unreadable manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointFormatError(f"{path}: manifest is not a JSON object")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: file format version {version}, this reader expects {FORMAT_VERSION}"
        )

    _check_manifest(manifest, path)
    blob = memoryview(data)[manifest_end:]  # slices below copy nothing
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["params"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(blob):
            raise CheckpointCorruptError(
                f"{path}: tensor {entry['name']!r} extends past end of file"
            )
        dtype = np.dtype(entry["dtype"]).newbyteorder("<")
        shape = tuple(entry["shape"])
        want = math.prod(shape) * dtype.itemsize
        if nbytes != want:
            raise CheckpointFormatError(
                f"{path}: tensor {entry['name']!r} has {nbytes} bytes "
                f"but shape {shape} of {entry['dtype']} takes {want}"
            )
        arr = np.frombuffer(blob[start : start + nbytes], dtype=dtype)
        tensors[entry["name"]] = arr.reshape(shape).astype(dtype.newbyteorder("="))

    config = _config_from_manifest(manifest["config"], path)

    try:
        maps = LabelMaps(**{key: manifest["label_maps"][key] for key in _LABEL_KEYS})
        vocab = Vocab(manifest["vocab"][2:])  # constructor re-adds pad/unk
    except ValueError as e:
        raise CheckpointFormatError(f"{path}: invalid label maps or vocab: {e}") from e

    optimizer = None
    if manifest.get("optimizer"):
        o = manifest["optimizer"]
        optimizer = {
            "step_count": o["step_count"],
            "m": {n: tensors.pop(f"adam.m.{n}") for n in o["m"]},
            "v": {n: tensors.pop(f"adam.v.{n}") for n in o["v"]},
        }

    return Checkpoint(
        config=config,
        label_maps=maps,
        vocab=vocab,
        params=tensors,
        optimizer=optimizer,
        metadata=manifest.get("metadata", {}),
    )


def model_from_checkpoint(ckpt: Checkpoint) -> JointModel:
    """Rebuild a model in the stored parameters' dtype and overwrite its
    parameters with the saved values."""
    dtypes = {arr.dtype for arr in ckpt.params.values()}
    if len(dtypes) > 1:
        raise CheckpointFormatError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
    dtype = dtypes.pop() if dtypes else np.float32
    model = JointModel(ckpt.config, rng=np.random.default_rng(0), dtype=dtype)
    saved = set(ckpt.params)
    expected = set(model.params.names())
    if saved != expected:
        missing = sorted(expected - saved)
        extra = sorted(saved - expected)
        raise CheckpointFormatError(
            f"parameter names disagree with config: missing {missing}, extra {extra}"
        )
    model.params.load_state(ckpt.params)
    if ckpt.optimizer is not None:
        model.params.load_optimizer_state(ckpt.optimizer)
    return model
