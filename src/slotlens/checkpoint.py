"""Single-file checkpoint format.

Layout: an 8-byte magic, a little-endian uint32 manifest length, a JSON
manifest (sorted keys), then a raw little-endian tensor blob addressed by
the manifest's per-tensor offset table. The same model state always
serializes to the same bytes, so determinism can be asserted on files.

The writer's blob is a parameter set's arenas back to back (Adam ``m``,
Adam ``v``, parameters), each in sorted-name order, which is also the
order of the table. The reader reads the blob straight into arenas of the
same layout, and a model loaded from them is built around them.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import PAD_TOKEN, UNK_TOKEN, LabelMaps, Vocab
from .model import JointModel, ModelConfig
from .optim import arena_layout

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
    """A read checkpoint.  ``arenas`` holds the parameter arena (``data``)
    and, with stored moments, ``m`` and ``v``, laid out as a model's
    (:func:`~slotlens.optim.arena_layout`); ``params`` and the optimizer's
    moments are views of them until :func:`model_from_checkpoint` takes
    them over."""

    config: ModelConfig
    label_maps: LabelMaps
    vocab: Vocab
    params: dict[str, np.ndarray]
    optimizer: dict | None
    metadata: dict
    path: str | Path
    arenas: dict[str, np.ndarray] | None


def save_checkpoint(
    path: str | Path,
    model: JointModel,
    maps: LabelMaps,
    vocab: Vocab,
    metadata: dict | None = None,
    include_optimizer: bool = False,
) -> Path:
    """Write the model, its label inventories, and vocab to one file.

    The blob is the parameter set's arenas back to back: with
    ``include_optimizer`` and once Adam has moments, the ``m`` and ``v``
    arenas, then the parameter arena, each in sorted-name order.
    """
    params = model.params
    moments = include_optimizer and params.m is not None
    arenas = [("adam.m.", params.m), ("adam.v.", params.v)] if moments else []
    arenas.append(("", params.data))
    dtype, itemsize = str(params.dtype), params.dtype.itemsize
    table = []
    base = 0
    for prefix, arena in arenas:
        for name, start in params.layout():
            t = params[name]
            table.append({"name": prefix + name, "shape": list(t.shape), "dtype": dtype,
                          "offset": base + start * itemsize, "nbytes": t.size * itemsize})
        base += arena.nbytes
    optim_entry = None
    if include_optimizer:
        stored = [name for name, _ in params.layout()] if moments else []
        optim_entry = {"step_count": params.step_count, "m": stored, "v": stored}

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
        for _, arena in arenas:
            f.write(arena.astype(arena.dtype.newbyteorder("<"), copy=False))
    return path


def _require_keys(table, keys: tuple[str, ...], path, where: str) -> None:
    if not isinstance(table, dict):
        raise CheckpointFormatError(f"{path}: {where} is not a JSON object")
    for key in keys:
        if key not in table:
            raise CheckpointFormatError(f"{path}: {where} has no {key!r} key")


_LABEL_KEYS = ("intents", "slot_types", "bio_labels")
_DTYPES = ("float16", "float32", "float64")
_LE_DTYPES = {name: np.dtype(name).newbyteorder("<") for name in _DTYPES}
_ENTRY_KEYS = {"name", "shape", "dtype", "offset", "nbytes"}
_entry_fields = itemgetter("name", "shape", "dtype", "offset", "nbytes")


def _check(ok: bool, path, where: str, value, expected: str) -> None:
    if not ok:
        raise CheckpointFormatError(f"{path}: {where} is {value!r:.80}, expected {expected}")


def _entry_error(path, entry: dict, key: str, expected: str) -> CheckpointFormatError:
    """The error for one key of a ``params`` entry, built only on failure:
    a load checks every key of every tensor."""
    return CheckpointFormatError(f"{path}: params entry {entry['name']!r} key {key!r} "
                                 f"is {entry[key]!r:.80}, expected {expected}")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # JSON gives no int subclass but bool


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


def _check_manifest(manifest, path, blob_len: int) -> None:
    """Check the type of every manifest field the loader reads, naming the
    first bad key, and that every tensor lies in the ``blob_len`` bytes of
    the blob and has the byte count its shape and dtype take, before any
    tensor is read."""
    _require_keys(manifest, ("params", "config", "label_maps", "vocab"), path, "manifest")
    _check(isinstance(manifest["params"], list), path, "manifest key 'params'",
           manifest["params"], "a list")
    count = "a non-negative integer"
    for entry in manifest["params"]:
        if type(entry) is not dict or not entry.keys() >= _ENTRY_KEYS:
            _require_keys(entry, ("name", "shape", "dtype", "offset", "nbytes"), path,
                          "params entry")
        name, shape, dtype, offset, nbytes = _entry_fields(entry)
        _check(type(name) is str, path, "params entry key 'name'", name, "a string")
        if dtype not in _DTYPES:
            raise _entry_error(path, entry, "dtype", "one of " + ", ".join(_DTYPES))
        if type(shape) is not list or not all(map(_is_count, shape)):
            raise _entry_error(path, entry, "shape", "a list of non-negative integers")
        if not _is_count(offset):
            raise _entry_error(path, entry, "offset", count)
        if not _is_count(nbytes):
            raise _entry_error(path, entry, "nbytes", count)
        if offset + nbytes > blob_len:
            raise CheckpointCorruptError(f"{path}: tensor {name!r} extends past end of file")
        want = math.prod(shape) * _LE_DTYPES[dtype].itemsize
        if nbytes != want:
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} has {nbytes} bytes "
                f"but shape {tuple(shape)} of {dtype} takes {want}"
            )
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
    with open(path, "rb") as f:
        head = f.read(len(MAGIC) + 4)
        if len(head) < len(MAGIC) + 4 or head[: len(MAGIC)] != MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint file")
        manifest_len = int.from_bytes(head[len(MAGIC) :], "little")
        # checked before reading, so a damaged length asks for no large buffer
        if manifest_len > os.fstat(f.fileno()).st_size - len(head):
            raise CheckpointCorruptError(f"{path}: manifest truncated")
        raw = f.read(manifest_len)
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointFormatError(f"{path}: unreadable manifest: {e}") from e
        if not isinstance(manifest, dict):
            raise CheckpointFormatError(f"{path}: manifest is not a JSON object")

        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: file format version {version}, this reader expects {FORMAT_VERSION}"
            )

        blob_start = len(head) + manifest_len
        _check_manifest(manifest, path, os.fstat(f.fileno()).st_size - blob_start)

        config = _config_from_manifest(manifest["config"], path)

        try:
            maps = LabelMaps(**{key: manifest["label_maps"][key] for key in _LABEL_KEYS})
            vocab = Vocab(manifest["vocab"][2:])  # constructor re-adds pad/unk
        except ValueError as e:
            raise CheckpointFormatError(f"{path}: invalid label maps or vocab: {e}") from e

        arenas, params, optimizer = _read_arenas(f, blob_start, manifest, path)

    return Checkpoint(
        config=config,
        label_maps=maps,
        vocab=vocab,
        params=params,
        optimizer=optimizer,
        metadata=manifest.get("metadata", {}),
        path=path,
        arenas=arenas,
    )


def _read_arenas(f, blob_start: int, manifest: dict, path):
    """Read the blob into arenas laid out as a model's: the moment arenas
    (when the optimizer entry lists moments), then the parameter arena.
    Tensors that lie back to back in the file as in the arenas are read
    together, so a file :func:`save_checkpoint` wrote takes one read."""
    entries = manifest["params"]
    o = manifest.get("optimizer") or None
    moments = {f"adam.{kind}.{n}": (kind, n) for kind in "mv" for n in o[kind]} if o else {}
    shapes = {e["name"]: tuple(e["shape"]) for e in entries if e["name"] not in moments}
    if len({e["name"] for e in entries}) < len(entries):
        raise CheckpointFormatError(f"{path}: manifest key 'params' repeats a tensor name")
    dtypes = sorted({e["dtype"] for e in entries})
    if len(dtypes) > 1:
        raise CheckpointFormatError(f"{path}: tensors mix dtypes {dtypes}")
    dtype = _LE_DTYPES[dtypes[0] if dtypes else "float32"]
    starts, total = arena_layout(shapes)
    kinds = ("m", "v", "data") if moments else ("data",)
    base = {kind: i * total for i, kind in enumerate(kinds)}
    buf = np.zeros(len(kinds) * total, dtype)  # moments a file leaves out stay zero
    into = memoryview(buf).cast("B")

    def read(offset: int, dst: int, nbytes: int) -> None:
        f.seek(blob_start + offset)
        if f.readinto(into[dst : dst + nbytes]) != nbytes:
            raise CheckpointCorruptError(f"{path}: blob ended while being read")

    run = [0, 0, 0]  # file offset, arena byte offset, bytes
    for entry in sorted(entries, key=itemgetter("offset")):
        kind, name = "data", entry["name"]
        if name in moments:
            kind, name = moments[name]
            if shapes.get(name) != tuple(entry["shape"]):
                raise CheckpointFormatError(
                    f"{path}: tensor {entry['name']!r} has shape {tuple(entry['shape'])}, "
                    f"but parameter {name!r} is {shapes.get(name, 'not stored')}"
                )
        dst = (base[kind] + starts[name]) * dtype.itemsize
        if entry["offset"] == run[0] + run[2] and dst == run[1] + run[2]:
            run[2] += entry["nbytes"]
        else:
            read(*run)
            run = [entry["offset"], dst, entry["nbytes"]]
    read(*run)

    arenas = {kind: buf[i * total : (i + 1) * total] for i, kind in enumerate(kinds)}

    def views(kind: str, names) -> dict[str, np.ndarray]:
        arena = arenas.get(kind)
        return {n: arena[starts[n] : starts[n] + math.prod(shapes[n])].reshape(shapes[n])
                for n in names}

    optimizer = None
    if o:
        optimizer = {"step_count": o["step_count"], "m": views("m", o["m"]),
                     "v": views("v", o["v"])}
    return arenas, views("data", shapes), optimizer


def model_from_checkpoint(ckpt: Checkpoint) -> JointModel:
    """Build a model in the stored parameters' dtype around the checkpoint's
    arenas, drawing no initialisation.  The first model takes the arenas
    over, so ``ckpt.params`` and the moments become views of its state; a
    later one gets arenas of its own, copied from those views."""
    dtypes = {arr.dtype for arr in ckpt.params.values()}
    if len(dtypes) > 1:
        raise CheckpointFormatError(
            f"{ckpt.path}: parameters mix dtypes {sorted(map(str, dtypes))}"
        )
    dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
    model = JointModel(ckpt.config, rng=None)
    saved = set(ckpt.params)
    expected = set(model.params.names())
    if saved != expected:
        missing = sorted(expected - saved)
        extra = sorted(saved - expected)
        raise CheckpointFormatError(
            f"{ckpt.path}: parameter names disagree with config: "
            f"missing {missing}, extra {extra}"
        )
    arenas, ckpt.arenas = ckpt.arenas, None
    if arenas is None:
        arenas = {"data": np.zeros(sum(a.size for a in ckpt.params.values()), dtype)}
    try:
        model.params.allocate(dtype, arenas)
        model.params.load_state(ckpt.params)  # numpy skips copying a segment onto itself
        if ckpt.optimizer is not None:
            model.params.load_optimizer_state(ckpt.optimizer)
    except ValueError as e:
        raise CheckpointFormatError(f"{ckpt.path}: {e}") from e
    return model
