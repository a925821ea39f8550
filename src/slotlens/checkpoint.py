"""Single-file checkpoint format.

Layout (``FORMAT_VERSION`` 3): an 8-byte magic, a little-endian uint32
manifest length, a JSON manifest (sorted keys), a raw little-endian tensor
blob, and a little-endian uint32 CRC32 (``zlib.crc32``) of every byte
before it. The manifest holds the model config, the label inventories,
the vocab, the metadata, the parameters' one dtype, and the optimizer
entry: null, or the Adam step count and whether moments are stored. It
has no per-tensor table: the blob is a parameter set's arenas back to
back (Adam ``m``, Adam ``v``, parameters), each laid out as
:func:`~slotlens.optim.arena_layout` lays out the parameters the config
declares, so names, shapes and offsets follow from the config. The type
generator is stored as its stacked parameters (``type_gen.{q,k,v}.{w,b}``
and ``type_gen.head.{w,b}``, the slot types side by side). The same
model state always serializes to the same bytes, so determinism can be
asserted on files.

The writer rewrites an existing file in place and writes the magic last,
so a save cut short leaves zeros where the magic goes. The reader
declares the config's parameters once, checks the file length against
their layout, reads the blob in one call straight into one buffer whose
rows are the arenas of that layout, and checks the CRC before it trusts
the label maps, vocab or tensors. The checkpoint carries its model,
built around that buffer; load again for an independent model.

Older files held the type generator as eight tensors per slot type
(``type_gen.t{i}.*``). An index derived from the config maps each of
those tensors to its elements in the current arenas; a version 3 load
builds none.

- ``FORMAT_VERSION`` 2 files have the version 3 layout in every other
  respect. They pass the same length and CRC checks, then one index
  permutation, applied to the parameter and moment arenas alike, puts
  them in the current order.
- ``FORMAT_VERSION`` 1 files (no trailer, and a per-tensor table of
  names, shapes, dtypes and byte offsets into the blob) are read by the
  table reader, including tables that list only some moments. The table
  must name exactly the tensors the config gives, in their shapes; each
  entry is then copied from its offset straight into place.

A re-save writes version 3.
"""

from __future__ import annotations

import functools
import json
import math
import os
import weakref
import zlib
from dataclasses import MISSING, asdict, dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import PAD_TOKEN, UNK_TOKEN, LabelMaps, Vocab, rewrite_file
from .model import JointModel, ModelConfig
from .optim import arena_layout

MAGIC = b"SLOTLENS"
FORMAT_VERSION = 3
_TRAILER = 4  # bytes of the CRC32 after the blob


class CheckpointFormatError(ValueError):
    """Not a checkpoint file, or manifest/blob structure is inconsistent."""


class CheckpointCorruptError(ValueError):
    """Checkpoint recognized but truncated, out of bounds, or failing its
    checksum."""


class CheckpointVersionError(ValueError):
    """Format version this code neither writes nor reads."""


@dataclass
class Checkpoint:
    """A read checkpoint. ``model`` is built in the stored dtype around the
    buffer the reader filled: its parameter arena and, with stored
    moments, its Adam ``m`` and ``v`` arenas are that buffer's rows, and
    its step count is the stored one."""

    config: ModelConfig
    label_maps: LabelMaps
    vocab: Vocab
    model: JointModel
    metadata: dict
    path: str | Path


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
    arenas, then the parameter arena. A CRC32 of the magic and everything
    after it follows the blob. An existing file is rewritten in place with
    the magic written last (see :func:`~slotlens.data.rewrite_file`), so a
    save cut short leaves a file that :func:`load_checkpoint` rejects.
    A config that does not size ``vocab`` and ``maps`` is refused before
    the file is touched, since the load would refuse it.
    """
    _check_sizes(path, model.config, maps, vocab)
    params = model.params
    moments = include_optimizer and params.m is not None
    arenas = [params.m, params.v, params.data] if moments else [params.data]
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "label_maps": {
            "intents": maps.intents,
            "slot_types": maps.slot_types,
            "bio_labels": maps.bio_labels,
        },
        "vocab": vocab.id_to_token,
        "dtype": str(params.dtype),
        "optimizer": ({"step_count": params.step_count, "moments": moments}
                      if include_optimizer else None),
        "metadata": metadata or {},
    }
    encoded = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [len(encoded).to_bytes(4, "little"), encoded,
              *(arena.astype(arena.dtype.newbyteorder("<"), copy=False) for arena in arenas)]
    crc = zlib.crc32(MAGIC)
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return rewrite_file(path, [*chunks, crc.to_bytes(_TRAILER, "little")], head=MAGIC)


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


def _check_table(manifest, path, blob_len: int) -> None:
    """Check a version 1 manifest's per-tensor table and optimizer entry,
    naming the first bad key: that every tensor lies in the ``blob_len``
    bytes of the blob and has the byte count its shape and dtype take,
    and that every moment the optimizer lists is stored."""
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
    _check_labels(manifest, path)
    optimizer = manifest.get("optimizer")
    if optimizer:
        _require_keys(optimizer, ("step_count", "m", "v"), path, "optimizer")
        _check_step_count(optimizer, path)
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


def _check_step_count(optimizer: dict, path) -> None:
    _check(_is_count(optimizer["step_count"]), path, "optimizer key 'step_count'",
           optimizer["step_count"], "a non-negative integer")


def _check_labels(manifest, path) -> None:
    """Check the label inventories and the vocab, naming the first bad key."""
    lm = manifest["label_maps"]
    _require_keys(lm, _LABEL_KEYS, path, "label_maps")
    for key in _LABEL_KEYS:
        _check(_is_str_list(lm[key]), path, f"label_maps key {key!r}", lm[key],
               "a list of strings")
    vocab = manifest["vocab"]
    _check(_is_str_list(vocab), path, "manifest key 'vocab'", vocab, "a list of strings")
    _check(vocab[:2] == [PAD_TOKEN, UNK_TOKEN], path, "the start of manifest key 'vocab'",
           vocab[:2], repr([PAD_TOKEN, UNK_TOKEN]))


def _labels_and_vocab(manifest: dict, path) -> tuple[LabelMaps, Vocab]:
    try:
        maps = LabelMaps(**{key: manifest["label_maps"][key] for key in _LABEL_KEYS})
        vocab = Vocab(manifest["vocab"][2:])  # constructor re-adds pad/unk
    except ValueError as e:
        raise CheckpointFormatError(f"{path}: invalid label maps or vocab: {e}") from e
    return maps, vocab


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and validate a checkpoint, and build its model around the
    arenas read; every tensor round-trips bit-exactly."""
    with open(path, "rb") as f:
        head = f.read(len(MAGIC) + 4)
        if len(head) < len(MAGIC) + 4 or head[: len(MAGIC)] != MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint file")
        manifest_len = int.from_bytes(head[len(MAGIC) :], "little")
        size = os.fstat(f.fileno()).st_size
        # checked before reading, so a damaged length asks for no large buffer
        if manifest_len > size - len(head):
            raise CheckpointCorruptError(f"{path}: manifest truncated")
        raw = f.read(manifest_len)
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointFormatError(f"{path}: unreadable manifest: {e}") from e
        if not isinstance(manifest, dict):
            raise CheckpointFormatError(f"{path}: manifest is not a JSON object")

        version = manifest.get("format_version")
        if version == 1:
            return _load_table(f, path, manifest, len(head) + manifest_len, size)
        if version not in (2, FORMAT_VERSION):
            raise CheckpointVersionError(f"{path}: file format version {version}, "
                                         f"this reader reads versions 1 to {FORMAT_VERSION}")
        return _load_derived(f, path, manifest, head + raw, size, per_type=version == 2)


def _load_derived(f, path, manifest: dict, header: bytes, size: int,
                  per_type: bool) -> Checkpoint:
    """Read the blob after ``header`` (the magic, the manifest length and
    the manifest) in the layout the manifest's config, dtype and optimizer
    entry give, and check the file's CRC32 before anything else. A
    ``per_type`` (version 2) blob holds the type generator's tensors per
    slot type, and is restacked once it has passed the check."""
    _require_keys(manifest, ("config", "dtype", "optimizer"), path, "manifest")
    config = _config_from_manifest(manifest["config"], path)
    _check(manifest["dtype"] in _DTYPES, path, "manifest key 'dtype'", manifest["dtype"],
           "one of " + ", ".join(_DTYPES))
    dtype = _LE_DTYPES[manifest["dtype"]]
    o = manifest["optimizer"]
    if o is not None:
        _require_keys(o, ("step_count", "moments"), path, "optimizer")
        _check_step_count(o, path)
        _check(type(o["moments"]) is bool, path, "optimizer key 'moments'", o["moments"],
               "true or false")
    model = JointModel(config, rng=None)
    shapes = model.params.shapes()
    total = sum(map(math.prod, shapes.values()))
    n_arenas = 3 if o and o["moments"] else 1
    nbytes = n_arenas * total * dtype.itemsize
    end = len(header) + nbytes + _TRAILER
    if size != end:
        where = "extends past end of file" if size < end else "is followed by extra bytes"
        raise CheckpointCorruptError(f"{path}: tensor data {where}: the file has {size} "
                                     f"bytes, its manifest's layout takes {end}")
    # in the memory of the last buffer read into and let go: the heap hands
    # freed memory back to the system, and faulting it in again cost loads
    # up to a third more, on some heap layouts and not others
    buf = np.ndarray((n_arenas, total), dtype, _spare.pop(nbytes, None) or bytearray(nbytes))
    weakref.finalize(buf, _keep, buf.base)
    blob = memoryview(buf).cast("B")
    trailer = bytearray(_TRAILER)
    if f.readinto(blob) != len(blob) or f.readinto(trailer) != _TRAILER:
        raise CheckpointCorruptError(f"{path}: blob ended while being read")
    if zlib.crc32(blob, zlib.crc32(header)) != int.from_bytes(trailer, "little"):
        raise CheckpointCorruptError(f"{path}: checksum mismatch, the file is damaged")

    _require_keys(manifest, ("label_maps", "vocab"), path, "manifest")
    _check_labels(manifest, path)
    maps, vocab = _labels_and_vocab(manifest, path)
    if per_type:
        buf = _restack(buf, _per_type_index(shapes, config.n_slot_types))
    return _checkpoint(path, manifest, model, maps, vocab, buf, o and o["step_count"])


def _check_sizes(path, config: ModelConfig, maps: LabelMaps, vocab: Vocab) -> None:
    """Refuse a config whose vocab, intent or slot-type count is not that of
    the vocab and label maps stored with it."""
    for key, stored in (("vocab_size", len(vocab)), ("n_intents", maps.n_intents),
                        ("n_slot_types", maps.n_slot_types)):
        if (value := getattr(config, key)) != stored:
            raise CheckpointFormatError(f"{path}: config key {key!r} is {value}, but the "
                                        f"stored vocab and label maps give {stored}")


def _checkpoint(path, manifest: dict, model: JointModel, maps, vocab, buf: np.ndarray,
                step_count: int | None) -> Checkpoint:
    """The :class:`Checkpoint` whose ``model``, declared but not allocated,
    is built around ``buf``: its rows are the model's arenas, ``m``, ``v``
    and ``data``, or ``data`` alone."""
    _check_sizes(path, model.config, maps, vocab)
    arenas = dict(zip(("m", "v", "data") if len(buf) == 3 else ("data",), buf))
    model.params.allocate(buf.dtype, arenas)
    model.params.step_count = step_count or 0
    return Checkpoint(
        config=model.config,
        label_maps=maps,
        vocab=vocab,
        model=model,
        metadata=manifest.get("metadata", {}),
        path=path,
    )


def _per_type_index(shapes: dict[str, tuple[int, ...]], n_types: int) -> dict[str, np.ndarray]:
    """Every tensor that versions 1 and 2 stored, as the indices of its
    elements in an arena of the parameters ``shapes`` lists, in its stored
    shape. Those versions held the type generator as eight tensors per
    slot type: ``type_gen.t{i}.{q,k,v}.{w,b}``, column block i of
    ``type_gen.{q,k,v}.*``, and ``type_gen.t{i}.head.{w,b}``, entry i of
    ``type_gen.head.*``."""
    starts, _ = arena_layout(shapes)
    index = {}
    for name, shape in shapes.items():
        seg = np.arange(starts[name], starts[name] + math.prod(shape)).reshape(shape)
        if not name.startswith("type_gen."):
            index[name] = seg
            continue
        _, p, kind = name.split(".")
        parts = list(seg) if name == "type_gen.head.w" else np.split(seg, n_types, axis=-1)
        index.update((f"type_gen.t{i}.{p}.{kind}", part) for i, part in enumerate(parts))
    return index


_spare: dict[int, bytearray] = {}  # the last read buffer's memory, by size


def _keep(raw: bytearray) -> None:
    _spare.clear()
    _spare[len(raw)] = raw


def _restack(buf: np.ndarray, index: dict[str, np.ndarray]) -> np.ndarray:
    """``buf``'s rows, arenas laid out as version 2 stored them (the tensors
    ``index`` names, back to back in sorted-name order), in the current
    layout: one index permutation for every arena."""
    out = np.empty_like(buf)
    out[:, np.concatenate([index[n].ravel() for n in sorted(index)])] = buf
    return out


def _load_table(f, path, manifest: dict, blob_start: int, size: int) -> Checkpoint:
    """Read a version 1 file, whose manifest addresses every tensor through
    its per-tensor table. The table must name, in one dtype, the tensors
    the config gives in their shapes and moments of them; each is copied
    from its offset straight to its place in the current arenas, and
    moments the table leaves out stay zero."""
    _check_table(manifest, path, size - blob_start)
    config = _config_from_manifest(manifest["config"], path)
    maps, vocab = _labels_and_vocab(manifest, path)
    entries = manifest["params"]
    names = {e["name"] for e in entries}
    if len(names) < len(entries):
        raise CheckpointFormatError(f"{path}: manifest key 'params' repeats a tensor name")
    dtypes = sorted({e["dtype"] for e in entries})
    if len(dtypes) > 1:
        raise CheckpointFormatError(f"{path}: tensors mix dtypes {dtypes}")
    o = manifest.get("optimizer") or None
    moments = {f"adam.{kind}.{n}": (kind, n) for kind in "mv" for n in o[kind]} if o else {}
    model = JointModel(config, rng=None)
    index = _per_type_index(model.params.shapes(), config.n_slot_types)
    params = names - moments.keys()
    if params != index.keys():
        raise CheckpointFormatError(
            f"{path}: parameter names disagree with config: missing "
            f"{sorted(index.keys() - params)}, extra {sorted(params - index.keys())}"
        )
    kinds = ("m", "v", "data") if moments else ("data",)
    dtype = _LE_DTYPES[dtypes[0]]
    buf = np.zeros((len(kinds), sum(i.size for i in index.values())), dtype)
    blob = f.read(size - blob_start)
    if len(blob) != size - blob_start:
        raise CheckpointCorruptError(f"{path}: blob ended while being read")
    for entry in entries:
        kind, name = moments.get(entry["name"], ("data", entry["name"]))
        shape, want = tuple(entry["shape"]), getattr(index.get(name), "shape", "not stored")
        if shape != want:
            raise CheckpointFormatError(
                f"{path}: tensor {entry['name']!r} has shape {shape}, "
                + (f"its config gives {want}" if kind == "data"
                   else f"but parameter {name!r} is {want}"))
        buf[kinds.index(kind), index[name]] = np.frombuffer(
            blob, dtype, math.prod(shape), entry["offset"]).reshape(shape)
    return _checkpoint(path, manifest, model, maps, vocab, buf, o and o["step_count"])


def model_from_checkpoint(ckpt: Checkpoint) -> JointModel:
    """The model :func:`load_checkpoint` built, ``ckpt.model``."""
    return ckpt.model
