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
those tensors to its elements in the current arenas, and one permutation
by it, applied to the parameter and moment arenas alike, puts an older
blob in the current order; a version 3 load builds no index.

- ``FORMAT_VERSION`` 2 files have the version 3 layout in every other
  respect, and pass the same length and CRC checks before the
  permutation.
- ``FORMAT_VERSION`` 1 files have no trailer, and a manifest with a
  per-tensor table of names, shapes, dtypes and byte offsets and Adam
  moment lists where later versions hold ``dtype`` and ``optimizer``.
  Every version 1 writer made one table for a config: the tensors in
  sorted-name order, back to back from offset 0 in one dtype, with
  moments of every parameter or of none. That is the version 2 blob
  without its trailer, so the reader builds that table and those lists
  for the file's config, refuses a file whose own differ, and reads the
  blob as it reads version 2, with no checksum to check. There is no
  table reader.

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


def _check(ok: bool, path, where: str, value, expected: str) -> None:
    if not ok:
        raise CheckpointFormatError(f"{path}: {where} is {value!r:.80}, expected {expected}")


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
        if version not in (1, 2, FORMAT_VERSION):
            raise CheckpointVersionError(f"{path}: file format version {version}, "
                                         f"this reader reads versions 1 to {FORMAT_VERSION}")
        return _load_derived(f, path, manifest, head + raw, size, version)


def _load_derived(f, path, manifest: dict, header: bytes, size: int, version: int
                  ) -> Checkpoint:
    """Read the blob after ``header`` (the magic, the manifest length and
    the manifest) in the layout the manifest's config, dtype and optimizer
    entry give, check the file's CRC32 before anything else, and build the
    :class:`Checkpoint` whose ``model`` is built around the buffer read:
    its rows are the model's arenas, ``m``, ``v`` and ``data``, or ``data``
    alone. A version 1 file gives its dtype and optimizer entry through
    :func:`_v1_fields` and has no CRC32 to check. Versions 1 and 2 hold
    the type generator's tensors per slot type, and are restacked once
    read."""
    _require_keys(manifest, ("config", "params" if version == 1 else "dtype", "optimizer"),
                  path, "manifest")
    config = _config_from_manifest(manifest["config"], path)
    model = JointModel(config, rng=None)
    shapes = model.params.shapes()
    index = _per_type_index(shapes, config.n_slot_types) if version != FORMAT_VERSION else None
    if version == 1:
        manifest = {**manifest, **_v1_fields(manifest, path, index)}
    _check(manifest["dtype"] in _DTYPES, path, "manifest key 'dtype'", manifest["dtype"],
           "one of " + ", ".join(_DTYPES))
    dtype = _LE_DTYPES[manifest["dtype"]]
    o = manifest["optimizer"]
    if o is not None:
        _require_keys(o, ("step_count", "moments"), path, "optimizer")
        _check(_is_count(o["step_count"]), path, "optimizer key 'step_count'",
               o["step_count"], "a non-negative integer")
        _check(type(o["moments"]) is bool, path, "optimizer key 'moments'", o["moments"],
               "true or false")
    total = sum(map(math.prod, shapes.values()))
    n_arenas = 3 if o and o["moments"] else 1
    nbytes = n_arenas * total * dtype.itemsize
    trailer = bytearray(_TRAILER if version != 1 else 0)
    end = len(header) + nbytes + len(trailer)
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
    if f.readinto(blob) != len(blob) or f.readinto(trailer) != len(trailer):
        raise CheckpointCorruptError(f"{path}: blob ended while being read")
    if trailer and zlib.crc32(blob, zlib.crc32(header)) != int.from_bytes(trailer, "little"):
        raise CheckpointCorruptError(f"{path}: checksum mismatch, the file is damaged")

    _require_keys(manifest, ("label_maps", "vocab"), path, "manifest")
    _check_labels(manifest, path)
    maps, vocab = _labels_and_vocab(manifest, path)
    _check_sizes(path, config, maps, vocab)
    if index is not None:
        buf = _restack(buf, index)
    model.params.allocate(dtype, dict(zip(("m", "v", "data")[-n_arenas:], buf)))
    model.params.step_count = o["step_count"] if o else 0
    return Checkpoint(config=config, label_maps=maps, vocab=vocab, model=model,
                      metadata=manifest.get("metadata", {}))


def _v1_fields(manifest: dict, path, index: dict[str, np.ndarray]) -> dict:
    """The ``dtype`` and ``optimizer`` entries that describe a version 1
    file's blob, once its per-tensor table and moment lists are those a
    version 1 writer made for its config: the tensors ``index`` names, and
    with moments (as the ``m`` list says) their ``adam.m.`` and ``adam.v.``
    moments, back to back from offset 0 in sorted-name order, in the dtype
    of the table's first entry. That is the version 2 blob without its
    trailer, since every parameter name sorts after ``adam.v.``."""
    table, o = manifest["params"], manifest["optimizer"]
    _check(isinstance(table, list) and len(table) > 0, path, "manifest key 'params'", table,
           "a non-empty list")
    _require_keys(table[0], ("dtype",), path, "params entry 0")
    dtype = table[0]["dtype"]
    _check(dtype in _DTYPES, path, "params entry 0 key 'dtype'", dtype,
           "one of " + ", ".join(_DTYPES))
    names = []
    if o is not None:
        _require_keys(o, ("step_count", "m", "v"), path, "optimizer")
        names = sorted(index) if o["m"] else []
        for kind in "mv":
            _check_written(path, f"optimizer key {kind!r}", o[kind], names)
    made, at = [], 0
    for prefix in ("adam.m.", "adam.v.", "") if names else ("",):
        for name in sorted(index):
            nbytes = index[name].size * _LE_DTYPES[dtype].itemsize
            made.append({"dtype": dtype, "name": prefix + name, "nbytes": nbytes,
                         "offset": at, "shape": list(index[name].shape)})
            at += nbytes
    _check_written(path, "params", table, made)
    return {"dtype": dtype,
            "optimizer": o and {"step_count": o["step_count"], "moments": bool(names)}}


def _check_written(path, where: str, value, made: list) -> None:
    """Refuse ``value``, the list at ``where`` in a version 1 manifest,
    unless it is ``made``, the list a version 1 writer put there, its
    objects' keys in any order. Values compare by ``repr``, so 8.0 and
    true are not 8 and 1. The error names the first entry, and key of an
    object entry, that differs."""
    def differs(at: str, got, want) -> CheckpointFormatError:
        return CheckpointFormatError(
            f"{path}: {at} is {got!r:.80}, a version 1 writer made {want!r:.80}")

    if repr(value) == repr(made):  # a writer's file, keys in its order
        return
    if not isinstance(value, list):
        raise differs(where, value, made)
    for i, (got, want) in enumerate(zip(value, made)):
        at = f"{where} entry {i}"
        if isinstance(want, dict):
            _require_keys(got, tuple(want), path, at)
            for key in want:
                if repr(got[key]) != repr(want[key]):
                    raise differs(f"{at} key {key!r}", got[key], want[key])
            if len(got) > len(want):
                raise differs(f"the key list of {at}", sorted(got), sorted(want))
        elif repr(got) != repr(want):
            raise differs(at, got, want)
    if len(value) > len(made):
        raise differs(f"{where} entry {len(made)}", value[len(made)], "none")
    if len(value) < len(made):
        raise CheckpointFormatError(f"{path}: {where} has {len(value)} entries, "
                                    f"a version 1 writer made {len(made)}")


def _check_sizes(path, config: ModelConfig, maps: LabelMaps, vocab: Vocab) -> None:
    """Refuse a config whose vocab, intent or slot-type count is not that of
    the vocab and label maps stored with it."""
    for key, stored in (("vocab_size", len(vocab)), ("n_intents", maps.n_intents),
                        ("n_slot_types", maps.n_slot_types)):
        if (value := getattr(config, key)) != stored:
            raise CheckpointFormatError(f"{path}: config key {key!r} is {value}, but the "
                                        f"stored vocab and label maps give {stored}")


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


def model_from_checkpoint(ckpt: Checkpoint) -> JointModel:
    """The model :func:`load_checkpoint` built, ``ckpt.model``."""
    return ckpt.model
