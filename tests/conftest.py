"""Shared test helpers: a hand-built parameter set, and for checkpoint
files the committed fixtures, the per-type names older fixtures store,
and a manifest editor. Test modules import them as
``from conftest import ...``."""

import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from slotlens.optim import ParamSet

DATA = Path(__file__).parent / "data"
V1_FIXTURE = DATA / "v1_tiny_with_optimizer.ckpt"
V2_FIXTURE = DATA / "v2_tiny_with_optimizer.ckpt"
V3_FIXTURE = DATA / "v3_tiny_with_optimizer.ckpt"
V3_RECIPE = DATA / "v3_recipe.ckpt"


def param_set(arrays: dict, dtype=np.float64) -> ParamSet:
    """A parameter set declaring each of ``arrays`` (name -> value), in
    order, and allocated once in ``dtype``."""
    params = ParamSet()
    for name, value in arrays.items():
        params.declare(name, np.shape(value), value)
    params.allocate(dtype)
    return params


def per_type(state, config):
    """``state`` (name -> array) with the stacked type generator parameters
    cut into the eight tensors per slot type that format versions 1 and 2
    stored: ``type_gen.t{i}.{q,k,v}.{w,b}`` is column block i of
    ``type_gen.{q,k,v}.*``, and ``type_gen.t{i}.head.{w,b}`` is entry i of
    ``type_gen.head.*``."""
    d_h, out = config.d_h, {}
    for name, arr in state.items():
        if not name.startswith("type_gen."):
            out[name] = arr
            continue
        _, p, kind = name.split(".")
        for i in range(config.n_slot_types):
            part = (arr[i] if kind == "w" else arr[i : i + 1]) if p == "head" \
                else arr[..., i * d_h : (i + 1) * d_h]
            out[f"type_gen.t{i}.{p}.{kind}"] = part
    return out


def rewrite_manifest(path, edit, restamp: bool = True):
    """Apply ``edit`` to the manifest of the checkpoint at ``path`` in place.

    A version 2 or 3 file keeps its blob and gets a CRC32 trailer
    computed over the edited bytes, so the loader rejects the edited field
    and not the checksum; with ``restamp`` false it keeps the trailer it
    had. A version 1 file has no trailer."""
    path = Path(path)
    data = path.read_bytes()
    n = int.from_bytes(data[8:12], "little")
    manifest = json.loads(data[12 : 12 + n])
    trailed = manifest["format_version"] != 1
    blob = data[12 + n : len(data) - 4 if trailed else len(data)]
    edit(manifest)
    enc = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    body = data[:8] + len(enc).to_bytes(4, "little") + enc + blob
    if trailed:
        body += zlib.crc32(body).to_bytes(4, "little") if restamp else data[-4:]
    path.write_bytes(body)
    return path


def table_edit(edit):
    """Mark a manifest edit of what only version 1 files hold (the
    per-tensor table, the moment name lists): it is made to a copy of the
    version 1 fixture."""
    edit.v1_only = True
    return edit


def edited_copy(path, v1_path, edit):
    """``edit`` applied to ``v1_path`` if it is a :func:`table_edit`, else
    to ``path``; the edited path."""
    return rewrite_manifest(v1_path if getattr(edit, "v1_only", False) else path, edit)


@pytest.fixture
def v1_copy(tmp_path):
    """A copy of the version 1 fixture that a test may edit."""
    return Path(shutil.copy(V1_FIXTURE, tmp_path / "v1.ckpt"))
