"""Seeded fuzz of the error contract, run in-process through ``main()``.

Damaged checkpoints (truncated at seeded offsets, seeded bytes flipped in
the manifest and in the tensor blob) and config files with seeded bad
values must each end in exit 0 or in exactly one categorized stderr line
with exit 1, never in an uncaught exception.
"""

import numpy as np
import pytest

from slotlens.cli import ERROR_CATEGORIES, main

CATEGORIES = {category for _, category in ERROR_CATEGORIES}
TINY_CONFIG = {
    "d": "8", "d-h": "4", "n-layers": "1", "n-heads": "2", "ffn-dim": "12",
    "epochs": "1", "batch-size": "4", "lr": "1e-3", "dropout": "0.1", "max-len": "12",
    "alpha": "1.0", "beta": "1.0", "gamma": "1.0", "seed": "3",
}
# values a hand-edited file may hold, most of them numbers that parse; none
# asks for much memory or time
BAD_VALUES = ["-1", "0", "-0", "2", "1.5", "1e-3", "nan", "inf", "-inf", "1e400",
              "-1", "0", "2", "", "abc", "true", "0x10", "3 4"]
# bytes that keep a manifest valid UTF-8 and often valid JSON
JSON_BYTES = b'0123456789-.e",:[]{} aZ'
READERS = ("eval", "analyze", "explain")


@pytest.fixture(scope="module")
def setting(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root / "train"), "--n", "12", "--seed", "0"]) == 0
    assert main(["synth", "--out", str(root / "test"), "--n", "4", "--seed", "1"]) == 0
    assert main(["train", "--train", str(root / "train"), "--out", str(root / "run"),
                 "--d", "8", "--d-h", "4", "--n-layers", "1", "--n-heads", "2",
                 "--ffn-dim", "12", "--epochs", "1", "--batch-size", "4",
                 "--save-optimizer"]) == 0
    data = (root / "run" / "checkpoint.ckpt").read_bytes()
    return root, data


def assert_contract(rc, captured, categories=CATEGORIES):
    if rc == 0:
        assert captured.err == ""
        return
    assert rc == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n"), captured.err
    assert lines[0].split(":", 1)[0] in categories, lines[0]


def read_with(root, path, case):
    """Run one of the checkpoint readers on ``path``, chosen by case number."""
    command = READERS[case % len(READERS)]
    if command == "explain":
        return main(["explain", "--checkpoint", str(path), "--text", "fly to boston",
                     "--out", str(root / "explain")])
    return main([command, "--checkpoint", str(path), "--data", str(root / "test")])


def damaged(data, kind, case):
    """``data`` truncated at a seeded offset, or with one to three seeded
    bytes replaced in its manifest-length field, manifest or blob."""
    rng = np.random.default_rng([case, len(kind)])
    n = int.from_bytes(data[8:12], "little")
    if kind == "truncate":
        return data[: int(rng.integers(0, len(data)))]
    lo, hi = {"length": (8, 12), "manifest": (12, 12 + n), "blob": (12 + n, len(data))}[kind]
    out = bytearray(data)
    for i in rng.integers(lo, hi, size=int(rng.integers(1, 4))):
        if kind == "manifest" and case % 4:
            out[i] = JSON_BYTES[int(rng.integers(len(JSON_BYTES)))]
        else:
            out[i] ^= int(rng.integers(1, 256))
    return bytes(out)


@pytest.mark.parametrize("case", range(12))
@pytest.mark.parametrize("kind", ["truncate", "length", "manifest", "blob"])
def test_damaged_checkpoint_fails_in_one_line(setting, capsys, kind, case):
    root, data = setting
    path = root / f"{kind}-{case}.ckpt"
    path.write_bytes(damaged(data, kind, case))
    capsys.readouterr()
    rc = read_with(root, path, case)
    assert_contract(rc, capsys.readouterr(), {"checkpoint error"})


@pytest.mark.parametrize("case", range(24))
def test_bad_config_value_fails_in_one_line(setting, capsys, case):
    root, _ = setting
    rng = np.random.default_rng(case)
    values = dict(TINY_CONFIG)
    for key in rng.choice(sorted(values), size=1 + (case % 4 == 0), replace=False):
        values[str(key)] = BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
    cfg = root / f"config-{case}.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    capsys.readouterr()
    rc = main(["train", "--train", str(root / "train"), "--out", str(root / f"r{case}"),
               "--config", str(cfg)])
    assert_contract(rc, capsys.readouterr())
