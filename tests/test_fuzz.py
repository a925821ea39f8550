"""Seeded fuzz of the error contract, run in-process through ``main()``.

Damaged checkpoints (truncated at seeded offsets, seeded bytes flipped in
the length field, the manifest and the tensor blob), fresh ones and the
committed version 2 fixture alike, must end in exit 1 and exactly one
``checkpoint error:`` line. A damaged version 1 file, which
carries no checksum, one whose per-tensor table has a seeded edit, and
config files with seeded bad values must each end
in exit 0 or in exactly one categorized stderr line with exit 1, and so
must ``train`` with each numeric flag at a value from ``FLAG_VALUES``.
Corpus files with a seeded defect must end in exit 1 and exactly one
``data error:`` line. None may end in an uncaught exception.

Random and hand-picked arrays of BIO label ids, padded, must read the same
slot spans through ``span_keys`` as through ``extract_spans`` per row.
"""

import math
import warnings
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from conftest import V1_FIXTURE, V2_FIXTURE, rewrite_manifest

from slotlens import optim
from slotlens.cli import ERROR_CATEGORIES, main
from slotlens.data import (
    INTENT_FILE, TAGS_FILE, TOKENS_FILE, LabelMaps, Utterance, Vocab, encode_batch,
    extract_spans, span_f1, span_keys,
)
from slotlens.train import RunConfig

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
TINY_FLAGS = ["--d", "8", "--d-h", "4", "--n-layers", "1", "--n-heads", "2",
              "--ffn-dim", "12", "--epochs", "1", "--batch-size", "4"]


@pytest.fixture(scope="module")
def setting(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root / "train"), "--n", "12", "--seed", "0"]) == 0
    assert main(["synth", "--out", str(root / "test"), "--n", "4", "--seed", "1"]) == 0
    assert main(["train", "--train", str(root / "train"), "--out", str(root / "run"),
                 *TINY_FLAGS, "--save-optimizer"]) == 0
    data = (root / "run" / "checkpoint.ckpt").read_bytes()
    return root, data


def assert_contract(rc, captured, categories=CATEGORIES):
    if rc == 0:
        assert captured.err == ""
        return
    assert_one_line(rc, captured, categories)


def assert_one_line(rc, captured, categories):
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
    assert path.read_bytes() != data
    capsys.readouterr()
    rc = read_with(root, path, case)
    assert_one_line(rc, capsys.readouterr(), {"checkpoint error"})


@pytest.mark.parametrize("case", range(12))
@pytest.mark.parametrize("kind", ["truncate", "length", "manifest", "blob"])
def test_damaged_v2_checkpoint_fails_in_one_line(setting, capsys, kind, case):
    """A version 2 file loads through the per-type permutation, but only
    after the same length and checksum checks."""
    root, _ = setting
    data = V2_FIXTURE.read_bytes()
    path = root / f"v2-{kind}-{case}.ckpt"
    path.write_bytes(damaged(data, kind, case))
    assert path.read_bytes() != data
    capsys.readouterr()
    rc = read_with(root, path, case)
    assert_one_line(rc, capsys.readouterr(), {"checkpoint error"})


@pytest.mark.parametrize("case", range(12))
@pytest.mark.parametrize("kind", ["truncate", "length", "manifest", "blob"])
def test_damaged_v1_checkpoint_keeps_the_contract(setting, capsys, kind, case):
    """A version 1 file has no checksum: a flipped blob byte still loads."""
    root, _ = setting
    path = root / f"v1-{kind}-{case}.ckpt"
    path.write_bytes(damaged(V1_FIXTURE.read_bytes(), kind, case))
    capsys.readouterr()
    rc = read_with(root, path, case)
    assert_contract(rc, capsys.readouterr(), {"checkpoint error"})


def edit_table(manifest, kind, case):
    """One seeded edit of a version 1 manifest's per-tensor table: an entry
    dropped, renamed or duplicated; its shape, offset, byte count or dtype
    changed; or a moment's name moved between the optimizer's ``m`` and
    ``v`` lists. Some edits keep the table consistent on its own terms
    (a reshape that keeps the byte count, two entries that swap offsets or
    names, a moment renamed with its listing), so they reach the checks
    against the config, or load."""
    rng = np.random.default_rng([case, len(kind), 2])
    pick = lambda seq: seq[int(rng.integers(len(seq)))]  # noqa: E731
    entries, optimizer = manifest["params"], manifest["optimizer"]
    entry = pick(entries)
    same_size = [e for e in entries if e["nbytes"] == entry["nbytes"] and e is not entry]
    variant = case % 3
    if kind == "drop":
        entries.remove(entry)
    elif kind == "rename" and variant == 0 and same_size:
        other = pick(same_size)
        entry["name"], other["name"] = other["name"], entry["name"]
    elif kind == "rename" and variant == 1:  # a moment and its listing, to no parameter
        moment = pick([e for e in entries if e["name"].startswith("adam.")])
        _, k, name = moment["name"].split(".", 2)
        optimizer[k][optimizer[k].index(name)] = name + ".x"
        moment["name"] += ".x"
    elif kind == "rename":
        names = [e["name"] for e in entries] + [
            "no.such", "adam.m.no.such", "adam.v." + entry["name"].removeprefix("adam.m.")]
        entry["name"] = pick([n for n in names if n != entry["name"]])
    elif kind == "duplicate":
        entries.append({**entry, "name": entry["name"] if variant else entry["name"] + ".x"})
    elif kind == "shape":
        n, shape = math.prod(entry["shape"]), entry["shape"]
        shapes = [shape[::-1]] if variant == 0 else [[n], [1, n], [n + 1], shape + [1], []]
        entry["shape"] = pick([s for s in shapes if s != shape] or [[n + 1]])
    elif kind == "offset" and variant == 0 and same_size:
        other = pick(same_size)
        entry["offset"], other["offset"] = other["offset"], entry["offset"]
    elif kind == "offset":
        entry["offset"] += int(rng.integers(-12, 13)) or 1
    elif kind == "nbytes":
        entry["nbytes"] += pick([-4, -1, 1, 4, entry["nbytes"]])
    elif kind == "dtype":
        entry["dtype"] = pick(["float16", "float64", "int32"])
    else:  # move
        src, dst = pick([("m", "v"), ("v", "m")])
        name = optimizer[src].pop(int(rng.integers(len(optimizer[src]))))
        if variant == 1:
            optimizer[dst].append(name)
        elif variant == 2:  # its stored moment too, onto the other kind's name
            next(e for e in entries if e["name"] == f"adam.{src}.{name}")["name"] = \
                f"adam.{dst}.{name}"


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("kind", ["drop", "rename", "duplicate", "shape", "offset",
                                  "nbytes", "dtype", "move"])
def test_edited_v1_table_keeps_the_contract(setting, capsys, kind, case):
    """A version 1 table edited so that it may still parse, but may name,
    place or size its tensors wrongly: each ends in a load or one
    ``checkpoint error:`` line."""
    root, _ = setting
    path = root / f"v1-table-{kind}-{case}.ckpt"
    path.write_bytes(V1_FIXTURE.read_bytes())
    rewrite_manifest(path, lambda m: edit_table(m, kind, case))
    assert path.read_bytes() != V1_FIXTURE.read_bytes()
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


NUMERIC_FIELDS = [f.name for f in fields(RunConfig)
                  if get_type_hints(RunConfig)[f.name] in (int, float)]
# every size these give is tiny or fails to parse as an int, so no case
# asks numpy for a large array; refusals are tested by SIZE_FIELDS below
FLAG_VALUES = ["0", "-1", "nan", "inf", "1e30"]


def train_with(root, out, *flags):
    """``train`` on the tiny corpus with ``flags`` last. A warning raises,
    as pytest would otherwise keep one off stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["train", "--train", str(root / "train"), "--out", str(out),
                     *TINY_FLAGS, *flags])


@pytest.mark.parametrize("value", FLAG_VALUES)
@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_numeric_flag_keeps_the_contract(setting, capsys, tmp_path, name, value):
    """A usage error names the flag or the field it sets."""
    root, _ = setting
    flag = "--" + name.replace("_", "-")
    capsys.readouterr()
    rc = train_with(root, tmp_path / "run", flag, value)
    captured = capsys.readouterr()
    assert_contract(rc, captured)
    if captured.err.startswith("usage error:"):
        assert flag in captured.err or name in captured.err, captured.err


@pytest.mark.parametrize("case", range(12))
def test_numeric_flag_pair_keeps_the_contract(setting, capsys, tmp_path, case):
    root, _ = setting
    rng = np.random.default_rng([case, 2])
    flags = []
    for name in rng.choice(NUMERIC_FIELDS, size=2, replace=False):
        flags += ["--" + str(name).replace("_", "-"),
                  FLAG_VALUES[int(rng.integers(len(FLAG_VALUES)))]]
    capsys.readouterr()
    rc = train_with(root, tmp_path / "run", *flags)
    assert_contract(rc, capsys.readouterr())


SIZE_FIELDS = ["d", "d_h", "ffn_dim"]


@pytest.mark.parametrize("name", SIZE_FIELDS)
def test_refused_size_is_one_memory_error_line(setting, capsys, tmp_path, monkeypatch,
                                               name):
    """A size whose arenas numpy would refuse (tens of terabytes at
    10**12) ends in one ``memory error:`` line. The refusal is simulated,
    so nothing large is allocated."""
    root, _ = setting

    def refuse(self, *args, **kwargs):
        raise MemoryError("Unable to allocate the parameter arenas")

    monkeypatch.setattr(optim.ParamSet, "allocate", refuse)
    capsys.readouterr()
    rc = train_with(root, tmp_path / "run", "--" + name.replace("_", "-"), str(10**12))
    assert_one_line(rc, capsys.readouterr(), {"memory error"})


CORPUS_FILES = (TOKENS_FILE, TAGS_FILE, INTENT_FILE)
INVALID_UTF8 = b"\x80\xbf\xc0\xc1\xf5\xff"  # each one makes ASCII text invalid UTF-8


def damaged_corpus(src, dst, kind, case):
    """The corpus at ``src`` written to ``dst`` with one seeded defect:
    the last line of the tokens or tags file cut short after a token, a
    tags line cut inside its last tag (``B-city`` -> ``B-``), a line
    dropped from one file, an ``I-x`` with no open ``x`` span, an unknown
    intent or tag, or a byte that is not UTF-8."""
    rng = np.random.default_rng([case, len(kind), 1])
    lines = {name: (src / name).read_text().splitlines() for name in CORPUS_FILES}
    ends = dict.fromkeys(CORPUS_FILES, "\n")
    line = int(rng.integers(len(lines[INTENT_FILE])))
    tags = lines[TAGS_FILE][line].split()
    at = int(rng.integers(len(tags)))
    name = CORPUS_FILES[int(rng.integers(3))]
    if kind == "truncate":
        name = CORPUS_FILES[int(rng.integers(2))]
        words = lines[name][-1].split()
        lines[name][-1] = " ".join(words[: int(rng.integers(len(words)))])
        ends[name] = ""
    elif kind == "cut-tag":
        ending = [i for i, row in enumerate(lines[TAGS_FILE]) if row.split()[-1] != "O"]
        line = ending[int(rng.integers(len(ending)))]
        tags = lines[TAGS_FILE][line].split()
        tags[-1] = tags[-1][:2]
        lines[TAGS_FILE][line] = " ".join(tags)
    elif kind == "drop":
        del lines[name][line]
    elif kind == "open-span":
        before = tags[at - 1][2:] if at else ""
        types = sorted({t[2:] for row in lines[TAGS_FILE] for t in row.split()} - {"", before})
        tags[at] = "I-" + types[int(rng.integers(len(types)))]
        lines[TAGS_FILE][line] = " ".join(tags)
    elif kind == "unknown-label" and case % 2:
        lines[INTENT_FILE][line] = "no_such_intent"
    elif kind == "unknown-label":
        tags[at] = "B-no_such_type"
        lines[TAGS_FILE][line] = " ".join(tags)
    dst.mkdir(parents=True)
    for file, rows in lines.items():
        raw = ("\n".join(rows) + ends[file]).encode()
        if kind == "non-utf8" and file == name:
            cut = int(rng.integers(len(raw) + 1))
            raw = raw[:cut] + bytes([rng.choice(list(INVALID_UTF8))]) + raw[cut:]
        (dst / file).write_bytes(raw)
    return dst


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("kind", ["truncate", "cut-tag", "drop", "open-span",
                                  "unknown-label", "non-utf8"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_damaged_corpus_fails_in_one_line(setting, capsys, tmp_path, command, kind, case):
    """``eval`` reads the damaged corpus as its data. ``train`` reads it as
    its training corpus, except that an unknown label needs a corpus whose
    labels are known: there it is the test corpus."""
    root, _ = setting
    bad = str(damaged_corpus(root / ("train" if command == "train" else "test"),
                             tmp_path / "bad", kind, case))
    capsys.readouterr()
    if command == "eval":
        rc = main(["eval", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                   "--data", bad])
    else:
        train, test = (str(root / "train"), bad) if kind == "unknown-label" else (bad, None)
        rc = main(["train", "--train", train, *(["--test", test] if test else []),
                   "--out", str(tmp_path / "run"), *TINY_FLAGS])
    assert_one_line(rc, capsys.readouterr(), {"data error"})


# label inventories in an order where "O" is neither first nor last, so no
# reading may assume a position for it
SPAN_MAPS = LabelMaps(intents=["ask"], slot_types=["city", "O", "day"],
                      bio_labels=["I-day", "B-city", "O", "I-city", "B-day"])


def span_counts(gold_ids, pred_ids):
    """(gold spans, predicted spans, matches, P/R/F1) read by ``span_keys``
    and by the oracle, ``extract_spans`` of each row's unpadded labels."""
    def rows(ids):
        return [extract_spans([SPAN_MAPS.bio_labels[j] for j in row if j >= 0]) for row in ids]

    gold, pred = rows(gold_ids), rows(pred_ids)
    oracle = (sum(map(len, gold)), sum(map(len, pred)),
              sum(len(g & p) for g, p in zip(gold, pred)), span_f1(gold, pred))
    g, p = span_keys(gold_ids, SPAN_MAPS), span_keys(pred_ids, SPAN_MAPS)
    return (len(g), len(p), len(g & p), span_f1([g], [p])), oracle


@pytest.mark.parametrize("case", range(40))
def test_span_keys_match_extract_spans_on_random_label_ids(case):
    """Random, mostly invalid, label ids with padded row ends (some rows
    all pad) count the same spans and matches as the oracle."""
    rng = np.random.default_rng([case, 27])
    for _ in range(50):
        n, width = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        lengths = rng.integers(0, width + 1, n)
        pad = np.arange(width) >= lengths[:, None]
        gold, pred = (np.where(pad, -1, rng.integers(0, SPAN_MAPS.n_bio_labels, (n, width)))
                      for _ in range(2))
        read, oracle = span_counts(gold, pred)
        assert read == oracle


@pytest.mark.parametrize("gold,pred", [
    ("O I-city I-city", "B-city I-city O"),             # I-x after O opens a span
    ("B-city I-city I-city", "B-city I-day I-city"),    # I-y inside an x run
    ("B-city I-city O", "B-city B-city O"),             # B-x after B-x
    ("B-day B-day B-day", "B-day I-day B-day"),
    ("O O B-city", "O O I-city"),                       # spans ending a row
    ("I-day O O", "B-day O O"),                         # spans starting a row
    ("B-city I-city pad", "B-city I-city pad"),         # pad ends a span
    ("B-city pad pad", "I-city pad pad"),
    ("pad pad pad", "pad pad pad"),
])
def test_span_keys_match_extract_spans_on_edge_cases(gold, pred):
    """Each case as one row, and as the middle row of three beside rows
    whose spans touch it in the flat reading."""
    def ids(text):
        return np.array([SPAN_MAPS.bio_index.get(t, -1) for t in text.split()])

    edge = ids("I-city I-city I-city")
    for stack in ([ids(gold)], [ids(pred)]), ([edge, ids(gold), edge], [edge, ids(pred), edge]):
        read, oracle = span_counts(*map(np.stack, stack))
        assert read == oracle
        assert read[0] >= 1 or gold.startswith("pad")


@pytest.mark.parametrize("max_len", [1, 2, 3, 5])
def test_span_keys_read_gold_cut_at_max_len(max_len):
    """Gold spans that ``max_len`` cuts short end at the cut, as the oracle
    reads the kept tags."""
    corpus = [Utterance(tags.split(), "ask", tags.split()) for tags in (
        "B-city I-city I-city O B-day", "O B-day I-day I-day I-day",
        "B-city B-city I-city", "O O O O B-day I-day")]
    gold = encode_batch(corpus, SPAN_MAPS, Vocab([]), max_len).slot_targets
    rows = [extract_spans(u.bio_tags[:max_len]) for u in corpus]
    keys = span_keys(gold, SPAN_MAPS)
    assert len(keys) == sum(map(len, rows))
    assert span_f1([keys], [keys]) == span_f1(rows, rows)
    assert all(j < 0 for u, row in zip(corpus, gold) for j in row[u.length:])
