"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.import_package()

from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _attributes():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    wl = WORKLOADS[name]
    first = make_inputs(wl, 7, tmp_path / "a")
    again = make_inputs(wl, 7, tmp_path / "b")
    other = make_inputs(wl, 8, tmp_path / "c")
    assert first.fingerprint() == again.fingerprint()
    assert first.fingerprint() != other.fingerprint()
    if not wl.op_trains:
        assert first.fixture_bytes == again.fixture_bytes


def test_long_workload_stays_within_max_len(tmp_path):
    inputs = make_inputs(WORKLOADS["train-long"], 0, tmp_path)
    lengths = [u.length for u in inputs.train + inputs.heldout]
    assert min(lengths) <= 4 and 35 <= max(lengths) <= inputs.run.max_len
    assert len(inputs.maps.slot_types) == 13


def test_untraced_run_leaves_modules_untouched(capsys):
    before = _attributes()
    assert run.run("train-desk", 3, 1, trace=False) == 0
    assert _attributes() == before
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert {n for n, *_ in run.END_TO_END} == set(result["metrics"])


def test_traced_run_counts_forwards_and_restores_modules(capsys):
    before = _attributes()
    assert run.run("train-desk", 3, 1, trace=True) == 0
    assert _attributes() == before
    metrics = _last_json(capsys)["metrics"]
    assert {n for n, _ in run.PER_LAYER} == set(metrics)
    # all-O explain utterances take the predict fallback: two forwards each
    assert metrics["explain.forwards_per_utt"]["value"] == 2.0
    assert metrics["analyze.forwards_per_utt"]["value"] == 1.0
    assert metrics["tensor.nodes_per_step"]["value"] > 1000


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    self_s, calls = tracer.totals()
    assert calls == {"outer": 1, "inner": 1}
    spans = {name: (start, end) for _, _, _, name, start, end, _ in tracer.spans}
    outer, inner = (end - start for start, end in (spans["outer"], spans["inner"]))
    assert self_s["inner"] == inner >= 0.03
    assert self_s["outer"] == pytest.approx(outer - inner)
    assert self_s["outer"] >= 0.02


def test_manifest_matches_committed_file():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()


def test_speed_probe_scales_by_nearby_probes():
    probe = run.SpeedProbe()
    nominal = run.PROBE_NOMINAL
    probe.samples = [(0.0, nominal), (0.5, nominal), (10.0, 2 * nominal),
                     (10.5, 2 * nominal)]
    assert probe.scale(0.0, 0.2) == pytest.approx(0.2)
    # a sample taken while the host ran at half speed counts half
    assert probe.scale(10.0, 0.2) == pytest.approx(0.1)
    # far from every probe, the nearest one decides
    assert probe.scale(30.0, 0.2) == pytest.approx(0.1)
