"""The pair runner's summary (``tools/bench_pairs.py``), on made-up results:
no benchmark runs here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "eval.utt_per_s", "unit": "utt/s", "better": "higher"},
           {"name": "ckpt.load_ms", "unit": "ms", "better": "lower"}]


def run(side, seed, rate, load_ms, ok=True):
    return {"side": side, "seed": seed, "ok": ok,
            "metrics": {"eval.utt_per_s": rate, "ckpt.load_ms": load_ms}}


def test_medians_quartiles_and_wins_follow_each_metrics_direction():
    runs = [run("base", s, 100.0 + s, 5.0) for s in range(5)]
    runs += [run("change", s, 110.0 + s, 5.0 - s / 10) for s in range(5)]
    summary = bench_pairs.summarize(runs, METRICS)
    rate, load = summary["eval.utt_per_s"], summary["ckpt.load_ms"]
    assert rate["base"] == {"median": 102.0, "q1": 101.0, "q3": 103.0, "iqr": 2.0, "n": 5}
    assert rate["change"]["median"] == 112.0
    assert rate["wins"] == {"base": 0, "change": 5} and rate["pairs"] == 5
    assert rate["change_vs_base"] == pytest.approx(10 / 102)
    assert rate["median_gap_exceeds_base_iqr"] is True
    # seed 0 ties at 5.0 and counts for neither side; lower is better
    assert load["wins"] == {"base": 0, "change": 4}
    assert load["base"]["iqr"] == 0.0
    assert load["median_gap_exceeds_base_iqr"] is True


def test_the_base_wins_when_the_change_is_worse():
    runs = [run("base", 0, 100.0, 4.0), run("change", 0, 90.0, 5.0)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["eval.utt_per_s"]["wins"] == {"base": 1, "change": 0}
    assert summary["ckpt.load_ms"]["wins"] == {"base": 1, "change": 0}
    assert summary["eval.utt_per_s"]["base"]["iqr"] == 0.0


def test_failed_runs_count_in_no_median_and_no_pair():
    runs = [run("base", 0, 100.0, 5.0), run("change", 0, 1e9, 0.0, ok=False),
            run("base", 1, 104.0, 5.0), run("change", 1, 101.0, 5.0)]
    entry = bench_pairs.summarize(runs, METRICS)["eval.utt_per_s"]
    assert entry["base"]["median"] == 102.0 and entry["base"]["n"] == 2
    assert entry["change"]["median"] == 101.0 and entry["change"]["n"] == 1
    assert entry["pairs"] == 1 and entry["wins"] == {"base": 1, "change": 0}
    assert entry["median_gap_exceeds_base_iqr"] is False


def test_a_side_with_no_correct_run_has_no_entry():
    entry = bench_pairs.summarize([run("base", 0, 100.0, 5.0)], METRICS)["eval.utt_per_s"]
    assert "change" not in entry and "change_vs_base" not in entry
    assert entry["pairs"] == 0


@pytest.mark.parametrize("text,seeds", [("4100-4103", [4100, 4101, 4102, 4103]), ("7", [7])])
def test_seed_ranges_are_inclusive(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_an_empty_seed_range_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("9-3")


def test_a_run_records_its_environment_line_and_result(tmp_path):
    (tmp_path / "run.py").write_text(
        "import json, sys\n"
        "print('workload', sys.argv[2])\n"
        "print('environment ' + json.dumps({'numpy': '9.9', 'blas_threads': 1}))\n"
        "print(json.dumps({'correct': True, 'attempted': 4, 'failed': 0,\n"
        "                  'metrics': {'eval.utt_per_s': {'value': 12.5}}}))\n")
    record = bench_pairs.run_once(tmp_path, [sys.executable, "run.py"], "w", 3, timeout=60)
    assert record["argv"][2:] == ["--workload", "w", "--seed", "3", "--trace", "0"]
    assert record["environment"] == {"numpy": "9.9", "blas_threads": 1}
    assert record["metrics"] == {"eval.utt_per_s": 12.5}
    assert record["ok"] is True


def test_a_run_without_a_result_line_is_not_ok(tmp_path):
    (tmp_path / "run.py").write_text("print('no result')\n")
    record = bench_pairs.run_once(tmp_path, [sys.executable, "run.py"], "w", 3, timeout=60)
    assert record["ok"] is False and record["error"] == "no result line"
    assert record["environment"] is None


def throwaway_git(repo):
    """``git`` run in ``repo`` under a made-up identity."""
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)
    return git


def test_a_base_whose_benchmark_differs_is_refused_in_one_line(tmp_path, monkeypatch, capsys):
    git = throwaway_git(tmp_path)
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "bench/run.py"], "paths": ["bench"], "run_seconds": 35,
         "end_to_end": []}))
    (tmp_path / "bench" / "run.py").write_text("print(1)\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (tmp_path / "bench" / "run.py").write_text("print(2)\n")
    git("commit", "-q", "-am", "change the benchmark")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--base", "HEAD~1", "--workload", "w", "--seeds", "1",
                             "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "differ between HEAD~1 and HEAD" in err
    assert not out.exists()


def test_a_dirty_checkout_is_named_by_the_hash_of_its_edits(tmp_path, monkeypatch):
    git = throwaway_git(tmp_path)
    (tmp_path / "src").mkdir()
    code = tmp_path / "src" / "m.py"
    code.write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.diff_sha256() is None

    code.write_text("x = 2\n")
    first = bench_pairs.diff_sha256()
    assert first == bench_pairs.diff_sha256()
    code.write_text("x = 3\n")
    second = bench_pairs.diff_sha256()
    assert len({first, second}) == 2 and None not in (first, second)
    code.write_text("x = 2\n")
    assert bench_pairs.diff_sha256() == first

    (tmp_path / "src" / "new.py").write_text("y = 1\n")
    with_new = bench_pairs.diff_sha256()
    assert with_new not in (first, second)
    (tmp_path / "src" / "new.py").write_text("y = 2\n")
    assert bench_pairs.diff_sha256() not in (first, second, with_new)
    code.write_text("x = 1\n")  # no tracked edit left, one untracked file
    assert bench_pairs.diff_sha256() not in (None, first, second, with_new)


def test_the_change_side_is_head_with_the_checkouts_src(tmp_path, monkeypatch):
    """Both sides are extracted the same way; the change side's ``src/`` is
    the checkout's, so it runs the code ``diff_sha256`` names."""
    repo, change = tmp_path / "repo", tmp_path / "change"
    (repo / "src").mkdir(parents=True)
    git = throwaway_git(repo)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "notes.txt").write_text("committed\n")
    (repo / "src" / "m.py").write_text("x = 1\n")
    (repo / "src" / "gone.py").write_text("g = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "notes.txt").write_text("edited\n")
    (repo / "src" / "m.py").write_text("x = 2\n")
    (repo / "src" / "new.py").write_text("y = 1\n")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "__pycache__").mkdir()
    (repo / "src" / "__pycache__" / "m.pyc").write_bytes(b"")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.extract_change(change)
    files = sorted(p.relative_to(change).as_posix() for p in change.rglob("*") if p.is_file())
    assert files == [".gitignore", "notes.txt", "src/m.py", "src/new.py"]
    assert (change / "src" / "m.py").read_text() == "x = 2\n"
    assert (change / "notes.txt").read_text() == "committed\n"
