"""Run the benchmark in alternating pairs: a base revision against this checkout.

    python3 tools/bench_pairs.py --base <rev> --workload infer-desk \
        --seeds 4100-4109 --out BENCH_<n>.json

The base side runs from the files of ``<rev>``, and the change side from
those of HEAD with ``src/`` as this checkout holds it, uncommitted edits
and untracked files included. Both are extracted the same way
(``git archive``) into one temporary directory, removed when the runs
end, so neither side runs from the checkout itself. Each seed runs the benchmark command of
``BENCHMARK.json`` with ``--trace 0`` once per side, one run at a time,
at the benchmark's own run length, and which side goes first alternates
from seed to seed. The output holds, per end-to-end metric, each side's
median and quartiles and the pairs each side won (a tie counts for
neither), with every run's raw result and the environment it printed, the
runs that failed or reported incorrect output, and the command. A change
side with uncommitted edits is recorded as HEAD plus ``diff_sha256``, a
hash of those edits (see :func:`diff_sha256`).

Refuses with one line and exit 1 when the benchmark's own files
(``BENCHMARK.json`` and its ``paths``) differ between ``<rev>`` and this
checkout: the two sides would then not run the same benchmark.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def diff_sha256() -> str | None:
    """SHA-256 over ``git diff HEAD --binary`` and the path and bytes of each
    untracked file under ``src/``: it names the code a dirty checkout runs
    beyond HEAD. None for a clean checkout."""
    def out(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True).stdout

    diff = out("diff", "HEAD", "--binary")
    untracked = sorted(filter(None, out("ls-files", "-z", "--others", "--exclude-standard",
                                        "--", "src").split(b"\0")))
    if not diff and not untracked:
        return None
    h = hashlib.sha256(diff)
    for path in untracked:
        data = (ROOT / path.decode()).read_bytes()
        h.update(b"\0%s\0%d\0%s" % (path, len(data), data))
    return h.hexdigest()


def extract(rev: str, dest: Path) -> None:
    """The files of ``rev``, from ``git archive``, at ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def extract_change(dest: Path) -> None:
    """HEAD's files at ``dest``, with ``src/`` replaced by the checkout's:
    the code :func:`diff_sha256` names."""
    extract("HEAD", dest)
    shutil.rmtree(dest / "src", ignore_errors=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard", "--", "src"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a deleted tracked file stays listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's median, quartiles and IQR over its
    correct runs, and the pairs (same seed, both sides correct) each side
    won in the metric's ``better`` direction; ties count for neither."""
    ok = {(r["side"], r["seed"]): r["metrics"] for r in runs if r["ok"]}
    seeds = sorted({seed for _, seed in ok})
    paired = [s for s in seeds if all((side, s) in ok for side in SIDES)]
    summary = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            values = [ok[side, s][name] for s in seeds if (side, s) in ok]
            if values:
                q1, med, q3 = quartiles(values)
                entry[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                               "n": len(values)}
        wins = {side: 0 for side in SIDES}
        for s in paired:
            base, change = ok["base", s][name], ok["change", s][name]
            if base != change:
                wins["change" if (change > base) == higher else "base"] += 1
        entry["pairs"] = len(paired)
        entry["wins"] = wins
        if all(side in entry for side in SIDES):
            base, change = entry["base"]["median"], entry["change"]["median"]
            entry["change_vs_base"] = (change - base) / base if base else None
            entry["median_gap_exceeds_base_iqr"] = abs(change - base) > entry["base"]["iqr"]
        summary[name] = entry
    return summary


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             timeout: float) -> dict:
    """One untraced benchmark run, with the ``environment`` line it printed;
    ``ok`` is False when it exited non-zero, printed no result line, or
    reported failed operations or checks."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    record = {"argv": argv}
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**record, "ok": False, "returncode": None, "error": "timed out"}
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    env = [line.partition(" ")[2] for line in lines if line.startswith("environment ")]
    record.update(returncode=proc.returncode, stderr_tail=proc.stderr[-2000:],
                  environment=json.loads(env[0]) if env else None)
    if result is None:
        return {**record, "ok": False, "error": "no result line"}
    record.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"],
                  metrics={k: v["value"] for k, v in result["metrics"].items()})
    record["ok"] = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A-B, or one seed")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench_files = ["BENCHMARK.json", *manifest["paths"]]
    try:
        seeds = parse_seeds(args.seeds)
        base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        for against in ("HEAD", None):  # committed, then as checked out
            diff = ["diff", "--quiet", base_sha, *([against] if against else []),
                    "--", *bench_files]
            if subprocess.run(["git", *diff], cwd=ROOT).returncode:
                raise ValueError(f"{' or '.join(bench_files)} differ between {args.base} and "
                                 f"{against or 'the checkout'}; the sides would run "
                                 "different benchmarks")
    except (ValueError, subprocess.CalledProcessError) as e:
        detail = getattr(e, "stderr", None) or str(e)
        print(f"bench_pairs: {detail.strip().splitlines()[-1]}", file=sys.stderr)
        return 1

    command, seconds = manifest["command"], manifest["run_seconds"]
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {side: tmp / side for side in SIDES}
    runs = []
    try:
        extract(base_sha, checkouts["base"])
        extract_change(checkouts["change"])
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                record = run_once(checkouts[side], command, args.workload, seed,
                                  timeout=10 * seconds + 600)
                runs.append({"side": side, "seed": seed, "first": position == 0, **record})
                status = "ok" if record["ok"] else "FAILED"
                print(f"seed {seed} {side}: {status}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = {
        "command": shlex.join(["python3", "tools/bench_pairs.py",
                               *(sys.argv[1:] if argv is None else argv)]),
        "base": {"rev": args.base, "sha": base_sha},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                   "diff_sha256": diff_sha256()},
        "workload": args.workload,
        "seeds": seeds,
        "seconds": seconds,
        "metrics": summarize(runs, manifest["end_to_end"]),
        "failed_runs": [{k: r[k] for k in ("side", "seed") if k in r} for r in runs
                        if not r["ok"]],
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for name, m in out["metrics"].items():
        if "base" in m and "change" in m:
            print(f"{name:28s} {m['base']['median']:12.4f} -> {m['change']['median']:12.4f}"
                  f"  wins {m['wins']['change']}/{m['pairs']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
