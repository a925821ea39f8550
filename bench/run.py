"""slotlens benchmark: one seeded workload per run, closed loop, one client.

    python3 bench/run.py --workload train-desk --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --write-manifest

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src/`` and from nowhere else. With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric;
with ``--trace 1`` it holds every per-layer metric from a traced run, in
which even operations are traced and odd ones are not, so the tracing
overhead is their difference. ``--write-manifest`` regenerates
``BENCHMARK.json`` from the definitions below. Spans, detailed results and
scratch files go to ``.bench_out/`` in the checkout. The exit status is 1
when any output check failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import os

# BLAS threads do not help matrices this small and make medians drift
# between processes, so pin before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

RUN_SECONDS = 35
SETUP_REPEATS = 7
PROBE_INTERVAL = 0.1  # s between speed probes
PROBE_WINDOW = 0.5  # s either side of a sample whose probes scale it
PROBE_NOMINAL = 3.6e-3  # s one probe takes on the baseline host

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timing bounds sit at the cap: even with samples scaled to the host's speed
# (see SpeedProbe), runs on different seeds spread by up to about a sixth.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train.utt_per_s", "utt/s", "higher", 0.25),
    ("ckpt.save_ms", "ms", "lower", 0.25),
    ("ckpt.load_ms", "ms", "lower", 0.25),
    ("eval.utt_per_s", "utt/s", "higher", 0.25),
    ("analyze.utt_per_s", "utt/s", "higher", 0.25),
    ("consistency.pairs_per_s", "pairs/s", "higher", 0.25),
    ("explain.ms.p50", "ms", "lower", 0.25),
    ("explain.ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# name, unit. "/op" values are per traced operation, "/step" per training
# step (set-up included, which is where infer-desk trains), "/setup" per
# set-up; times are self times.
PER_LAYER = (
    ("tensor.backward.ms", "ms/step"),
    ("tensor.nodes_per_step", "count/step"),
    ("optim.adam_step.ms", "ms/step"),
    ("train.train_model.self_ms", "ms/step"),
    ("encoder.encode.ms", "ms/op"),
    ("model.intent_head.ms", "ms/op"),
    ("model.intent_fusion.ms", "ms/op"),
    ("model.slot_type_attention.ms", "ms/op"),
    ("model.slot_type_heads.ms", "ms/op"),
    ("model.fusion_cross_attention.ms", "ms/op"),
    ("model.slot_head.ms", "ms/op"),
    ("model.forward.self_ms", "ms/op"),
    ("model.forward.calls", "count/op"),
    ("explain.forwards_per_utt", "count/utt"),
    ("analyze.forwards_per_utt", "count/utt"),
    ("data.encode_batch.ms", "ms/op"),
    ("data.encode_batch.calls", "count/op"),
    ("train.evaluate.self_ms", "ms/op"),
    ("checkpoint.save_checkpoint.ms", "ms/call"),
    ("checkpoint.load_checkpoint.ms", "ms/call"),
    ("checkpoint.model_from_checkpoint.ms", "ms/call"),
    ("checkpoint.bytes", "bytes"),
    ("explain.extract_attentions.self_ms", "ms/op"),
    ("explain.entropy_report_from_bundles.ms", "ms/op"),
    ("explain.compare_attention_consistency.ms", "ms/op"),
    ("explain.render_heatmap.ms", "ms/op"),
    ("synth.generate_synthetic_corpus.ms", "ms/setup"),
    ("synth.modification_pairs.ms", "ms/setup"),
    ("trace.overhead_ms", "ms/op"),
    ("trace.overhead_pct", "%"),
)


def import_package():
    """Import slotlens from this checkout's ``src/``; exit 2 if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import slotlens
    except ImportError as e:
        print(f"bench: cannot import slotlens from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    if not Path(slotlens.__file__).resolve().is_relative_to(src):
        print(f"bench: slotlens imported from {slotlens.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return slotlens


def manifest() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in PER_LAYER],
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def probe_seconds() -> float:
    """Seconds for a fixed mix of interpreter and small-array work that
    touches nothing of slotlens."""
    import numpy as np

    a = np.full((32, 32), 0.01, dtype=np.float32)
    t0 = time.perf_counter()
    for _ in range(300):
        b = a @ a
        (np.exp(b) + b).sum()
        sum(x * 3 for x in range(40))
    return time.perf_counter() - t0


class SpeedProbe:
    """The host's speed over the run, from a probe taken at most every
    ``PROBE_INTERVAL`` seconds.

    The host this was tuned on runs everything up to 1.5x faster for
    stretches of seconds to minutes. Scaling each sample by the probe times
    around it, as :meth:`scale` does, cancels most of that swing; the
    probe shares no code with slotlens, so a change to the package cannot
    move it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def take(self) -> None:
        self.samples.append((time.perf_counter(), probe_seconds()))

    def maybe(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= PROBE_INTERVAL:
            self.take()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` as the baseline host would have taken them."""
        mid = start + seconds / 2
        near = [s for at, s in self.samples if abs(at - mid) <= PROBE_WINDOW]
        if not near:
            near = [min(self.samples, key=lambda p: abs(p[0] - mid))[1]]
        return seconds * PROBE_NOMINAL / statistics.median(near)


def phase_cost(units: list[list[float]]) -> float:
    """Seconds for a whole phase: each unit's median over the operations,
    summed. Units are identical work in every operation, so this keeps the
    per-unit median's resistance to a slow stretch of the host while
    still costing every unit."""
    return sum(statistics.median(samples) for samples in units)


def end_to_end(wl, inputs, setup_times, timed_units, rss_mb,
               scale) -> dict[str, float]:
    """Every end-to-end metric; ``scale(start, seconds)`` adjusts a sample."""
    units = {phase: [[scale(*sample) for sample in samples] for samples in per_unit]
             for phase, per_unit in timed_units.items()}
    n_held = len(inputs.heldout)
    if wl.op_trains:
        train_s = phase_cost(units["train"])
    else:  # infer-desk trains only its set-up fixture, so that is what it reports
        train_s = statistics.median(scale(*s) for s in setup_times["fixture_train"])
    explain_ms = [1e3 * statistics.median(s) for s in units["explain"]]
    return {
        "setup_s": statistics.median(scale(*s) for s in setup_times["setup"]),
        "train.utt_per_s": wl.n_train * wl.epochs / train_s,
        "ckpt.save_ms": 1e3 * phase_cost(units["save"]) / len(units["save"]),
        "ckpt.load_ms": 1e3 * phase_cost(units["load"]) / len(units["load"]),
        "eval.utt_per_s": n_held / phase_cost(units["eval"]),
        "analyze.utt_per_s": n_held / phase_cost(units["analyze"]),
        "consistency.pairs_per_s": len(inputs.pairs) / phase_cost(units["consistency"]),
        "explain.ms.p50": statistics.median(explain_ms),
        "explain.ms.p90": statistics.quantiles(explain_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_mb,
    }


def per_layer(wl, inputs, tracer, traced_ops, op_walls) -> dict[str, float]:
    ops = set(traced_ops)
    n_ops = len(ops)
    self_s, calls = tracer.totals(ops)
    all_self, _ = tracer.totals()
    setup_self, _ = tracer.totals({-1})
    steps = len(tracer.nodes)

    def per_op_ms(name):
        return 1e3 * self_s[name] / n_ops

    def per_step_ms(name):
        return 1e3 * all_self[name] / steps if steps else 0.0

    def per_call_ms(name):
        return 1e3 * self_s[name] / calls[name] if calls[name] else 0.0

    traced = statistics.median(t for i, t in op_walls.items() if i in ops)
    plain = statistics.median(t for i, t in op_walls.items() if i not in ops)
    n_explained = n_ops * len(inputs.explain_texts)
    out = {
        "tensor.backward.ms": per_step_ms("tensor.backward"),
        "tensor.nodes_per_step": sum(tracer.nodes) / steps if steps else 0.0,
        "optim.adam_step.ms": per_step_ms("optim.adam_step"),
        "train.train_model.self_ms": per_step_ms("train.train_model"),
        "model.forward.calls": calls["model.forward"] / n_ops,
        "explain.forwards_per_utt":
            tracer.calls_under("bench.explain", "model.forward") / n_explained,
        "analyze.forwards_per_utt":
            tracer.calls_under("bench.analyze", "model.forward")
            / (n_ops * len(inputs.heldout)),
        "data.encode_batch.calls": calls["data.encode_batch"] / n_ops,
        "checkpoint.bytes": inputs.ckpt_path.stat().st_size,
        "synth.generate_synthetic_corpus.ms":
            1e3 * setup_self["synth.generate_synthetic_corpus"] / SETUP_REPEATS,
        "synth.modification_pairs.ms":
            1e3 * setup_self["synth.modification_pairs"] / SETUP_REPEATS,
        "trace.overhead_ms": 1e3 * (traced - plain),
        "trace.overhead_pct": 100.0 * (traced - plain) / plain,
    }
    for name, unit in PER_LAYER:
        if name in out:
            continue
        span = name.rsplit(".", 1)[0]
        out[name] = per_call_ms(span) if unit == "ms/call" else per_op_ms(span)
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, make_inputs, run_op

    wl = WORKLOADS[workload]
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    tracer = Tracer() if trace else None

    def traced(active: bool):
        return tracer.installed() if active else contextlib.nullcontext()

    def phase_for(active: bool):
        if active:
            return lambda name: tracer.span(f"bench.{name}")
        return lambda name: contextlib.nullcontext()

    probe = SpeedProbe()
    before_unit = (lambda: None) if trace else probe.maybe
    try:
        # (start, seconds) samples
        setup_times = {"setup": [], "fixture_train": []}
        fingerprints = set()
        for _ in range(SETUP_REPEATS):
            probe.take()
            with traced(trace):
                t0 = time.perf_counter()
                inputs = make_inputs(wl, seed, workdir)
                setup_times["setup"].append((t0, time.perf_counter() - t0))
            probe.take()
            if inputs.fixture_train_s is not None:
                setup_times["fixture_train"].append((t0, inputs.fixture_train_s))
            fingerprints.add(inputs.fingerprint())
        failures = [] if len(fingerprints) == 1 else ["set-up is not deterministic"]

        # phase -> unit -> (start, seconds) per operation
        units: dict[str, list[list[tuple[float, float]]]] = {}
        op_walls: dict[int, float] = {}
        traced_ops: list[int] = []
        final_losses = []
        attempted = failed = 0
        min_ops = 2 if trace else 1
        deadline = time.perf_counter() + seconds
        while attempted < min_ops or time.perf_counter() < deadline:
            op_id = attempted
            active = trace and op_id % 2 == 0
            attempted += 1
            if active:
                tracer.op = op_id
                traced_ops.append(op_id)
            try:
                with traced(active):
                    t0 = time.perf_counter()
                    res = run_op(wl, inputs, workdir, phase_for(active), before_unit)
                    op_walls[op_id] = time.perf_counter() - t0
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                if trace:
                    tracer.op = -1
            for key, values in res.times.items():
                acc = units.setdefault(key, [])
                acc.extend([] for _ in range(len(values) - len(acc)))
                for samples, t in zip(acc, values):
                    samples.append(t)
            if res.final_loss is not None:
                final_losses.append(res.final_loss)
            if res.failures:
                failed += 1
                failures.extend(res.failures)

        if not op_walls:
            print(f"bench: all {attempted} operations raised", file=sys.stderr)
            return 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = failed == 0 and not failures
        if trace:
            metric_units = dict(PER_LAYER)
            values = per_layer(wl, inputs, tracer, traced_ops, op_walls)
            tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        else:
            metric_units = {n: u for n, u, _, _ in END_TO_END}
            values = end_to_end(wl, inputs, setup_times, units, rss_mb, probe.scale)
            unscaled = end_to_end(wl, inputs, setup_times, units, rss_mb,
                                  lambda start, seconds: seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {n: {"value": values[n], "unit": u} for n, u in metric_units.items()}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "samples": {k: sum(map(len, v)) for k, v in units.items()},
        "units": {k: len(v) for k, v in units.items()},
        "raw_seconds": units,
        "setup_seconds": setup_times,
        "probe_seconds": probe.samples,
        "unscaled_metrics": None if trace else unscaled,
        "setup_repeats": SETUP_REPEATS,
        "failed_ratio": failed / attempted,
        "failures": sorted(set(failures)),
        "final_train_loss": final_losses[-1] if final_losses else None,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"environment {json.dumps(details['environment'])}")
    print(f"samples {json.dumps(details['samples'])}  setup_repeats {SETUP_REPEATS}")
    print(f"final_train_loss {details['final_train_loss']}")
    print(f"failed_ratio {details['failed_ratio']} ({failed}/{attempted} ops)")
    for msg in details["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def pin_malloc() -> None:
    """Re-execute with a fixed glibc mmap threshold unless it is already set.

    glibc raises the threshold as large blocks are freed, so whether a
    multi-megabyte checkpoint buffer is freshly mapped (and page-faulted)
    or reused from the heap depends on the process's history, which made
    checkpoint timings bimodal between runs. glibc reads the setting only
    at process start; ``execv`` replaces this process and starts no other.
    """
    if os.environ.get("MALLOC_MMAP_THRESHOLD_") is None:
        os.environ["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.write_manifest:
        text = json.dumps(manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    pin_malloc()
    sys.exit(main())
