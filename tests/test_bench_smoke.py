"""The benchmark runs end to end and passes its own output checks: one
short untraced ``train-long`` run of ``bench/run.py`` in a subprocess; and
every name its tracer wraps still exists."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_train_long_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-long",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_every_traced_name_resolves_to_a_callable():
    """``bench/tracing.py`` looks each target up by ``getattr`` only when a
    traced run starts, so a renamed or deleted function would surface there."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
