"""The benchmark runs end to end and passes its own output checks: one
short untraced ``train-long`` run of ``bench/run.py`` in a subprocess."""

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
