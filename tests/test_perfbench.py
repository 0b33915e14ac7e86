"""The benchmark's traced smoke pass: every wrapped name resolves and every span it needs fires."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper28-session", "desk12-session"])
def test_traced_smoke_run_passes(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1", "--smoke",
           "--seconds", "0.3", "--seed", "1"]  # fmt: skip
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
