"""The benchmark's smoke passes: every wrapped name resolves and every span it needs fires,
and a seeded session's outputs hash to the recorded digest."""

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


# The digest covers the first rotation's key files, ciphertexts, decrypted
# words and attack verdicts, so a short run prints it too.  It is the
# byte-identity record of every change that claims unchanged outputs.
DIGESTS = {
    "paper28-session": "c830cefaae72523d427d86cb6e1214c3d3578ac8761cbcaae0b3ae1c03fb1d14",
    "desk12-session": "fa925dd9f5d44733e292869daae9e34e947d12955d5d92b792bd84779f0f256e",
}


@pytest.mark.parametrize("workload", DIGESTS)
def test_seeded_smoke_run_prints_the_recorded_digest(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0", "--smoke",
           "--seconds", "0.1", "--seed", "3"]  # fmt: skip
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert f"  digest: {DIGESTS[workload]}" in run.stdout
