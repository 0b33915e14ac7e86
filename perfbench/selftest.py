"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:
1. BENCHMARK.json names exactly the workloads and metrics in catalogue.py,
   with the same units, directions and bounds, within the format limits.
2. For each workload at smoke size, two traced runs with one seed report
   identical exact counts (every ``*.calls.*`` metric, the decode failures
   and ``gpt.keygen.code_draws``) and the same output digest as an untraced
   run.  Each traced run also compares its own traced and untraced outputs
   and fails if the tracer missed a binding site.
3. In a directory holding only BENCHMARK.json and perfbench/, the runner
   exits non-zero without printing a result.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import catalogue as cat  # noqa: E402

RUN_TIMEOUT_S = 300
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"], doc.keys()
    assert doc["paths"] == ["perfbench"] and doc["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, why) for name, (_, why) in cat.WORKLOADS.items()
    ], "workloads differ from catalogue.py"
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (n, u, b, bound) for n, u, b, bound, _ in cat.END_TO_END
    ], "end_to_end differs from catalogue.py"
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == cat.PER_LAYER, (
        "per_layer differs from catalogue.py"
    )
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert _NAME.fullmatch(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert _UNIT.fullmatch(m["unit"]), m
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    ), "setup_s must have the largest bound"
    print("BENCHMARK.json matches catalogue.py")


def run(workload, trace, cwd=ROOT, check=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if check and proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return proc


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split("digest: ")[1] for line in lines if "digest: " in line)
    res = json.loads(lines[-1])
    assert res["correct"] and res["failed"] == 0, res
    return digest, {k: v["value"] for k, v in res["metrics"].items()}


def _exact(metrics):
    return {k: v for k, v in metrics.items()
            if ".calls." in k or k in ("gpt.keygen.code_draws", "gabidulin.decode.failures")}


def check_exact_counts():
    for workload in cat.WORKLOADS:
        d0, _ = _result(run(workload, 0))
        d1, m1 = _result(run(workload, 1))
        d2, m2 = _result(run(workload, 1))
        assert d0 == d1 == d2, f"{workload}: output digests differ: {d0} {d1} {d2}"
        assert _exact(m1) == _exact(m2), f"{workload}: exact counts differ between traced runs"
        print(f"{workload}: {len(_exact(m1))} exact counts and the digest repeat")


def check_bare_directory():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(next(iter(cat.WORKLOADS)), 0, cwd=bare, check=False)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0 and not last.startswith("{"), "runner succeeded without src/"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("without src/ the runner exits non-zero and prints no result")


if __name__ == "__main__":
    check_benchmark_json()
    check_exact_counts()
    check_bare_directory()
    print("selftest passed")
