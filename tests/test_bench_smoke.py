"""The benchmark's smoke mode: every workload at its smallest size, with
every certificate checked by the benchmark's own independent checker."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_is_correct():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    verdicts = {line.split(":")[0]: line for line in proc.stdout.splitlines() if line.startswith("smoke ")}
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(verdicts) == sorted(f"smoke {name}" for name in workloads)
    assert all(" correct=True " in line for line in verdicts.values()), verdicts
