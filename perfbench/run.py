"""glprover benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a glprover checkout (the package is imported from
``src/``).  A run measures set-up in several fresh worker processes, then one
worker runs the workload for ``--seconds``.  The last line printed is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``.  ``--smoke`` runs every workload at its smallest size,
one untraced and one traced round each, with every check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # fresh workers timed to "ready", the last one runs; the median is setup_s
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def start_worker(args: list[str]):
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from launch to ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {line!r}")
    return proc, setup


def run_workload(workload, seed, seconds, trace, smoke=False) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    setups = []
    for probe in range(SETUP_SAMPLES, 0, -1):
        proc, setup = start_worker(args + (["--setup-only"] if probe > 1 else []))
        setups.append(setup)
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker for {workload} ran past {WORKER_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["metrics"]["setup_s"] = statistics.median(setups)
    return res


def report(workload, res):
    print(f"# {workload}: rounds untraced/traced {res['rounds']}, attempted {res['attempted']}, "
          f"failed {res['failed']}, exit codes {res['exit_codes']}")
    for name, row in res["per_op"].items():
        print(f"#   {name:28} exit {','.join(row['exit']):5} {row['median_ms']:10.2f} ms")
    for line in res["wrong"]:
        print(f"# WRONG {line}")


def final_line(res, names_units) -> str:
    metrics = {}
    for name, unit in names_units:
        if name not in res["metrics"]:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": res["metrics"][name], "unit": unit}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "glprover" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a glprover checkout (src/glprover or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        if args.smoke:
            ok = True
            for workload in workloads:
                t0 = perf_counter()
                res = run_workload(workload, args.seed, 0, 1, smoke=True)
                report(workload, res)
                print(f"smoke {workload}: correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']} in {perf_counter() - t0:.1f} s")
                ok &= res["correct"]
            return 0 if ok else 1
        if args.workload not in workloads:
            ap.error(f"--workload must be one of {', '.join(workloads)}")
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, res)
        kind = "per_layer" if args.trace else "end_to_end"
        print(final_line(res, [(m["name"], m["unit"]) for m in spec[kind]]))
        return 0 if res["correct"] else 1
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
