"""One workload run, in a fresh process.

The worker imports glprover and builds the workload's operations (set-up),
prints ``ready``, then acts as a single closed-loop client: it calls
``glprover.cli.main(argv)`` for one operation at a time, checks the
certificates the operation wrote, and repeats whole rounds of the same
operations until ``--seconds`` have passed.  With ``--trace 1`` the rounds
alternate untraced and traced.  The last line it prints is its result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Round:
    """What one round of operations did."""

    def __init__(self):
        self.times = {}          # operation name -> seconds
        self.codes = []
        self.failed = 0
        self.wrong = []
        self.sums = Counter()
        self.maxes = Counter()
        self.layers = {}

    @property
    def wall(self):
        return sum(self.times.values())


class Runner:
    def __init__(self, glp, ops, workdir: Path):
        self.glp = glp
        self.frames = tracing.FrameCounter(glp.semantics)
        self.tracer = tracing.Tracer(vars(glp))
        # Every CLI call starts in a fresh process, so each operation starts
        # with glprover's functools caches empty.
        self.caches = {id(f): f for m in vars(glp).values() for f in vars(m).values()
                       if callable(getattr(f, "cache_clear", None))}.values()
        self.sized = {name: getattr(glp.syntax, name) for name in ("sort_key", "subformulas")
                      if hasattr(getattr(glp.syntax, name), "cache_info")}
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = {kind: workdir / f"{kind}.json" for kind in ("proof", "model", "worlds")}
        self.per_op = {op.name: [] for op in ops}

    def run_op(self, op, rnd: Round):
        for path in self.files.values():
            path.unlink(missing_ok=True)
        for cache in self.caches:
            cache.cache_clear()
        self.frames.counts.clear()
        gc.collect()
        oracle_self = self.tracer.self_s["semantics.oracle"]
        argv = op.argv(self.files)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                code = self.glp.cli.main(argv)
            except Exception as exc:  # a crash is a correctness failure, never a verdict
                code = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        for name, fn in self.sized.items():
            rnd.maxes[f"{name}_cache_entries"] = max(rnd.maxes[f"{name}_cache_entries"],
                                                     fn.cache_info().currsize)
        out = checks.check(op, code, self.files, self.glp, self.frames.counts)
        rnd.sums["frames"] += sum(self.frames.counts.values())
        rnd.times[op.name] = dt
        rnd.codes.append(code)
        self.per_op[op.name].append((code, dt))
        rnd.failed += out.failed
        if out.wrong:
            rnd.wrong.append(f"{op.name}: {out.wrong}")
        for key in ("cert_bytes", "countermodel_worlds", "proof_bytes", "proof_nodes",
                    "henkin_worlds", "oracle_pairs"):
            rnd.sums[key] += getattr(out, key)
        for key in ("branch_labels", "branch_rel"):
            rnd.maxes[key] = max(rnd.maxes[key], getattr(out, key))
        rnd.maxes["proof_nodes_max"] = max(rnd.maxes["proof_nodes_max"], out.proof_nodes)
        if out.oracle_pairs:
            rnd.sums["oracle_valid_eval_s"] += self.tracer.self_s["semantics.oracle"] - oracle_self

    def run_round(self, order, traced: bool) -> Round:
        rnd = Round()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            for op in order:
                self.run_op(op, rnd)
        finally:
            self.tracer.uninstall()
        if traced:
            rnd.layers = self.layer_metrics(rnd)
        return rnd

    def layer_metrics(self, rnd: Round) -> dict:
        t = self.tracer
        validation = t.holds["sequent.validate"] + t.holds["sequent.search"] + t.holds["henkin.consistency_search"]
        searches = t.calls["henkin.consistency_search"]
        eval_s = rnd.sums["oracle_valid_eval_s"]
        return {
            "cli.self_s": t.self_s["cli"],
            "syntax.parse_s": t.self_s["syntax.parse"],
            "syntax.parse_calls": t.calls["syntax.parse"],
            "syntax.pretty_s": t.self_s["syntax.pretty"],
            "syntax.sort_key_cache_entries": rnd.maxes["sort_key_cache_entries"],
            "syntax.subformulas_cache_entries": rnd.maxes["subformulas_cache_entries"],
            "sequent.search_s": t.self_s["sequent.search"],
            "sequent.search_calls": t.calls["sequent.search"],
            "sequent.validate_s": t.self_s["sequent.validate"],
            "sequent.holds_calls": validation,
            "sequent.serialize_s": t.self_s["sequent.serialize"],
            "sequent.check_s": t.self_s["sequent.check"],
            "sequent.proof_bytes": rnd.sums["proof_bytes"],
            "sequent.proof_nodes": rnd.sums["proof_nodes"],
            "sequent.proof_nodes_max": rnd.maxes["proof_nodes_max"],
            "sequent.branch_labels": rnd.maxes["branch_labels"],
            "sequent.branch_rel": rnd.maxes["branch_rel"],
            "semantics.oracle_s": t.total_s["semantics.oracle"],
            "semantics.eval_s": t.self_s["semantics.oracle"],
            "semantics.frame_enum_s": t.self_s["semantics.frame_enum"],
            "semantics.frames_yielded": rnd.sums["frames"],
            "semantics.eval_rate": rnd.sums["oracle_pairs"] / eval_s if eval_s else 0.0,
            "henkin.build_s": t.self_s["henkin.build"],
            "henkin.consistency_searches": searches,
            "henkin.consistency_search_s": t.self_s["henkin.consistency_search"],
            "henkin.world_yield": rnd.sums["henkin_worlds"] / searches if searches else 0.0,
            "henkin.truth_lemma_s": t.self_s["henkin.truth_lemma"],
        }


def median_of(rounds, fn):
    return statistics.median(fn(r) for r in rounds)


def op_medians(rounds) -> list[float]:
    """Each operation's median time over ``rounds``, which drops a round's
    outliers; their sum is a round's worth of work."""
    return [statistics.median(r.times[name] for r in rounds) for name in rounds[0].times]


def result(runner: Runner, untraced, traced) -> dict:
    rounds = untraced + traced
    wrong = [w for r in rounds for w in r.wrong]
    op_times = op_medians(untraced)
    wall = sum(op_times)
    metrics = {
        "wall_s": wall,
        "op_p50_ms": nearest_rank(op_times, 0.5) * 1e3,
        "op_p90_ms": nearest_rank(op_times, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cert_bytes": median_of(untraced, lambda r: r.sums["cert_bytes"]),
        "countermodel_worlds": median_of(untraced, lambda r: r.sums["countermodel_worlds"]),
    }
    if traced:
        for key in traced[0].layers:
            metrics[key] = median_of(traced, lambda r: r.layers[key])
        metrics["trace.overhead_pct"] = 100 * (sum(op_medians(traced)) / wall - 1)
    return {
        "correct": not wrong,
        "attempted": sum(len(r.codes) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": [len(untraced), len(traced)],
        "wrong": wrong[:20],
        "exit_codes": dict(Counter(str(c) for r in rounds for c in r.codes)),
        "per_op": {name: {"exit": sorted({str(c) for c, _ in runs}),
                          "median_ms": statistics.median(dt for _, dt in runs) * 1e3}
                   for name, runs in runner.per_op.items()},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from glprover import cli, henkin, semantics, sequent, syntax

    glp = SimpleNamespace(cli=cli, henkin=henkin, semantics=semantics, sequent=sequent, syntax=syntax)
    ops = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    runner = Runner(glp, ops, workdir)
    rng = random.Random(args.seed)
    untraced, traced = [], []
    start = perf_counter()
    try:
        # Whole rounds until the time is up; with tracing, rounds alternate
        # untraced and traced and the run has at least one of each.
        while not untraced or (args.trace and not traced) or perf_counter() - start < args.seconds:
            is_traced = bool(args.trace) and len(traced) < len(untraced)
            order = list(ops)
            rng.shuffle(order)
            (traced if is_traced else untraced).append(runner.run_round(order, is_traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    res = result(runner, untraced, traced)
    if args.workload == "oracle":  # untimed, after the measured rounds
        error = checks.frame_counts_error(semantics, 4 if args.smoke else 5)
        if error:
            res["correct"] = False
            res["wrong"].append(error)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
