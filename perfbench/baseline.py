"""Regenerate the Baseline figures of ROADMAP.md in one command:

    python3 perfbench/baseline.py

Run from the root of a glprover checkout.  Each figure is measured once,
through the library functions, with glprover's functools caches emptied
first (as in a fresh CLI process).  Rule applications are counted by
wrapping the searcher's step counter.  Prints one line per figure, then all
figures as one JSON object.  Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from glprover import henkin, semantics, sequent, syntax  # noqa: E402

import workloads  # noqa: E402
from logic import render  # noqa: E402


class Counting:
    """Counts calls of ``owner.attr`` while the block runs."""

    def __init__(self, owner, attr):
        self.owner, self.attr, self.calls = owner, attr, 0

    def __enter__(self):
        self.original = getattr(self.owner, self.attr)

        def counted(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        setattr(self.owner, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


def clear_caches():
    for module in (syntax, sequent, semantics, henkin):
        for fn in vars(module).values():
            if callable(getattr(fn, "cache_clear", None)):
                fn.cache_clear()


def timed_search(formula, count_holds=False, **kwargs):
    """Search ``formula``; returns the result, seconds, rule applications and,
    with ``count_holds``, the calls of ``holds`` (counting them slows the
    search, so the seconds are then not comparable)."""
    clear_caches()
    counters = [Counting(sequent._Searcher, "tick")]
    if count_holds:  # holds recurses through the semantics binding; search uses its own
        counters += [Counting(semantics, "holds"), Counting(sequent, "holds")]
    with contextlib.ExitStack() as stack:
        for counter in counters:
            stack.enter_context(counter)
        t0 = perf_counter()
        result = sequent.search(syntax.parse(render(formula)), **kwargs)
        seconds = perf_counter() - t0
    return result, seconds, counters[0].calls, sum(c.calls for c in counters[1:])


def main() -> int:
    figures = {}

    for n in (12, 15, 19):
        result, seconds, steps, _ = timed_search(workloads.box_chain(n))
        worlds = len(result.countermodel.frame.worlds)
        figures[f"box_chain_{n}"] = {"seconds": seconds, "steps": steps, "countermodel_worlds": worlds}
        print(f"Box-chain n={n}: {seconds:.2f} s, {steps} steps, {worlds} worlds")
    holds = timed_search(workloads.box_chain(15), count_holds=True)[3]
    figures["box_chain_15"]["holds_calls"] = holds
    print(f"Box-chain n=15: {holds} holds calls")

    formula = workloads.tier_formulas(20, 4)[57]
    result, seconds, steps, _ = timed_search(formula)
    figures["tier20_4_57"] = {"seconds": seconds, "steps": steps, "verdict": type(result).__name__}
    print(f"random tier 20/4 #57: {seconds:.2f} s, {steps} steps, {type(result).__name__}")

    text = "Diam p && Diam q --> Diam (p && Diam q)"
    f = syntax.parse(text)
    clear_caches()
    with Counting(henkin, "search") as searches:
        t0 = perf_counter()
        sm, _ = henkin.build_standard_model(f, max_candidates=2 ** 14)
        seconds = perf_counter() - t0
    subs = len(syntax.subformulas(f))
    figures["henkin_14"] = {"seconds": seconds, "subformulas": subs, "worlds": len(sm.worlds),
                            "searches": searches.calls}
    print(f"henkin {text}: {seconds:.2f} s, {subs} subformulas, {searches.calls} searches, "
          f"{len(sm.worlds)} worlds")

    clear_caches()
    t0 = perf_counter()
    frames = sum(1 for _ in semantics.enumerate_itf_frames(5))
    seconds = perf_counter() - t0
    figures["itf_frames_5"] = {"seconds": seconds, "relation_masks": 2 ** 20, "frames": frames}
    print(f"ITF frames on 5 worlds: {seconds:.2f} s, 2^20 relation masks, {frames} frames")

    result, seconds, steps, _ = timed_search(workloads.lob_conj(10))
    t0 = perf_counter()
    text = sequent.derivation_to_json(result.derivation)
    serialize = perf_counter() - t0
    nodes = text.count('"rule"')
    figures["lob_conj10"] = {"search_seconds": seconds, "serialize_seconds": serialize,
                             "proof_nodes": nodes, "json_bytes": len(text.encode())}
    print(f"lob_conj10: search {seconds:.3f} s, serialize {serialize:.3f} s, {nodes} nodes, "
          f"{len(text.encode())} bytes of JSON")

    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
