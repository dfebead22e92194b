"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report lines.
"""

import pathlib
import random
import time

import pytest

from conftest import random_model
from glprover.cli import main
from glprover.henkin import build_standard_model, truth_lemma_check
from glprover.hilbert import (
    AXIOM_SCHEMAS, AxiomStep, HilbertProof, MPStep, NecStep,
    check_proof, imp_refl_proof, verum_proof,
)
from glprover.semantics import (
    ValidUpTo, enumerate_frames, frame_valid, holds, is_itf,
    is_transnt_finite, model_from_json, oracle_valid,
)
from glprover.sequent import Proved, Refuted, check_derivation, search
from glprover.syntax import (
    And, Atom, Box, FALSE, Iff, Imp, Not, Or, TRUE,
    modal_depth, parse, pretty, subformulas,
)

PROOF_DIR = pathlib.Path(__file__).resolve().parent.parent / "proofs"

LOB = parse("Box (Box p --> p) --> Box p")
REFLECTION = "Box (Box p || Box (Not p)) --> (Box p || Box (Not p))"

PAPER_THEOREMS = [pretty(pattern) for pattern in AXIOM_SCHEMAS.values()] + [
    "Box (p <-> q) --> (Box p <-> Box q)",
    "Box (Box False --> False) --> Box False",
    "Not (Box False) --> Not (Box (Diam True))",
    "Not (Box (Box False)) --> Not (Box (Not (Box False))) && Not (Box (Not (Not (Box False))))",
    "Box (p <-> Not (Box p)) && Not (Box (Box False)) --> Not (Box p) && Not (Box (Not p))",
]


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {detail}"


@pytest.fixture(scope="module")
def corpus_search(corpus):
    """Search the whole corpus once; criteria 4-7 share the verdicts."""
    t0 = time.perf_counter()
    results = [(f, search(f)) for f in corpus]
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_01_paper_example_suite():
    worst = 0.0
    for text in PAPER_THEOREMS:
        t0 = time.perf_counter()
        rc = main(["prove", text])
        worst = max(worst, time.perf_counter() - t0)
        if rc != 0:
            _report(1, "paper example suite proved", False, f"status {rc} for {text}")
    _report(1, "paper example suite proved (12 schemas + 5 named theorems)",
            worst < 1.0, f"slowest {worst:.3f}s")


def test_criterion_02_reflection_principle_countermodel(tmp_path):
    out = tmp_path / "cm.json"
    t0 = time.perf_counter()
    rc = main(["prove", REFLECTION, "--emit-countermodel", str(out)])
    elapsed = time.perf_counter() - t0
    model, falsified_at = model_from_json(out.read_text())
    f = parse(REFLECTION)
    ok = rc == 1 and is_itf(model.frame) and not holds(model, f, falsified_at)
    successors = [y for x, y in model.frame.rel if x == falsified_at]
    p_true = model.true_worlds("p")
    ok = ok and len(successors) >= 2
    ok = ok and any((u in p_true) != (v in p_true) for u in successors for v in successors)
    ok = ok and elapsed < 1.0
    _report(2, "reflection principle refuted with 3-world-style witness", ok,
            f"{len(model.frame.worlds)} worlds, {elapsed:.3f}s")


def test_criterion_03_falsum_refuted(tmp_path):
    out = tmp_path / "cm.json"
    rc = main(["prove", "False", "--emit-countermodel", str(out)])
    model, falsified_at = model_from_json(out.read_text())
    ok = rc == 1 and len(model.frame.worlds) == 1 and not holds(model, FALSE, falsified_at)
    _report(3, "False is refuted with a single-world countermodel", ok)


def test_criterion_04_derivation_self_check(corpus_search):
    results, search_time = corpus_search
    t0 = time.perf_counter()
    proved = [(f, r) for f, r in results if isinstance(r, Proved)]
    bad = [f for f, r in proved if not check_derivation(r.derivation, f)]
    elapsed = search_time + (time.perf_counter() - t0)
    ok = not bad and elapsed < 60.0
    _report(4, "every proved corpus derivation passes the checker", ok,
            f"{len(proved)}/{len(results)} proved, {elapsed:.1f}s")


def test_criterion_05_soundness_cross_check(corpus_search):
    results, _ = corpus_search
    bad = []
    for f, r in results:
        if isinstance(r, Proved) and oracle_valid(f, 4) != ValidUpTo(4):
            bad.append(f)
    _report(5, "every proved corpus formula is ITF-valid up to 4 worlds", not bad,
            f"checked {sum(isinstance(r, Proved) for _, r in results)} formulas")


def test_criterion_06_refutation_cross_check(corpus_search):
    results, _ = corpus_search
    bad = []
    for f, r in results:
        if isinstance(r, Refuted):
            if not is_itf(r.countermodel.frame) or holds(r.countermodel, f, r.falsified_at):
                bad.append(f)
    _report(6, "every refuted corpus countermodel is ITF and falsifying", not bad,
            f"checked {sum(isinstance(r, Refuted) for _, r in results)} countermodels")


def test_criterion_07_henkin_agreement(corpus_search):
    results, _ = corpus_search
    small = [(f, r) for f, r in results if len(subformulas(f)) <= 5]
    bad = []
    for f, r in small:
        out = build_standard_model(f)
        if (out is None) != isinstance(r, Proved):
            bad.append((f, "verdict mismatch"))
            continue
        if out is None:
            continue
        sm, world = out
        idx = sm.worlds.index(world)
        if holds(sm.model, f, idx) or holds(r.countermodel, f, r.falsified_at):
            bad.append((f, "countermodel does not falsify"))
        if not truth_lemma_check(f, sm):
            bad.append((f, "truth lemma"))
    _report(7, "standard-model verdicts agree with search; truth lemma holds", not bad,
            f"{len(small)} formulas with <=5 subformulas")


def test_criterion_08_lob_frame_correspondence():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in (1, 2, 3):
        for fr in enumerate_frames(n):
            checked += 1
            if frame_valid(fr, LOB) != is_transnt_finite(fr):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(8, "Loeb scheme valid iff frame transitive+Noetherian (all frames <=3 worlds)",
            ok, f"{checked} frames, {elapsed:.1f}s")


def test_criterion_09_itf_implies_transnt():
    mismatches = sum(
        1
        for n in (1, 2, 3, 4)
        for fr in enumerate_frames(n)
        if is_itf(fr) and not is_transnt_finite(fr)
    )
    _report(9, "ITF implies finite-TRANSNT exhaustively up to 4 worlds", mismatches == 0)


def _formulas_up_to(size_cap: int, atom_names) -> list:
    by_size = {1: [FALSE, TRUE] + [Atom(a) for a in atom_names]}
    for n in range(2, size_cap + 1):
        layer = []
        for f in by_size[n - 1]:
            layer += [Not(f), Box(f)]
        for k in range(1, n - 1):
            for left in by_size[k]:
                for right in by_size[n - 1 - k]:
                    layer += [And(left, right), Or(left, right), Imp(left, right), Iff(left, right)]
        by_size[n] = layer
    return [f for fs in by_size.values() for f in fs if modal_depth(f) <= 3]


def test_criterion_10_bisimulation_invariance():
    from glprover.bisimulation import largest_bisimulation

    shapes = _formulas_up_to(4, ("p", "q"))
    rng = random.Random(4242)
    discrepancies = 0
    pairs_checked = 0
    for _ in range(50):
        m1, m2 = random_model(rng), random_model(rng)
        for w1, w2 in largest_bisimulation(m1, m2):
            pairs_checked += 1
            for f in shapes:
                if holds(m1, f, w1) != holds(m2, f, w2):
                    discrepancies += 1
    _report(10, "bisimilar worlds agree on all modal-depth<=3 formulas",
            discrepancies == 0, f"{pairs_checked} world pairs x {len(shapes)} formulas")


def test_criterion_11_hilbert_checker():
    shipped = [verum_proof(), imp_refl_proof(Atom("p"))]
    names = ["verum.json", "imp_refl_p.json"]
    accepted = all(check_proof(pf) is not None for pf in shipped)
    from glprover.hilbert import proof_from_json

    accepted = accepted and all(
        check_proof(proof_from_json((PROOF_DIR / name).read_text())) is not None for name in names
    )
    rng = random.Random(99)
    rejected = 0
    for _ in range(100):
        pf = rng.choice(shipped)
        k = rng.randrange(len(pf.steps))
        step = pf.steps[k]
        junk = Atom("zz")
        if isinstance(step, AxiomStep):
            bad = AxiomStep(step.schema, junk)
        elif isinstance(step, MPStep):
            bad = MPStep(step.i, step.j, junk)
        else:
            bad = NecStep(step.i, junk)
        mutated = HilbertProof(pf.steps[:k] + (bad,) + pf.steps[k + 1:])
        if check_proof(mutated) is None:
            rejected += 1
    _report(11, "shipped proofs accepted; 100 single-step mutations rejected",
            accepted and rejected == 100, f"{rejected}/100 rejected")
