import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula, random_model
from glprover.bisimulation import is_bisimulation, largest_bisimulation
from glprover import semantics
from glprover.errors import BudgetExceededError
from glprover.semantics import (
    VALUATION_SLICE, Falsified, Frame, Model, UnknownWorldError, ValidUpTo,
    _eval_mask, _first_failure, _model_masks, enumerate_frames,
    enumerate_itf_frames, frame_valid, holds, is_itf, is_transnt_finite,
    itf_report, make_model, model_from_json, model_to_json, oracle_valid,
    truth_sets,
)
from glprover.syntax import (
    And, Atom, Box, FALSE, Falsum, Iff, Imp, Not, Or, TRUE, Verum, atoms, modal_depth, parse,
)

P = Atom("p")
LOB = parse("Box (Box p --> p) --> Box p")


def test_holds_falsum_and_vacuous_box():
    m = make_model([0], [], {})
    assert not holds(m, FALSE, 0)
    assert holds(m, Box(FALSE), 0)


def test_holds_three_world_model():
    # w=0 sees y=1 and y'=2; p true only at y'
    m = make_model([0, 1, 2], [(0, 1), (0, 2)], {"p": [2]})
    assert holds(m, Box(Or(Box(P), Box(Not(P)))), 0)
    assert not holds(m, Or(Box(P), Box(Not(P))), 0)
    assert not holds(m, P, 1)
    assert holds(m, P, 2)


def test_holds_unknown_world():
    m = make_model([0], [], {})
    with pytest.raises(UnknownWorldError):
        holds(m, P, 3)


def test_frame_rejects_dangling_rel():
    with pytest.raises(ValueError):
        Frame(frozenset({0}), frozenset({(0, 1)}))


def test_frame_valid_single_world():
    assert frame_valid(Frame(frozenset({0}), frozenset()), Box(FALSE))


def test_frame_valid_two_chain_brute_force():
    two = Frame(frozenset({0, 1}), frozenset({(0, 1)}))
    f = Imp(P, Box(P))
    # independent brute force over the four valuations of p
    failures = [
        (pv, w)
        for pv in ({}, {0}, {1}, {0, 1})
        for w in (0, 1)
        if not holds(make_model([0, 1], [(0, 1)], {"p": pv}), f, w)
    ]
    assert failures
    assert not frame_valid(two, f)


def test_frame_valid_matches_lob_correspondence_small():
    # spot check at 2 worlds; the full sweep is an acceptance criterion
    for fr in enumerate_frames(2):
        assert frame_valid(fr, LOB) == is_transnt_finite(fr)


def test_is_itf_examples():
    assert not is_itf(Frame(frozenset(), frozenset()))
    assert is_itf(Frame(frozenset({0}), frozenset()))
    assert not is_itf(Frame(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)})))
    assert is_itf(Frame(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2), (0, 2)})))


def test_itf_report_names_clauses():
    assert "world set is empty" in itf_report(Frame(frozenset(), frozenset()))
    assert any("reflexive" in s for s in itf_report(Frame(frozenset({0}), frozenset({(0, 0)}))))
    assert any("transitive" in s
               for s in itf_report(Frame(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))))


def test_itf_report_messages_and_order():
    fr = Frame(frozenset({0, 1, 2, 5}), frozenset({(0, 0), (0, 1), (1, 2), (2, 0), (5, 5), (2, 5)}))
    assert itf_report(fr) == [
        "relation is reflexive at 0",
        "relation is reflexive at 5",
        "relation is not transitive: 0R1 and 1R2 but not 0R2",
        "relation is not transitive: 1R2 and 2R0 but not 1R0",
        "relation is not transitive: 1R2 and 2R5 but not 1R5",
        "relation is not transitive: 2R0 and 0R1 but not 2R1",
    ]
    assert not is_itf(fr)
    assert itf_report(Frame(frozenset(), frozenset())) == ["world set is empty"]


def frame_of(pred):
    """The Frame whose predecessor masks are ``pred``, as
    ``enumerate_itf_frames`` yields them: x sees y when bit x of pred[y] is set."""
    n = len(pred)
    return Frame(frozenset(range(n)), frozenset((x, y) for y, p in enumerate(pred) for x in range(n) if p >> x & 1))


def reference_transitivity_violations(fr):
    """The pair-by-world scan: xRy and yRz without xRz."""
    return [(2, x, y, z) for x, y in fr.rel for z in fr.worlds
            if (y, z) in fr.rel and (x, z) not in fr.rel]


def test_transitivity_violations_match_the_pair_by_world_scan():
    rng = random.Random(11)
    frames = [Frame(frozenset(), frozenset()), Frame(frozenset({4, 9}), frozenset())]
    for _ in range(300):
        worlds = rng.sample(range(0, 60, 3), rng.randint(1, 8))  # non-contiguous numbers
        density = rng.random()
        rel = {(x, y) for x in worlds for y in worlds if rng.random() < density}
        if rng.random() < 0.3:  # a cycle through every world
            rel |= set(zip(worlds, worlds[1:] + worlds[:1]))
        if rng.random() < 0.3:  # reflexive everywhere
            rel |= {(x, x) for x in worlds}
        frames.append(Frame(frozenset(worlds), frozenset(rel)))
    frames += map(frame_of, enumerate_itf_frames(4))
    kinds = Counter()
    for fr in frames:
        found = list(semantics._transitivity_violations(fr))
        expected = reference_transitivity_violations(fr)
        assert len(found) == len(set(found))
        assert sorted(found) == sorted(expected), fr
        kinds[bool(expected)] += 1
    assert kinds[True] > 100 and kinds[False] > 100


def test_is_transnt_finite_examples():
    assert not is_transnt_finite(Frame(frozenset({0}), frozenset({(0, 0)})))
    two_cycle = Frame(frozenset({0, 1}), frozenset({(0, 1), (1, 0), (0, 0), (1, 1)}))
    assert not is_transnt_finite(two_cycle)
    assert is_transnt_finite(Frame(frozenset({0, 1}), frozenset({(0, 1)})))


def test_itf_implies_transnt_small():
    for n in (1, 2, 3):
        for pred in enumerate_itf_frames(n):
            assert is_transnt_finite(frame_of(pred))


def test_oracle_valid_verum():
    assert oracle_valid(TRUE, 3) == ValidUpTo(3)


def test_oracle_valid_box_false_witness():
    v = oracle_valid(Box(FALSE), 2)
    assert isinstance(v, Falsified)
    # Box False fails exactly at worlds with a successor; first witness is the
    # 0 -> 1 chain, falsified at 0.  Confirmed by direct evaluation.
    assert v.model.frame.rel == frozenset({(0, 1)})
    assert v.world == 0
    assert not holds(v.model, Box(FALSE), 0)


def test_oracle_valid_gl_axiom():
    assert oracle_valid(LOB, 3) == ValidUpTo(3)


def test_oracle_budget():
    with pytest.raises(BudgetExceededError):
        oracle_valid(LOB, 6)
    with pytest.raises(ValueError):
        oracle_valid(LOB, 0)


def test_frame_valid_budget():
    f = parse(" && ".join(f"a{i}" for i in range(10)))
    fr = Frame(frozenset(range(4)), frozenset())
    with pytest.raises(BudgetExceededError):
        frame_valid(fr, f)


def reference_holds(m, f, w) -> bool:
    """Forcing by its recursive definition, one world at a time; the
    reference the bitmask evaluator is checked against."""
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Verum):
        return True
    if isinstance(f, Atom):
        return w in m.true_worlds(f.name)
    if isinstance(f, Not):
        return not reference_holds(m, f.sub, w)
    if isinstance(f, And):
        return reference_holds(m, f.left, w) and reference_holds(m, f.right, w)
    if isinstance(f, Or):
        return reference_holds(m, f.left, w) or reference_holds(m, f.right, w)
    if isinstance(f, Imp):
        return (not reference_holds(m, f.left, w)) or reference_holds(m, f.right, w)
    if isinstance(f, Iff):
        return reference_holds(m, f.left, w) == reference_holds(m, f.right, w)
    if isinstance(f, Box):
        return all(reference_holds(m, f.sub, u) for u in m.frame.worlds if (w, u) in m.frame.rel)
    raise TypeError(f"not a formula: {f!r}")


def test_mask_evaluator_agrees_with_holds():
    rng = random.Random(23)
    for k in range(300):
        m = random_model(rng)
        if k % 2:  # the same shape on arbitrary, non-contiguous world numbers
            rename = dict(zip(sorted(m.frame.worlds), rng.sample(range(50), len(m.frame.worlds))))
            m = make_model(rename.values(), [(rename[x], rename[y]) for x, y in m.frame.rel],
                           {a: [rename[w] for w in ws] for a, ws in m.val})
        f = random_formula(rng, max_connectives=6)
        truth_set = truth_sets(m)(f)
        for w in m.frame.worlds:
            assert (w in truth_set) == reference_holds(m, f, w) == holds(m, f, w)


def test_evaluator_has_no_depth_limit():
    f = P
    for _ in range(2 * sys.getrecursionlimit()):
        f = Not(Box(f))
    m = make_model([0, 1], [(0, 1)], {"p": [1]})
    # World 1 has no successor, so every Not(Box ...) layer is false there;
    # world 0 sees only world 1, so from the second layer on it is true there.
    assert truth_sets(m)(f) == frozenset({0})
    assert holds(m, Not(f), 1)


def test_evaluator_walks_shared_subformulas_once():
    f = Imp(P, Box(P))
    for _ in range(60):  # 2^60 leaves as a tree, 62 nodes as a DAG
        f = And(f, f)
    m = make_model([0, 1], [(0, 1)], {"p": [0]})
    assert truth_sets(m)(f) == frozenset({1})
    assert oracle_valid(f, 2) == oracle_valid(Imp(P, Box(P)), 2)


def test_is_bisimulation_empty_and_identity():
    m = make_model([0, 1], [(0, 1)], {"p": [1]})
    assert is_bisimulation(m, m, frozenset())
    assert is_bisimulation(m, m, {(0, 0), (1, 1)})


def test_is_bisimulation_disjoint_copies():
    m1 = make_model([0, 1], [(0, 1)], {"p": [1]})
    m2 = make_model([5, 6], [(5, 6)], {"p": [6]})
    assert is_bisimulation(m1, m2, {(0, 5), (1, 6)})
    assert not is_bisimulation(m1, m2, {(0, 6)})  # atom disagreement


def test_largest_bisimulation_contains_identity():
    rng = random.Random(29)
    for _ in range(30):
        m = random_model(rng)
        Z = largest_bisimulation(m, m)
        assert {(w, w) for w in m.frame.worlds} <= Z
        assert is_bisimulation(m, m, Z)


def test_largest_bisimulation_respects_atoms():
    m1 = make_model([0], [], {"p": [0]})
    m2 = make_model([0], [], {})
    assert largest_bisimulation(m1, m2) == frozenset()


def test_bisimilar_worlds_agree_on_modal_formulas():
    rng = random.Random(31)
    shapes = [random_formula(rng, max_connectives=4, atom_names=("p", "q")) for _ in range(150)]
    shapes = [f for f in shapes if modal_depth(f) <= 3]
    for _ in range(10):
        m1, m2 = random_model(rng), random_model(rng)
        for w1, w2 in largest_bisimulation(m1, m2):
            for f in shapes:
                assert holds(m1, f, w1) == holds(m2, f, w2)


def test_model_json_roundtrip_and_canonical():
    m = make_model([0, 1, 2], [(0, 2), (0, 1)], {"p": [2, 1], "a": []})
    text = model_to_json(m, falsified_at=0)
    m2, fa = model_from_json(text)
    assert m2 == m and fa == 0
    assert model_to_json(m2, fa) == text  # idempotent re-serialization
    assert text.index('"falsifiedAt"') < text.index('"rel"') < text.index('"val"')
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    # the out-of-order inputs come back sorted ascending
    assert '"rel":[[0,1],[0,2]]' in text and '"p":[1,2]' in text


def test_model_json_malformed():
    for bad in ("{", '{"worlds": "x", "rel": []}', '{"worlds": [0], "rel": [[0]]}',
                '{"worlds": [0]}', '{"worlds": [0], "rel": [], "val": {"p": [3]}}'):
        with pytest.raises(ValueError):
            model_from_json(bad)


def test_model_json_requires_naturals():
    # a boolean is not a world, although Python's bool is an int
    for bad in ('{"worlds": [true], "rel": [], "val": {"p": [true]}}',
                '{"worlds": [0, 1], "rel": [[0, true]], "val": {}}',
                '{"worlds": [0, 1], "rel": [], "val": {"p": [false]}}',
                '{"worlds": [0.0], "rel": [], "val": {}}',
                '{"worlds": [0], "rel": [], "val": {}, "falsifiedAt": -3}',
                '{"worlds": [0], "rel": [], "val": {}, "falsifiedAt": false}',
                '{"worlds": [0], "rel": [], "val": {}, "falsifiedAt": 5}'):
        with pytest.raises(ValueError):
            model_from_json(bad)
    assert model_from_json('{"worlds": [1], "rel": [], "val": {"p": [1]}, "falsifiedAt": 1}')[1] == 1


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_frames(3)) == 512
    # strict partial orders on 3 labelled points
    assert sum(1 for _ in enumerate_itf_frames(3)) == 19


# --- the oracle against the filtering enumerator and one valuation at a time ---

def reference_itf_frames(n):
    """Every relation on worlds 0..n-1 over the pairs (x, y) with x != y,
    ascending by mask, kept when it is ITF: the order the direct generator
    must reproduce."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for mask in range(1 << len(pairs)):
        fr = Frame(frozenset(range(n)), frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
        if is_itf(fr):
            yield fr


def reference_first_failure(f, names, fr):
    """(valuation index, world) of the first failure of ``f`` on ``fr``,
    evaluating one valuation at a time in ascending index; None if valid."""
    _, full, pred, _ = _model_masks(Model(fr))
    n = len(pred)
    for v in range(2 ** (len(names) * n)):
        true_mask = _eval_mask(f, full, pred, {a: v >> (i * n) & full for i, a in enumerate(names)}, 1, {})
        if true_mask != full:
            return v, next(w for w in range(n) if not true_mask >> w & 1)
    return None


def reference_oracle(f, max_worlds):
    names = sorted(atoms(f))
    for n in range(1, max_worlds + 1):
        for fr in reference_itf_frames(n):
            failure = reference_first_failure(f, names, fr)
            if failure is not None:
                v, w = failure
                val = {a: [x for x in range(n) if v >> (i * n + x) & 1] for i, a in enumerate(names)}
                return Falsified(make_model(fr.worlds, fr.rel, val), w)
    return ValidUpTo(max_worlds)


def _relation_mask(fr):
    n = len(fr.worlds)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    return sum(1 << k for k, p in enumerate(pairs) if p in fr.rel)


def test_itf_frames_equal_the_filtered_enumeration():
    for n in range(1, 5):
        assert list(map(frame_of, enumerate_itf_frames(n))) == list(reference_itf_frames(n))


def test_itf_frames_are_the_labelled_strict_partial_orders():
    # OEIS A001035: 1, 3, 19, 219, 4231 strict partial orders on 1..5 points.
    # Distinct, all ITF, and as many as there are: every one, once.
    for n, count in zip(range(1, 6), (1, 3, 19, 219, 4231)):
        frames = list(map(frame_of, enumerate_itf_frames(n)))
        masks = [_relation_mask(fr) for fr in frames]
        assert len(frames) == count
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert all(fr.worlds == frozenset(range(n)) and is_itf(fr) for fr in frames)


def test_oracle_equals_reference_on_corpus(corpus):
    for f in corpus:
        for max_worlds in (1, 2, 3):
            assert oracle_valid(f, max_worlds) == reference_oracle(f, max_worlds), f


def test_frame_valid_equals_reference_on_every_small_frame(corpus):
    formulas = [LOB, parse("Box p --> p"), parse("Box (p --> q) --> (Box p --> Box q)")]
    formulas += [f for f in corpus if len(atoms(f)) <= 2][:8]
    for n in (1, 2, 3):
        for fr in enumerate_frames(n):
            for f in formulas:
                assert frame_valid(fr, f) == (reference_first_failure(f, sorted(atoms(f)), fr) is None)


def test_first_failure_in_a_later_slice():
    # On 4 worlds with 3 atoms there are 4 slices of 1024 valuations; with
    # only 2 seeing 3, the first failure needs r at world 3, index bit 11.
    f = Or(Imp(Box(Atom("r")), Box(FALSE)), And(Atom("p"), Atom("q")))
    fr = Frame(frozenset(range(4)), frozenset({(2, 3)}))
    _, _, pred, _ = _model_masks(Model(fr))
    names = sorted(atoms(f))
    assert 2 ** (len(names) * 4) == 4 * VALUATION_SLICE
    assert reference_first_failure(f, names, fr) == (2048, 2)
    assert _first_failure(f, names, [pred]) == (0, 2048, 2)


def test_batched_evaluation_equals_one_model_at_a_time():
    # Frames packed into slots, each under its own valuations: block
    # s*per + v holds frame s under valuation v, n bits per block.
    rng = random.Random(22)
    formulas = [random_formula(rng, max_connectives=8, atom_names=("p", "q")) for _ in range(20)]
    formulas += [LOB, parse("Box p --> Box Box p"), parse("Diam (p && Box q) || Box Box Not q")]
    for n, slots, per in ((1, 5, 2), (3, 4, 3), (4, 3, 4), (5, 2, 1)):
        models = []
        for _ in range(slots):
            rel = [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.4]
            models += [make_model(range(n), rel, {a: [w for w in range(n) if rng.random() < 0.5] for a in "pq"})
                       for _ in range(per)]
        masks = [_model_masks(m) for m in models]
        pred = [sum(m_pred[k] << (b * n) for b, (_, _, m_pred, _) in enumerate(masks)) for k in range(n)]
        val = {a: sum(m_val[a] << (b * n) for b, (_, _, _, m_val) in enumerate(masks)) for a in "pq"}
        unit = sum(1 << (b * n) for b in range(len(models)))
        full = (1 << (len(models) * n)) - 1
        for f in formulas:
            mask = _eval_mask(f, full, pred, val, unit, {})
            for b, m in enumerate(models):
                for w in range(n):
                    assert bool(mask >> (b * n + w) & 1) == reference_holds(m, f, w), (f, n, b, w)


# Theorems, and non-theorems whose first failure lies inside a batch: on 4
# worlds, frame 66 of the 1-atom batch of 64 from frame 63, frame 29 of the
# batch of 16 from frame 15, frame 66 of the 2-atom batch of 4 from frame 63,
# and frame 66 again, the first 4-chain, of the 0-atom batch of 64.
FOUR_WORLD_FORMULAS = [parse(t) for t in (
    "Box (Box p --> p) --> Box p",
    "Box (p --> q) --> (Box p --> Box q)",
    "Box Box Box Box False",
    "Diam Diam Diam p --> Box p",
    "(Diam Diam p && Diam Diam Not p) --> Box Box False",
    "Diam (p && Diam q) --> Box Box Box False",
    "Box Box Box Box False --> Box Box Box False",
)]


def test_oracle_equals_reference_at_four_worlds():
    for f in FOUR_WORLD_FORMULAS:
        assert oracle_valid(f, 4) == reference_oracle(f, 4), f


def test_oracle_draws_its_frames_through_the_module(monkeypatch):
    # The oracle looks enumerate_itf_frames up on the module when it runs, so
    # a wrapper installed there sees every frame it reads.  It evaluates them
    # as predecessor masks: the witness is the only Frame it builds, through
    # make_model, which looks Frame up on the module too.
    counts = Counter()

    def counting(n):
        for pred in enumerate_itf_frames(n):
            counts[n] += 1
            yield pred

    def counting_frame(*args):
        counts["Frame"] += 1
        return Frame(*args)

    monkeypatch.setattr(semantics, "enumerate_itf_frames", counting)
    monkeypatch.setattr(semantics, "Frame", counting_frame)
    assert oracle_valid(LOB, 4) == ValidUpTo(4)
    assert [counts[n] for n in range(1, 5)] == [1, 3, 19, 219]
    assert counts["Frame"] == 0
    for f in FOUR_WORLD_FORMULAS:
        counts.clear()
        verdict = oracle_valid(f, 4)
        if isinstance(verdict, ValidUpTo):
            assert [counts[n] for n in range(1, 5)] == [1, 3, 19, 219]
            assert counts["Frame"] == 0, f
            continue
        assert counts.pop("Frame") == 1, f
        n = len(verdict.model.frame.worlds)
        below = sum(1 for m in range(1, n) for _ in enumerate_itf_frames(m))
        upto = [frame_of(pred).rel for pred in enumerate_itf_frames(n)].index(verdict.model.frame.rel) + 1
        assert below + upto <= sum(counts.values()) <= 2 * (below + upto), f


_ORACLE_PROPERTY = settings(derandomize=True, max_examples=400, deadline=None, database=None)
_small_formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), TRUE, FALSE]),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(Box, sub), st.builds(And, sub, sub),
                          st.builds(Or, sub, sub), st.builds(Imp, sub, sub), st.builds(Iff, sub, sub)),
    max_leaves=6,
)


@_ORACLE_PROPERTY
@given(_small_formulas, st.integers(1, 3))
def test_oracle_property(f, max_worlds):
    verdict = oracle_valid(f, max_worlds)
    assert verdict == reference_oracle(f, max_worlds)
    if isinstance(verdict, Falsified):
        assert is_itf(verdict.model.frame)
        assert not reference_holds(verdict.model, f, verdict.world)
