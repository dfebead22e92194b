import sys

import pytest

from glprover.errors import BudgetExceededError
from glprover.semantics import Falsified, holds, is_itf, oracle_valid
from glprover.sequent import (
    Derivation, INIT, LBOX, LEAF_RULES, Proved, RBOXLOB, RIMP, Refuted, SequentState,
    TWO_PREMISE_RULES, check_derivation, derivation_error,
    derivation_from_json, derivation_to_dot, derivation_to_json,
    derivation_to_text, extract_countermodel, search,
)
from glprover.syntax import Atom, Box, FALSE, parse

P = Atom("p")

PROVED_EXAMPLES = [
    "Box (Box p --> p) --> Box p",
    "Not (Box False) --> Not (Box (Diam True))",
    "Box (p <-> Not (Box p)) && Not (Box (Box False)) --> Not (Box p) && Not (Box (Not p))",
    "Box (p <-> q) --> (Box p <-> Box q)",
    "Not (Box (Box False)) --> Not (Box (Not (Box False))) && Not (Box (Not (Not (Box False))))",
    "True",
]


@pytest.mark.parametrize("text", PROVED_EXAMPLES)
def test_search_proves(text):
    f = parse(text)
    result = search(f)
    assert isinstance(result, Proved)
    assert check_derivation(result.derivation, f)


def test_search_refutes_reflection_principle():
    f = parse("Box (Box p || Box (Not p)) --> (Box p || Box (Not p))")
    result = search(f)
    assert isinstance(result, Refuted)
    m, w = result.countermodel, result.falsified_at
    assert is_itf(m.frame)
    assert not holds(m, f, w)
    successors = [y for x, y in m.frame.rel if x == w]
    assert len(successors) >= 2
    p_true = m.true_worlds("p")
    assert any((u in p_true) != (v in p_true) for u in successors for v in successors)


def test_search_refutes_p_implies_box_p():
    f = parse("p --> Box p")
    result = search(f)
    assert isinstance(result, Refuted)
    assert len(result.countermodel.frame.worlds) == 2
    assert result.falsified_at in result.countermodel.true_worlds("p")
    # the exhaustive oracle produces a falsifying 2-world chain as well
    verdict = oracle_valid(f, 2)
    assert isinstance(verdict, Falsified)
    assert not holds(verdict.model, f, verdict.world)


def test_search_refutes_falsum_with_single_world():
    result = search(FALSE)
    assert isinstance(result, Refuted)
    assert result.countermodel.frame.worlds == frozenset({0})
    assert result.falsified_at == 0


def test_extract_countermodel_box_false():
    result = search(Box(FALSE))
    assert isinstance(result, Refuted)
    model, root = extract_countermodel(result.branch, 0)
    assert root == 0
    assert len(model.frame.worlds) == 2
    assert not holds(model, Box(FALSE), 0)


def test_search_is_deterministic(corpus):
    for f in corpus[:40]:
        assert search(f) == search(f)


def test_proved_corpus_passes_checker_and_oracle(corpus):
    proved = 0
    for f in corpus[:60]:
        result = search(f)
        if isinstance(result, Proved):
            proved += 1
            assert check_derivation(result.derivation, f)
        else:
            assert is_itf(result.countermodel.frame)
            assert not holds(result.countermodel, f, result.falsified_at)
    assert proved > 0


def test_budget_error_is_distinct_from_refuted():
    with pytest.raises(BudgetExceededError):
        search(parse("Box (Box p --> p) --> Box p"), max_steps=3)


def test_node_arity_discipline(corpus):
    def walk(node):
        if not node.premises:
            assert node.rule in LEAF_RULES
        elif len(node.premises) == 2:
            assert node.rule in TWO_PREMISE_RULES
        else:
            assert len(node.premises) == 1
        for prem in node.premises:
            walk(prem)

    for f in corpus[:60]:
        result = search(f)
        if isinstance(result, Proved):
            walk(result.derivation)


def test_fresh_labels_strictly_increase():
    f = parse("Not (Box (Box False)) --> Not (Box (Not (Box False))) && Not (Box (Not (Not (Box False))))")
    result = search(f)
    assert isinstance(result, Proved)

    def walk(node, seen_max):
        if node.rule == RBOXLOB:
            y = node.principal[2]
            assert y > seen_max
            seen_max = y
        for prem in node.premises:
            walk(prem, seen_max)

    walk(result.derivation, 0)


def _relabel(node: Derivation, mapping) -> Derivation:
    def relabel_state(s: SequentState) -> SequentState:
        return SequentState(
            frozenset((mapping.get(x, x), mapping.get(y, y)) for x, y in s.rel),
            frozenset((mapping.get(x, x), g) for x, g in s.left),
            frozenset((mapping.get(x, x), g) for x, g in s.right),
        )

    principal = tuple(mapping.get(v, v) if isinstance(v, int) else v for v in node.principal)
    return Derivation(
        relabel_state(node.sequent), node.rule, principal,
        tuple(_relabel(p, mapping) for p in node.premises),
    )


def test_checker_rejects_freshness_violation():
    f = parse("Box (Box p --> p) --> Box p")
    result = search(f)
    assert isinstance(result, Proved)
    assert check_derivation(result.derivation, f)
    broken = _relabel(result.derivation, {1: 0})
    assert not check_derivation(broken, f)
    assert "fresh" in (derivation_error(broken, f) or "")


def test_checker_rejects_unfounded_init():
    node = Derivation(
        SequentState(frozenset(), frozenset(), frozenset({(0, P)})), INIT, (0, P)
    )
    assert not check_derivation(node, P)


def test_checker_rejects_wrong_root():
    result = search(parse("q --> q"))
    assert isinstance(result, Proved)
    assert not check_derivation(result.derivation, P)


def test_checker_accepts_derivation_deeper_than_recursion_limit():
    # Box p --> Box p through RBoxLob and one LBox instance, repeated: the
    # repetitions leave the sequent unchanged, which the LBox schema allows
    goal = parse("Box p --> Box p")
    bp = Box(P)
    s1 = SequentState(frozenset(), frozenset({(0, bp)}), frozenset({(0, bp)}))
    s2 = SequentState(frozenset({(0, 1)}), frozenset({(0, bp), (1, bp)}), frozenset({(1, P)}))
    s3 = SequentState(s2.rel, s2.left | {(1, P)}, s2.right)
    node = Derivation(s3, INIT, (1, P))
    for _ in range(2 * sys.getrecursionlimit()):
        node = Derivation(s3, LBOX, (0, bp, 1), (node,))
    node = Derivation(s2, LBOX, (0, bp, 1), (node,))
    node = Derivation(s1, RBOXLOB, (0, bp, 1), (node,))
    root = Derivation(SequentState(frozenset(), frozenset(), frozenset({(0, goal)})), RIMP, (0, goal), (node,))
    assert derivation_error(root, goal) is None


def test_derivation_serialization_roundtrip():
    f = parse("Box (p <-> q) --> (Box p <-> Box q)")
    result = search(f)
    assert isinstance(result, Proved)
    text = derivation_to_json(result.derivation)
    back = derivation_from_json(text)
    assert check_derivation(back, f)
    assert derivation_to_json(back) == text
    assert derivation_to_text(result.derivation).startswith("RImp")
    assert derivation_to_dot(result.derivation).startswith("digraph")


def test_derivation_json_malformed():
    with pytest.raises(ValueError):
        derivation_from_json("{")
    with pytest.raises(ValueError):
        derivation_from_json('{"rule": "Init"}')


def test_no_open_branch_contains_irreflexive_violation(corpus):
    for f in corpus[:40]:
        result = search(f)
        if isinstance(result, Refuted):
            assert all(x != y for x, y in result.branch.rel)
