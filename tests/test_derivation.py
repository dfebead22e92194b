"""The derivation checker's rule table against the rules written out one by
one, as the checker stated them before the table; and the text and graph
writers, which print each sequent side once per call, against the
rendering that printed every sequent afresh."""

import pytest

from glprover.derivation import (
    INIT, IRREF, LAND, LBOT, LBOX, LIMP, LNOT, LOR, RAND, RBOXLOB, RIMP, RNOT, ROR, RTOP, TRANS,
    SequentState, _components, _expected_premises, _lf_key, _replay, derivation_to_dot, derivation_to_text,
)
from glprover.sequent import Proved, search
from glprover.syntax import FALSE, TRUE, And, Atom, Box, Falsum, Formula, Iff, Imp, Not, Or, Verum, parse, pretty

ALL_RULES = (INIT, LBOT, RTOP, IRREF, LAND, RAND, LOR, ROR, LNOT, RNOT, LIMP, RIMP, TRANS, LBOX, RBOXLOB)


def reference_expected_premises(s: SequentState, rule: str, principal: tuple) -> list[SequentState] | str:
    """Premise sequents forced by a rule instance, or an error string."""

    def state(rel=None, left=None, right=None):
        return SequentState(
            frozenset(rel if rel is not None else s.rel),
            frozenset(left if left is not None else s.left),
            frozenset(right if right is not None else s.right),
        )

    if rule in (LAND, RAND, LOR, ROR, LNOT, RNOT, LIMP, RIMP, INIT, LBOT, RTOP):
        if not (isinstance(principal, tuple) and len(principal) == 2):
            return "principal must be a labelled formula"
        x, f = principal
        if rule == INIT:
            return [] if principal in s.left and principal in s.right else "Init needs the formula on both sides"
        if rule == LBOT:
            return [] if isinstance(f, Falsum) and principal in s.left else "LBot needs x:False on the left"
        if rule == RTOP:
            return [] if isinstance(f, Verum) and principal in s.right else "RTop needs x:True on the right"
        if rule == LAND:
            if not isinstance(f, (And, Iff)) or principal not in s.left:
                return "LAnd principal must be a left conjunction or biconditional"
            c1, c2 = _components(f)
            return [state(left=s.left - {principal} | {(x, c1), (x, c2)})]
        if rule == RAND:
            if not isinstance(f, (And, Iff)) or principal not in s.right:
                return "RAnd principal must be a right conjunction or biconditional"
            c1, c2 = _components(f)
            return [
                state(right=s.right - {principal} | {(x, c1)}),
                state(right=s.right - {principal} | {(x, c2)}),
            ]
        if rule == LOR:
            if not isinstance(f, Or) or principal not in s.left:
                return "LOr principal must be a left disjunction"
            return [
                state(left=s.left - {principal} | {(x, f.left)}),
                state(left=s.left - {principal} | {(x, f.right)}),
            ]
        if rule == ROR:
            if not isinstance(f, Or) or principal not in s.right:
                return "ROr principal must be a right disjunction"
            return [state(right=s.right - {principal} | {(x, f.left), (x, f.right)})]
        if rule == LNOT:
            if not isinstance(f, Not) or principal not in s.left:
                return "LNot principal must be a left negation"
            return [state(left=s.left - {principal}, right=s.right | {(x, f.sub)})]
        if rule == RNOT:
            if not isinstance(f, Not) or principal not in s.right:
                return "RNot principal must be a right negation"
            return [state(left=s.left | {(x, f.sub)}, right=s.right - {principal})]
        if rule == LIMP:
            if not isinstance(f, Imp) or principal not in s.left:
                return "LImp principal must be a left implication"
            return [
                state(left=s.left - {principal}, right=s.right | {(x, f.left)}),
                state(left=s.left - {principal} | {(x, f.right)}),
            ]
        if rule == RIMP:
            if not isinstance(f, Imp) or principal not in s.right:
                return "RImp principal must be a right implication"
            return [state(left=s.left | {(x, f.left)}, right=s.right - {principal} | {(x, f.right)})]

    if rule == IRREF:
        if not (isinstance(principal, tuple) and len(principal) == 1):
            return "Irref principal must be a single label"
        (x,) = principal
        return [] if (x, x) in s.rel else "Irref needs xRx among the relational atoms"

    if rule == TRANS:
        if not (isinstance(principal, tuple) and len(principal) == 3):
            return "Trans principal must be three labels"
        x, y, z = principal
        if (x, y) not in s.rel or (y, z) not in s.rel:
            return "Trans needs xRy and yRz among the relational atoms"
        return [state(rel=s.rel | {(x, z)})]

    if rule == LBOX:
        if not (isinstance(principal, tuple) and len(principal) == 3):
            return "LBox principal must be (label, box formula, target label)"
        x, f, y = principal
        if not isinstance(f, Box) or (x, f) not in s.left:
            return "LBox needs x:Box A on the left"
        if (x, y) not in s.rel:
            return "LBox needs xRy among the relational atoms"
        return [state(left=s.left | {(y, f.sub)})]

    if rule == RBOXLOB:
        if not (isinstance(principal, tuple) and len(principal) == 3):
            return "RBoxLob principal must be (label, box formula, fresh label)"
        x, f, y = principal
        if not isinstance(f, Box) or (x, f) not in s.right:
            return "RBoxLob needs x:Box A on the right"
        if y in s.labels():
            return f"RBoxLob label {y} is not fresh"
        return [state(
            rel=s.rel | {(x, y)},
            left=s.left | {(y, f)},
            right=s.right - {(x, f)} | {(y, f.sub)},
        )]

    return f"unknown rule {rule!r}"


def assert_same(s: SequentState, rule: str, principal) -> None:
    expected = reference_expected_premises(s, rule, principal)
    assert _expected_premises(s, rule, principal) == expected, (rule, principal)


def test_table_matches_reference_on_every_replayed_node(corpus):
    proofs = 0
    for f in corpus + [parse("Box (p <-> q) --> (Box p <-> Box q)"), parse("True")]:
        result = search(f)
        if isinstance(result, Proved):
            proofs += 1
            for _, node, s in _replay(result.derivation, f):
                assert_same(s, node.rule, node.principal)
    assert proofs >= 30


P, Q = Atom("p"), Atom("q")
# one formula of every connective, each at label 0 on both sides, and their
# boxes at label 1, which label 0 sees
CONNECTIVES = [FALSE, TRUE, P, Not(P), And(P, Q), Or(P, Q), Imp(P, Q), Iff(P, Q), Box(P)]
SEQUENT = SequentState(
    frozenset({(0, 1), (1, 2), (2, 2)}),
    frozenset({(0, f) for f in CONNECTIVES} | {(1, Box(f)) for f in CONNECTIVES}),
    frozenset({(0, f) for f in CONNECTIVES} | {(1, Box(f)) for f in CONNECTIVES}),
)
ONE_SIDED = [
    SequentState(SEQUENT.rel, SEQUENT.left, frozenset()),
    SequentState(SEQUENT.rel, frozenset(), SEQUENT.right),
]


@pytest.mark.parametrize("rule", ALL_RULES)
def test_table_matches_reference_on_every_connective_and_side(rule):
    labels = (0, 1, 2, 3)
    formulas = CONNECTIVES + [Box(f) for f in CONNECTIVES] + [Atom("r"), Not(Atom("r"))]
    principals = [(x, f) for x in labels for f in formulas]
    principals += [(x,) for x in labels]
    principals += [(x, y, z) for x in labels for y in labels for z in labels]
    principals += [(x, f, y) for x in labels for f in formulas for y in labels]
    outcomes = set()
    for s in [SEQUENT, *ONE_SIDED]:  # in the one-sided sequents a principal can be missing
        for principal in principals:
            assert_same(s, rule, principal)
            outcomes.add(type(_expected_premises(s, rule, principal)))
    assert outcomes == {list, str}


def test_table_matches_reference_on_malformed_principals():
    malformed = [None, (), "p", [0, P], (0,), (0, P), (0, P, 1), (0, 1, 2, 3), (0, "p"), ("0", P), (0, Box(P), "1")]
    for rule in ALL_RULES + ("Cut",):
        for principal in malformed:
            assert_same(SEQUENT, rule, principal)


def reference_sequent_to_text(s: SequentState) -> str:
    """A sequent's text, sorted and printed afresh."""
    ante = [f"{x}R{y}" for x, y in sorted(s.rel)]
    ante += [f"{x}:{pretty(f)}" for x, f in sorted(s.left, key=_lf_key)]
    cons = [f"{x}:{pretty(f)}" for x, f in sorted(s.right, key=_lf_key)]
    return ", ".join(ante) + " => " + ", ".join(cons)


def reference_text(d, goal) -> str:
    lines = []
    for depth, node, s in _replay(d, goal):
        principal = ",".join(pretty(v) if isinstance(v, Formula) else str(v) for v in node.principal)
        lines.append("  " * depth + f"{node.rule}[{principal}]  {reference_sequent_to_text(s)}")
    return "\n".join(lines) + "\n"


def reference_dot(d, goal) -> str:
    lines = ["digraph derivation {"]
    open_ids: list[int] = []
    for nid, (depth, node, s) in enumerate(_replay(d, goal)):
        while len(open_ids) > depth:
            child = open_ids.pop()
            lines.append(f"  n{open_ids[-1]} -> n{child};")
        label = f"{node.rule}: {reference_sequent_to_text(s)}".replace('"', "'")
        lines.append(f'  n{nid} [label="{label}"];')
        open_ids.append(nid)
    lines += [f"  n{parent} -> n{child};" for parent, child in zip(open_ids[-2::-1], open_ids[:0:-1])]
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_text_and_graph_writers_match_reference(corpus, tier_formulas):
    # Box p --> Box^12 p: consecutive sequents share long sides, and the
    # relational atoms grow along the chain
    proofs = 0
    for f in corpus + tier_formulas + [parse("Box p --> " + "Box " * 12 + "p")]:
        result = search(f)
        if isinstance(result, Proved):
            proofs += 1
            d = result.derivation
            assert derivation_to_text(d, f) == reference_text(d, f)
            assert derivation_to_dot(d, f) == reference_dot(d, f)
    assert proofs >= 50
