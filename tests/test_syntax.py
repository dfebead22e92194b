import copy
import gc
import pickle
import random
import weakref

import pytest

from conftest import random_formula
from glprover import syntax
from glprover.syntax import (
    And, Atom, Box, Diam, FALSE, Iff, Imp, Not, Or, ParseError, TRUE,
    atoms, modal_depth, parse, pretty, sort_key, subformulas, subsentences,
)

P, Q = Atom("p"), Atom("q")


def node_count(f):
    # independent size oracle for the subformula bound
    if isinstance(f, (Not, Box)):
        return 1 + node_count(f.sub)
    if isinstance(f, (And, Or, Imp, Iff)):
        return 1 + node_count(f.left) + node_count(f.right)
    return 1


def test_parse_gl_axiom():
    f = parse("Box (Box p --> p) --> Box p")
    assert f == Imp(Box(Imp(Box(P), P)), Box(P))


def test_parse_leaf_tokens():
    assert parse("True") == TRUE
    assert parse("False") == FALSE
    assert parse("y'") == Atom("y'")


def test_parse_diam_desugars():
    assert parse("Diam True") == Not(Box(Not(TRUE)))
    assert parse("Not (Box False) --> Not (Box (Diam True))") == Imp(
        Not(Box(FALSE)), Not(Box(Not(Box(Not(TRUE)))))
    )


def test_parse_precedence():
    assert parse("p && q || r") == Or(And(P, Q), Atom("r"))
    assert parse("p --> q --> r") == Imp(P, Imp(Q, Atom("r")))
    assert parse("True <-> False --> False") == Iff(TRUE, Imp(FALSE, FALSE))
    assert parse("Not p && q") == And(Not(P), Q)
    assert parse("Box p --> p") == Imp(Box(P), P)


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as exc:
        parse("p -->")
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse("(p && q")
    with pytest.raises(ParseError):
        parse("p <-> q <-> r")


def test_unknown_operator_rejected():
    with pytest.raises(ParseError) as exc:
        parse("p -> q")
    assert "unbound token" in str(exc.value)


def test_pretty_basics():
    assert pretty(FALSE) == "False"
    assert pretty(Imp(P, Q)) == "p --> q"
    assert pretty(Not(Box(FALSE))) == "Not Box False"
    assert pretty(Diam(TRUE)) == "Diam True"
    assert pretty(And(And(P, Q), P)) == "(p && q) && p"
    assert pretty(Imp(P, Iff(P, Q))) == "p --> (p <-> q)"


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(1000):
        f = random_formula(rng)
        assert parse(pretty(f)) == f


def test_subformulas_examples():
    f = Imp(Box(P), P)
    assert subformulas(f) == frozenset({f, Box(P), P})
    assert subformulas(P) == frozenset({P})


def test_subformulas_size_bound():
    rng = random.Random(11)
    for _ in range(500):
        f = random_formula(rng)
        assert len(subformulas(f)) <= node_count(f)


def test_subformulas_monotone():
    rng = random.Random(13)
    for _ in range(200):
        f = random_formula(rng)
        for g in subformulas(f):
            assert subformulas(g) <= subformulas(f)


def test_subsentences_examples():
    assert subsentences(P) == frozenset({P, Not(P)})
    assert subsentences(Box(P)) == frozenset({Box(P), Not(Box(P)), P, Not(P)})


def test_subsentences_cardinality():
    rng = random.Random(17)
    for _ in range(500):
        f = random_formula(rng)
        assert len(subsentences(f)) <= 2 * len(subformulas(f))


def test_total_order_properties():
    rng = random.Random(19)
    for _ in range(500):
        f, g, h = (random_formula(rng, max_connectives=5) for _ in range(3))
        kf, kg, kh = sort_key(f), sort_key(g), sort_key(h)
        # totality: exactly one of <, ==, > and == iff structurally equal
        assert (kf < kg) + (kf == kg) + (kf > kg) == 1
        assert (kf == kg) == (f == g)
        # transitivity
        if kf < kg and kg < kh:
            assert kf < kh
        # antisymmetry
        if kf <= kg and kg <= kf:
            assert f == g


def test_atoms_and_modal_depth():
    f = parse("Box (p <-> Not (Box q)) && Not (Box (Box False))")
    assert atoms(f) == frozenset({"p", "q"})
    assert modal_depth(f) == 2
    assert modal_depth(Box(Box(Box(P)))) == 3
    assert modal_depth(P) == 0


def test_formulas_are_interned():
    text = "Box (p <-> Not (Box q)) && Not (Box (Box False))"
    assert parse(text) is parse(text)
    assert Imp(Box(P), P) is parse("Box p --> p")
    assert Atom("p") is P and Diam(TRUE) is Not(Box(Not(TRUE)))
    assert And(P, Q) is not And(Q, P)


def test_copy_and_pickle_return_the_interned_node():
    f = parse("Box (Box p --> p) --> Box p")
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert pickle.loads(pickle.dumps(FALSE)) is FALSE


def test_formulas_are_immutable():
    f = parse("p && q")
    with pytest.raises(AttributeError):
        f.left = Q
    with pytest.raises(AttributeError):
        del f.right
    assert f.left is P


def test_intern_table_releases_unused_formulas():
    leaf = Atom("unused")
    leaf_ref = weakref.ref(leaf)
    chain = leaf
    for _ in range(100):
        chain = Box(chain)
    subformulas(chain)  # its cached subformula set refers back to the node
    held = len(syntax._INTERN)
    del leaf, chain
    gc.collect()
    assert leaf_ref() is None
    assert len(syntax._INTERN) <= held - 101


def test_deep_formula_hashes_without_recursion():
    f = FALSE
    for _ in range(5000):
        f = Box(f)
    assert f in {f}
    assert hash(f) == hash(Box(f.sub))
    assert len(subformulas(f)) == 5001


def test_modal_depth_of_deep_box_chain():
    f = P
    for _ in range(5000):
        f = Box(f)
    assert modal_depth(f) == 5000
    assert modal_depth(And(f, Not(Box(P)))) == 5000
