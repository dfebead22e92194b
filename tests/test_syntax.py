import copy
import gc
import pickle
import random
import weakref

import pytest

from conftest import random_formula
from glprover import syntax
from glprover.syntax import (
    And, Atom, Box, Diam, FALSE, Formula, Iff, Imp, Not, Or, ParseError, TRUE,
    atoms, children_first, modal_depth, parse, pretty, sort_key, subformulas, subsentences,
)

P, Q = Atom("p"), Atom("q")


# --- the recursive-descent parser and printer, kept as an independent reference


class _ReferenceParser:
    def __init__(self, text):
        self.tokens = syntax._tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def parse_iff(self):
        left = self.parse_imp()
        if self.peek()[0] == "iff":
            self.advance()
            right = self.parse_imp()
            tok = self.peek()
            if tok[0] == "iff":
                raise ParseError("'<->' is non-associative, use parentheses", tok[2])
            return Iff(left, right)
        return left

    def parse_imp(self):
        left = self.parse_or()
        if self.peek()[0] == "imp":
            self.advance()
            return Imp(left, self.parse_imp())
        return left

    def parse_or(self):
        left = self.parse_and()
        if self.peek()[0] == "or":
            self.advance()
            return Or(left, self.parse_or())
        return left

    def parse_and(self):
        left = self.parse_prefix()
        if self.peek()[0] == "and":
            self.advance()
            return And(left, self.parse_and())
        return left

    def parse_prefix(self):
        kind = self.peek()[0]
        if kind in ("Not", "Box", "Diam"):
            self.advance()
            return {"Not": Not, "Box": Box, "Diam": Diam}[kind](self.parse_prefix())
        return self.parse_primary()

    def parse_primary(self):
        kind, value, pos = self.peek()
        if kind in ("False", "True", "ident"):
            self.advance()
            return {"False": FALSE, "True": TRUE}.get(kind) or Atom(value)
        if kind == "lparen":
            self.advance()
            inner = self.parse_iff()
            self.expect("rparen")
            return inner
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def reference_parse(text):
    parser = _ReferenceParser(text)
    f = parser.parse_iff()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing token {value!r}", pos)
    return f


def _reference_render(f):
    # (text, level): iff 1, imp 2, or 3, and 4, prefix 5, leaf 6
    if f is FALSE or f is TRUE:
        return ("False" if f is FALSE else "True"), 6
    if isinstance(f, Atom):
        return f.name, 6
    if isinstance(f, Not) and isinstance(f.sub, Box) and isinstance(f.sub.sub, Not):
        return "Diam " + _reference_child(f.sub.sub.sub, 5), 5
    if isinstance(f, (Not, Box)):
        return type(f).__name__ + " " + _reference_child(f.sub, 5), 5
    if isinstance(f, And):
        return _reference_child(f.left, 5) + " && " + _reference_child(f.right, 4), 4
    if isinstance(f, Or):
        return _reference_child(f.left, 4) + " || " + _reference_child(f.right, 3), 3
    if isinstance(f, Imp):
        return _reference_child(f.left, 3) + " --> " + _reference_child(f.right, 2), 2
    return _reference_child(f.left, 2) + " <-> " + _reference_child(f.right, 2), 1


def _reference_child(f, min_level):
    text, level = _reference_render(f)
    return f"({text})" if level < min_level else text


def reference_pretty(f):
    return _reference_render(f)[0]


def parse_outcome(parse_fn, text):
    """The formula, or the ParseError's text and position."""
    try:
        return parse_fn(text)
    except ParseError as exc:
        return str(exc), exc.position


_TOKENS = ("(", ")", "(", ")", "&&", "||", "-->", "<->", "Not", "Box", "Diam",
           "True", "False", "p", "q", "p", "q", "-", "->", "x1'")


def random_token_string(rng):
    tokens = rng.choices(_TOKENS, k=rng.randint(0, 12))
    return "".join(tok + rng.choice((" ", " ", "", "  ")) for tok in tokens)


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
    # "p <-> q <-> r" is an error (test_parse_error_messages_and_positions)
    assert parse("(p <-> q) <-> r") is Iff(Iff(P, Q), Atom("r"))
    assert parse("p <-> (q <-> r)") is Iff(P, Iff(Q, Atom("r")))


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


def test_parse_agrees_with_reference_on_random_token_strings():
    rng = random.Random(23)
    parsed = 0
    for _ in range(20000):
        text = random_token_string(rng)
        outcome = parse_outcome(parse, text)
        assert outcome == parse_outcome(reference_parse, text), text
        parsed += not isinstance(outcome, tuple)
    assert parsed > 500  # well-formed strings are among them


def test_parse_agrees_with_reference_on_mutated_formulas():
    rng = random.Random(29)
    for _ in range(3000):
        tokens = [value for _, value, _ in syntax._tokenize(pretty(random_formula(rng)))[:-1]]
        k = rng.randint(0, len(tokens))
        tokens[k:k + rng.randint(0, 1)] = rng.choices(_TOKENS, k=rng.randint(0, 1))
        text = " ".join(tokens)
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text), text


def test_parse_error_messages_and_positions():
    cases = {
        "p <-> q <-> r": "'<->' is non-associative, use parentheses at position 8",
        "p <-> q --> r <-> s": "'<->' is non-associative, use parentheses at position 14",
        "(p && q": "expected 'rparen', found 'end of input' at position 7",
        "(p q)": "expected 'rparen', found 'q' at position 3",
        "p q": "unexpected trailing token 'q' at position 2",
        "p && q)": "unexpected trailing token ')' at position 6",
        "Not": "expected a formula, found 'end of input' at position 3",
        "p && )": "expected a formula, found ')' at position 5",
        "": "expected a formula, found 'end of input' at position 0",
    }
    for text, message in cases.items():
        assert str(parse_outcome(parse, text)[0]) == message
        assert parse_outcome(reference_parse, text)[0] == message


def test_pretty_agrees_with_reference():
    rng = random.Random(31)
    for _ in range(3000):
        f = random_formula(rng, max_connectives=rng.randint(0, 25))
        assert pretty(f) == reference_pretty(f)
    with pytest.raises(TypeError):
        pretty("p")


def test_deep_nesting_parses_and_prints():
    n = 10_000
    assert parse("(" * n + "p" + ")" * n) is P
    assert parse("(" * n + "p && q" + ")" * n + " --> p") is Imp(And(P, Q), P)
    rng = random.Random(37)
    f = Q
    for ctor in rng.choices((Not, Box), k=n):
        f = ctor(f)
    text = pretty(f)
    assert parse(text) is f
    assert text.count("Diam ") > 500  # Not Box Not is printed as Diam
    right = P
    for _ in range(n):
        right = Imp(Q, Not(right))
    assert parse(pretty(right)) is right


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


def test_children_first_lists_each_subformula_after_its_children():
    rng = random.Random(41)
    for _ in range(300):
        f = random_formula(rng, max_connectives=rng.randint(0, 20))
        order = children_first(f)
        assert order is children_first(f)  # cached on the node
        assert order[-1] is f and len(set(order)) == len(order)
        assert set(order) == subformulas(f)
        place = {g: i for i, g in enumerate(order)}
        for g in order:
            for name in g._fields:
                child = getattr(g, name)
                if isinstance(child, Formula):
                    assert place[child] < place[g]


def test_walk_rejects_a_child_that_is_not_a_formula():
    for f in (Not(3), And(P, "q"), Box(Not(None))):
        with pytest.raises(TypeError, match="not a formula"):
            children_first(f)
        with pytest.raises(TypeError, match="not a formula"):
            modal_depth(f)


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
    # also once the node caches its walk, and inside a container
    assert modal_depth(f) == 2
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy([f, f.left]) == [f, f.left]
    assert pickle.loads(pickle.dumps((f, Not(f))))[1] is Not(f)


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
