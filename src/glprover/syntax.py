"""Modal formulas: abstract syntax, concrete syntax, and subformula machinery.

The object language has falsity and truth constants, named atoms, negation,
conjunction, disjunction, implication, biconditional and the box modality.
``Diam`` is not a constructor: ``Diam A`` is sugar for ``Not (Box (Not A))``
and is desugared by the parser (and resugared by the printer when that exact
shape occurs).

Formulas are hash-consed (Filliatre & Conchon, *Type-safe modular
hash-consing*, 2006): a constructor returns the one live node with its
constructor and children, so structural equality is identity and ``==`` is
``is``.  Each node carries its structural hash and its ``sort_key``, both
computed once from its children's, and caches its subformula set on first
request.  The intern table holds its nodes weakly: a formula nobody uses any
more leaves it.
"""

from __future__ import annotations

import re
import weakref

# (constructor, *children or name) -> the live node
_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Formula:
    """Base class of the nine formula constructors.

    Instances are immutable and interned; ``copy`` and ``pickle`` give back
    the interned node.
    """

    __slots__ = ("_hash", "sort_key", "_subformulas", "__weakref__")
    _fields: tuple[str, ...] = ()
    _tag = -1

    def __new__(cls, *args):
        key = (cls, *args)
        node = _INTERN.get(key)
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}")
            node = object.__new__(cls)
            init = object.__setattr__
            for name, value in zip(cls._fields, args):
                init(node, name, value)
            init(node, "_hash", hash((cls._tag, *args)))
            init(node, "sort_key", (cls._tag, *(a.sort_key if isinstance(a, Formula) else a for a in args)))
            init(node, "_subformulas", None)
            _INTERN[key] = node
        return node

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        return pretty(self)


class Falsum(Formula):
    __slots__ = ()
    _tag = 0


class Verum(Formula):
    __slots__ = ()
    _tag = 1


class Atom(Formula):
    __slots__ = _fields = ("name",)
    _tag = 2
    name: str


class Not(Formula):
    __slots__ = _fields = ("sub",)
    _tag = 3
    sub: Formula


class And(Formula):
    __slots__ = _fields = ("left", "right")
    _tag = 4
    left: Formula
    right: Formula


class Or(Formula):
    __slots__ = _fields = ("left", "right")
    _tag = 5
    left: Formula
    right: Formula


class Imp(Formula):
    __slots__ = _fields = ("left", "right")
    _tag = 6
    left: Formula
    right: Formula


class Iff(Formula):
    __slots__ = _fields = ("left", "right")
    _tag = 7
    left: Formula
    right: Formula


class Box(Formula):
    __slots__ = _fields = ("sub",)
    _tag = 8
    sub: Formula


FALSE = Falsum()
TRUE = Verum()


def Diam(f: Formula) -> Formula:
    """Possibility operator, as derived form: Diam A == Not (Box (Not A))."""
    return Not(Box(Not(f)))


def sort_key(f: Formula) -> tuple:
    """Key realizing a strict total order on formulas.

    Constructor tag rank first, then children/names lexicographically.
    ``sort_key(f) < sort_key(g)`` is a total, antisymmetric, transitive
    comparison consistent with structural equality.
    """
    return f.sort_key


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``: the reflexive-transitive closure of the
    immediate-subterm relation.  ``f`` itself is always a member."""
    subs = f._subformulas
    if subs is None:
        acc: set[Formula] = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if g not in acc:
                acc.add(g)
                for name in g._fields:
                    child = getattr(g, name)
                    if isinstance(child, Formula):
                        stack.append(child)
        subs = frozenset(acc)
        object.__setattr__(f, "_subformulas", subs)
    return subs


def subsentences(f: Formula) -> frozenset[Formula]:
    """Subformulas of ``f`` together with their single negations."""
    subs = subformulas(f)
    return subs | frozenset(Not(q) for q in subs)


def atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring in ``f``."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of Box in ``f``.  The walk keeps an explicit
    stack and visits each node of the subformula DAG once."""
    depth: dict[Formula, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in depth:
            stack.pop()
            continue
        children = [c for c in (getattr(g, name) for name in g._fields) if isinstance(c, Formula)]
        pending = [c for c in children if c not in depth]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        depth[g] = max((depth[c] for c in children), default=0) + isinstance(g, Box)
    return depth[f]


# --- concrete syntax ---------------------------------------------------------
#
# Precedence, tightest first:  Not/Box/Diam (prefix), &&, ||, --> (right
# associative), <-> (non-associative).  Parentheses override.  Atom names are
# a letter followed by letters, digits, underscores or primes.

class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_KEYWORDS = ("False", "True", "Not", "Box", "Diam")

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<and>&&)
      | (?P<or>\|\|)
      | (?P<imp>-->)
      | (?P<iff><->)
      | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unbound token {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def parse_iff(self) -> Formula:
        left = self.parse_imp()
        if self.peek()[0] == "iff":
            self.advance()
            right = self.parse_imp()
            tok = self.peek()
            if tok[0] == "iff":
                raise ParseError("'<->' is non-associative, use parentheses", tok[2])
            return Iff(left, right)
        return left

    def parse_imp(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "imp":
            self.advance()
            return Imp(left, self.parse_imp())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        if self.peek()[0] == "or":
            self.advance()
            return Or(left, self.parse_or())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_prefix()
        if self.peek()[0] == "and":
            self.advance()
            return And(left, self.parse_and())
        return left

    def parse_prefix(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "Not":
            self.advance()
            return Not(self.parse_prefix())
        if kind == "Box":
            self.advance()
            return Box(self.parse_prefix())
        if kind == "Diam":
            self.advance()
            return Diam(self.parse_prefix())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "False":
            self.advance()
            return FALSE
        if kind == "True":
            self.advance()
            return TRUE
        if kind == "ident":
            self.advance()
            return Atom(value)
        if kind == "lparen":
            self.advance()
            inner = self.parse_iff()
            self.expect("rparen")
            return inner
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula.  Raises ParseError with the
    offending position on malformed input."""
    parser = _Parser(text)
    f = parser.parse_iff()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing token {value!r}", pos)
    return f


# Own precedence level of each shape; a child is parenthesized when its level
# is below the level its position requires.
_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_PREFIX, _LEVEL_ATOM = 1, 2, 3, 4, 5, 6


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Falsum):
        return "False", _LEVEL_ATOM
    if isinstance(f, Verum):
        return "True", _LEVEL_ATOM
    if isinstance(f, Atom):
        return f.name, _LEVEL_ATOM
    if isinstance(f, Not):
        if isinstance(f.sub, Box) and isinstance(f.sub.sub, Not):
            return "Diam " + _child(f.sub.sub.sub, _LEVEL_PREFIX), _LEVEL_PREFIX
        return "Not " + _child(f.sub, _LEVEL_PREFIX), _LEVEL_PREFIX
    if isinstance(f, Box):
        return "Box " + _child(f.sub, _LEVEL_PREFIX), _LEVEL_PREFIX
    if isinstance(f, And):
        return _child(f.left, _LEVEL_PREFIX) + " && " + _child(f.right, _LEVEL_AND), _LEVEL_AND
    if isinstance(f, Or):
        return _child(f.left, _LEVEL_AND) + " || " + _child(f.right, _LEVEL_OR), _LEVEL_OR
    if isinstance(f, Imp):
        return _child(f.left, _LEVEL_OR) + " --> " + _child(f.right, _LEVEL_IMP), _LEVEL_IMP
    if isinstance(f, Iff):
        return _child(f.left, _LEVEL_IMP) + " <-> " + _child(f.right, _LEVEL_IMP), _LEVEL_IFF
    raise TypeError(f"not a formula: {f!r}")


def _child(f: Formula, min_level: int) -> str:
    text, level = _render(f)
    return f"({text})" if level < min_level else text


def pretty(f: Formula) -> str:
    """Canonical concrete syntax for ``f``; minimally parenthesized, and
    ``parse(pretty(f))`` is structurally equal to ``f``."""
    return _render(f)[0]
