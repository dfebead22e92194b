"""Modal formulas: abstract syntax, concrete syntax, and subformula machinery.

The object language has falsity and truth constants, named atoms, negation,
conjunction, disjunction, implication, biconditional and the box modality.
``Diam`` is not a constructor: ``Diam A`` is sugar for ``Not (Box (Not A))``
and is desugared by the parser (and resugared by the printer when that exact
shape occurs).  The parser and the printer read one table of the binary
connectives' precedence and walk with explicit stacks, so they take any depth.

Formulas are hash-consed (Filliatre & Conchon, *Type-safe modular
hash-consing*, 2006): a constructor returns the one live node with its
constructor and children, so structural equality is identity and ``==`` is
``is``, and the default identity hash agrees with it.  Each node carries its
``sort_key``, computed once from its children's, and on first request
caches its distinct subformulas, children first (``children_first``).  That
tuple is the one walk over a formula's children: ``subformulas``, ``atoms``,
``modal_depth`` and the semantic evaluator are loops over it.  The intern
table holds its nodes weakly: a formula nobody uses any more leaves it.
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

    __slots__ = ("sort_key", "_children_first", "__weakref__")
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
            init(node, "sort_key", (cls._tag, *(a.sort_key if isinstance(a, Formula) else a for a in args)))
            init(node, "_children_first", None)
            _INTERN[key] = node
        return node

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


def _children(g: Formula) -> tuple:
    """The immediate subterms of ``g``: none for an atom, whose field is its name."""
    return () if type(g) is Atom else tuple(getattr(g, name) for name in g._fields)


def children_first(f: Formula) -> tuple[Formula, ...]:
    """The distinct subformulas of ``f``, each after its children, ending with
    ``f``.  Built on first request by a walk with an explicit stack, so no
    depth is too deep, and cached on the node.  TypeError for a child that
    is not a formula."""
    order = getattr(f, "_children_first", None)
    if order is None:
        done: dict[Formula, None] = {}  # in the order finished
        stack = [(f, False)]  # (node, its children finished)
        while stack:
            g, expanded = stack.pop()
            if expanded:
                done[g] = None
            elif not isinstance(g, Formula):
                raise TypeError(f"not a formula: {g!r}")
            elif g not in done:
                stack.append((g, True))
                stack += ((c, False) for c in _children(g))
        order = tuple(done)
        object.__setattr__(f, "_children_first", order)
    return order


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``: the reflexive-transitive closure of the
    immediate-subterm relation.  ``f`` itself is always a member."""
    return frozenset(children_first(f))


def subsentences(f: Formula) -> frozenset[Formula]:
    """Subformulas of ``f`` together with their single negations."""
    subs = subformulas(f)
    return subs | frozenset(Not(q) for q in subs)


def atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring in ``f``."""
    return frozenset(g.name for g in children_first(f) if type(g) is Atom)


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of Box in ``f``."""
    depth: dict[Formula, int] = {}
    for g in children_first(f):
        depth[g] = max((depth[c] for c in _children(g)), default=0) + (type(g) is Box)
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


# The binary connectives, read by both ``parse`` and ``pretty``: token kind,
# symbol, constructor, own level, and the least level of the left and of the
# right operand written without parentheses.  Prefix operators are at level 5
# and leaves at 6, so neither is ever parenthesized.
_BINARY = (
    ("iff", "<->", Iff, 1, 2, 2),
    ("imp", "-->", Imp, 2, 3, 2),
    ("or", "||", Or, 3, 4, 3),
    ("and", "&&", And, 4, 5, 4),
)
_PREFIX_LEVEL = 5
_PREFIX = {"Not": Not, "Box": Box, "Diam": Diam}
_CONSTANTS = {"False": FALSE, "True": TRUE}
_BY_KIND = {row[0]: row for row in _BINARY}
_INFIX = {ctor: (level, left, f" {symbol} ", right) for _, symbol, ctor, level, left, right in _BINARY}
_OPEN = (0, 0, None, 0)  # a "(" on the pending stack; nothing reduces past it


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula.  Raises ParseError with the
    offending position on malformed input.

    An operator-precedence loop with two states, expecting an operand or a
    connective.  Operands wait on one stack; operators wait on another as
    ``(level, least level of the right operand, constructor, arity)``,
    together with the open parentheses, so no nesting is too deep."""
    operands: list[Formula] = []
    pending: list[tuple] = [_OPEN]  # the whole input is one parenthesized group
    depth = 0  # parentheses open
    tokens = iter(_tokenize(text))
    for kind, value, pos in tokens:  # expect an operand
        if kind in _PREFIX:
            pending.append((_PREFIX_LEVEL, _PREFIX_LEVEL, _PREFIX[kind], 1))
            continue
        if kind == "lparen":
            pending.append(_OPEN)
            depth += 1
            continue
        if kind == "ident":
            operands.append(Atom(value))
        elif kind in _CONSTANTS:
            operands.append(_CONSTANTS[kind])
        else:
            raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)
        for kind, value, pos in tokens:  # expect a connective, a ")" or the end
            row = _BY_KIND.get(kind)
            if row is None and kind != ("rparen" if depth else "eof"):
                raise ParseError(f"expected 'rparen', found {value or 'end of input'!r}" if depth
                                 else f"unexpected trailing token {value!r}", pos)
            min_level = 1 if row is None else row[4]
            while pending[-1][0] >= min_level:  # apply the operators that bind tighter
                _, _, ctor, arity = pending.pop()
                if arity == 2:
                    right = operands.pop()
                    operands[-1] = ctor(operands[-1], right)
                else:
                    operands[-1] = ctor(operands[-1])
            if row is not None:
                break
            if kind == "eof":
                return operands[0]
            pending.pop()
            depth -= 1
        _, symbol, ctor, level, _, right_min = row
        if level < pending[-1][1]:
            raise ParseError(f"{symbol!r} is non-associative, use parentheses", pos)
        pending.append((level, right_min, ctor, 2))


def pretty(f: Formula) -> str:
    """Canonical concrete syntax for ``f``; minimally parenthesized, and
    ``parse(pretty(f))`` is structurally equal to ``f``.  The text is written
    left to right from an explicit stack of pieces, literals and
    ``(formula, least level of its position)``, so no nesting is too deep."""
    out: list[str] = []
    stack: list = [(f, 0)]  # the next piece last
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        g, min_level = piece
        cls = type(g)
        if cls in _INFIX:
            level, left, symbol, right = _INFIX[cls]
            if level < min_level:
                out.append("(")
                stack.append(")")
            stack += ((g.right, right), symbol, (g.left, left))
        elif cls is Not and type(g.sub) is Box and type(g.sub.sub) is Not:
            out.append("Diam ")
            stack.append((g.sub.sub.sub, _PREFIX_LEVEL))
        elif cls is Not or cls is Box:
            out.append("Not " if cls is Not else "Box ")
            stack.append((g.sub, _PREFIX_LEVEL))
        elif cls is Atom:
            out.append(g.name)
        elif cls is Falsum or cls is Verum:
            out.append("False" if cls is Falsum else "True")
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)
