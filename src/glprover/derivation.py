"""G3KGL derivations as rule trees, their independent checker, and their
certificate formats.

A derivation node holds only its rule and principal; its sequent follows
from the root ``=> 0:goal`` and the rules applied below it.  One replay walk
rebuilds each node's sequent through the rule schemas; the checker, the
loader and the three serializers (structured JSON, indented text, DOT graph)
all read the tree by it.  Nothing here depends on how a derivation was
found.

The serializers write straight from the replay.  Consecutive sequents mostly
share their sides, so each writer call prints every formula, labelled
formula and sequent side once and reuses the text.  The structured writer
writes compact canonical JSON, in which a node's text does not depend on
its depth, so the document grows linearly with the proof; the loader
compares that text with the compact encoding of the document it read.

The checker states the eleven rules whose principal is one labelled formula
x:A (Init, LBot, RTop and the eight propositional rules) as one table, a row
per rule: the sides x:A must stand on, the connectives A may have, the error
reported otherwise, and the formulas each premise adds at x on the left and
on the right.  Irref, Trans, LBox and RBoxLob, whose principals carry more
labels, are written out.  The search keeps its own table of the propositional
rules, so a slip in either one shows as a proof the checker rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from ._jsontext import dumps, is_natural, loads
from .syntax import And, Box, Falsum, Formula, Iff, Imp, Not, Or, ParseError, Verum, parse, pretty, sort_key

# Rule identifiers.  Leaves: Init, LBot, Irref, plus RTop (a sequent with x:True
# in the consequent is closed; without it True and the definitional schema for
# it would be unprovable).  LAnd/RAnd also decompose a biconditional, read as
# the conjunction of the two implications.
INIT, LBOT, RTOP, IRREF = "Init", "LBot", "RTop", "Irref"
LAND, RAND, LOR, ROR = "LAnd", "RAnd", "LOr", "ROr"
LNOT, RNOT, LIMP, RIMP = "LNot", "RNot", "LImp", "RImp"
LBOX, RBOXLOB, TRANS = "LBox", "RBoxLob", "Trans"

LEAF_RULES = (INIT, LBOT, IRREF, RTOP)
TWO_PREMISE_RULES = (RAND, LOR, LIMP)

# The deepest node a structured (JSON) derivation document holds, in premises
# below the root: ``json.loads``, which reads it back, recurses once per JSON
# level.  A node at depth k is an object at JSON level 2k + 1 and its sequent's
# pairs are at 2k + 4, so 494 premises are 992 JSON levels: under the default
# recursion limit the loader reads that from a top-level call, not one deeper.
STRUCTURED_MAX_DEPTH = 494

LabelledFormula = tuple[int, Formula]
RelAtom = tuple[int, int]


@dataclass(frozen=True)
class SequentState:
    """Snapshot of one sequent: relational atoms and labelled formulas on the
    left and right."""

    rel: frozenset[RelAtom]
    left: frozenset[LabelledFormula]
    right: frozenset[LabelledFormula]

    def labels(self) -> frozenset[int]:
        return frozenset({x for pair in self.rel for x in pair}
                         | {x for x, _ in self.left} | {x for x, _ in self.right})


@dataclass(frozen=True, slots=True)
class Derivation:
    """Proof tree node; its sequent is replayed from the root ``=> 0:goal``."""

    rule: str
    principal: tuple
    premises: tuple["Derivation", ...] = ()


def _components(f: Formula) -> tuple[Formula, Formula]:
    """Conjuncts handled by the And rules; a biconditional contributes its
    two implications."""
    if isinstance(f, And):
        return f.left, f.right
    if isinstance(f, Iff):
        return Imp(f.left, f.right), Imp(f.right, f.left)
    raise TypeError(f"no conjunctive components: {f!r}")


def _lf_key(item: LabelledFormula) -> tuple:
    return (item[0], sort_key(item[1]))


# --- independent derivation checking -------------------------------------------

# rule -> (sides x:A must stand on, connectives A may have, error otherwise,
# A -> [(formulas added at x on the left, on the right) for each premise]);
# the principal leaves its side.
_LABELLED_FORMULA_RULES = {
    INIT: (("left", "right"), Formula, "Init needs the formula on both sides", lambda f: ()),
    LBOT: (("left",), Falsum, "LBot needs x:False on the left", lambda f: ()),
    RTOP: (("right",), Verum, "RTop needs x:True on the right", lambda f: ()),
    LAND: (("left",), (And, Iff), "LAnd principal must be a left conjunction or biconditional",
           lambda f: [(_components(f), ())]),
    RAND: (("right",), (And, Iff), "RAnd principal must be a right conjunction or biconditional",
           lambda f: [((), (c,)) for c in _components(f)]),
    LOR: (("left",), Or, "LOr principal must be a left disjunction",
          lambda f: [((f.left,), ()), ((f.right,), ())]),
    ROR: (("right",), Or, "ROr principal must be a right disjunction", lambda f: [((), (f.left, f.right))]),
    LNOT: (("left",), Not, "LNot principal must be a left negation", lambda f: [((), (f.sub,))]),
    RNOT: (("right",), Not, "RNot principal must be a right negation", lambda f: [((f.sub,), ())]),
    LIMP: (("left",), Imp, "LImp principal must be a left implication",
           lambda f: [((), (f.left,)), ((f.right,), ())]),
    RIMP: (("right",), Imp, "RImp principal must be a right implication", lambda f: [((f.left,), (f.right,))]),
}


def _expected_premises(s: SequentState, rule: str, principal: tuple) -> list[SequentState] | str:
    """Premise sequents forced by a rule instance, or an error string."""
    row = _LABELLED_FORMULA_RULES.get(rule)
    if row is not None:
        if not (isinstance(principal, tuple) and len(principal) == 2):
            return "principal must be a labelled formula"
        sides, kinds, error, premises = row
        x, f = principal
        if not isinstance(f, kinds) or any(principal not in getattr(s, side) for side in sides):
            return error
        left = s.left - {principal} if "left" in sides else s.left
        right = s.right - {principal} if "right" in sides else s.right
        return [SequentState(s.rel, left | {(x, g) for g in on_left}, right | {(x, g) for g in on_right})
                for on_left, on_right in premises(f)]

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
        return [SequentState(s.rel | {(x, z)}, s.left, s.right)]

    if rule == LBOX:
        if not (isinstance(principal, tuple) and len(principal) == 3):
            return "LBox principal must be (label, box formula, target label)"
        x, f, y = principal
        if not isinstance(f, Box) or (x, f) not in s.left:
            return "LBox needs x:Box A on the left"
        if (x, y) not in s.rel:
            return "LBox needs xRy among the relational atoms"
        return [SequentState(s.rel, s.left | {(y, f.sub)}, s.right)]

    if rule == RBOXLOB:
        if not (isinstance(principal, tuple) and len(principal) == 3):
            return "RBoxLob principal must be (label, box formula, fresh label)"
        x, f, y = principal
        if not isinstance(f, Box) or (x, f) not in s.right:
            return "RBoxLob needs x:Box A on the right"
        if y in s.labels():
            return f"RBoxLob label {y} is not fresh"
        return [SequentState(s.rel | {(x, y)}, s.left | {(y, f)}, s.right - {(x, f)} | {(y, f.sub)})]

    return f"unknown rule {rule!r}"


def _replay(d: Derivation, goal: Formula):
    """Yield ``(depth, node, sequent)`` in preorder, premises left to right,
    each premise's sequent forced by its parent's rule instance from the root
    ``=> 0:goal`` on; raise ValueError("node <path>: ...") at the first schema
    violation.  Iterative: a search branch can outgrow the recursion limit."""
    root = SequentState(frozenset(), frozenset(), frozenset({(0, goal)}))
    stack: list[tuple[Derivation, str, int, SequentState]] = [(d, "0", 0, root)]
    while stack:
        node, path, depth, s = stack.pop()
        yield depth, node, s
        expected = _expected_premises(s, node.rule, node.principal)
        if isinstance(expected, str):
            raise ValueError(f"node {path}: {expected}")
        if len(expected) != len(node.premises):
            raise ValueError(f"node {path}: rule {node.rule} needs {len(expected)} premises, has {len(node.premises)}")
        for k in reversed(range(len(expected))):
            stack.append((node.premises[k], f"{path}.{k}", depth + 1, expected[k]))


def derivation_error(d: Derivation, goal: Formula) -> str | None:
    """First schema violation in the tree, or None if the derivation is a
    correct proof of ``=> 0:goal``."""
    try:
        for _ in _replay(d, goal):
            pass
    except ValueError as exc:
        return str(exc)
    return None


def check_derivation(d: Derivation, goal: Formula) -> bool:
    """Revalidate a derivation bottom to top against the rule schemas,
    independently of how it was found."""
    return derivation_error(d, goal) is None


# --- serialization ---------------------------------------------------------------

class _Memo(dict):
    """``render(key)`` for each key, computed once.  A writer call keeps one
    per kind of text, since a certificate repeats its formulas, labelled
    formulas and whole sequent sides from node to node; a load keeps one of
    the formulas parsed."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _label(v) -> int:
    if not is_natural(v):
        raise ValueError(f"label {v!r} is not a natural")
    return v


def _principal_from_list(rule: str, raw: list, formulas: _Memo) -> tuple:
    if rule in (IRREF, TRANS):
        return tuple(_label(v) for v in raw)
    if rule in (LBOX, RBOXLOB):
        return (_label(raw[0]), formulas[raw[1]], _label(raw[2]))
    return (_label(raw[0]), formulas[raw[1]])


def _structured_pieces(d: Derivation, goal: Formula):
    """Yield the structured document of a derivation of ``=> 0:goal`` as text
    pieces, in order.  Joined, they are ``dumps(doc)`` of the nested document
    ``{"premises", "principal", "rule", "sequent": {"left", "rel", "right"}}``,
    so a node's premises come before its own text, which is written once its
    subtree is closed.  ValueError if a node lies deeper than
    ``STRUCTURED_MAX_DEPTH``."""
    texts = _Memo(lambda f: _quote(pretty(f)))
    items = _Memo(lambda lf: f"[{lf[0]},{texts[lf[1]]}]")
    sides = _Memo(lambda side: "[" + ",".join([items[lf] for lf in sorted(side, key=_lf_key)]) + "]")
    rels = _Memo(lambda rel: "[" + ",".join([f"[{x},{y}]" for x, y in sorted(rel)]) + "]")
    closing: list[str] = []  # the closing text of each open node with premises, root first
    separator = ""  # before the next node: a comma after a sibling, else none
    for depth, node, s in _replay(d, goal):
        if depth > STRUCTURED_MAX_DEPTH:
            raise ValueError(f"derivation deeper than {STRUCTURED_MAX_DEPTH} levels")
        while len(closing) > depth:  # the subtrees ending here, deepest first
            yield closing.pop()
            separator = ","
        principal = ",".join([texts[v] if isinstance(v, Formula) else str(v) for v in node.principal])
        own = (f'"principal":[{principal}],"rule":{_quote(node.rule)},"sequent":'
               f'{{"left":{sides[s.left]},"rel":{rels[s.rel]},"right":{sides[s.right]}}}}}')
        if node.premises:
            yield separator + '{"premises":['
            closing.append("]," + own)
            separator = ""
        else:
            yield separator + '{"premises":[],' + own
            separator = ","
    while closing:
        yield closing.pop()


def derivation_to_json(d: Derivation, goal: Formula) -> str:
    """Structured (JSON) document of a derivation of ``=> 0:goal``, with
    replayed sequents, as compact canonical JSON; ValueError if a node lies
    deeper than ``STRUCTURED_MAX_DEPTH``."""
    return "".join(_structured_pieces(d, goal)) + "\n"


def _tree_from_dict(doc: dict, formulas: _Memo) -> Derivation:
    # Recursive, one frame per level: json.loads already bounds the nesting,
    # two JSON levels per derivation level, below the recursion limit.
    rule = doc["rule"]
    principal = _principal_from_list(rule, doc["principal"], formulas)
    premises = []
    for p in doc["premises"]:
        premises.append(_tree_from_dict(p, formulas))
    return Derivation(rule, principal, tuple(premises))


def derivation_from_dict(doc: dict) -> Derivation:
    """Read a derivation document's rule tree; the goal is the root's stated
    ``=> 0:A``.  The document must be the tree's canonical rendering for that
    goal, so every stated sequent is checked against the replay.  Each
    distinct formula text is parsed once."""
    formulas = _Memo(parse)
    try:
        goal = formulas[doc["sequent"]["right"][0][1]]
        d = _tree_from_dict(doc, formulas)
        # compared as compact JSON text, where 0, 0.0 and false differ
        if "".join(_structured_pieces(d, goal)) != dumps(doc):
            raise ValueError("the stated sequents are not the replayed ones")
    except (KeyError, TypeError, IndexError, ValueError, ParseError, RecursionError) as exc:
        raise ValueError(f"malformed derivation document: {exc}") from None
    return d


def derivation_from_json(text: str) -> Derivation:
    return derivation_from_dict(loads(text))


class _SequentTexts:
    """The text of each formula, sequent side and set of relational atoms,
    printed once per writer call, since consecutive sequents mostly share
    their sides."""

    def __init__(self):
        formulas = self.formulas = _Memo(pretty)  # not read through self: no cycle outlives the call
        self.sides = _Memo(lambda side: ", ".join([f"{x}:{formulas[f]}" for x, f in sorted(side, key=_lf_key)]))
        self.rels = _Memo(lambda rel: ", ".join([f"{x}R{y}" for x, y in sorted(rel)]))


def _sequent_to_text(s: SequentState, texts: _SequentTexts) -> str:
    ante = ", ".join(filter(None, (texts.rels[s.rel], texts.sides[s.left])))
    return f"{ante} => {texts.sides[s.right]}"


def derivation_to_text(d: Derivation, goal: Formula) -> str:
    """Human-readable indented rendering of a derivation of ``=> 0:goal``."""
    lines: list[str] = []
    texts = _SequentTexts()
    for depth, node, s in _replay(d, goal):
        principal = ",".join([texts.formulas[v] if isinstance(v, Formula) else str(v) for v in node.principal])
        lines.append("  " * depth + f"{node.rule}[{principal}]  {_sequent_to_text(s, texts)}")
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def derivation_to_dot(d: Derivation, goal: Formula) -> str:
    """Graph description of a derivation of ``=> 0:goal``, one node per rule
    application; the edge into a node follows the node's whole subtree."""
    lines = ["digraph derivation {"]
    open_ids: list[int] = []  # ids of the nodes from the root down
    texts = _SequentTexts()
    for nid, (depth, node, s) in enumerate(_replay(d, goal)):
        while len(open_ids) > depth:  # the subtrees ending here, deepest first
            child = open_ids.pop()
            lines.append(f"  n{open_ids[-1]} -> n{child};")
        label = f"{node.rule}: {_sequent_to_text(s, texts)}".replace('"', "'")
        lines.append(f'  n{nid} [label="{label}"];')
        open_ids.append(nid)
    lines += [f"  n{parent} -> n{child};" for parent, child in zip(open_ids[-2::-1], open_ids[:0:-1])]
    lines.append("}\n")
    return "\n".join(lines)
