"""G3KGL derivations as rule trees, their independent checker, and their
certificate formats.

A derivation node holds only its rule and principal; its sequent follows
from the root ``=> 0:goal`` and the rules applied below it.  One replay walk
rebuilds each node's sequent through the rule schemas; the checker, the
loader and the three serializers (structured JSON, indented text, DOT graph)
all read the tree by it.  Nothing here depends on how a derivation was
found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .syntax import And, Box, Falsum, Formula, Iff, Imp, Not, Or, Verum, parse, pretty, sort_key

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
        out = set()
        for x, y in self.rel:
            out.add(x)
            out.add(y)
        for x, _ in self.left:
            out.add(x)
        for x, _ in self.right:
            out.add(x)
        return frozenset(out)


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

def _expected_premises(s: SequentState, rule: str, principal: tuple) -> list[SequentState] | str:
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

class _Texts(dict):
    """``pretty`` of each formula, printed once: one writer call keeps one,
    since a certificate repeats its formulas at every node."""

    def __missing__(self, f: Formula) -> str:
        text = self[f] = pretty(f)
        return text


def _principal_to_list(rule: str, principal: tuple, texts: _Texts) -> list:
    if rule in (IRREF, TRANS):
        return list(principal)
    if rule in (LBOX, RBOXLOB):
        x, f, y = principal
        return [x, texts[f], y]
    x, f = principal
    return [x, texts[f]]


def _label(v) -> int:
    if type(v) is not int or v < 0:
        raise ValueError(f"label {v!r} is not a natural")
    return v


def _principal_from_list(rule: str, raw: list) -> tuple:
    if rule in (IRREF, TRANS):
        return tuple(_label(v) for v in raw)
    if rule in (LBOX, RBOXLOB):
        return (_label(raw[0]), parse(raw[1]), _label(raw[2]))
    return (_label(raw[0]), parse(raw[1]))


def _sequent_to_dict(s: SequentState, texts: _Texts) -> dict:
    return {
        "rel": sorted([x, y] for x, y in s.rel),
        "left": [[x, texts[f]] for x, f in sorted(s.left, key=_lf_key)],
        "right": [[x, texts[f]] for x, f in sorted(s.right, key=_lf_key)],
    }


def derivation_to_dict(d: Derivation, goal: Formula) -> dict:
    """Nested document of a derivation of ``=> 0:goal``, with replayed sequents."""
    open_nodes: list[dict] = []  # the document's nodes from the root down
    texts = _Texts()
    for depth, node, s in _replay(d, goal):
        doc = {
            "rule": node.rule,
            "principal": _principal_to_list(node.rule, node.principal, texts),
            "sequent": _sequent_to_dict(s, texts),
            "premises": [],
        }
        del open_nodes[depth:]
        if open_nodes:
            open_nodes[-1]["premises"].append(doc)
        open_nodes.append(doc)
    return open_nodes[0]


def derivation_to_json(d: Derivation, goal: Formula) -> str:
    return json.dumps(derivation_to_dict(d, goal), indent=2, sort_keys=True) + "\n"


def _tree_from_dict(doc: dict) -> Derivation:
    # Recursive, one frame per level: json.loads already bounds the nesting,
    # two JSON levels per derivation level, below the recursion limit.
    rule = doc["rule"]
    principal = _principal_from_list(rule, doc["principal"])
    premises = []
    for p in doc["premises"]:
        premises.append(_tree_from_dict(p))
    return Derivation(rule, principal, tuple(premises))


def derivation_from_dict(doc: dict) -> Derivation:
    """Read a derivation document's rule tree; the goal is the root's stated
    ``=> 0:A``.  The document must be the tree's canonical rendering for that
    goal, so every stated sequent is checked against the replay."""
    try:
        goal = parse(doc["sequent"]["right"][0][1])
        d = _tree_from_dict(doc)
        # compared as JSON text, where 0, 0.0 and false differ
        if json.dumps(derivation_to_dict(d, goal), sort_keys=True) != json.dumps(doc, sort_keys=True):
            raise ValueError("the stated sequents are not the replayed ones")
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed derivation document: {exc}") from None
    return d


def derivation_from_json(text: str) -> Derivation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return derivation_from_dict(doc)


def _sequent_to_text(s: SequentState, texts: _Texts) -> str:
    ante = [f"{x}R{y}" for x, y in sorted(s.rel)]
    ante += [f"{x}:{texts[f]}" for x, f in sorted(s.left, key=_lf_key)]
    cons = [f"{x}:{texts[f]}" for x, f in sorted(s.right, key=_lf_key)]
    return ", ".join(ante) + " => " + ", ".join(cons)


def derivation_to_text(d: Derivation, goal: Formula) -> str:
    """Human-readable indented rendering of a derivation of ``=> 0:goal``."""
    lines: list[str] = []
    texts = _Texts()
    for depth, node, s in _replay(d, goal):
        principal = ",".join(str(v) for v in _principal_to_list(node.rule, node.principal, texts))
        lines.append("  " * depth + f"{node.rule}[{principal}]  {_sequent_to_text(s, texts)}")
    return "\n".join(lines) + "\n"


def derivation_to_dot(d: Derivation, goal: Formula) -> str:
    """Graph description of a derivation of ``=> 0:goal``, one node per rule
    application; the edge into a node follows the node's whole subtree."""
    lines = ["digraph derivation {"]
    open_ids: list[int] = []  # ids of the nodes from the root down
    texts = _Texts()
    for nid, (depth, node, s) in enumerate(_replay(d, goal)):
        while len(open_ids) > depth:  # the subtrees ending here, deepest first
            child = open_ids.pop()
            lines.append(f"  n{open_ids[-1]} -> n{child};")
        label = f"{node.rule}: {_sequent_to_text(s, texts)}".replace('"', "'")
        lines.append(f'  n{nid} [label="{label}"];')
        open_ids.append(nid)
    lines += [f"  n{parent} -> n{child};" for parent, child in zip(open_ids[-2::-1], open_ids[:0:-1])]
    lines.append("}")
    return "\n".join(lines) + "\n"
