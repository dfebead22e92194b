"""Labelled sequent proof search for GL (calculus G3KGL).

Sequents carry relational atoms xRy and labelled formulas x:A on both sides;
world labels are naturals allocated by a counter, the root being 0.  Proof
search is root-first and deterministic: close the branch when possible, then
saturate non-branching propositional rules, then branching ones, then the
transitivity and left-box rules, and finally apply the Loeb right-box rule to
the best candidate under a fixed ordering heuristic.  A branch that saturates
without closing yields a finite irreflexive-transitive countermodel, which is
validated semantically before being returned.

A derivation is its rule tree.  One replay walk rebuilds each node's sequent
from the root ``=> 0:goal`` through the rule schemas, independently of the
search; the checker, the loader and the serializers all read the tree by it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import BudgetExceededError, InternalCheckError
from .semantics import Model, is_itf, make_model, truth_sets
from .syntax import (
    And, Atom, Box, Falsum, Formula, Iff, Imp, Not, Or, Verum,
    parse, pretty, sort_key, subformulas,
)

DEFAULT_MAX_STEPS = 10**6

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


@dataclass(frozen=True)
class Derivation:
    """Proof tree node; its sequent is replayed from the root ``=> 0:goal``."""

    rule: str
    principal: tuple
    premises: tuple["Derivation", ...] = ()


@dataclass(frozen=True)
class Proved:
    derivation: Derivation


@dataclass(frozen=True)
class Refuted:
    branch: SequentState
    countermodel: Model
    falsified_at: int


SearchResult = Proved | Refuted


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


class _Branch:
    """Mutable working state of one search branch, with the rule instances
    already applied on it (``bookkeeping``)."""

    __slots__ = ("rel", "left", "right", "bookkeeping")

    def __init__(self, rel, left, right, bookkeeping):
        self.rel: set[RelAtom] = rel
        self.left: set[LabelledFormula] = left
        self.right: set[LabelledFormula] = right
        self.bookkeeping: set[tuple] = bookkeeping

    def copy(self) -> "_Branch":
        return _Branch(set(self.rel), set(self.left), set(self.right), set(self.bookkeeping))

    def freeze(self) -> SequentState:
        return SequentState(frozenset(self.rel), frozenset(self.left), frozenset(self.right))


@dataclass
class _Open:
    """Saturated open branch, aborting the search with a refutation."""

    state: SequentState


class _Searcher:
    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps = 0
        self.next_label = 1

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise BudgetExceededError(f"proof search exceeded {self.max_steps} rule applications")

    # -- deterministic candidate selection --

    def find_close(self, br: _Branch):
        shared = br.left & br.right
        if shared:
            return INIT, min(shared, key=_lf_key)
        bots = [(x, f) for x, f in br.left if isinstance(f, Falsum)]
        if bots:
            return LBOT, min(bots)
        irrefs = [(x, y) for x, y in br.rel if x == y]
        if irrefs:
            return IRREF, (min(irrefs)[0],)
        tops = [(x, f) for x, f in br.right if isinstance(f, Verum)]
        if tops:
            return RTOP, min(tops)
        return None

    def find_prop(self, br: _Branch):
        for rule, side, kinds in (
            (LAND, br.left, (And, Iff)),
            (ROR, br.right, (Or,)),
            (LNOT, br.left, (Not,)),
            (RNOT, br.right, (Not,)),
            (RIMP, br.right, (Imp,)),
            (RAND, br.right, (And, Iff)),
            (LOR, br.left, (Or,)),
            (LIMP, br.left, (Imp,)),
        ):
            candidates = [(x, f) for x, f in side if isinstance(f, kinds)]
            if candidates:
                return rule, min(candidates, key=_lf_key)
        return None

    def find_trans(self, br: _Branch):
        rel = sorted(br.rel)
        for x, y in rel:
            for y2, z in rel:
                if y2 == y and (x, z) not in br.rel:
                    return (x, y, z)
        return None

    def find_lbox(self, br: _Branch):
        boxes = sorted(((x, f) for x, f in br.left if isinstance(f, Box)), key=_lf_key)
        for x, f in boxes:
            for x2, y in sorted(br.rel):
                if x2 == x and ("LBox", x, f, y) not in br.bookkeeping:
                    return (x, f, y)
        return None

    def find_rboxlob(self, br: _Branch):
        candidates = [
            (x, f) for x, f in br.right
            if isinstance(f, Box) and ("RBoxLob", x, f) not in br.bookkeeping
        ]
        if not candidates:
            return None
        bodies = [f.sub for _, f in candidates]

        def heuristic(item: LabelledFormula) -> tuple:
            x, f = item
            body = f.sub
            negated = 0 if isinstance(body, Not) else 1
            occurs = 0 if any(b != body and body in subformulas(b) for b in bodies) else 1
            return (negated, occurs, sort_key(body), x)

        return min(candidates, key=heuristic)

    # -- rule application --

    def apply_prop(self, br: _Branch, rule: str, principal: LabelledFormula):
        x, f = principal
        if rule == LAND:
            c1, c2 = _components(f)
            br.left.discard(principal)
            br.left.add((x, c1))
            br.left.add((x, c2))
        elif rule == ROR:
            br.right.discard(principal)
            br.right.add((x, f.left))
            br.right.add((x, f.right))
        elif rule == LNOT:
            br.left.discard(principal)
            br.right.add((x, f.sub))
        elif rule == RNOT:
            br.right.discard(principal)
            br.left.add((x, f.sub))
        elif rule == RIMP:
            br.right.discard(principal)
            br.left.add((x, f.left))
            br.right.add((x, f.right))
        else:
            raise AssertionError(rule)

    def branch_premises(self, br: _Branch, rule: str, principal: LabelledFormula) -> list[_Branch]:
        x, f = principal
        first, second = br.copy(), br.copy()
        if rule == RAND:
            c1, c2 = _components(f)
            first.right.discard(principal)
            first.right.add((x, c1))
            second.right.discard(principal)
            second.right.add((x, c2))
        elif rule == LOR:
            first.left.discard(principal)
            first.left.add((x, f.left))
            second.left.discard(principal)
            second.left.add((x, f.right))
        elif rule == LIMP:
            first.left.discard(principal)
            first.right.add((x, f.left))
            second.left.discard(principal)
            second.left.add((x, f.right))
        else:
            raise AssertionError(rule)
        return [first, second]

    # -- the search loop --

    def expand(self, br: _Branch):
        segments: list[tuple[str, tuple]] = []

        def wrap(node: Derivation) -> Derivation:
            for rule, principal in reversed(segments):
                node = Derivation(rule, principal, (node,))
            return node

        while True:
            closed = self.find_close(br)
            if closed is not None:
                rule, principal = closed
                self.tick()
                return wrap(Derivation(rule, principal))

            prop = self.find_prop(br)
            if prop is not None:
                rule, principal = prop
                self.tick()
                if rule in TWO_PREMISE_RULES:
                    premises = []
                    for sub in self.branch_premises(br, rule, principal):
                        outcome = self.expand(sub)
                        if isinstance(outcome, _Open):
                            return outcome
                        premises.append(outcome)
                    return wrap(Derivation(rule, principal, tuple(premises)))
                self.apply_prop(br, rule, principal)
                segments.append((rule, principal))
                continue

            trans = self.find_trans(br)
            if trans is not None:
                x, y, z = trans
                self.tick()
                br.rel.add((x, z))
                segments.append((TRANS, trans))
                continue

            lbox = self.find_lbox(br)
            if lbox is not None:
                x, f, y = lbox
                self.tick()
                br.left.add((y, f.sub))
                br.bookkeeping.add(("LBox", x, f, y))
                segments.append((LBOX, lbox))
                continue

            rbox = self.find_rboxlob(br)
            if rbox is not None:
                x, f = rbox
                y = self.next_label
                self.next_label += 1
                self.tick()
                br.rel.add((x, y))
                br.left.add((y, f))
                br.right.discard(rbox)
                br.right.add((y, f.sub))
                br.bookkeeping.add(("RBoxLob", x, f))
                segments.append((RBOXLOB, (x, f, y)))
                continue

            return _Open(br.freeze())


def extract_countermodel(branch: SequentState, root: int) -> tuple[Model, int]:
    """Read the countermodel off a saturated open branch: its labels are the
    worlds, its relational atoms the relation, and an atom is true at a label
    exactly when the branch asserts it on the left.  The result is verified:
    the frame must be irreflexive-transitive and the model must make every
    left formula true and every right formula false at its label."""
    worlds = set(branch.labels()) | {root}
    val: dict[str, set[int]] = {}
    for x, f in branch.left:
        if isinstance(f, Atom):
            val.setdefault(f.name, set()).add(x)
    model = make_model(worlds, branch.rel, val)
    if not is_itf(model.frame):
        raise InternalCheckError("open branch did not produce an irreflexive transitive frame")
    truth_set = truth_sets(model)
    for x, f in branch.left:
        if x not in truth_set(f):
            raise InternalCheckError(f"countermodel fails antecedent {x}:{pretty(f)}")
    for x, f in branch.right:
        if x in truth_set(f):
            raise InternalCheckError(f"countermodel satisfies consequent {x}:{pretty(f)}")
    return model, root


def search(f: Formula, max_steps: int = DEFAULT_MAX_STEPS) -> SearchResult:
    """Decide ``f``: a closed derivation of the sequent ``=> 0:f``, or a
    validated countermodel from the first saturated open branch."""
    searcher = _Searcher(max_steps)
    start = _Branch(set(), set(), {(0, f)}, set())
    outcome = searcher.expand(start)
    if isinstance(outcome, _Open):
        model, world = extract_countermodel(outcome.state, 0)
        if world in truth_sets(model)(f):
            raise InternalCheckError("extracted model does not falsify the goal at the root")
        return Refuted(outcome.state, model, world)
    return Proved(outcome)


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

def _principal_to_list(rule: str, principal: tuple) -> list:
    if rule in (IRREF, TRANS):
        return list(principal)
    if rule in (LBOX, RBOXLOB):
        x, f, y = principal
        return [x, pretty(f), y]
    x, f = principal
    return [x, pretty(f)]


def _principal_from_list(rule: str, raw: list) -> tuple:
    if rule in (IRREF, TRANS):
        return tuple(int(v) for v in raw)
    if rule in (LBOX, RBOXLOB):
        return (int(raw[0]), parse(raw[1]), int(raw[2]))
    return (int(raw[0]), parse(raw[1]))


def _sequent_to_dict(s: SequentState) -> dict:
    return {
        "rel": sorted([x, y] for x, y in s.rel),
        "left": [[x, pretty(f)] for x, f in sorted(s.left, key=_lf_key)],
        "right": [[x, pretty(f)] for x, f in sorted(s.right, key=_lf_key)],
    }


def derivation_to_dict(d: Derivation, goal: Formula) -> dict:
    """Nested document of a derivation of ``=> 0:goal``, with replayed sequents."""
    open_nodes: list[dict] = []  # the document's nodes from the root down
    for depth, node, s in _replay(d, goal):
        doc = {
            "rule": node.rule,
            "principal": _principal_to_list(node.rule, node.principal),
            "sequent": _sequent_to_dict(s),
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
        if derivation_to_dict(d, goal) != doc:
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


def _sequent_to_text(s: SequentState) -> str:
    ante = [f"{x}R{y}" for x, y in sorted(s.rel)]
    ante += [f"{x}:{pretty(f)}" for x, f in sorted(s.left, key=_lf_key)]
    cons = [f"{x}:{pretty(f)}" for x, f in sorted(s.right, key=_lf_key)]
    return ", ".join(ante) + " => " + ", ".join(cons)


def derivation_to_text(d: Derivation, goal: Formula) -> str:
    """Human-readable indented rendering of a derivation of ``=> 0:goal``."""
    lines: list[str] = []
    for depth, node, s in _replay(d, goal):
        principal = ",".join(str(v) for v in _principal_to_list(node.rule, node.principal))
        lines.append("  " * depth + f"{node.rule}[{principal}]  {_sequent_to_text(s)}")
    return "\n".join(lines) + "\n"


def derivation_to_dot(d: Derivation, goal: Formula) -> str:
    """Graph description of a derivation of ``=> 0:goal``, one node per rule
    application; the edge into a node follows the node's whole subtree."""
    lines = ["digraph derivation {"]
    open_ids: list[int] = []  # ids of the nodes from the root down
    for nid, (depth, node, s) in enumerate(_replay(d, goal)):
        while len(open_ids) > depth:  # the subtrees ending here, deepest first
            child = open_ids.pop()
            lines.append(f"  n{open_ids[-1]} -> n{child};")
        label = f"{node.rule}: {_sequent_to_text(s)}".replace('"', "'")
        lines.append(f'  n{nid} [label="{label}"];')
        open_ids.append(nid)
    lines += [f"  n{parent} -> n{child};" for parent, child in zip(open_ids[-2::-1], open_ids[:0:-1])]
    lines.append("}")
    return "\n".join(lines) + "\n"
