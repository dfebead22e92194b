"""Labelled sequent proof search for GL (calculus G3KGL).

Sequents carry relational atoms xRy and labelled formulas x:A on both sides;
world labels are naturals allocated by a counter, the root being 0.  Proof
search is root-first and deterministic: close the branch when possible, then
saturate non-branching propositional rules, then branching ones, then the
transitivity and left-box rules, and finally apply the Loeb right-box rule to
the best candidate under a fixed ordering heuristic.  A branch that saturates
without closing yields a finite irreflexive-transitive countermodel, which is
validated semantically before being returned.

Each step is indexed: a branch keeps the instances its rules could fire
(closures found as formulas arrive, compound formulas per side, heaps of
Trans and LBox instances fed as relational atoms and left boxes arrive), so
selecting the next rule never scans the whole sequent or relation.  The
rule sequence is the one the fixed ordering defines; the indexes only find
it faster.

The search returns a rule tree; the derivation module checks and writes it,
independently of the search, and its functions are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .derivation import (  # noqa: F401 -- re-exported: the CLI reaches them here
    INIT, IRREF, LAND, LBOT, LBOX, LEAF_RULES, LIMP, LNOT, LOR, RAND, RBOXLOB, RIMP,
    RNOT, ROR, RTOP, TRANS, TWO_PREMISE_RULES, Derivation, LabelledFormula, RelAtom,
    SequentState, _components, _lf_key, check_derivation, derivation_error,
    derivation_from_dict, derivation_from_json, derivation_to_dict, derivation_to_dot,
    derivation_to_json, derivation_to_text,
)
from .errors import BudgetExceededError, InternalCheckError
from .semantics import Model, is_itf, make_model, truth_sets
from .syntax import And, Atom, Box, Falsum, Formula, Iff, Imp, Not, Or, Verum, pretty, sort_key, subformulas

DEFAULT_MAX_STEPS = 10**6


@dataclass(frozen=True)
class Proved:
    derivation: Derivation


@dataclass(frozen=True)
class Refuted:
    branch: SequentState
    countermodel: Model
    falsified_at: int


SearchResult = Proved | Refuted


# The propositional rules in selection order: whether the principal is on
# the left, the shapes it has, and per premise the components it adds to the
# left and to the right.
_PROP_RULES = {
    LAND: (True, (And, Iff), lambda f: [(_components(f), ())]),
    ROR: (False, (Or,), lambda f: [((), (f.left, f.right))]),
    LNOT: (True, (Not,), lambda f: [((), (f.sub,))]),
    RNOT: (False, (Not,), lambda f: [((f.sub,), ())]),
    RIMP: (False, (Imp,), lambda f: [((f.left,), (f.right,))]),
    RAND: (False, (And, Iff), lambda f: [((), (c,)) for c in _components(f)]),
    LOR: (True, (Or,), lambda f: [((f.left,), ()), ((f.right,), ())]),
    LIMP: (True, (Imp,), lambda f: [((), (f.left,)), ((f.right,), ())]),
}
_COMPOUND = (And, Iff, Or, Not, Imp)


class _Branch:
    """Mutable working state of one search branch, with the rule instances
    already applied on it (``bookkeeping``) and the indexes that candidate
    selection reads instead of scanning the sequent, kept up to date as
    formulas and relational atoms are added and principals dropped:

    - ``succ``: the successors of each label, which hold the relational
      atoms, and ``boxes``: the left boxed formulas of each label, both as
      immutable values, so that a copy of the branch shares them;
    - ``closing``: the closed-branch instances, tested on each insertion, as
      ``(rank, key, rule, principal)``;
    - ``todo_left``/``todo_right``: the compound formulas on each side, the
      candidates of the propositional rules;
    - ``trans`` and ``lbox``: heaps of the Trans instances ``(x, y, z)`` with
      xRy and yRz, and of the LBox instances ``(x, sort_key(f), y, f)`` with
      x:f on the left and xRy, fed as relational atoms and left boxes arrive.
      An instance stays in its heap after it is applied; selection pops it.
    """

    __slots__ = ("succ", "boxes", "left", "right", "bookkeeping", "todo_left", "todo_right",
                 "closing", "trans", "lbox")

    def __init__(self, goal: Formula):
        self.succ: dict[int, frozenset[int]] = {}
        self.boxes: dict[int, tuple[Box, ...]] = {}
        self.left, self.right, self.bookkeeping = set(), set(), set()
        self.todo_left, self.todo_right = set(), set()
        self.closing, self.trans, self.lbox = [], [], []
        self.add_right((0, goal))

    @property
    def rel(self) -> set[RelAtom]:
        return {(x, y) for x, ys in self.succ.items() for y in ys}

    def copy(self) -> "_Branch":
        new = object.__new__(_Branch)
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(new, name, type(value)(value))
        return new

    def add_rel(self, x: int, y: int):
        succ_x = self.succ.get(x, frozenset())
        if y in succ_x:
            return
        succ_x = self.succ[x] = succ_x | {y}
        if x == y:
            self.closing.append((2, x, IRREF, (x,)))
        for z in self.succ.get(y, ()):
            if z not in succ_x:
                heappush(self.trans, (x, y, z))
        for w, succ_w in self.succ.items():
            if x in succ_w and y not in succ_w:
                heappush(self.trans, (w, x, y))
        for f in self.boxes.get(x, ()):
            heappush(self.lbox, (x, f.sort_key, y, f))

    def add_left(self, item: LabelledFormula):
        if item in self.left:
            return
        self.left.add(item)
        x, f = item
        if item in self.right:
            self.closing.append((0, _lf_key(item), INIT, item))
        if isinstance(f, _COMPOUND):
            self.todo_left.add(item)
        elif isinstance(f, Box):
            self.boxes[x] = self.boxes.get(x, ()) + (f,)
            for y in self.succ.get(x, ()):
                heappush(self.lbox, (x, f.sort_key, y, f))
        elif isinstance(f, Falsum):
            self.closing.append((1, x, LBOT, item))

    def add_right(self, item: LabelledFormula):
        if item in self.right:
            return
        self.right.add(item)
        x, f = item
        if item in self.left:
            self.closing.append((0, _lf_key(item), INIT, item))
        if isinstance(f, _COMPOUND):
            self.todo_right.add(item)
        elif isinstance(f, Verum):
            self.closing.append((3, x, RTOP, item))

    def drop(self, on_left: bool, item: LabelledFormula):
        (self.left if on_left else self.right).discard(item)
        (self.todo_left if on_left else self.todo_right).discard(item)

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

    # -- deterministic candidate selection, through the branch indexes --

    def find_close(self, br: _Branch):
        # A rule application never removes what a closure needs, so the
        # instances recorded since the last (open) step are all there are.
        if br.closing:
            _, _, rule, principal = min(br.closing)
            return rule, principal
        return None

    def find_prop(self, br: _Branch):
        if br.todo_left or br.todo_right:
            for rule, (on_left, kinds, _) in _PROP_RULES.items():
                todo = br.todo_left if on_left else br.todo_right
                candidates = [item for item in todo if isinstance(item[1], kinds)]
                if candidates:
                    return rule, min(candidates, key=_lf_key)
        return None

    def find_trans(self, br: _Branch):
        heap = br.trans
        while heap:
            x, _, z = heap[0]
            if z not in br.succ[x]:
                return heap[0]
            heappop(heap)
        return None

    def find_lbox(self, br: _Branch):
        heap = br.lbox
        while heap:
            x, _, y, f = heap[0]
            if (LBOX, x, f, y) not in br.bookkeeping:
                return (x, f, y)
            heappop(heap)
        return None

    def find_rboxlob(self, br: _Branch):
        candidates = [
            (x, f) for x, f in br.right
            if isinstance(f, Box) and (RBOXLOB, x, f) not in br.bookkeeping
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

    def apply_prop(self, br: _Branch, rule: str, principal: LabelledFormula) -> list[_Branch]:
        """The premises of a propositional rule instance; the last one is
        ``br`` itself, which the caller never reads again."""
        on_left, _, decompose = _PROP_RULES[rule]
        x, f = principal
        parts = decompose(f)
        premises = [br.copy() for _ in parts[1:]] + [br]
        for premise, (lefts, rights) in zip(premises, parts):
            premise.drop(on_left, principal)
            for g in lefts:
                premise.add_left((x, g))
            for g in rights:
                premise.add_right((x, g))
        return premises

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
                premises = self.apply_prop(br, rule, principal)
                if len(premises) == 1:
                    segments.append(prop)
                    continue
                subtrees = []
                while premises:  # popped, so that a finished premise is freed
                    outcome = self.expand(premises.pop(0))
                    if isinstance(outcome, _Open):
                        return outcome
                    subtrees.append(outcome)
                return wrap(Derivation(rule, principal, tuple(subtrees)))

            trans = self.find_trans(br)
            if trans is not None:
                x, y, z = trans
                self.tick()
                br.add_rel(x, z)
                segments.append((TRANS, trans))
                continue

            lbox = self.find_lbox(br)
            if lbox is not None:
                x, f, y = lbox
                self.tick()
                br.add_left((y, f.sub))
                br.bookkeeping.add((LBOX, x, f, y))
                segments.append((LBOX, lbox))
                continue

            rbox = self.find_rboxlob(br)
            if rbox is not None:
                x, f = rbox
                y = self.next_label
                self.next_label += 1
                self.tick()
                br.add_rel(x, y)
                br.add_left((y, f))
                br.drop(False, rbox)
                br.add_right((y, f.sub))
                br.bookkeeping.add((RBOXLOB, x, f))
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
    outcome = searcher.expand(_Branch(f))
    if isinstance(outcome, _Open):
        model, world = extract_countermodel(outcome.state, 0)
        if world in truth_sets(model)(f):
            raise InternalCheckError("extracted model does not falsify the goal at the root")
        return Refuted(outcome.state, model, world)
    return Proved(outcome)
