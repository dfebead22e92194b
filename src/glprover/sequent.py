"""Labelled sequent proof search for GL (calculus G3KGL).

Sequents carry relational atoms xRy and labelled formulas x:A on both sides;
world labels are naturals allocated by a counter, the root being 0.  Proof
search is root-first and deterministic: close the branch when possible, then
saturate non-branching propositional rules, then branching ones, then the
transitivity and left-box rules, and finally apply the Loeb right-box rule to
the best candidate under a fixed ordering heuristic.  A branch that saturates
without closing yields a finite irreflexive-transitive countermodel, which is
validated semantically before being returned.

A branch is its sequent plus one agenda: a heap of the instances of every
rule but the Loeb right-box rule, ranked by the fixed order and pushed as
formulas and relational atoms arrive, so selecting the next rule never scans
the whole sequent or relation.  Selection pops the instance it applies, and
an instance stays applicable until popped, so a branch keeps no record of
applied ones: a left-box instance (x, A, y) is pushed once, by whichever of
xRy and x:Box A arrives second; a propositional principal leaves only as its
own rule's principal; and a right box the Loeb rule takes never returns, as
that rule runs on an empty agenda and all it and later rules add lands at
newer labels.  Two facts keep Trans and Irref out of the rest of the search.
(a) Every atom a branch gains points to the newest label.  The Loeb rule
adds xRy with y fresh, and each Trans instance it pushes, (w, x, y) for each
w that sees x, adds wRy.  y has no successors until a later Loeb step at y,
which runs only on an empty agenda.  So no atom is reflexive, and nothing
else follows by transitivity.  (b) Trans instances share a rank and are
keyed (w, x, y), so they pop least w first.  Any w' that sees w also sees x,
since the relation was closed when the agenda emptied, and w' < w; so w'Ry
is present when (w, x, y) is applied.  No instance is pushed twice, and none
finds its atom already present.

The rule sequence is the one the fixed ordering defines, except that a split
is dropped when one of its premises closes without taking as principal any
formula that premise added: that subtree then replaces the split, and the
other premises are never searched.  A rule tree needs of its root sequent
only the formulas it takes as principal, since a rule only asks that its
principal be present and fresh labels come from one counter.  The split's
conclusion holds every formula of the premise but those the split added, so
the subtree derives it as well (weakening), and the verdict is the one full
splitting would reach.  The search is one loop: the premises of a split
wait on an explicit stack, so the number of splits on a branch is not
bounded by the interpreter's recursion limit.

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


def _sided_components(on_left: bool, f: Formula) -> tuple[tuple[bool, Formula], ...]:
    c1, c2 = _components(f)
    return (on_left, c1), (on_left, c2)


# The propositional rules in selection order: whether the principal is on
# the left, the shapes it has, and per premise the components it adds, as
# ``(on_left, component)``.
_PROP_RULES = {
    LAND: (True, (And, Iff), lambda f: [_sided_components(True, f)]),
    ROR: (False, (Or,), lambda f: [((False, f.left), (False, f.right))]),
    LNOT: (True, (Not,), lambda f: [((False, f.sub),)]),
    RNOT: (False, (Not,), lambda f: [((True, f.sub),)]),
    RIMP: (False, (Imp,), lambda f: [((True, f.left), (False, f.right))]),
    RAND: (False, (And, Iff), lambda f: [(c,) for c in _sided_components(False, f)]),
    LOR: (True, (Or,), lambda f: [((True, f.left),), ((True, f.right),)]),
    LIMP: (True, (Imp,), lambda f: [((False, f.left),), ((True, f.right),)]),
}
# The propositional rule whose principal is a formula of this type on this side.
_PROP_RULE_OF = {(on_left, kind): rule for rule, (on_left, kinds, _) in _PROP_RULES.items()
                 for kind in kinds}
# The fixed order of the rules an agenda holds: a branch applies the least
# instance, and the Loeb right-box rule only when none is left.
_RANK = {rule: rank for rank, rule in enumerate((INIT, LBOT, RTOP, *_PROP_RULES, TRANS, LBOX))}
# The side of the one labelled formula x:A that a rule instance takes as
# principal; Init takes x:A on both sides, Trans relational atoms only.
_PRINCIPAL_SIDE = ({rule: on_left for rule, (on_left, _, _) in _PROP_RULES.items()}
                   | {LBOT: True, LBOX: True, RTOP: False, RBOXLOB: False})


class _Branch:
    """Mutable working state of one search branch: its sequent and the
    ``agenda`` that candidate selection reads instead of scanning the
    sequent.  No record of applied instances is needed: no instance goes
    stale, and Trans instances come only from the Loeb step, since every
    relational atom points to the newest label (module docstring).

    - ``succ``: the successors of each label, which hold the relational
      atoms, and ``boxes``: the left boxed formulas of each label, both as
      immutable values, so that a copy of the branch shares them;
    - ``agenda``: one heap of the instances of every rule but RBoxLob, as
      ``(rank, key, rule, principal)``, pushed as formulas and relational
      atoms arrive.  ``rank`` is the rule's place in the fixed order and
      ``key`` orders the instances of one rule: the labelled formula's
      ``(x, sort_key(f))`` for Init and the propositional rules, the label
      for LBot and RTop, ``(x, y, z)`` for Trans and
      ``(x, sort_key(f), y)`` for LBox.
    """

    __slots__ = ("succ", "boxes", "left", "right", "agenda")

    def __init__(self, goal: Formula):
        self.succ: dict[int, frozenset[int]] = {}
        self.boxes: dict[int, tuple[Box, ...]] = {}
        self.left, self.right = set(), set()
        self.agenda: list[tuple] = []
        self.add(False, (0, goal))

    @property
    def rel(self) -> set[RelAtom]:
        return {(x, y) for x, ys in self.succ.items() for y in ys}

    def copy(self) -> "_Branch":
        new = object.__new__(_Branch)
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(new, name, type(value)(value))
        return new

    def push(self, rule: str, key, principal: tuple):
        heappush(self.agenda, (_RANK[rule], key, rule, principal))

    def add_rel(self, x: int, y: int):
        """Record xRy, which is new, and push its left-box instances: y is
        the newest label, with no successors, and each w that sees x has its
        Trans instance from the Loeb step that made y (facts (a) and (b))."""
        self.succ[x] = self.succ.get(x, frozenset()) | {y}
        for f in self.boxes.get(x, ()):
            self.push(LBOX, (x, f.sort_key, y), (x, f, y))

    def add(self, on_left: bool, item: LabelledFormula) -> bool:
        """Add ``item`` to one side; whether it was new there."""
        side, other = (self.left, self.right) if on_left else (self.right, self.left)
        if item in side:
            return False
        side.add(item)
        x, f = item
        if item in other:
            self.push(INIT, _lf_key(item), item)
        rule = _PROP_RULE_OF.get((on_left, type(f)))
        if rule is not None:
            self.push(rule, _lf_key(item), item)
        elif on_left and isinstance(f, Box):
            self.boxes[x] = self.boxes.get(x, ()) + (f,)
            for y in self.succ.get(x, ()):
                self.push(LBOX, (x, f.sort_key, y), (x, f, y))
        elif on_left and isinstance(f, Falsum):
            self.push(LBOT, x, item)
        elif not on_left and isinstance(f, Verum):
            self.push(RTOP, x, item)
        return True

    def freeze(self) -> SequentState:
        return SequentState(frozenset(self.rel), frozenset(self.left), frozenset(self.right))


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

    def find_next(self, br: _Branch):
        """Pop the least instance off the agenda and return it, as
        ``(rule, principal)``.  None is stale: a propositional principal
        leaves only as its own rule's principal, a left-box instance is
        pushed once, and only (w, x, y) adds wRy (facts (a) and (b))."""
        return heappop(br.agenda)[2:] if br.agenda else None

    def find_rboxlob(self, br: _Branch):
        candidates = [(x, f) for x, f in br.right if isinstance(f, Box)]
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

    def apply_prop(self, br: _Branch, rule: str, principal: LabelledFormula
                   ) -> tuple[list[_Branch], list[set] | None]:
        """The premises of a propositional rule instance; the last one is
        ``br`` itself, which the caller never reads again.  At a split, also
        the items each premise added, as ``(on_left, x:A)``: a component
        already in the sequent adds nothing."""
        on_left, _, decompose = _PROP_RULES[rule]
        x, f = principal
        parts = decompose(f)
        (br.left if on_left else br.right).discard(principal)
        if len(parts) == 1:
            for side, g in parts[0]:
                br.add(side, (x, g))
            return [br], None
        premises = [br.copy() for _ in parts[1:]] + [br]
        added = [{(side, (x, g)) for side, g in part if premise.add(side, (x, g))}
                 for premise, part in zip(premises, parts)]
        return premises, added

    # -- the search loop --

    def expand(self, br: _Branch):
        """The derivation of ``br``'s sequent, or the first saturated open
        branch itself.  The premises of a split wait on an explicit stack, so
        no number of splits is too deep.

        A closed subtree comes with the labelled formulas it takes as
        principal, as ``(on_left, x:A)``; relational atoms are left out,
        since no split adds one.  A split's premise whose subtree uses none
        of the items the premise added replaces the whole split, by
        weakening: its other premises are never searched.  Otherwise the
        split uses its principal and what each premise's subtree uses, less
        what that premise added: an enclosing premise may have added the
        same item, when a split in between took it as principal and was then
        dropped, and that item is no reason to keep the enclosing split."""
        # open splits: (rule, principal, segments above, finished subtrees,
        # their uses, premises left, items each premise added)
        splits: list[tuple] = []
        segments: list[tuple[str, tuple]] = []  # one-premise steps since the last split
        while True:
            selected = self.find_next(br)
            if selected is None:
                rbox = self.find_rboxlob(br)
                if rbox is None:
                    return br
                x, f = rbox
                y = self.next_label
                self.next_label += 1
                self.tick()
                br.add_rel(x, y)
                for w, succ_w in br.succ.items():
                    if x in succ_w:
                        br.push(TRANS, (w, x, y), (w, x, y))
                br.add(True, (y, f))
                br.right.discard(rbox)
                br.add(False, (y, f.sub))
                segments.append((RBOXLOB, (x, f, y)))
                continue

            rule, principal = selected
            self.tick()
            if rule == TRANS:
                br.add_rel(principal[0], principal[2])
            elif rule == LBOX:
                _, f, y = principal
                br.add(True, (y, f.sub))
            elif rule in _PROP_RULES:
                premises, added = self.apply_prop(br, rule, principal)
                if added is not None:
                    splits.append((rule, principal, segments, [], [], premises, added))
                    br, segments = premises.pop(0), []
                    continue
            else:  # a closed leaf: finish every split whose premises are all closed
                node = Derivation(rule, principal)
                used = {(True, principal), (False, principal)} if rule == INIT else set()
                if rule in _PRINCIPAL_SIDE:
                    used.add((_PRINCIPAL_SIDE[rule], principal))
                while True:
                    for rule, principal in reversed(segments):
                        node = Derivation(rule, principal, (node,))
                        if rule in _PRINCIPAL_SIDE:  # an LBox or RBoxLob principal starts with x:A
                            used.add((_PRINCIPAL_SIDE[rule], principal[:2]))
                    if not splits:
                        return node
                    rule, principal, segments, subtrees, uses, premises, added = splits[-1]
                    new = added[len(subtrees)]
                    if used.isdisjoint(new):  # node derives the split's conclusion
                        splits.pop()
                        continue
                    subtrees.append(node)
                    used.difference_update(new)
                    uses.append(used)
                    if premises:
                        break
                    splits.pop()
                    node = Derivation(rule, principal, tuple(subtrees))
                    smaller, used = sorted(uses, key=len)  # two premises; merged in place
                    used |= smaller
                    used.add((_PRINCIPAL_SIDE[rule], principal))
                # popped, so that a finished premise is freed
                br, segments = premises.pop(0), []
                continue
            segments.append(selected)


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
    if isinstance(outcome, Derivation):
        return Proved(outcome)
    branch = outcome.freeze()
    model, world = extract_countermodel(branch, 0)
    if world in truth_sets(model)(f):
        raise InternalCheckError("extracted model does not falsify the goal at the root")
    return Refuted(branch, model, world)
