"""Labelled sequent proof search for GL (calculus G3KGL).

Sequents carry relational atoms xRy and labelled formulas x:A on both sides;
world labels are naturals allocated by a counter, the root being 0.  Proof
search is root-first and deterministic, and decides one label at a time
(the world-local order of Gore's GL tableaux).  At the active label it
closes the branch when possible, then saturates the non-branching
propositional rules, then the branching ones, then the transitivity and
left-box rules.  When none is left, the branch is a saturated local leaf,
and the Loeb right-box rule takes the leaf's right boxes one at a time, by
a fixed heuristic.  Each makes a fresh label y, and the search decides y,
with everything above it, before it goes back to the leaf.  The leaf closes
as soon as one box's successor closes: its rule tree is that RBoxLob step
over the successor's tree, and the other right boxes are formulas the tree
does not use.  The leaf is open when every box has an open successor, and
then so is its label: the label's world sees the successors' countermodels,
side by side.  An open root yields a finite irreflexive-transitive
countermodel, which is validated semantically before being returned.

A branch is the active label's formulas plus one agenda; the older labels
on its path, which no rule changes, it reads as frozen records, so a split
copies only the active label's part.  The agenda is a heap of the active
label's instances of Init, LBot, RTop and the propositional rules, ranked by
the fixed order and pushed as formulas arrive, and a sequence of its Trans
and left-box steps, fixed when its branch starts and read by a cursor; so
selecting the next rule never scans the sequent.  Selection pops the heap,
and takes the next step once the heap is empty.  An instance stays
applicable until taken, so a branch keeps no record of applied ones: a
propositional principal leaves only as its own rule's principal.  Two facts
keep Trans and Irref out of the rest of the search.  (a) Every atom a branch
gains points to the active label y.  The Loeb step at x starts y's branch
with xRy, and each Trans step (w, x, y), for each w that sees x, adds wRy.
y has no successors until its leaf, which is reached only once its steps
are taken.  So no atom is reflexive, and nothing else follows by
transitivity.  (b) y's sequence holds the Trans steps, least w first, then
the left-box steps (w, A, y) for each w on the new path, root first, each
label's boxes in ``sort_key`` order.  Any w' that sees w also sees x, since
the path's relation is closed, and w' < w; so w'Ry is present when (w, x, y)
is applied, and wRy when (w, A, y) is.  No step finds its atom present.

The key K(y) of a new label y is the box x:Box A that made it and the left
boxes held by x and by every label that sees x.  What the search does above
y depends on K(y) alone.  y starts with y:Box A on the left and y:A on the
right, and gains y:B by a left-box step for each of those boxes Box B; its
successors inherit the same boxes and y's own, and so on up.  No rule adds a
formula at an older label, and Init, LBot, RTop and the propositional rules
read the active label only.  So a search keeps one cache of decided keys,
which lives as long as its ``search`` call, and reuses an entry by weakening
(below):
- a closed key keeps its rule tree and the boxes that tree takes as
  principal at older labels.  It decides every key with the same Loeb box
  whose boxes include those: when the proof is written, the tree's own
  labels are renamed from the counter, each left-box step from an older
  label takes its box from the least label on the new path that holds it,
  and the new path's Trans steps follow each RBoxLob step;
- an open key keeps its saturated leaf and its successors' entries.  It
  decides every key with the same Loeb box whose boxes it holds: the
  countermodel is copied there with fresh labels.  A world's truth depends
  only on the worlds it sees, and each copied world holds on the left the
  body of every box the new path's labels hold, as the original did.
A leaf whose right box has a closed entry takes that box first, the least
such, and closes at once; otherwise the heuristic chooses.

The rule sequence is the one the fixed ordering defines, except that a split
is dropped when one of its premises closes without taking as principal any
formula that premise added: that subtree then replaces the split, and the
other premises are never searched.  A rule tree needs of its root sequent
only the formulas it takes as principal, since a rule only asks that its
principal be present and fresh labels come from one counter.  The split's
conclusion holds every formula of the premise but those the split added, so
the subtree derives it as well (weakening), and the verdict is the one full
splitting would reach.  A reused closed tree takes as principal the boxes
its entry names, at the labels its renaming reads them from.

``max_steps`` bounds the rule applications the search makes, each RBoxLob
step that reaches a cached key included; then each node written when a
cached tree is renamed into the proof, and each world copied from a cached
countermodel.  The search is one loop: split premises and the labels below
the active one wait on explicit stacks, so neither the number of splits on a
branch nor the depth of labels is bounded by the interpreter's recursion
limit.

The search builds its rule tree as plain tuples and writes the derivation
once, for a Proved answer; the derivation module checks and writes it,
independently of the search, and its functions are re-exported here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush

from .derivation import (  # noqa: F401 -- re-exported: the CLI reaches them here
    INIT, IRREF, LAND, LBOT, LBOX, LEAF_RULES, LIMP, LNOT, LOR, RAND, RBOXLOB, RIMP,
    RNOT, ROR, RTOP, TRANS, TWO_PREMISE_RULES, Derivation, LabelledFormula, RelAtom,
    SequentState, _components, _lf_key, check_derivation, derivation_error,
    derivation_from_dict, derivation_from_json, derivation_to_dot,
    derivation_to_json, derivation_to_text,
)
from .errors import BudgetExceededError, InternalCheckError
from .semantics import Model, _truth_masks, is_itf, make_model
from .syntax import And, Atom, Box, Falsum, Formula, Iff, Imp, Not, Or, Verum, children_first, pretty, sort_key

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
# The rule, Init aside, whose principal is a formula of this type on this side.
_RULE_OF = ({(on_left, kind): rule for rule, (on_left, kinds, _) in _PROP_RULES.items()
             for kind in kinds} | {(True, Falsum): LBOT, (False, Verum): RTOP})
# The fixed order of the rules an agenda's heap holds: a branch applies the
# least instance, then its Trans and left-box steps, and the Loeb right-box
# rule only when none is left.
_RANK = {rule: rank for rank, rule in enumerate((INIT, LBOT, RTOP, *_PROP_RULES))}
# The side of the one labelled formula x:A that an agenda's rule instance
# takes as principal; Init takes x:A on both sides, Trans relational atoms only.
_PRINCIPAL_SIDE = ({rule: on_left for rule, (on_left, _, _) in _PROP_RULES.items()}
                   | {LBOT: True, LBOX: True, RTOP: False})


class _Branch:
    """Mutable working state of one search branch: the active label's part of
    its sequent and the agenda, a heap and a sequence, that candidate
    selection reads instead of scanning the sequent.  No record of applied instances is needed: no
    instance goes stale, and a Trans step needs no bookkeeping, since the
    sequence holds every left-box step it enables (module docstring).

    - ``label``: the active label; ``path``: the branches of the older labels
      that see it, root first, frozen at the leaves that made their
      successors; ``inherited``: the left boxes those labels hold, which
      with the Loeb box make the active label's key;
    - ``boxes``: the left boxed formulas of the active label, as an
      immutable value, so that a copy of the branch shares it; its leaf
      sorts them by ``sort_key`` when it makes a successor;
    - ``left``, ``right``: the labelled formulas at the active label;
    - ``agenda``: a heap of the instances of Init, LBot, RTop and the
      propositional rules, as ``(rank, sort_key(f), rule, x:f)``, pushed as
      formulas arrive; ``rank`` is the rule's place in the fixed order, and
      x is the active label;
    - ``sequence``: the active label's Trans and left-box steps, as
      ``(rule, principal)`` in the order they apply, fixed when its branch
      starts, so that a copy shares them; ``cursor``: how many are taken.
    """

    __slots__ = ("label", "path", "inherited", "boxes", "left", "right", "agenda", "sequence", "cursor")

    def __init__(self, goal: Formula):
        self.label, self.path, self.inherited, self.boxes = 0, (), frozenset(), ()
        self.left, self.right = set(), set()
        self.agenda, self.sequence, self.cursor = [], (), 0
        self.add(False, (0, goal))

    def copy(self) -> "_Branch":
        """A split's premise: the active label's part is copied, the rest shared."""
        new = object.__new__(_Branch)
        new.label, new.path, new.inherited, new.boxes = self.label, self.path, self.inherited, self.boxes
        new.left, new.right, new.agenda = set(self.left), set(self.right), list(self.agenda)
        new.sequence, new.cursor = self.sequence, self.cursor
        return new

    def successor(self, f: Box, y: int, inherited: frozenset) -> "_Branch":
        """The branch of the fresh label y that the Loeb rule makes for this
        saturated leaf's x:Box A: xRy, y:Box A on the left, y:A on the
        right, and the steps of Trans from each w that sees x and of
        left-box from x and each such w, in the order of fact (b).
        ``inherited`` is x's left boxes and those of the labels that see x."""
        x = self.label
        self.boxes = tuple(sorted(self.boxes, key=sort_key))
        new = object.__new__(_Branch)
        new.label, new.path, new.inherited, new.boxes = y, self.path + (self,), inherited, ()
        new.left, new.right, new.agenda, new.cursor = set(), set(), [], 0
        new.sequence = (*[(TRANS, (w.label, x, y)) for w in self.path],
                        *[(LBOX, (w.label, g, y)) for w in new.path for g in w.boxes])
        new.add(True, (y, f))
        new.add(False, (y, f.sub))
        return new

    def add(self, on_left: bool, item: LabelledFormula) -> bool:
        """Add ``item`` to one side; whether it was new there.  A left box
        starts no left-box step: the active label has no successors until
        its leaf, and ``successor`` makes them there."""
        side, other = (self.left, self.right) if on_left else (self.right, self.left)
        if item in side:
            return False
        side.add(item)
        f = item[1]
        if item in other:
            heappush(self.agenda, (_RANK[INIT], f.sort_key, INIT, item))
        rule = _RULE_OF.get((on_left, type(f)))
        if rule is not None:
            heappush(self.agenda, (_RANK[rule], f.sort_key, rule, item))
        elif on_left and isinstance(f, Box):
            self.boxes += (f,)
        return True


@dataclass(slots=True)
class _Closed:
    """A closed key's entry: the rule tree above the RBoxLob step that
    made ``label``, and the left boxes it takes as principal at older
    labels.  A rule tree is ``(rule, principal, premises)`` until the
    proof is written."""

    label: int
    tree: tuple
    boxes: frozenset[Box]


@dataclass(slots=True)
class _Open:
    """An open label: its saturated leaf, and per right box the leaf took,
    ``(new label, entry, reused)`` of the open successor."""

    leaf: _Branch
    successors: list[tuple[int, "_Open", bool]]

    @property
    def boxes(self) -> frozenset[Box]:
        return self.leaf.inherited


@dataclass(slots=True)
class _Reuse:
    """The premise of an RBoxLob step whose new label's key is closed in the
    cache, in the rule tree: ``holders`` maps each box the entry takes at
    older labels to the label on this path it is taken from."""

    entry: _Closed
    holders: dict[Box, int]


class _Searcher:
    """One search, with its step count, label counter and cache of keys."""

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps = 0
        self.next_label = 1
        # the entries of the keys decided, by Loeb box; for this search only
        self.cache: dict[Box, list[_Closed | _Open]] = {}
        self.hits = 0
        self.keys = 0  # keys searched: each is searched once, then found in the cache

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise BudgetExceededError(
                f"proof search exceeded {self.max_steps} rule applications (labels created: "
                f"{self.next_label - 1}, cache hits: {self.hits}, distinct label keys: {self.keys})")

    def lookup(self, f: Box, inherited: frozenset) -> "_Closed | _Open | None":
        """An entry that decides the key ``(f, inherited)``: a closed one
        whose tree takes no box outside ``inherited``, or an open one whose
        leaf holds every box of ``inherited`` (weakening, module docstring)."""
        for entry in self.cache.get(f, ()):
            if entry.boxes <= inherited if isinstance(entry, _Closed) else inherited <= entry.boxes:
                return entry
        return None

    def closing_box(self, br: _Branch, inherited: frozenset):
        """The least right box of the leaf ``br`` whose successor is closed in
        the cache, with that entry: it closes the leaf at once."""
        closing = [(item, entry) for item in br.right if isinstance(item[1], Box)
                   for entry in [self.lookup(item[1], inherited)] if isinstance(entry, _Closed)]
        return min(closing, key=lambda c: _lf_key(c[0])) if closing else None

    def fresh(self) -> int:
        y = self.next_label
        self.next_label += 1
        return y

    # -- deterministic candidate selection --

    def find_next(self, br: _Branch):
        """Pop the least instance off the agenda's heap, or else take the
        next step of its sequence, and return it as ``(rule, principal)``.
        None is stale: a propositional principal leaves only as its own
        rule's principal, and only (w, x, y) adds wRy (facts (a) and (b))."""
        if br.agenda:
            return heappop(br.agenda)[2:]
        if br.cursor < len(br.sequence):
            br.cursor += 1
            return br.sequence[br.cursor - 1]
        return None

    def find_rboxlob(self, br: _Branch):
        """The active label's right box the Loeb rule takes next, if any."""
        candidates = [(x, f) for x, f in br.right if isinstance(f, Box)]
        if not candidates:
            return None
        # the bodies are distinct, so a body occurs in another one exactly
        # when two bodies' subformulas count it
        counts = Counter(g for _, f in candidates for g in children_first(f.sub))

        def heuristic(item: LabelledFormula) -> tuple:
            x, f = item
            body = f.sub
            negated = 0 if isinstance(body, Not) else 1
            occurs = 0 if counts[body] > 1 else 1
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

    def expand(self, br: _Branch) -> Derivation | SequentState:
        """The derivation of ``br``'s sequent, or the open branch the
        countermodel is read from.  The premises of a split and the labels
        below the active one wait on explicit stacks, so no number of splits
        or labels is too deep.

        A closed subtree comes with the labelled formulas it takes as
        principal, as ``(on_left, x:A)``; relational atoms are left out,
        since no split adds one.  A split's premise whose subtree uses none
        of the items the premise added replaces the whole split, by
        weakening: its other premises are never searched.  Otherwise the
        split uses its principal and what each premise's subtree uses, less
        what that premise added: an enclosing premise may have added the
        same item, when a split in between took it as principal and was then
        dropped, and that item is no reason to keep the enclosing split.  A
        closed label passes down what its tree uses at older labels."""
        # open splits at the active label: (rule, principal, segments above,
        # finished subtrees, their uses, premises left, items each premise added)
        splits: list[tuple] = []
        segments: list[tuple[str, tuple]] = []  # one-premise steps since the last split
        found: list[tuple] = []  # the active leaf's open successors, as in _Open
        # the labels below the active one: (branch, splits, segments, found,
        # the right box its leaf took, the label it made)
        below: list[tuple] = []
        while True:
            selected = self.find_next(br)
            if selected is None:  # a saturated leaf
                rbox = self.find_rboxlob(br)
                if rbox is None:  # every right box has an open successor
                    entry = _Open(br, found)
                    if not below:
                        return self._open_branch(entry)
                    br, splits, segments, found, (_, f), y = below.pop()
                    self.cache.setdefault(f, []).append(entry)
                    found.append((y, entry, False))
                    continue
                inherited = br.inherited.union(br.boxes)
                rbox, entry = self.closing_box(br, inherited) or (rbox, self.lookup(rbox[1], inherited))
                x, f = rbox
                br.right.discard(rbox)
                y = self.fresh()
                self.tick()
                if entry is None:
                    self.keys += 1
                    below.append((br, splits, segments, found, rbox, y))
                    br, splits, segments, found = br.successor(f, y, inherited), [], [], []
                    continue
                self.hits += 1
                if isinstance(entry, _Open):
                    found.append((y, entry, True))
                    continue
                chain = br.path + (br,)
                holders = {g: next(a.label for a in chain if g in a.boxes) for g in entry.boxes}
                node = (RBOXLOB, (x, f, y), (_Reuse(entry, holders),))
                used = {(True, (w, g)) for g, w in holders.items()}
                used.add((False, rbox))
            else:
                rule, principal = selected
                self.tick()
                if rule == LBOX:
                    _, f, y = principal
                    br.add(True, (y, f.sub))
                elif rule in _PROP_RULES:
                    premises, added = self.apply_prop(br, rule, principal)
                    if added is not None:
                        splits.append((rule, principal, segments, [], [], premises, added))
                        br, segments = premises.pop(0), []
                        continue
                if rule not in LEAF_RULES:
                    segments.append(selected)
                    continue
                node = (rule, principal, ())
                used = {(True, principal), (False, principal)} if rule == INIT else set()
                if rule in _PRINCIPAL_SIDE:
                    used.add((_PRINCIPAL_SIDE[rule], principal))

            # a closed leaf: finish every split whose premises are all closed,
            # and every label whose tree is then finished
            while True:
                for rule, principal in reversed(segments):
                    node = (rule, principal, (node,))
                    if rule in _PRINCIPAL_SIDE:  # an LBox principal starts with x:A
                        used.add((_PRINCIPAL_SIDE[rule], principal[:2]))
                if not splits:
                    if not below:
                        return self._proof(node)
                    # the label is closed, and so is the leaf that made it
                    br, splits, segments, found, rbox, y = below.pop()
                    used = {item for item in used if item[1][0] < y}
                    entry = _Closed(y, node, frozenset(g for _, (_, g) in used))
                    self.cache.setdefault(rbox[1], []).append(entry)
                    node = (RBOXLOB, (*rbox, y), (node,))
                    used.add((False, rbox))
                    continue
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
                node = (rule, principal, tuple(subtrees))
                smaller, used = sorted(uses, key=len)  # two premises; merged in place
                used |= smaller
                used.add((_PRINCIPAL_SIDE[rule], principal))
            # popped, so that a finished premise is freed
            br, segments, found = premises.pop(0), [], []

    # -- the certificates, written once the verdict is known --

    def _proof(self, root: tuple) -> Derivation:
        """The derivation of the rule tree ``root``, built once the search
        has closed: each reused closed tree is written out at its place, its
        own labels renamed from the counter, a left-box step from an older
        label taken from the holder its reuse reported, and the Trans steps
        of the new path right after each RBoxLob step.  Each node so written
        counts as a step; the searched ones have been counted."""
        done: list[Derivation] = []
        # to visit: (node, renaming or None, the labels from the root to the
        # node's); to build: (None, rule, principal, premises, counted).  A
        # renaming is (label -> label for the tree's own, box -> holder).
        todo: list[tuple] = [(root, None, (0,))]
        while todo:
            item = todo.pop()
            if item[0] is None:
                _, rule, principal, n, counted = item
                if counted:
                    self.tick()
                if n == 1:
                    built = (done.pop(),)
                else:
                    built = tuple(done[len(done) - n:])
                    del done[len(done) - n:]
                done.append(Derivation(rule, principal, built))
                continue
            node, names, path = item
            if isinstance(node, _Reuse):
                entry = node.entry
                holders = node.holders
                if names is not None:
                    labels, outer = names
                    holders = {g: labels[w] if w in labels else outer[g] for g, w in holders.items()}
                x, y = path[-2:]
                todo += [(None, TRANS, (w, x, y), 1, True) for w in path[:-2]]
                todo.append((entry.tree, ({entry.label: y}, holders), path))
                continue
            rule, principal, premises = node
            sub = path
            if names is None:
                if rule == RBOXLOB:
                    sub = path + (principal[2],)
                todo.append((None, rule, principal, len(premises), False))
            elif rule == TRANS:  # written afresh after each RBoxLob step
                todo.append((premises[0], names, path))
                continue
            else:
                labels, holders = names
                if rule == RBOXLOB:
                    x, f, y = principal
                    labels[y] = z = self.fresh()
                    sub = path + (z,)
                    todo.append((None, RBOXLOB, (labels[x], f, z), 1, True))
                    todo += [(None, TRANS, (w, labels[x], z), 1, True) for w in path[:-1]]
                else:
                    if rule == LBOX:
                        w, f, y = principal
                        principal = (labels[w] if w in labels else holders[f], f, labels[y])
                    else:
                        principal = (labels[principal[0]], *principal[1:])
                    todo.append((None, rule, principal, len(premises), True))
            for p in reversed(premises):
                todo.append((p, names, sub))
        return done[0]

    def _open_branch(self, root: _Open) -> SequentState:
        """The open branch the countermodel is read from: the root's leaf
        and, under each leaf, its open successors', each label seen by every
        label below it.  A reused entry is copied with fresh labels, each
        copied world a step."""
        rel, left, right = set(), set(), set()
        todo = [(root, 0, False, ())]  # (entry, its label, copied, the labels that see it)
        while todo:
            entry, x, copied, seers = todo.pop()
            leaf = entry.leaf
            if x == leaf.label:
                left |= leaf.left
                right |= leaf.right
            else:
                left.update((x, f) for _, f in leaf.left)
                right.update((x, f) for _, f in leaf.right)
            rel.update((w, x) for w in seers)
            seers += (x,)
            for y, child, reused in entry.successors:
                if copied:
                    self.tick()
                    y = self.fresh()
                todo.append((child, y, copied or reused, seers))
        return SequentState(frozenset(rel), frozenset(left), frozenset(right))


def extract_countermodel(branch: SequentState, root: int) -> tuple[Model, int]:
    """Read the countermodel off a saturated open branch: its labels are the
    worlds, its relational atoms the relation, and an atom is true at a label
    exactly when the branch asserts it on the left.  The result is verified:
    the frame must be irreflexive-transitive, and bit x of the mask of each
    x:A must be set on the left and clear on the right."""
    worlds = set(branch.labels()) | {root}
    val: dict[str, set[int]] = {}
    for x, f in branch.left:
        if isinstance(f, Atom):
            val.setdefault(f.name, set()).add(x)
    model = make_model(worlds, branch.rel, val)
    if not is_itf(model.frame):
        raise InternalCheckError("open branch did not produce an irreflexive transitive frame")
    index, mask_of = _truth_masks(model)
    for x, f in branch.left:
        if not mask_of(f) >> index[x] & 1:
            raise InternalCheckError(f"countermodel fails antecedent {x}:{pretty(f)}")
    for x, f in branch.right:
        if mask_of(f) >> index[x] & 1:
            raise InternalCheckError(f"countermodel satisfies consequent {x}:{pretty(f)}")
    return model, root


def search(f: Formula, max_steps: int = DEFAULT_MAX_STEPS) -> SearchResult:
    """Decide ``f``: a closed derivation of the sequent ``=> 0:f``, or a
    countermodel from the first open root leaf, validated on that branch
    with 0:f added on the right: one evaluation checks branch and goal."""
    outcome = _Searcher(max_steps).expand(_Branch(f))
    if isinstance(outcome, Derivation):
        return Proved(outcome)
    goal_false = SequentState(outcome.rel, outcome.left, outcome.right | {(0, f)})
    model, world = extract_countermodel(goal_false, 0)
    return Refuted(outcome, model, world)
