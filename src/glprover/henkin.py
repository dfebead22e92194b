"""Standard countermodel construction from maximal consistent lists.

A second, independent refutation route: worlds are repetition-free consistent
lists that settle every subformula of the target (either it or its negation
is a member), the accessibility relation transfers boxed members forward and
demands a fresh boxed witness, and an atom is true at a world exactly when it
is a member.  Consistency of a list is decided by the sequent prover on the
negated conjunction of its members.  The construction is verified per
instance by the truth-lemma check: membership must coincide with forcing.

The worlds are built depth-first, settling subformulas children first.  The
prover decides only the Box subformulas, each on the list settled so far;
the constants, the atoms and the Boolean compounds are settled
propositionally, and an inconsistent prefix is cut with all its extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._jsontext import dumps_indented
from .errors import BudgetExceededError, InternalCheckError
from .hilbert import conjlist
from .semantics import Model, _eval_mask, is_itf, make_model, truth_sets
from .sequent import DEFAULT_MAX_STEPS, Proved, Refuted, search
from .syntax import Atom, Box, Formula, Not, sort_key, subformulas, subsentences

DEFAULT_CANDIDATE_BUDGET = 4096

FormulaList = tuple[Formula, ...]


def consistent(xs, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """A list is consistent when the negation of its conjunction is not a
    theorem; the sequent prover decides theoremhood.  ``max_steps`` bounds
    that search, here and in every function that decides consistency:
    BudgetExceededError when it runs out."""
    return isinstance(search(Not(conjlist(xs)), max_steps), Refuted)


def no_repetition(xs) -> bool:
    xs = list(xs)
    return len(set(xs)) == len(xs)


def is_maximal_consistent(p: Formula, xs, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Consistent, repetition-free, and containing each subformula of ``p``
    or its negation."""
    xs = list(xs)
    if not no_repetition(xs):
        return False
    if not consistent(xs, max_steps):
        return False
    members = set(xs)
    return all(q in members or Not(q) in members for q in subformulas(p))


def extend_maximal_consistent(p: Formula, xs, max_steps: int = DEFAULT_MAX_STEPS) -> FormulaList:
    """Extend a consistent list of subsentences of ``p`` to a maximal
    consistent one, deciding each missing subformula in ascending formula
    order: keep it if that stays consistent, otherwise keep its negation."""
    xs = list(xs)
    sub = subsentences(p)
    if any(q not in sub for q in xs):
        raise ValueError("every member must be a subsentence of the target formula")
    if not consistent(xs, max_steps):
        raise ValueError("the initial list must be consistent")
    out = list(xs)
    members = set(out)
    for q in sorted(subformulas(p), key=sort_key):
        if q in members or Not(q) in members:
            continue
        if consistent(sorted(members | {q}, key=sort_key), max_steps):
            out.append(q)
            members.add(q)
        else:
            out.append(Not(q))
            members.add(Not(q))
    return tuple(out)


def _standard_rel_core(w: set[Formula], x: set[Formula]) -> bool:
    for f in w:
        if isinstance(f, Box) and not (f in x and f.sub in x):
            return False
    return any(isinstance(f, Box) and Not(f) in w for f in x)


def gl_standard_rel(p: Formula, w, x, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Accessibility between maximal consistent lists: boxed members of ``w``
    transfer to ``x`` together with their bodies, and ``x`` owns a boxed
    member whose negation is in ``w``."""
    w, x = list(w), list(x)
    sub = subsentences(p)
    for side in (w, x):
        if any(q not in sub for q in side) or not is_maximal_consistent(p, side, max_steps):
            return False
    return _standard_rel_core(set(w), set(x))


@dataclass(frozen=True)
class StandardModel:
    """Indexed standard model for a target formula.

    ``worlds[i]`` is the maximal consistent list behind world ``i`` of
    ``model``; lists are in canonical (subformula-ordered) form and the
    world numbering follows their canonical sort."""

    target: Formula
    worlds: tuple[FormulaList, ...]
    model: Model


def _enumerate_worlds(p: Formula, max_candidates: int, max_steps: int) -> list[FormulaList]:
    """The maximal consistent lists for ``p``, in canonical sort.

    The subformulas are settled depth-first, children before parents, on an
    explicit stack of branches.  A branch holds the truth value (1 or 0) of
    each settled subformula: the subformula or its negation is a member.
    The constants are fixed and the atoms take both values without a
    search.  A Boolean compound takes the value its settled immediate
    subformulas give it, since the other value makes the list
    propositionally inconsistent.  So every branch is consistent up to its
    next Box subformula, which takes each value whose list so far the prover
    finds consistent: an inconsistent one is cut with all its extensions,
    and a consistent list has a consistent value.  A leaf is rebuilt in
    ``sort_key`` order, each member kept where it first occurs."""
    subs = sorted(subformulas(p), key=sort_key)
    if 2 ** len(subs) > max_candidates:
        raise BudgetExceededError(
            f"standard model construction: 2^{len(subs)} candidate worlds exceed the budget"
        )
    order = sorted(subs, key=lambda q: (len(subformulas(q)), sort_key(q)))
    worlds = []
    stack: list[tuple[int, dict[Formula, int]]] = [(0, {})]
    while stack:
        i, value = stack.pop()
        while i < len(order):
            q = order[i]
            i += 1
            if isinstance(q, Atom):
                options = [1, 0]
            elif isinstance(q, Box):
                members = {g if v else Not(g) for g, v in value.items()}
                options = [v for v in (1, 0)
                           if consistent(sorted(members | {q if v else Not(q)}, key=sort_key), max_steps)]
                if not options:
                    raise InternalCheckError("a consistent list has no consistent extension")
            else:
                # a constant or a Boolean compound: its value in one world
                # where the settled subformulas have theirs
                _eval_mask(q, 1, [], {}, 1, value)
                continue
            for v in options[1:]:
                stack.append((i, {**value, q: v}))
            value[q] = options[0]
        worlds.append(tuple(dict.fromkeys(q if value[q] else Not(q) for q in subs)))
    worlds.sort(key=lambda lst: tuple(sort_key(q) for q in lst))
    return worlds


def build_standard_model(
    p: Formula,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[StandardModel, FormulaList] | None:
    """None when ``p`` is a theorem; otherwise the indexed standard model
    together with a world list containing Not p, at which ``p`` fails.

    ``max_candidates`` bounds 2^|subformulas|, the number of polarity
    vectors.  The prover decides ``p`` and, for each Box subformula on each
    branch that reaches it, the consistency of the list settled so far; the
    other subformulas are settled propositionally (see
    ``_enumerate_worlds``).  The frame is checked to be
    irreflexive-transitive and the truth lemma is checked on every (world,
    subformula) pair before returning; by soundness the latter also
    certifies that every world is consistent."""
    if isinstance(search(p, max_steps), Proved):
        return None
    worlds = _enumerate_worlds(p, max_candidates, max_steps)
    if not worlds:
        raise InternalCheckError("refuted formula produced no maximal consistent lists")
    member_sets = [set(w) for w in worlds]
    rel = {
        (i, j)
        for i in range(len(worlds))
        for j in range(len(worlds))
        if _standard_rel_core(member_sets[i], member_sets[j])
    }
    val = {}
    for i, members in enumerate(member_sets):
        for f in members:
            if isinstance(f, Atom):
                val.setdefault(f.name, set()).add(i)
    model = make_model(range(len(worlds)), rel, val)
    sm = StandardModel(p, tuple(worlds), model)
    if not is_itf(model.frame):
        raise InternalCheckError("standard frame is not irreflexive transitive")
    if not truth_lemma_check(p, sm):
        raise InternalCheckError("truth lemma fails on the standard model")
    for i, members in enumerate(member_sets):
        if Not(p) in members:
            if i in truth_sets(model)(p):
                raise InternalCheckError("standard model does not falsify the target")
            return sm, worlds[i]
    raise InternalCheckError("no world of the standard model contains the negated target")


def truth_lemma_check(p: Formula, sm: StandardModel) -> bool:
    """Membership coincides with forcing: for every world and every
    subformula of the target, the subformula is a member of the world's list
    iff it holds at the world's index."""
    truth_set = truth_sets(sm.model)
    member_sets = [set(members) for members in sm.worlds]
    for q in subformulas(p):
        forced = truth_set(q)
        if any((q in mset) != (i in forced) for i, mset in enumerate(member_sets)):
            return False
    return True


def world_lists_to_dict(sm: StandardModel) -> dict:
    """Sidecar document mapping world indices to their formula lists."""
    from .syntax import pretty

    return {str(i): [pretty(q) for q in lst] for i, lst in enumerate(sm.worlds)}


def world_lists_to_json(sm: StandardModel) -> str:
    """The sidecar document as the text ``glprover henkin --emit-worlds`` writes."""
    return dumps_indented(world_lists_to_dict(sm))
