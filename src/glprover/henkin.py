"""Standard countermodel construction from maximal consistent lists.

A second, independent refutation route: worlds are repetition-free consistent
lists that settle every subformula of the target (either it or its negation
is a member), the accessibility relation transfers boxed members forward and
demands a fresh boxed witness, and an atom is true at a world exactly when it
is a member.  The construction is verified per instance by the truth-lemma
check: membership must coincide with forcing.

Consistency is decided without proof search, by eliminating Hintikka types
(Pratt, *Models of program logics*, 1979) over the finite standard model for
GL (Boolos, *The Logic of Provability*, ch. 5).  A type of a formula assigns
a truth value to each of its atoms and Box subformulas; the Boolean compounds
follow.  The types that survive elimination are exactly the maximal
consistent lists, so a formula is a theorem when no survivor falsifies it.
The types are bit-sliced: bit t of a formula's mask says whether type t makes
it true, so one pass of the semantic evaluator settles every compound for
all types at once.  The standard model is read off the elimination: a world
sees the survivors among which elimination sought its witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._jsontext import dumps
from .errors import BudgetExceededError, InternalCheckError
from .hilbert import conjlist
from .semantics import Model, _eval_mask, _truth_masks, is_itf, make_model
from .syntax import Atom, Box, Formula, Not, pretty, sort_key, subformulas, subsentences

DEFAULT_CANDIDATE_BUDGET = 4096

FormulaList = tuple[Formula, ...]


def _surviving_types(p: Formula, max_candidates: int) -> tuple[dict[Formula, int], int, dict[int, int]]:
    """(masks, alive, sees): the mask of each subformula of ``p`` over the
    types of ``p``, the mask of the types that survive elimination, and the
    mask of the survivors each surviving type sees.

    With a atoms and k Box subformulas there are 2^(a+k) types, and
    ``max_candidates`` bounds that count: BudgetExceededError beyond it.
    Type t makes atom i true when bit i of t is set and Box subformula j
    true when bit a+j is, so the types with box set b are the 2^a bits from
    bit b*2^a.  Whether a type survives depends only on its box set: b
    survives when, for each Box B outside b, some surviving type holds each
    Box C in b and its body C, holds Box B and falsifies B.  Such a witness
    has strictly more boxes, so one pass from the largest box set down
    reaches the fixpoint.  The survivors with more boxes that hold each Box C
    in b and C, among which b's witnesses were sought, are what b's lists see
    in the standard relation (``_standard_rel_core``), as a list holds Not B
    exactly when it lacks B."""
    subs = subformulas(p)
    names = sorted((q for q in subs if isinstance(q, Atom)), key=sort_key)
    boxes = sorted((q for q in subs if isinstance(q, Box)), key=sort_key)
    k = len(names) + len(boxes)
    if 2 ** k > max_candidates:
        raise BudgetExceededError(
            f"type elimination: 2^{k} types exceed the budget "
            f"({len(names)} atoms, {len(boxes)} Box subformulas)"
        )
    full = (1 << (1 << k)) - 1
    # variable i is true on the upper 2^i bits of every run of 2^(i+1)
    masks = {q: full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
             for i, q in enumerate(names + boxes)}
    # the atom and Box masks are seeded, so the evaluator settles only the
    # Boolean compounds and never reads the empty predecessor list
    _eval_mask(p, full, [], {}, 1, masks)
    block = (1 << (1 << len(names))) - 1
    alive = full
    sees = {}
    for b in reversed(range(1 << len(boxes))):
        held = alive
        for j, box in enumerate(boxes):
            if b >> j & 1:
                held &= masks[box] & masks[box.sub]
        first = b << len(names)
        if any(not b >> j & 1 and not held & masks[box] & ~masks[box.sub]
               for j, box in enumerate(boxes)):
            alive &= ~(block << first)
        else:
            sees.update(dict.fromkeys(range(first, first + (1 << len(names))), held & ~(block << first)))
    return masks, alive, sees


def consistent(xs, max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> bool:
    """A list is consistent when some surviving type of the conjunction of
    its members makes that conjunction true.  ``max_candidates`` bounds the
    types, here and in every function that decides consistency:
    BudgetExceededError beyond it."""
    f = conjlist(xs)
    masks, alive, _ = _surviving_types(f, max_candidates)
    return bool(alive & masks[f])


def no_repetition(xs) -> bool:
    xs = list(xs)
    return len(set(xs)) == len(xs)


def is_maximal_consistent(p: Formula, xs, max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> bool:
    """Consistent, repetition-free, and containing each subformula of ``p``
    or its negation."""
    xs = list(xs)
    if not no_repetition(xs) or not consistent(xs, max_candidates):
        return False
    members = set(xs)
    return all(q in members or Not(q) in members for q in subformulas(p))


def extend_maximal_consistent(p: Formula, xs,
                              max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> FormulaList:
    """Extend a consistent list of subsentences of ``p`` to a maximal
    consistent one, deciding each missing subformula in ascending formula
    order: keep it if that stays consistent, otherwise keep its negation."""
    xs = list(xs)
    sub = subsentences(p)
    if any(q not in sub for q in xs):
        raise ValueError("every member must be a subsentence of the target formula")
    if not consistent(xs, max_candidates):
        raise ValueError("the initial list must be consistent")
    out = list(xs)
    members = set(out)
    for q in sorted(subformulas(p), key=sort_key):
        if q in members or Not(q) in members:
            continue
        kept = q if consistent(sorted(members | {q}, key=sort_key), max_candidates) else Not(q)
        out.append(kept)
        members.add(kept)
    return tuple(out)


def _standard_rel_core(w: set[Formula], x: set[Formula]) -> bool:
    for f in w:
        if isinstance(f, Box) and not (f in x and f.sub in x):
            return False
    return any(isinstance(f, Box) and Not(f) in w for f in x)


def gl_standard_rel(p: Formula, w, x, max_candidates: int = DEFAULT_CANDIDATE_BUDGET) -> bool:
    """Accessibility between maximal consistent lists: boxed members of ``w``
    transfer to ``x`` together with their bodies, and ``x`` owns a boxed
    member whose negation is in ``w``."""
    w, x = list(w), list(x)
    sub = subsentences(p)
    for side in (w, x):
        if any(q not in sub for q in side) or not is_maximal_consistent(p, side, max_candidates):
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


def build_standard_model(
    p: Formula, max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
) -> tuple[StandardModel, FormulaList] | None:
    """None when ``p`` is a theorem, that is, when no maximal consistent
    list contains Not p; otherwise the indexed standard model together with
    the first world list containing Not p, at which ``p`` fails.

    The worlds are the surviving types, and a world sees the survivors among
    which elimination sought its witnesses.  ``max_candidates`` bounds
    2^(atoms + Box subformulas), the number of types that elimination decides
    (see ``_surviving_types``).  The frame is checked to be
    irreflexive-transitive, the truth lemma is checked on every (world,
    subformula) pair, and ``p`` must not be a member of the returned world's
    list, so by the truth lemma it fails there.  By soundness the truth
    lemma also certifies that every world is consistent."""
    masks, alive, sees = _surviving_types(p, max_candidates)
    if not alive & ~masks[p]:
        return None
    subs = sorted(subformulas(p), key=sort_key)
    lists = {t: tuple(dict.fromkeys(q if masks[q] >> t & 1 else Not(q) for q in subs))
             for t in _bits(alive)}
    types = sorted(lists, key=lambda t: tuple(sort_key(q) for q in lists[t]))
    falsified = next(i for i, t in enumerate(types) if not masks[p] >> t & 1)
    index = {t: i for i, t in enumerate(types)}
    rel = [(index[t], index[u]) for t in types for u in _bits(sees[t])]
    val = {q.name: [index[t] for t in _bits(masks[q] & alive)]
           for q in subs if isinstance(q, Atom) and masks[q] & alive}
    model = make_model(range(len(types)), rel, val)
    sm = StandardModel(p, tuple(lists[t] for t in types), model)
    if not is_itf(model.frame):
        raise InternalCheckError("standard frame is not irreflexive transitive")
    if not truth_lemma_check(p, sm):
        raise InternalCheckError("truth lemma fails on the standard model")
    if p in sm.worlds[falsified]:
        raise InternalCheckError("standard model does not falsify the target")
    return sm, sm.worlds[falsified]


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def truth_lemma_check(p: Formula, sm: StandardModel) -> bool:
    """Membership coincides with forcing: for every world and every
    subformula of the target, the subformula is a member of the world's list
    iff it holds at the world's index.  Per subformula, the mask of the
    lists that hold it must equal its truth mask on those lists; a list whose
    index is not a world gets a bit above every world's, where nothing holds."""
    index, mask_of = _truth_masks(sm.model)
    mask_of(p)  # one walk; each subformula's mask is then kept
    bits = [1 << index.get(i, len(index) + i) for i in range(len(sm.worlds))]
    members = dict.fromkeys(subformulas(p), 0)
    for bit, lst in zip(bits, sm.worlds):
        for q in lst:
            if q in members:
                members[q] |= bit
    listed = sum(bits)
    return all(mask_of(q) & listed == mask for q, mask in members.items())


def world_lists_to_dict(sm: StandardModel) -> dict:
    """Sidecar document mapping world indices to their formula lists; the
    lists share their formulas, so each distinct one is printed once."""
    texts = {q: pretty(q) for q in {q for lst in sm.worlds for q in lst}}
    return {str(i): [texts[q] for q in lst] for i, lst in enumerate(sm.worlds)}


def world_lists_to_json(sm: StandardModel) -> str:
    """The sidecar document as the text ``glprover henkin --emit-worlds`` writes."""
    return dumps(world_lists_to_dict(sm)) + "\n"
