"""Finite Kripke models and the semantic ground truth.

Worlds are small naturals.  A valuation lists, per atom, the worlds where the
atom is true; every (atom, world) pair not listed is false.  One evaluator,
`_eval_mask`, computes the worlds where a formula is true as a bitmask;
`holds`, `truth_sets` and the exhaustive checks all use it.  This module also
provides the frame-class predicates for GL (irreflexive transitive finite,
and transitive Noetherian restricted to finite frames), an exhaustive bounded
validity oracle, and bisimulations.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

from .errors import BudgetExceededError
from .syntax import And, Atom, Box, Falsum, Formula, Iff, Imp, Not, Or, Verum, atoms

DEFAULT_EVAL_BUDGET = 10**8


class UnknownWorldError(ValueError):
    """Raised when a formula is evaluated at a world outside the model."""


@dataclass(frozen=True)
class Frame:
    """Finite frame: a world set and an accessibility relation on it."""

    worlds: frozenset[int]
    rel: frozenset[tuple[int, int]]

    def __post_init__(self):
        for x, y in self.rel:
            if x not in self.worlds or y not in self.worlds:
                raise ValueError(f"relation pair ({x},{y}) has an endpoint outside the world set")


@dataclass(frozen=True)
class Model:
    """Frame plus atomic valuation; unlisted (atom, world) pairs are false."""

    frame: Frame
    val: tuple[tuple[str, frozenset[int]], ...] = ()

    def __post_init__(self):
        for name, ws in self.val:
            if not ws <= self.frame.worlds:
                raise ValueError(f"valuation of {name!r} mentions worlds outside the frame")

    def true_worlds(self, atom_name: str) -> frozenset[int]:
        for name, ws in self.val:
            if name == atom_name:
                return ws
        return frozenset()


def make_model(worlds, rel, val=None) -> Model:
    """Convenience constructor from plain iterables / a dict valuation."""
    frame = Frame(frozenset(worlds), frozenset((x, y) for x, y in rel))
    items = tuple(sorted((a, frozenset(ws)) for a, ws in (val or {}).items()))
    return Model(frame, items)


def _model_masks(m: Model) -> tuple[dict[int, int], int, list[int], dict[str, int]]:
    """(index, full, succ, val): world ``w`` is bit ``index[w]``, in ascending
    world order; ``succ[i]`` and ``val[a]`` are the masks of the successors of
    bit ``i`` and of the worlds where atom ``a`` is true."""
    index = {w: i for i, w in enumerate(sorted(m.frame.worlds))}
    succ = [0] * len(index)
    for x, y in m.frame.rel:
        succ[index[x]] |= 1 << index[y]
    val = {a: sum(1 << index[w] for w in ws) for a, ws in m.val}
    return index, (1 << len(index)) - 1, succ, val


def _eval_mask(f: Formula, full: int, succ: list[int], val_masks: dict[str, int]) -> int:
    """The formula evaluator: the mask of the worlds where ``f`` is true.

    Box f is true at a world iff every successor of it makes f true, i.e. its
    successor mask has no bit outside the mask of f."""
    if isinstance(f, Falsum):
        return 0
    if isinstance(f, Verum):
        return full
    if isinstance(f, Atom):
        return val_masks.get(f.name, 0)
    if isinstance(f, Not):
        return full & ~_eval_mask(f.sub, full, succ, val_masks)
    if isinstance(f, And):
        return _eval_mask(f.left, full, succ, val_masks) & _eval_mask(f.right, full, succ, val_masks)
    if isinstance(f, Or):
        return _eval_mask(f.left, full, succ, val_masks) | _eval_mask(f.right, full, succ, val_masks)
    if isinstance(f, Imp):
        return (full & ~_eval_mask(f.left, full, succ, val_masks)) | _eval_mask(f.right, full, succ, val_masks)
    if isinstance(f, Iff):
        a = _eval_mask(f.left, full, succ, val_masks)
        b = _eval_mask(f.right, full, succ, val_masks)
        return full & ~(a ^ b)
    if isinstance(f, Box):
        sub = _eval_mask(f.sub, full, succ, val_masks)
        mask = 0
        for i, s in enumerate(succ):
            if not s & ~sub:
                mask |= 1 << i
        return mask
    raise TypeError(f"not a formula: {f!r}")


def truth_sets(m: Model) -> Callable[[Formula], frozenset[int]]:
    """The evaluator bound to one model, which it converts once: maps a
    formula to the set of worlds of ``m`` where it is true."""
    index, full, succ, val = _model_masks(m)

    def truth_set(f: Formula) -> frozenset[int]:
        mask = _eval_mask(f, full, succ, val)
        return frozenset(w for w, i in index.items() if mask >> i & 1)

    return truth_set


def holds(m: Model, f: Formula, w: int) -> bool:
    """Forcing: is ``f`` true at world ``w`` of model ``m``?"""
    if w not in m.frame.worlds:
        raise UnknownWorldError(f"world {w} is not in the model")
    return w in truth_sets(m)(f)


def _first_failure(f: Formula, names: list[str], full: int, succ: list[int]):
    """First valuation of ``names``, by mask (atom i owns bits i*n..i*n+n-1),
    under which ``f`` is false somewhere: its atom masks and the mask of the
    worlds where ``f`` is true; None when there is none."""
    n = len(succ)
    for mask in range(2 ** (len(names) * n)):
        val_masks = {a: (mask >> (i * n)) & full for i, a in enumerate(names)}
        true_mask = _eval_mask(f, full, succ, val_masks)
        if true_mask != full:
            return val_masks, true_mask
    return None


def frame_valid(fr: Frame, f: Formula, eval_budget: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Is ``f`` true at every world of ``fr`` under every valuation of its
    atoms?  Exhaustive over all 2^(atoms * worlds) valuations."""
    if not fr.worlds:
        raise ValueError("frame validity needs a nonempty world set")
    names = sorted(atoms(f))
    n = len(fr.worlds)
    if 2 ** (len(names) * n) * n > eval_budget:
        raise BudgetExceededError(f"frame_valid: 2^({len(names)}*{n}) valuations exceed the budget")
    _, full, succ, _ = _model_masks(Model(fr))
    return _first_failure(f, names, full, succ) is None


# ITF clause violations are tuples (clause, worlds...): (0,) for an empty world
# set, (1, x) for xRx, (2, x, y, z) for xRy and yRz without xRz.  They are
# generated in no particular order; sorted, they are in report order.
_VIOLATION_MESSAGES = (
    "world set is empty",
    "relation is reflexive at {1}",
    "relation is not transitive: {1}R{2} and {2}R{3} but not {1}R{3}",
)


def _itf_violations(fr: Frame):
    if not fr.worlds:
        yield (0,)
    for x in fr.worlds:
        if (x, x) in fr.rel:
            yield (1, x)
    yield from _transitivity_violations(fr)


def _transitivity_violations(fr: Frame):
    for x, y in fr.rel:
        for z in fr.worlds:
            if (y, z) in fr.rel and (x, z) not in fr.rel:
                yield (2, x, y, z)


def is_itf(fr: Frame) -> bool:
    """Nonempty, irreflexive, transitive (finiteness is intrinsic here)."""
    return not any(_itf_violations(fr))


def itf_report(fr: Frame) -> list[str]:
    """Clause-level failures of the ITF predicate; empty iff is_itf holds."""
    return [_VIOLATION_MESSAGES[v[0]].format(*v) for v in sorted(_itf_violations(fr))]


def _has_cycle(fr: Frame) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    _, _, succ, _ = _model_masks(Model(fr))
    color = [WHITE] * len(succ)

    def visit(i: int) -> bool:
        color[i] = GRAY
        for j in range(len(succ)):
            if succ[i] >> j & 1 and (color[j] == GRAY or (color[j] == WHITE and visit(j))):
                return True
        color[i] = BLACK
        return False

    return any(color[i] == WHITE and visit(i) for i in range(len(succ)))


def is_transnt_finite(fr: Frame) -> bool:
    """Nonempty, transitive and conversely well-founded.  On finite frames
    converse well-foundedness is exactly acyclicity."""
    return bool(fr.worlds) and not any(_transitivity_violations(fr)) and not _has_cycle(fr)


# --- exhaustive bounded validity oracle --------------------------------------

@dataclass(frozen=True)
class ValidUpTo:
    """No ITF countermodel exists with at most ``bound`` worlds."""

    bound: int


@dataclass(frozen=True)
class Falsified:
    """A concrete ITF model and a world where the formula is false."""

    model: Model
    world: int


Verdict = ValidUpTo | Falsified


def _frames(n: int, pairs: list[tuple[int, int]]):
    """Frames on worlds 0..n-1, one per subset of ``pairs``, ascending by
    relation bitmask (bit k selects pair k)."""
    worlds = frozenset(range(n))
    for mask in range(1 << len(pairs)):
        yield Frame(worlds, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))


def enumerate_frames(n: int):
    """All frames on worlds 0..n-1, ascending by relation bitmask over the
    lexicographic ordering of all n^2 pairs."""
    yield from _frames(n, [(x, y) for x in range(n) for y in range(n)])


def enumerate_itf_frames(n: int):
    """All ITF frames on worlds 0..n-1, in deterministic ascending order."""
    # Diagonal pairs are omitted: they never occur in an ITF relation, and
    # dropping them preserves the ascending-mask enumeration order.
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    yield from (fr for fr in _frames(n, pairs) if is_itf(fr))


def oracle_valid(f: Formula, max_worlds: int, eval_budget: int = DEFAULT_EVAL_BUDGET) -> Verdict:
    """Exhaustively check ``f`` on every ITF frame with 1..max_worlds worlds,
    every valuation of its atoms and every world.  Returns the first failure
    (frames by world count then relation mask, valuations by mask, worlds
    ascending), or ValidUpTo(max_worlds)."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    names = sorted(atoms(f))
    cost = sum(2 ** (n * n - n) * 2 ** (len(names) * n) * n for n in range(1, max_worlds + 1))
    if cost > eval_budget:
        raise BudgetExceededError(f"oracle_valid: estimated {cost} evaluations exceed the budget")
    for n in range(1, max_worlds + 1):
        for fr in enumerate_itf_frames(n):
            _, full, succ, _ = _model_masks(Model(fr))
            failure = _first_failure(f, names, full, succ)
            if failure is not None:
                val_masks, true_mask = failure
                w = next(i for i in range(n) if not true_mask >> i & 1)
                val = {a: frozenset(i for i in range(n) if val_masks[a] >> i & 1) for a in names}
                return Falsified(make_model(fr.worlds, fr.rel, val), w)
    return ValidUpTo(max_worlds)


# --- bisimulation -------------------------------------------------------------

def _atom_names(*models: Model) -> list[str]:
    names: set[str] = set()
    for m in models:
        names.update(a for a, _ in m.val)
    return sorted(names)


def _atoms_agree(m1: Model, m2: Model, w1: int, w2: int, names: list[str]) -> bool:
    return all((w1 in m1.true_worlds(a)) == (w2 in m2.true_worlds(a)) for a in names)


def _zig_zag(m1: Model, m2: Model, w1: int, w2: int, Z) -> bool:
    """Forth and back for the pair (w1, w2): every successor of ``w1`` is
    related by ``Z`` to some successor of ``w2``, and vice versa."""
    forth = all(
        any((w2, u2) in m2.frame.rel and (u1, u2) in Z for u2 in m2.frame.worlds)
        for u1 in m1.frame.worlds
        if (w1, u1) in m1.frame.rel
    )
    return forth and all(
        any((w1, u1) in m1.frame.rel and (u1, u2) in Z for u1 in m1.frame.worlds)
        for u2 in m2.frame.worlds
        if (w2, u2) in m2.frame.rel
    )


def is_bisimulation(m1: Model, m2: Model, Z: frozenset[tuple[int, int]] | set) -> bool:
    """Do the pairs in ``Z`` satisfy membership, atom agreement, and the
    forth and back conditions?  The empty relation qualifies vacuously."""
    names = _atom_names(m1, m2)
    return all(
        w1 in m1.frame.worlds and w2 in m2.frame.worlds
        and _atoms_agree(m1, m2, w1, w2, names) and _zig_zag(m1, m2, w1, w2, Z)
        for w1, w2 in Z
    )


def largest_bisimulation(m1: Model, m2: Model) -> frozenset[tuple[int, int]]:
    """Greatest bisimulation between two models: start from atom agreement
    and refine until the forth/back conditions stabilize."""
    names = _atom_names(m1, m2)
    Z = {
        (w1, w2)
        for w1 in m1.frame.worlds
        for w2 in m2.frame.worlds
        if _atoms_agree(m1, m2, w1, w2, names)
    }
    while True:
        keep = {(w1, w2) for w1, w2 in Z if _zig_zag(m1, m2, w1, w2, Z)}
        if keep == Z:
            return frozenset(Z)
        Z = keep


# --- model file format --------------------------------------------------------
#
# A single JSON document:  {"worlds": [naturals], "rel": [[x, y], ...],
# "val": {atom: [worlds where true]}}.  Canonical form sorts all arrays
# ascending and object keys alphabetically.  An optional "falsifiedAt" field
# accompanies countermodels.

def model_to_dict(m: Model, falsified_at: int | None = None) -> dict:
    doc: dict = {
        "worlds": sorted(m.frame.worlds),
        "rel": sorted([x, y] for x, y in m.frame.rel),
        "val": {a: sorted(ws) for a, ws in m.val},
    }
    if falsified_at is not None:
        doc["falsifiedAt"] = falsified_at
    return doc


def model_to_json(m: Model, falsified_at: int | None = None) -> str:
    return json.dumps(model_to_dict(m, falsified_at), indent=2, sort_keys=True) + "\n"


def model_from_dict(doc: dict) -> tuple[Model, int | None]:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    try:
        worlds = doc["worlds"]
        rel = doc["rel"]
        val = doc.get("val", {})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model document is missing field {exc}") from None
    if not isinstance(worlds, list) or not all(isinstance(w, int) and w >= 0 for w in worlds):
        raise ValueError("'worlds' must be an array of naturals")
    if not isinstance(rel, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(c, int) for c in p) for p in rel
    ):
        raise ValueError("'rel' must be an array of 2-arrays")
    if not isinstance(val, dict) or not all(
        isinstance(a, str) and isinstance(ws, list) and all(isinstance(w, int) for w in ws)
        for a, ws in val.items()
    ):
        raise ValueError("'val' must map atom names to arrays of worlds")
    falsified_at = doc.get("falsifiedAt")
    if falsified_at is not None and not isinstance(falsified_at, int):
        raise ValueError("'falsifiedAt' must be a natural")
    model = make_model(worlds, ((x, y) for x, y in rel), {a: ws for a, ws in val.items()})
    return model, falsified_at


def model_from_json(text: str) -> tuple[Model, int | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return model_from_dict(doc)


def model_to_dot(m: Model, falsified_at: int | None = None) -> str:
    """Graph description of a model: one node per world labelled with the
    atoms true there, one edge per relation pair."""
    names = _atom_names(m)
    lines = ["digraph model {"]
    for w in sorted(m.frame.worlds):
        true_here = [a for a in names if w in m.true_worlds(a)]
        label = str(w) + (": " + " ".join(true_here) if true_here else "")
        if falsified_at == w:
            label += " (falsified here)"
        lines.append(f'  w{w} [label="{label}"];')
    for x, y in sorted(m.frame.rel):
        lines.append(f"  w{x} -> w{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
