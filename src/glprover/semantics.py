"""Finite Kripke models and the semantic ground truth.

Worlds are small naturals.  A valuation lists, per atom, the worlds where the
atom is true; every (atom, world) pair not listed is false.  One evaluator,
`_eval_mask`, computes the worlds where a formula is true as a bitmask, for
one model or for many frames on n worlds under many valuations at once (bit
``((s*V) + v)*n + w`` is world ``w`` of the frame in slot ``s`` under
valuation ``v``, with V valuations per frame).  `_truth_masks` binds it to
one model; `holds`, `truth_sets` and the countermodel and truth-lemma checks
read the bits of its masks.  This module also provides the frame-class
predicates for GL (irreflexive transitive finite, and transitive Noetherian
restricted to finite frames) and an exhaustive bounded validity oracle,
which generates the ITF frames directly as strict partial orders, each as
its tuple of predecessor masks, and evaluates them in batches, up to
VALUATION_SLICE frame-valuation pairs per evaluator pass.  Bisimulations
live in `glprover.bisimulation`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import islice

from ._jsontext import dumps, is_natural, loads
from .errors import BudgetExceededError
from .syntax import And, Atom, Box, Falsum, Formula, Iff, Imp, Not, Or, Verum, atoms, children_first

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
        return next((ws for name, ws in self.val if name == atom_name), frozenset())


def make_model(worlds, rel, val=None) -> Model:
    """Convenience constructor from plain iterables / a dict valuation."""
    frame = Frame(frozenset(worlds), frozenset((x, y) for x, y in rel))
    items = tuple(sorted((a, frozenset(ws)) for a, ws in (val or {}).items()))
    return Model(frame, items)


def _model_masks(m: Model) -> tuple[dict[int, int], int, list[int], dict[str, int]]:
    """(index, full, pred, val): world ``w`` is bit ``index[w]``, in ascending
    world order; ``pred[i]`` and ``val[a]`` are the masks of the worlds that
    see bit ``i`` and of the worlds where atom ``a`` is true."""
    index = {w: i for i, w in enumerate(sorted(m.frame.worlds))}
    pred = [0] * len(index)
    for x, y in m.frame.rel:
        pred[index[y]] |= 1 << index[x]
    val = {a: sum(1 << index[w] for w in ws) for a, ws in m.val}
    return index, (1 << len(index)) - 1, pred, val


def _eval_mask(f: Formula, full: int, pred: list[int], val_masks: dict[str, int], unit: int,
               memo: dict[Formula, int]) -> int:
    """The formula evaluator: the mask of the worlds where ``f`` is true.

    The worlds of n-world models are laid out in blocks of n bits, one block
    per model: for a batch of frames with V valuations each, bit
    ``((s*V) + v)*n + w`` is world ``w`` of the frame in slot ``s`` under
    valuation ``v``.  ``unit`` has the lowest bit of each block set (``1``
    for one model), and ``pred[k]`` has a bit at every position where the
    world there sees world k in that block's frame; for one model it is the
    mask of the predecessors of k.  Box g is false exactly where a successor
    falsifies g: the blocks where g fails at world k are filled and cut down
    to the predecessors of k.
    The walk is one loop over ``f``'s subformulas, children first
    (``syntax.children_first``); it skips those already in ``memo`` and
    records every other one's mask there, so a subformula shared in the DAG
    is evaluated once for all the formulas evaluated with one memo."""
    for g in children_first(f):
        if g in memo:
            continue
        t = type(g)
        if t is Atom:
            mask = val_masks.get(g.name, 0)
        elif t is Not:
            mask = full & ~memo[g.sub]
        elif t is Box:
            missing, failed, n = full & ~memo[g.sub], 0, len(pred)
            for k, p in enumerate(pred):
                hit = missing >> k & unit
                failed |= ((hit << n) - hit) & p
            mask = full & ~failed
        elif t is And:
            mask = memo[g.left] & memo[g.right]
        elif t is Or:
            mask = memo[g.left] | memo[g.right]
        elif t is Imp:
            mask = (full & ~memo[g.left]) | memo[g.right]
        elif t is Iff:
            mask = full & ~(memo[g.left] ^ memo[g.right])
        elif t is Falsum:
            mask = 0
        elif t is Verum:
            mask = full
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = mask
    return memo[f]


def _truth_masks(m: Model) -> tuple[dict[int, int], Callable[[Formula], int]]:
    """The evaluator bound to one model, which it converts once: world ``w``
    is bit ``index[w]``, and ``mask_of`` maps a formula to the mask of the
    worlds where it is true.  Subformula masks are kept for the life of
    ``mask_of``, and a kept one is not walked again; so a caller that
    evaluates many related formulas evaluates their common root first."""
    index, full, pred, val = _model_masks(m)
    memo: dict[Formula, int] = {}

    def mask_of(f: Formula) -> int:
        return memo[f] if f in memo else _eval_mask(f, full, pred, val, 1, memo)

    return index, mask_of


def truth_sets(m: Model) -> Callable[[Formula], frozenset[int]]:
    """Maps a formula to the set of worlds of ``m`` where it is true."""
    index, mask_of = _truth_masks(m)

    def truth_set(f: Formula) -> frozenset[int]:
        mask = mask_of(f)
        return frozenset(w for w, i in index.items() if mask >> i & 1)

    return truth_set


def holds(m: Model, f: Formula, w: int) -> bool:
    """Forcing: is ``f`` true at world ``w`` of model ``m``?"""
    if w not in m.frame.worlds:
        raise UnknownWorldError(f"world {w} is not in the model")
    index, mask_of = _truth_masks(m)
    return bool(mask_of(f) >> index[w] & 1)


# Frame-valuation pairs per evaluator pass; the masks have at most
# VALUATION_SLICE * n bits.
VALUATION_SLICE = 1 << 10


def _first_failure(f: Formula, names: list[str], preds: list[Sequence[int]]):
    """The first failure of ``f`` on frames on the same n worlds, given as
    their predecessor masks (``preds[s][k]`` is the mask of the worlds that
    see world k in frame s): the least frame index s, then the least
    valuation v of ``names`` by index (atom i is true at world w iff bit
    i*n + w of v is set) under which ``f`` is false somewhere in frame s, and
    the least such world w, as (s, v, w); None when there is none.

    One pass evaluates every frame under every valuation, which takes at
    most VALUATION_SLICE frame-valuation pairs; a single frame with more
    valuations is evaluated in ascending slices of VALUATION_SLICE."""
    n = len(preds[0])
    total = 1 << (len(names) * n)
    # Masks of the first slice of one frame, by doubling: bit p of the index
    # is world p % n of atom p // n.  A later slice adds its index's higher
    # bits at every unit.
    vals, unit, width = [0] * len(names), 1, n
    for p in range(min(total, VALUATION_SLICE).bit_length() - 1):
        vals = [x | x << width for x in vals]
        vals[p // n] |= unit << (width + p % n)
        unit |= unit << width
        width *= 2
    # Frame s takes the width bits from s * width: its predecessor masks
    # repeat in every block of its slot, and the valuations, by doubling
    # again, in every slot.
    pred = [sum(p[k] * unit << (s * width) for s, p in enumerate(preds)) for k in range(n)]
    ones, span = (1 << (len(preds) * width)) - 1, width
    while span < len(preds) * width:
        vals = [x | x << span for x in vals]
        unit |= unit << span
        span *= 2
    vals, unit, full, per = [x & ones for x in vals], unit & ones, (1 << n) - 1, width // n
    for first in range(0, total, per):
        val_masks = {a: x | unit * (first >> (i * n) & full) for i, (a, x) in enumerate(zip(names, vals))}
        bad = ones & ~_eval_mask(f, ones, pred, val_masks, unit, {})
        if bad:
            block, w = divmod((bad & -bad).bit_length() - 1, n)
            s, v = divmod(block, per)
            return s, first + v, w
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
    _, _, pred, _ = _model_masks(Model(fr))
    return _first_failure(f, names, [pred]) is None


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
    succ = {x: set() for x in fr.worlds}
    for x, y in fr.rel:
        succ[x].add(y)
    return ((2, x, y, z) for x, y in fr.rel for z in succ[y] - succ[x])


def is_itf(fr: Frame) -> bool:
    """Nonempty, irreflexive, transitive (finiteness is intrinsic here)."""
    return not any(_itf_violations(fr))


def itf_report(fr: Frame) -> list[str]:
    """Clause-level failures of the ITF predicate; empty iff is_itf holds."""
    return [_VIOLATION_MESSAGES[v[0]].format(*v) for v in sorted(_itf_violations(fr))]


def _has_cycle(fr: Frame) -> bool:
    """Peel off the worlds that no world left sees until none is left, or a
    nonempty rest in which every world is seen, hence a cycle."""
    _, live, pred, _ = _model_masks(Model(fr))
    while live:
        sources = sum(1 << i for i, p in enumerate(pred) if live >> i & 1 and not p & live)
        if not sources:
            return True
        live &= ~sources
    return False


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


def enumerate_frames(n: int):
    """All frames on worlds 0..n-1, ascending by relation bitmask over the
    lexicographic ordering of all n^2 pairs (bit k selects pair k)."""
    worlds = frozenset(range(n))
    pairs = [(x, y) for x in range(n) for y in range(n)]
    for mask in range(1 << len(pairs)):
        yield Frame(worlds, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))


def enumerate_itf_frames(n: int):
    """All ITF frames (strict partial orders) on worlds 0..n-1, each as the
    tuple of its predecessor masks (bit x of entry y is set when x sees y),
    ascending by relation bitmask over the lexicographic ordering of the
    pairs (x, y) with x != y, generated without filtering.

    Ascending mask is ascending (succ[n-1], ..., succ[0]), each successor set
    read as a bitmask, so the rows nest like loops, row n-1 outermost.  Given
    the rows above it, row x admits the sets that avoid x, lie inside
    succ[a] for each a that sees x, and contain succ[y] for each member y;
    the rows below it are chosen inside the rows that see them, so every
    choice completes to an order."""
    if n < 1:
        return  # an ITF frame has a world
    full = (1 << n) - 1
    succ = [0] * n

    def admissible(x):
        bound = full & ~(1 << x)
        for a in range(x + 1, n):
            if succ[a] >> x & 1:
                bound &= succ[a]
        members = [(1 << y, succ[y]) for y in range(x + 1, n) if bound >> y & 1 and succ[y]]
        sets, sub = [], 0
        while True:  # the subsets of bound, ascending
            need = 0
            for bit, below in members:
                if sub & bit:
                    need |= below
            if not need & ~sub:
                sets.append(sub)
            if sub == bound:
                return sets
            sub = (sub - bound) & bound

    high = [(0,) * n] * (n + 1)  # high[x]: the predecessor masks of the rows from x up
    rows = [iter(())] * n
    x = n - 1
    rows[x] = iter(admissible(x))
    while x < n:
        sub = next(rows[x], None)
        if sub is None:
            x += 1
            continue
        succ[x] = sub
        high[x] = tuple(p | (sub >> y & 1) << x for y, p in enumerate(high[x + 1]))
        if x:
            x -= 1
            rows[x] = iter(admissible(x))
        else:
            yield high[0]


def oracle_valid(f: Formula, max_worlds: int, eval_budget: int = DEFAULT_EVAL_BUDGET) -> Verdict:
    """Exhaustively check ``f`` on every ITF frame with 1..max_worlds worlds,
    every valuation of its atoms and every world.  Returns the first failure
    (frames by world count then relation mask, valuations by mask, worlds
    ascending), or ValidUpTo(max_worlds).

    The budget is checked against 2^(n^2-n) relation masks times 2^(atoms*n)
    valuations times n worlds, summed over n until the sum passes it: an
    upper bound on the work, since only the ITF frames are generated.  The
    frames of each world count are evaluated in batches of 1, 2, 4, ... up
    to VALUATION_SLICE frame-valuation pairs per pass, so a falsified
    verdict reads at most about twice the frames it needs."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    names = sorted(atoms(f))
    cost = 0
    for n in range(1, max_worlds + 1):
        cost += 2 ** (n * n - n + len(names) * n) * n
        if cost > eval_budget:
            raise BudgetExceededError(
                f"oracle_valid: estimated evaluations on frames of up to {n} worlds exceed the budget of {eval_budget}")
    for n in range(1, max_worlds + 1):
        frames = enumerate_itf_frames(n)
        most, size = max(1, VALUATION_SLICE >> (len(names) * n)), 1
        while True:
            preds = list(islice(frames, size))
            if not preds:
                break
            failure = _first_failure(f, names, preds)
            if failure is not None:
                s, v, w = failure
                rel = [(x, y) for y in range(n) for x in range(n) if preds[s][y] >> x & 1]
                val = {a: [x for x in range(n) if v >> (i * n + x) & 1] for i, a in enumerate(names)}
                return Falsified(make_model(range(n), rel, val), w)
            size = min(2 * size, most)
    return ValidUpTo(max_worlds)


# --- model file format --------------------------------------------------------
#
# A single JSON document:  {"worlds": [naturals], "rel": [[x, y], ...],
# "val": {atom: [worlds where true]}}.  Canonical form sorts all arrays
# ascending and object keys alphabetically, and is compact JSON.  An optional
# "falsifiedAt" field, one of the worlds, accompanies countermodels.

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
    return dumps(model_to_dict(m, falsified_at)) + "\n"


def model_from_dict(doc: dict) -> tuple[Model, int | None]:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    try:
        worlds = doc["worlds"]
        rel = doc["rel"]
        val = doc.get("val", {})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model document is missing field {exc}") from None
    if not isinstance(worlds, list) or not all(is_natural(w) for w in worlds):
        raise ValueError("'worlds' must be an array of naturals")
    if not isinstance(rel, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(is_natural(c) for c in p) for p in rel
    ):
        raise ValueError("'rel' must be an array of 2-arrays")
    if not isinstance(val, dict) or not all(
        isinstance(a, str) and isinstance(ws, list) and all(is_natural(w) for w in ws)
        for a, ws in val.items()
    ):
        raise ValueError("'val' must map atom names to arrays of worlds")
    falsified_at = doc.get("falsifiedAt")
    if falsified_at is not None and not is_natural(falsified_at):
        raise ValueError("'falsifiedAt' must be a natural")
    if falsified_at is not None and falsified_at not in worlds:
        raise ValueError("'falsifiedAt' must be one of the worlds")
    model = make_model(worlds, ((x, y) for x, y in rel), {a: ws for a, ws in val.items()})
    return model, falsified_at


def model_from_json(text: str) -> tuple[Model, int | None]:
    return model_from_dict(loads(text))


def model_to_dot(m: Model, falsified_at: int | None = None) -> str:
    """Graph description of a model: one node per world labelled with the
    atoms true there, one edge per relation pair."""
    names = sorted({a for a, _ in m.val})
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
