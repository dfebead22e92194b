"""Bisimulations between finite Kripke models.

A relation between the worlds of two models is a bisimulation when related
worlds agree on every atom and satisfy the forth and back conditions; one
forth/back test backs both the checker and the greatest bisimulation.
Bisimilar worlds agree on every modal formula.
"""

from __future__ import annotations

from .semantics import Model


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
