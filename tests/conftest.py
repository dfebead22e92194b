import random

import pytest

from glprover.syntax import And, Atom, Box, FALSE, Formula, Iff, Imp, Not, Or, TRUE

CORPUS_SEED = 20210326


def random_formula(rng: random.Random, max_connectives: int = 10,
                   atom_names=("p", "q", "r"), max_modal_depth: int = 3) -> Formula:
    """Random formula with bounded connective count and modal depth."""

    def leaf():
        r = rng.random()
        if r < 0.7:
            return Atom(rng.choice(atom_names))
        return TRUE if r < 0.85 else FALSE

    def gen(budget: int, depth: int) -> Formula:
        if budget <= 0 or rng.random() < 0.2:
            return leaf()
        kinds = ["not", "and", "or", "imp", "iff"]
        if depth < max_modal_depth:
            kinds += ["box", "box"]
        kind = rng.choice(kinds)
        if kind == "not":
            return Not(gen(budget - 1, depth))
        if kind == "box":
            return Box(gen(budget - 1, depth + 1))
        half = (budget - 1) // 2
        left = gen(half, depth)
        right = gen(budget - 1 - half, depth)
        ctor = {"and": And, "or": Or, "imp": Imp, "iff": Iff}[kind]
        return ctor(left, right)

    return gen(max_connectives, 0)


def random_model(rng: random.Random, max_worlds: int = 4, atom_names=("p", "q")):
    from glprover.semantics import make_model

    n = rng.randint(1, max_worlds)
    worlds = range(n)
    rel = [(x, y) for x in worlds for y in worlds if rng.random() < 0.3]
    val = {a: {w for w in worlds if rng.random() < 0.5} for a in atom_names}
    return make_model(worlds, rel, val)


@pytest.fixture(scope="session")
def corpus() -> list[Formula]:
    """The shared 200-formula corpus: at most 3 atoms, 10 connectives and
    modal depth 3, generated from a fixed seed."""
    rng = random.Random(CORPUS_SEED)
    return [random_formula(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def tier_formulas() -> list[Formula]:
    """The 180 random formulas of the benchmark's prove-random workload: 60
    per tier of (connectives, modal depth), each tier drawn afresh from seed
    7, in the order of ``perfbench/workloads.py``."""
    formulas = []
    for connectives, depth in ((20, 4), (30, 5), (40, 6)):
        rng = random.Random(7)
        formulas += [random_formula(rng, connectives, max_modal_depth=depth) for _ in range(60)]
    return formulas
