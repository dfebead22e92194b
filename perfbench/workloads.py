"""The four workloads: which CLI operations make up one round, and the known
answer each operation must give.

Every input is fixed here, independent of the run's seed (the seed orders
the operations of each round; see README.md).  The random formulas are drawn
with the algorithm of ``tests/conftest.py:random_formula`` from corpus seed
7, 60 per tier; three of them exhaust ``STEP_BUDGET`` on every run and are
counted as failed operations.  Rounds are kept to about three seconds, so
that a run holds enough rounds for per-operation medians to be steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from logic import (
    FALSE, TRUE, atom, box, boxes, conj, diam, disj, imp, neg, render, subformulas,
)

STEP_BUDGET = 6_000           # --max-steps of every prove-random operation
SMOKE_STEP_BUDGET = 1_000
ORACLE_EVAL_BUDGET = 10**8    # --eval-budget of every oracle operation
HENKIN_CANDIDATES = 4096      # --eval-budget of every henkin operation (2^12)
RANDOM_TIERS = ((20, 4), (30, 5), (40, 6))
CORPUS_SEED = 7
PER_TIER = 60


@dataclass(frozen=True)
class Op:
    """One ``glprover`` invocation.  ``expect`` is the exit code the known
    answer gives (None: either verdict, the certificate decides);
    ``min_worlds`` bounds a prove countermodel from below and
    ``least_worlds`` is the exact size of the first oracle countermodel; a
    proved formula must be valid on every ITF frame of at most
    ``valid_worlds`` worlds."""

    name: str
    command: str
    formula: tuple
    options: tuple = ()
    expect: int | None = None
    min_worlds: int = 0
    least_worlds: int = 0
    valid_worlds: int = 0

    @property
    def text(self) -> str:
        return render(self.formula)

    def argv(self, files) -> list[str]:
        """The command line, with every certificate the command can emit
        written to ``files``."""
        emit = {
            "prove": ["--format", "structured", "--emit-proof", files["proof"],
                      "--emit-countermodel", files["model"]],
            "oracle": ["--emit-countermodel", files["model"]],
            "henkin": ["--emit-model", files["model"], "--emit-worlds", files["worlds"]],
        }[self.command]
        return [self.command, self.text, *self.options, *map(str, emit)]


P = [atom(f"p{i}") for i in range(1, 11)]
p, q, r = atom("p"), atom("q"), atom("r")


def random_formula(rng, max_connectives, max_modal_depth, atom_names=("p", "q", "r")):
    """Same draws, in the same order, as tests/conftest.py:random_formula."""

    def leaf():
        x = rng.random()
        if x < 0.7:
            return atom(rng.choice(atom_names))
        return TRUE if x < 0.85 else FALSE

    def gen(budget, depth):
        if budget <= 0 or rng.random() < 0.2:
            return leaf()
        kinds = ["not", "and", "or", "imp", "iff"]
        if depth < max_modal_depth:
            kinds += ["box", "box"]
        kind = rng.choice(kinds)
        if kind == "not":
            return neg(gen(budget - 1, depth))
        if kind == "box":
            return box(gen(budget - 1, depth + 1))
        half = (budget - 1) // 2
        left = gen(half, depth)
        return (kind, left, gen(budget - 1 - half, depth))

    return gen(max_connectives, 0)


def tier_formulas(connectives, depth):
    rng = random.Random(CORPUS_SEED)
    return [random_formula(rng, connectives, depth) for _ in range(PER_TIER)]


def box_chain(n):
    """Box^(n+1) False --> Box^n False: refuted, by a chain of n+1 worlds."""
    return imp(boxes(n + 1, FALSE), boxes(n, FALSE))


def reflection(k):
    """Box (AND_i (Box p_i || Box Not p_i)) --> AND_i (...): refuted."""
    body = conj(("or", box(a), box(neg(a))) for a in P[:k])
    return imp(box(body), body)


def lob_conj(n):
    """Loeb's axiom for the conjunction of n atoms: proved."""
    c = conj(P[:n])
    return imp(box(imp(box(c), c)), box(c))


def prove_chains(smoke=False):
    sizes = (range(1, 4), range(1, 3), range(1, 3)) if smoke else (range(1, 15), range(1, 6), range(1, 11))
    chains, refl, lob = sizes
    return ([Op(f"chain-{n}", "prove", box_chain(n), expect=1, min_worlds=n + 1) for n in chains]
            + [Op(f"reflection-{k}", "prove", reflection(k), expect=1) for k in refl]
            + [Op(f"lob_conj{n}", "prove", lob_conj(n), expect=0) for n in lob])


def prove_random(smoke=False):
    budget = SMOKE_STEP_BUDGET if smoke else STEP_BUDGET
    ops = []
    for c, d in RANDOM_TIERS[:1] if smoke else RANDOM_TIERS:
        for i, f in enumerate(tier_formulas(c, d)):
            if smoke and i not in (0, 1, 2, 3, 57):
                continue
            ops.append(Op(f"tier{c}-{d}#{i}", "prove", f, ("--max-steps", str(budget)), valid_worlds=3))
    return ops


# Known GL theorems, and non-theorems whose least ITF countermodel size is
# known: Box p --> p fails at a single world; Diam p --> Box Diam p needs a root
# and a p-world; the reflection instance needs a root seeing a p-world and a
# Not p-world; Box^(k+1) False --> Box^k False needs a (k+1)-chain, so chain-4
# enumerates every frame of up to 4 worlds and 5-world frames up to the first
# 5-chain.  A 0-atom theorem at 5 worlds (every one of the 2^20 relation
# masks, about 8 s) would leave two rounds in a run; frame_counts_error checks
# the 5-world enumeration once per run instead.
ORACLE_THEOREMS = (
    ("consistency", imp(neg(box(FALSE)), neg(box(diam(TRUE)))), 4),
    ("lob", imp(box(imp(box(p), p)), box(p)), 4),
    ("four", imp(box(p), box(box(p))), 4),
    ("K", imp(box(imp(p, q)), imp(box(p), box(q))), 4),
    ("box-and", ("iff", box(("and", p, q)), ("and", box(p), box(q))), 4),
)
ORACLE_NON_THEOREMS = (
    ("T", imp(box(p), p), 4, 1),
    ("diam-box-diam", imp(diam(p), box(diam(p))), 4, 2),
    ("reflection", reflection(1), 4, 3),
    ("chain-3", box_chain(3), 5, 4),
    ("chain-4", box_chain(4), 5, 5),
)


def oracle(smoke=False):
    ops = []
    for name, f, worlds in ORACLE_THEOREMS:
        if smoke:
            worlds = 3 if name == "consistency" else 2
        ops.append(Op(f"{name}@{worlds}", "oracle", f,
                      ("--max-worlds", str(worlds), "--eval-budget", str(ORACLE_EVAL_BUDGET)), expect=0))
    for name, f, worlds, least in ORACLE_NON_THEOREMS:
        if smoke and least > 4:
            continue
        ops.append(Op(f"{name}@{worlds}", "oracle", f,
                      ("--max-worlds", str(worlds), "--eval-budget", str(ORACLE_EVAL_BUDGET)),
                      expect=1, least_worlds=least))
    return ops


HENKIN_THEOREMS = (
    ("lob", imp(box(imp(box(p), p)), box(p))),
    ("K", imp(box(imp(p, q)), imp(box(p), box(q)))),
    ("box-or-diam", imp(box(("or", p, q)), ("or", box(p), diam(q)))),
)
HENKIN_NON_THEOREMS = (
    ("reflection", reflection(1)),
    ("box-or", imp(box(("or", p, q)), ("or", box(p), box(q)))),
    ("grz-lob", imp(box(imp(diam(p), p)), box(p))),
    ("dot3", disj([box(imp(box(p), q)), box(imp(box(q), p))])),
    ("box-or-r", imp(box(("or", p, q)), disj([box(p), box(q), r]))),
    ("dot3-r", disj([box(imp(box(p), q)), box(imp(box(q), p)), r])),
)


def henkin(smoke=False):
    theorems = HENKIN_THEOREMS[:1] if smoke else HENKIN_THEOREMS
    refuted = HENKIN_NON_THEOREMS[:1] if smoke else HENKIN_NON_THEOREMS
    opts = ("--eval-budget", str(HENKIN_CANDIDATES))
    return ([Op(f"{name}/{len(subformulas(f))}", "henkin", f, opts, expect=0) for name, f in theorems]
            + [Op(f"{name}/{len(subformulas(f))}", "henkin", f, opts, expect=1) for name, f in refuted])


WORKLOADS = {
    "prove-chains": prove_chains,
    "prove-random": prove_random,
    "oracle": oracle,
    "henkin": henkin,
}
