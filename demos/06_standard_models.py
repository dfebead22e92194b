"""The standard-model construction, and comparing the two countermodel routes.

Worlds of the standard model are maximal consistent lists over the target's
subsentences.  Consistency is decided without the sequent prover, by
eliminating Hintikka types: the budget counts 2^(atoms + Box subformulas)
types, and the surviving types are the worlds.  The truth lemma (membership =
forcing) is checked on every world/subformula pair, which makes the
construction a second, independent refutation oracle.  The two routes can be
related world-by-world through bisimulation.
"""

from glprover import (
    Refuted, build_standard_model, holds, largest_bisimulation,
    model_to_json, parse, search, truth_lemma_check,
)

target = parse("Box False")

out = build_standard_model(target)
assert out is not None
sm, world = out
print(f"standard model for {target} has {len(sm.worlds)} worlds:")
for i, lst in enumerate(sm.worlds):
    print(f"  world {i}: " + ", ".join(str(q) for q in lst))
print("world containing the negated target:", sm.worlds.index(world))
print("truth lemma holds:", truth_lemma_check(target, sm))
print(model_to_json(sm.model))

# theorems have no standard countermodel
print("Loeb axiom:", build_standard_model(parse("Box (Box p --> p) --> Box p")))

# the sequent route refutes the same formula; relate the models by bisimulation
result = search(target)
assert isinstance(result, Refuted)
print("\nsequent countermodel:")
print(model_to_json(result.countermodel, result.falsified_at))

pairs = largest_bisimulation(result.countermodel, sm.model)
print("largest bisimulation between the two countermodels:", sorted(pairs))
falsifying_pair = (result.falsified_at, sm.worlds.index(world))
print("the two falsifying worlds are bisimilar:", falsifying_pair in pairs)
assert not holds(sm.model, target, sm.worlds.index(world))
