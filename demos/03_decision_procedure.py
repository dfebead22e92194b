"""The decision procedure at work on principles of provability.

Reading Box A as "A is provable in arithmetic", these formulas express
classic metamathematical facts.  Each is decided by root-first proof search
in the labelled sequent calculus; a positive answer comes with a derivation
that an independent checker revalidates.
"""

from glprover import Proved, check_derivation, derivation_to_text, parse, search

principles = [
    # if arithmetic is consistent, it cannot prove its own consistency
    ("second incompleteness", "Not (Box False) --> Not (Box (Diam True))"),
    # if arithmetic does not prove its inconsistency, consistency is undecidable
    ("undecidability of consistency",
     "Not (Box (Box False)) --> Not (Box (Not (Box False))) && Not (Box (Not (Not (Box False))))"),
    # the Goedel sentence is undecidable under the same assumption
    ("undecidability of the Goedel formula",
     "Box (p <-> Not (Box p)) && Not (Box (Box False)) --> Not (Box p) && Not (Box (Not p))"),
    # boxes respect provable equivalence
    ("box congruence", "Box (p <-> q) --> (Box p <-> Box q)"),
]

for name, text in principles:
    f = parse(text)
    result = search(f)
    assert isinstance(result, Proved)
    assert check_derivation(result.derivation, f)
    print(f"proved ({name}):  {text}")

print("\nderivation of the basic Loeb instance Box (Box False --> False) --> Box False:\n")
lob = parse("Box (Box False --> False) --> Box False")
result = search(lob)
print(derivation_to_text(result.derivation, lob))
