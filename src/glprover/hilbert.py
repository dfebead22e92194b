"""The axiomatic calculus for GL as checkable data.

Twelve axiom schemas (a complete classical propositional base over --> and
False, definitional schemas for the remaining connectives, distribution K,
and the Loeb schema), plus modus ponens and necessitation.  Proof objects are
step sequences; the checker validates every step independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ._jsontext import loads
from .syntax import And, Atom, Box, FALSE, Formula, Iff, Imp, Not, Or, TRUE, parse, pretty

_P, _Q, _R = Atom("p"), Atom("q"), Atom("r")

# Schema patterns, 1-based, in the fixed catalogue order.  Atoms in a pattern
# are metavariables standing for arbitrary formulas.
AXIOM_SCHEMAS: dict[int, Formula] = {
    1: Imp(_P, Imp(_Q, _P)),
    2: Imp(Imp(_P, Imp(_Q, _R)), Imp(Imp(_P, _Q), Imp(_P, _R))),
    3: Imp(Imp(Imp(_P, FALSE), FALSE), _P),
    4: Imp(Iff(_P, _Q), Imp(_P, _Q)),
    5: Imp(Iff(_P, _Q), Imp(_Q, _P)),
    6: Imp(Imp(_P, _Q), Imp(Imp(_Q, _P), Iff(_P, _Q))),
    7: Iff(TRUE, Imp(FALSE, FALSE)),
    8: Iff(Not(_P), Imp(_P, FALSE)),
    9: Iff(And(_P, _Q), Imp(Imp(_P, Imp(_Q, FALSE)), FALSE)),
    10: Iff(Or(_P, _Q), Not(And(Not(_P), Not(_Q)))),
    11: Imp(Box(Imp(_P, _Q)), Imp(Box(_P), Box(_Q))),
    12: Imp(Box(Imp(Box(_P), _P)), Box(_P)),
}


def _match(pattern: Formula, f: Formula, bindings: dict[str, Formula]) -> bool:
    if isinstance(pattern, Atom):
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = f
            return True
        return bound == f
    if type(pattern) is not type(f):
        return False
    if isinstance(pattern, (Not, Box)):
        return _match(pattern.sub, f.sub, bindings)
    if isinstance(pattern, (And, Or, Imp, Iff)):
        return _match(pattern.left, f.left, bindings) and _match(pattern.right, f.right, bindings)
    return True  # Falsum / Verum, already same type


def matches_schema(f: Formula, schema_id: int) -> bool:
    """Is ``f`` an instance of the given schema (metavariables matched by
    arbitrary formulas, consistently)?"""
    return _match(AXIOM_SCHEMAS[schema_id], f, {})


def match_axiom(f: Formula) -> int | None:
    """Least schema id (1..12) that ``f`` instantiates, or None."""
    for schema_id in sorted(AXIOM_SCHEMAS):
        if matches_schema(f, schema_id):
            return schema_id
    return None


def instantiate(schema_id: int, **bindings: Formula) -> Formula:
    """Build an instance of a schema from metavariable bindings."""

    def subst(pattern: Formula) -> Formula:
        if isinstance(pattern, Atom):
            return bindings.get(pattern.name, pattern)
        if isinstance(pattern, Not):
            return Not(subst(pattern.sub))
        if isinstance(pattern, Box):
            return Box(subst(pattern.sub))
        if isinstance(pattern, (And, Or, Imp, Iff)):
            return type(pattern)(subst(pattern.left), subst(pattern.right))
        return pattern

    return subst(AXIOM_SCHEMAS[schema_id])


# --- proof objects -------------------------------------------------------------

@dataclass(frozen=True)
class AxiomStep:
    schema: int
    formula: Formula


@dataclass(frozen=True)
class MPStep:
    """Modus ponens: step i concludes X --> Y, step j concludes X."""

    i: int
    j: int
    formula: Formula


@dataclass(frozen=True)
class NecStep:
    """Necessitation: conclude Box of step i's formula."""

    i: int
    formula: Formula


HilbertStep = AxiomStep | MPStep | NecStep


@dataclass(frozen=True)
class HilbertProof:
    steps: tuple[HilbertStep, ...]

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


def check_proof_detailed(pf: HilbertProof) -> tuple[Formula | None, str | None]:
    """Validate every step; returns (conclusion, None) on success or
    (None, report naming the first offending step)."""
    if not pf.steps:
        return None, "proof has no steps"
    for k, step in enumerate(pf.steps):
        if isinstance(step, AxiomStep):
            if step.schema not in AXIOM_SCHEMAS:
                return None, f"step {k}: unknown schema id {step.schema}"
            if not matches_schema(step.formula, step.schema):
                return None, f"step {k}: {pretty(step.formula)} is not an instance of schema {step.schema}"
        elif isinstance(step, MPStep):
            if not (0 <= step.i < k and 0 <= step.j < k):
                return None, f"step {k}: modus ponens references {step.i},{step.j}, need indices below {k}"
            major = pf.steps[step.i].formula
            minor = pf.steps[step.j].formula
            if not isinstance(major, Imp):
                return None, f"step {k}: step {step.i} is not an implication"
            if major.left != minor:
                return None, f"step {k}: step {step.j} does not match the antecedent of step {step.i}"
            if major.right != step.formula:
                return None, f"step {k}: stated formula differs from the consequent of step {step.i}"
        elif isinstance(step, NecStep):
            if not 0 <= step.i < k:
                return None, f"step {k}: necessitation references {step.i}, need an index below {k}"
            if step.formula != Box(pf.steps[step.i].formula):
                return None, f"step {k}: stated formula is not Box of step {step.i}'s formula"
        else:
            return None, f"step {k}: unknown step kind {step!r}"
    return pf.conclusion, None


def check_proof(pf: HilbertProof) -> Formula | None:
    """Conclusion of the proof if every step is justified, else None."""
    conclusion, _ = check_proof_detailed(pf)
    return conclusion


def conjlist(fs) -> Formula:
    """Finite conjunction of a sequence: empty gives True, a singleton gives
    its element, otherwise a right-nested conjunction."""
    fs = list(fs)
    if not fs:
        return TRUE
    acc = fs[-1]
    for f in reversed(fs[:-1]):
        acc = And(f, acc)
    return acc


# --- a small shipped lemma corpus ----------------------------------------------

def imp_refl_proof(p: Formula) -> HilbertProof:
    """Classical 5-step derivation of p --> p from schemas 1 and 2."""
    pp = Imp(p, p)
    s1 = Imp(p, Imp(pp, p))
    s2 = Imp(s1, Imp(Imp(p, pp), pp))
    return HilbertProof(
        (
            AxiomStep(1, s1),
            AxiomStep(2, s2),
            MPStep(1, 0, Imp(Imp(p, pp), pp)),
            AxiomStep(1, Imp(p, pp)),
            MPStep(2, 3, pp),
        )
    )


def verum_proof() -> HilbertProof:
    """Derivation of True: False --> False, then the definitional schema for
    True read right to left."""
    base = imp_refl_proof(FALSE)
    ff = Imp(FALSE, FALSE)
    steps = base.steps + (
        AxiomStep(5, Imp(Iff(TRUE, ff), Imp(ff, TRUE))),
        AxiomStep(7, Iff(TRUE, ff)),
        MPStep(5, 6, Imp(ff, TRUE)),
        MPStep(7, 4, TRUE),
    )
    return HilbertProof(steps)


def axiom_instance_proof(schema_id: int, **bindings: Formula) -> HilbertProof:
    """One-step proof of a schema instance."""
    return HilbertProof((AxiomStep(schema_id, instantiate(schema_id, **bindings)),))


# --- proof file format ----------------------------------------------------------
#
# JSON document {"steps": [...]}, one object per step in order:
#   {"kind": "axiom", "schema": n, "formula": "..."}
#   {"kind": "mp", "refs": [i, j], "formula": "..."}
#   {"kind": "nec", "refs": [i], "formula": "..."}
# Formulas use canonical printing.

def proof_to_dict(pf: HilbertProof) -> dict:
    steps = []
    for step in pf.steps:
        if isinstance(step, AxiomStep):
            steps.append({"kind": "axiom", "schema": step.schema, "formula": pretty(step.formula)})
        elif isinstance(step, MPStep):
            steps.append({"kind": "mp", "refs": [step.i, step.j], "formula": pretty(step.formula)})
        else:
            steps.append({"kind": "nec", "refs": [step.i], "formula": pretty(step.formula)})
    return {"steps": steps}


def proof_to_json(pf: HilbertProof) -> str:
    # indented, keys in insertion order ("kind" first), unlike the compact
    # sorted text of the other certificates (``_jsontext.dumps``); a proof is
    # shallow, so json's pure-Python indent encoder costs little here
    return json.dumps(proof_to_dict(pf), indent=2) + "\n"


def proof_from_dict(doc: dict) -> HilbertProof:
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list) or not doc["steps"]:
        raise ValueError("proof document must be an object with a nonempty 'steps' array")
    steps: list[HilbertStep] = []
    for k, raw in enumerate(doc["steps"]):
        if not isinstance(raw, dict) or "kind" not in raw or "formula" not in raw:
            raise ValueError(f"step {k}: each step needs 'kind' and 'formula'")
        if not isinstance(raw["formula"], str):
            raise ValueError(f"step {k}: 'formula' must be a string")
        formula = parse(raw["formula"])
        kind = raw["kind"]
        if kind == "axiom":
            if type(raw.get("schema")) is not int:  # true is not schema 1
                raise ValueError(f"step {k}: axiom step needs an integer 'schema'")
            steps.append(AxiomStep(raw["schema"], formula))
        elif kind == "mp":
            refs = raw.get("refs")
            if not (isinstance(refs, list) and len(refs) == 2 and all(type(r) is int for r in refs)):
                raise ValueError(f"step {k}: mp step needs 'refs' with two indices")
            steps.append(MPStep(refs[0], refs[1], formula))
        elif kind == "nec":
            refs = raw.get("refs")
            if not (isinstance(refs, list) and len(refs) == 1 and type(refs[0]) is int):
                raise ValueError(f"step {k}: nec step needs 'refs' with one index")
            steps.append(NecStep(refs[0], formula))
        else:
            raise ValueError(f"step {k}: unknown step kind {kind!r}")
    return HilbertProof(tuple(steps))


def proof_from_json(text: str) -> HilbertProof:
    return proof_from_dict(loads(text))
