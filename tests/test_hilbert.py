import json
import pathlib
import random

import pytest

from glprover.cli import main
from glprover.hilbert import (
    AXIOM_SCHEMAS, AxiomStep, HilbertProof, MPStep, NecStep,
    axiom_instance_proof, check_proof, check_proof_detailed, conjlist,
    imp_refl_proof, instantiate, match_axiom, matches_schema,
    proof_from_json, proof_to_json, verum_proof,
)
from glprover.semantics import ValidUpTo, oracle_valid
from glprover.syntax import And, Atom, Box, FALSE, Iff, Imp, Not, TRUE, parse

PROOF_DIR = pathlib.Path(__file__).resolve().parent.parent / "proofs"

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_match_axiom_examples():
    assert match_axiom(Imp(P, Imp(Q, P))) == 1
    assert match_axiom(Iff(TRUE, Imp(FALSE, FALSE))) == 7
    assert match_axiom(P) is None
    assert match_axiom(parse("Box (Box p --> p) --> Box p")) == 12


def test_match_axiom_least_id_on_overlap():
    # (p <-> p) --> p --> p instantiates both schema 4 and schema 5
    f = Imp(Iff(P, P), Imp(P, P))
    assert matches_schema(f, 4) and matches_schema(f, 5)
    assert match_axiom(f) == 4


def test_schema_identity_instances_match_their_id():
    for sid, pattern in AXIOM_SCHEMAS.items():
        assert match_axiom(pattern) == sid


def test_metavariables_range_over_formulas():
    inst = instantiate(1, p=Box(Imp(P, Q)), q=Not(FALSE))
    assert match_axiom(inst) == 1


def test_schemas_are_itf_valid_at_three_worlds():
    rng = random.Random(37)
    from conftest import random_formula
    for sid, pattern in AXIOM_SCHEMAS.items():
        assert oracle_valid(pattern, 3) == ValidUpTo(3)
    # a couple of non-identity instances
    for sid in (1, 11, 12):
        inst = instantiate(sid, p=random_formula(rng, 3), q=random_formula(rng, 3),
                           r=random_formula(rng, 3))
        assert oracle_valid(inst, 2) == ValidUpTo(2)


def test_verum_proof_accepted():
    conclusion, report = check_proof_detailed(verum_proof())
    assert conclusion == TRUE and report is None


def test_imp_refl_proof_accepted():
    assert check_proof(imp_refl_proof(P)) == Imp(P, P)


def test_lob_instance_single_step():
    pf = axiom_instance_proof(12, p=FALSE)
    assert check_proof(pf) == parse("Box (Box False --> False) --> Box False")


def test_necessitation_step():
    base = imp_refl_proof(P)
    pf = HilbertProof(base.steps + (NecStep(len(base.steps) - 1, Box(Imp(P, P))),))
    assert check_proof(pf) == Box(Imp(P, P))


def test_mutated_proof_rejected():
    pf = verum_proof()
    for k in range(len(pf.steps)):
        step = pf.steps[k]
        if isinstance(step, AxiomStep):
            bad_step = AxiomStep(step.schema, Atom("z"))
        elif isinstance(step, MPStep):
            bad_step = MPStep(step.i, step.j, Atom("z"))
        else:
            bad_step = NecStep(step.i, Atom("z"))
        mutated = HilbertProof(pf.steps[:k] + (bad_step,) + pf.steps[k + 1:])
        conclusion, report = check_proof_detailed(mutated)
        assert conclusion is None
        assert f"step {k}" in report or report


def test_bad_references_are_check_failures():
    assert check_proof(HilbertProof((MPStep(0, 1, P),))) is None
    assert check_proof(HilbertProof((AxiomStep(1, instantiate(1)), MPStep(0, 5, P)))) is None
    assert check_proof(HilbertProof((NecStep(-1, Box(P)),))) is None
    assert check_proof(HilbertProof(())) is None


def test_prefixes_of_valid_proofs_stay_valid():
    for pf in (verum_proof(), imp_refl_proof(Q)):
        for k in range(1, len(pf.steps) + 1):
            assert check_proof(HilbertProof(pf.steps[:k])) is not None


def test_conjlist():
    assert conjlist([]) == TRUE
    assert conjlist([P]) == P
    assert conjlist([P, Q, R]) == And(P, And(Q, R))


def test_conjlist_of_more_atoms_than_the_recursion_limit():
    atoms = [Atom(f"a{i}") for i in range(2000)]
    f = conjlist(atoms)
    for a in atoms[:-1]:
        assert isinstance(f, And) and f.left is a
        f = f.right
    assert f is atoms[-1]


def test_proof_json_roundtrip():
    pf = verum_proof()
    text = proof_to_json(pf)
    assert proof_from_json(text) == pf


def _boxed_imp_refl() -> HilbertProof:
    """A proof of Box (p --> p): p --> p, then one necessitation step."""
    base = imp_refl_proof(P)
    return HilbertProof(base.steps + (NecStep(len(base.steps) - 1, Box(Imp(P, P))),))


def test_necessitation_step_through_the_file_format(tmp_path, capsys):
    pf = _boxed_imp_refl()
    text = proof_to_json(pf)
    assert json.loads(text)["steps"][-1] == {"kind": "nec", "refs": [len(pf.steps) - 2],
                                             "formula": "Box (p --> p)"}
    assert proof_from_json(text) == pf
    path = tmp_path / "nec.json"
    path.write_text(text)
    assert main(["check-proof", str(path)]) == 0
    assert capsys.readouterr().out == "accepted: Box (p --> p)\n"


def test_necessitation_step_not_box_of_its_reference_rejected(tmp_path, capsys):
    doc = json.loads(proof_to_json(_boxed_imp_refl()))
    k = len(doc["steps"]) - 1
    for formula in ("p --> p", "Box p --> Box p", "Box Box (p --> p)"):
        doc["steps"][k]["formula"] = formula
        pf = proof_from_json(json.dumps(doc))
        assert check_proof_detailed(pf) == (
            None, f"step {k}: stated formula is not Box of step {k - 1}'s formula")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check-proof", str(path)]) == 1
        assert capsys.readouterr().out.startswith(f"rejected: step {k}:")


def test_necessitation_step_with_bad_refs_rejected(tmp_path, capsys):
    doc = json.loads(proof_to_json(_boxed_imp_refl()))
    k = len(doc["steps"]) - 1
    for refs in (None, [], [0, 1], [True], [0.0], ["0"], 0):
        bad = json.loads(json.dumps(doc))
        if refs is None:
            del bad["steps"][k]["refs"]
        else:
            bad["steps"][k]["refs"] = refs
        with pytest.raises(ValueError, match=f"step {k}: nec step needs 'refs' with one index"):
            proof_from_json(json.dumps(bad))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["check-proof", str(path)]) == 2
        assert "nec step needs 'refs'" in capsys.readouterr().err
    for refs in ([k], [k + 1], [-1]):  # well formed, but not an earlier step
        bad = json.loads(json.dumps(doc))
        bad["steps"][k]["refs"] = refs
        conclusion, report = check_proof_detailed(proof_from_json(json.dumps(bad)))
        assert conclusion is None
        assert report == f"step {k}: necessitation references {refs[0]}, need an index below {k}"


def test_proof_json_malformed():
    for bad in ("{", '{"steps": []}', '{"steps": [{"kind": "axiom"}]}',
                '{"steps": [{"kind": "mp", "refs": [0], "formula": "p"}]}',
                '{"steps": [{"kind": "what", "formula": "p"}]}'):
        with pytest.raises(ValueError):
            proof_from_json(bad)


def test_proof_json_requires_integers():
    doc = json.loads(proof_to_json(verum_proof()))
    assert doc["steps"][0]["kind"] == "axiom" and doc["steps"][2]["kind"] == "mp"
    for step, key, value in ((0, "schema", True), (0, "schema", 1.0), (2, "refs", [True, 0]),
                             (2, "refs", [1, 0.0])):
        bad = json.loads(json.dumps(doc))
        bad["steps"][step][key] = value
        with pytest.raises(ValueError):
            proof_from_json(json.dumps(bad))
    assert proof_from_json(json.dumps(doc)) == verum_proof()


def test_shipped_proof_files():
    expected = {
        "verum.json": TRUE,
        "imp_refl_p.json": Imp(P, P),
        "gl_axiom_k.json": AXIOM_SCHEMAS[11],
        "gl_axiom_lob.json": AXIOM_SCHEMAS[12],
    }
    for name, conclusion in expected.items():
        pf = proof_from_json((PROOF_DIR / name).read_text())
        assert check_proof(pf) == conclusion
