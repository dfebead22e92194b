"""Tests of the benchmark itself; not part of the tier-1 suite.

    python -m pytest perfbench
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import logic  # noqa: E402
import workloads  # noqa: E402
from logic import FALSE, atom, box, imp  # noqa: E402

p = atom("p")
LOB = imp(box(imp(box(p), p)), box(p))
T = imp(box(p), p)


def _conftest():
    spec = importlib.util.spec_from_file_location("glprover_test_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tier", workloads.RANDOM_TIERS)
def test_random_tiers_match_the_test_suite_generator(tier):
    import random

    from glprover.syntax import pretty

    rng = random.Random(workloads.CORPUS_SEED)
    theirs = [_conftest().random_formula(rng, max_connectives=tier[0], max_modal_depth=tier[1])
              for _ in range(workloads.PER_TIER)]
    ours = workloads.tier_formulas(*tier)
    assert [logic.parse(pretty(f)) for f in theirs] == ours
    assert [logic.parse(logic.render(f)) for f in ours] == ours


def test_itf_frame_counts_are_labelled_strict_partial_orders():
    assert [sum(1 for _ in logic.itf_frames(n)) for n in range(1, 5)] == list(logic.ITF_FRAME_COUNTS[1:5])


def test_evaluator_on_known_formulas():
    assert logic.valid_up_to(LOB, 3)
    assert not logic.valid_up_to(T, 1)
    assert logic.valid_up_to(imp(box(FALSE), box(box(FALSE))), 3)
    chain = {"worlds": [0, 1], "rel": [[0, 1]], "val": {}, "falsifiedAt": 0}
    assert logic.falsifies(chain, workloads.box_chain(1))
    assert not logic.falsifies(chain, workloads.box_chain(2))
    with pytest.raises(ValueError):
        logic.falsifies({"worlds": [0], "rel": [[0, 0]], "val": {}, "falsifiedAt": 0}, T)


def test_checks_reject_bad_certificates(tmp_path):
    from glprover import sequent, syntax

    glp = type("glp", (), {"sequent": sequent, "syntax": syntax})
    files = {"model": tmp_path / "model.json", "proof": tmp_path / "proof.json"}
    op = workloads.Op("chain-2", "prove", workloads.box_chain(2), expect=1, min_worlds=3)
    files["model"].write_text(json.dumps({"worlds": [0, 1, 2], "rel": [[0, 1], [1, 2], [0, 2]],
                                          "val": {}, "falsifiedAt": 0}))
    assert checks.check(op, 1, files, glp, {}).wrong is None
    files["model"].write_text(json.dumps({"worlds": [0, 1, 2], "rel": [[0, 1], [1, 2]],
                                          "val": {}, "falsifiedAt": 0}))
    assert "not irreflexive and transitive" in checks.check(op, 1, files, glp, {}).wrong
    files["model"].write_text(json.dumps({"worlds": [0, 1], "rel": [[0, 1]], "val": {}, "falsifiedAt": 0}))
    assert checks.check(op, 1, files, glp, {}).wrong
    assert checks.check(op, 0, files, glp, {}).wrong == "exit code 0, known answer gives 1"
    assert checks.check(op, 4, files, glp, {}).wrong == "exit code 4"
    budget = checks.check(op, 3, files, glp, {})
    assert budget.failed and budget.wrong is None


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_operation_names_are_unique(name):
    for smoke in (False, True):
        names = [op.name for op in workloads.WORKLOADS[name](smoke=smoke)]
        assert len(names) == len(set(names))


def test_smoke_mode_runs_every_workload_and_check():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("correct=True") == len(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and not out.stdout.strip()
