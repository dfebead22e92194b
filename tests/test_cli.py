import contextlib
import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glprover import cli, sequent
from glprover.cli import main
from glprover.hilbert import proof_to_json, verum_proof
from glprover.semantics import holds, is_itf, model_from_json, model_to_json
from glprover.sequent import check_derivation, derivation_from_json, derivation_to_json
from glprover.syntax import FALSE, TRUE, And, Atom, Box, Formula, Iff, Imp, Not, Or, parse, pretty, subformulas

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROOF_DIR = ROOT / "proofs"

REFLECTION = "Box (Box p || Box (Not p)) --> (Box p || Box (Not p))"
GL_AXIOM = "Box (Box p --> p) --> Box p"
DIAMONDS = "Diam p && Diam q --> Diam (p && Diam q)"  # 14 subformulas


def test_prove_theorem_exit_0(capsys):
    assert main(["prove", "Not (Box False) --> Not (Box (Diam True))"]) == 0
    assert "proved" in capsys.readouterr().out


def test_prove_refuted_exit_1_with_countermodel(tmp_path, capsys):
    out = tmp_path / "cm.json"
    assert main(["prove", REFLECTION, "--emit-countermodel", str(out)]) == 1
    model, falsified_at = model_from_json(out.read_text())
    assert is_itf(model.frame)
    assert not holds(model, parse(REFLECTION), falsified_at)


def test_prove_parse_error_exit_2(capsys):
    assert main(["prove", "p -->"]) == 2
    assert "position" in capsys.readouterr().err


def test_prove_missing_formula_exit_2():
    assert main(["prove"]) == 2


def test_prove_budget_exit_3(capsys):
    assert main(["prove", GL_AXIOM, "--max-steps", "2"]) == 3
    assert "budget" in capsys.readouterr().err


def test_prove_rejected_derivation_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(sequent, "check_derivation", lambda d, goal: False)
    assert main(["prove", GL_AXIOM]) == 4
    out = capsys.readouterr()
    assert "internal error" in out.err
    assert "proved" not in out.out


def test_prove_open_branch_that_fits_no_countermodel_exit_4(monkeypatch, capsys):
    empty = sequent.SequentState(frozenset(), frozenset(), frozenset())
    monkeypatch.setattr(sequent._Searcher, "expand", lambda self, br: empty)
    assert main(["prove", "p --> p"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: ")
    assert len(out.err.splitlines()) == 1


def test_prove_structured_too_deep_exit_2_without_verdict(monkeypatch, tmp_path, capsys):
    def too_deep(d, goal):
        raise ValueError("derivation deeper than 494 levels")

    monkeypatch.setattr(sequent, "derivation_to_json", too_deep)
    out = tmp_path / "proof.json"
    assert main(["prove", GL_AXIOM, "--emit-proof", str(out), "--format", "structured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: derivation too deeply nested for --format structured; use text or graph\n"
    assert not out.exists()


def test_prove_structured_beyond_depth_limit_exit_2_text_exit_0(tmp_path, capsys):
    n = 495  # a derivation of n RImp steps and an Init, one level beyond the limit
    formula = " --> ".join(f"a{i}" for i in range(n)) + " --> a0"
    out = tmp_path / "proof"
    assert main(["prove", formula, "--emit-proof", str(out), "--format", "structured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: derivation too deeply nested for --format structured; use text or graph\n"
    assert not out.exists()
    assert main(["prove", formula, "--emit-proof", str(out), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("proved: ")
    assert len(out.read_text().splitlines()) == n + 1


@pytest.mark.parametrize("fmt", ["text", "graph"])
def test_prove_writer_recursion_error_is_not_the_structured_limit(fmt, tmp_path, capsys):
    # a 4-node proof whose label-0 sequent sorts two formulas 2,001 levels deep
    formula = f"({'Box ' * 2001}p && {'Box ' * 2001}q) --> (r --> r)"
    assert main(["prove", formula]) == 0
    capsys.readouterr()
    out = tmp_path / "proof"
    assert main(["prove", formula, "--emit-proof", str(out), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input is nested too deeply (recursion limit reached)\n"
    assert "--format structured" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["check-model", "{path}", "p", "0"], "cannot read model: invalid JSON: "),
    (["bisim", "{path}", "{path}"], "cannot read model {path}: invalid JSON: "),
    (["check-proof", "{path}"], "cannot read proof: invalid JSON: "),
])
def test_deeply_nested_input_file_exit_2(command, message, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main([arg.format(path=path) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(path=path))
    assert len(captured.err.splitlines()) == 1


def test_prove_two_deep_formulas_at_one_label_exit_2(capsys):
    assert main(["prove", "(" * 200 + "p" + ")" * 200]) == 1
    assert capsys.readouterr().out.startswith("refuted: p ")
    # one deep formula is refuted: its agenda never holds two deep keys
    assert main(["prove", "Not " * 3000 + "p"]) == 1
    assert capsys.readouterr().out.startswith("refuted: ")
    # two deep formulas waiting for RNot at label 0 compare nested sort keys
    deep = "(" + "Not " * 3000 + "p) || (" + "Not " * 3000 + "q)"
    # and so do two deep left boxes of label 1, sorted when it makes label 2
    boxes = "Box (" + "Box " * 1500 + "p && " + "Box " * 1500 + "q) --> Box Box r"
    for text in (deep, boxes):
        assert main(["prove", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["prove", GL_AXIOM, "--emit-proof"],
    ["prove", REFLECTION, "--emit-countermodel"],
    ["henkin", "Box False", "--emit-model"],
    ["henkin", "Box False", "--emit-model", "-", "--emit-worlds"],
    ["oracle", "Box False", "--max-worlds", "2", "--emit-countermodel"],
])
def test_unwritable_emit_path_exit_2(argv, tmp_path, capsys):
    assert main(argv + [str(tmp_path / "missing" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict for a call that fails
    err = captured.err
    assert err.startswith("error:") and "No such file or directory" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["text", "structured", "graph"])
def test_prove_deep_formula_with_short_proof(fmt, tmp_path, capsys):
    chain = "Box " * 600 + "p"
    out = tmp_path / "proof"
    assert main(["prove", f"{chain} --> {chain}", "--emit-proof", str(out), "--format", fmt]) == 0
    assert capsys.readouterr().out == f"proved: {chain} --> {chain}\n"
    assert chain in out.read_text()


def test_emit_to_stdout_follows_the_verdict(capsys):
    assert main(["oracle", "Box False", "--max-worlds", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("falsified at world 0\n{")


def test_prove_many_sequential_splits_refuted(capsys):
    # a balanced disjunction of Not (a_i || b_i): 1,500 LOr splits, one
    # after another on the branch that stays open
    fs = [Not(Or(Atom(f"a{i}"), Atom(f"b{i}"))) for i in range(1500)]
    while len(fs) > 1:
        fs = [Or(*fs[k:k + 2]) if k + 1 < len(fs) else fs[k] for k in range(0, len(fs), 2)]
    f = fs[0]
    assert len(subformulas(f)) == 7499
    assert isinstance(sequent.search(f), sequent.Refuted)
    assert main(["prove", pretty(f)]) == 1
    assert capsys.readouterr().out.startswith("refuted:")


def _module_env(**extra) -> dict:
    """The environment of a ``python -m glprover.cli`` run on this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


@pytest.mark.parametrize("formula, code, verdict", [("p", 1, "refuted:"), ("p --> p", 0, "proved:")])
def test_run_as_module(formula, code, verdict):
    run = subprocess.run([sys.executable, "-m", "glprover.cli", "prove", formula],
                         capture_output=True, text=True, env=_module_env(), timeout=60)
    assert run.returncode == code
    assert run.stdout.startswith(verdict)


def test_unexpected_exception_exit_4(monkeypatch, capsys):
    def crash(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_prove", crash)
    assert main(["prove", "p"]) == 4
    assert "internal error: ValueError: boom" in capsys.readouterr().err


def test_prove_formula_from_file(tmp_path):
    path = tmp_path / "f.gl"
    path.write_text(GL_AXIOM + "\n")
    assert main(["prove", "--file", str(path)]) == 0


def test_prove_inline_wins_over_file(tmp_path):
    path = tmp_path / "f.gl"
    path.write_text("False")
    assert main(["prove", GL_AXIOM, "--file", str(path)]) == 0


def test_prove_emit_proof_structured(tmp_path):
    out = tmp_path / "proof.json"
    assert main(["prove", GL_AXIOM, "--emit-proof", str(out), "--format", "structured"]) == 0
    d = derivation_from_json(out.read_text())
    assert check_derivation(d, parse(GL_AXIOM))


def test_prove_emit_proof_text_and_graph(tmp_path):
    text_out = tmp_path / "proof.txt"
    dot_out = tmp_path / "proof.dot"
    assert main(["prove", GL_AXIOM, "--emit-proof", str(text_out)]) == 0
    assert main(["prove", GL_AXIOM, "--emit-proof", str(dot_out), "--format", "graph"]) == 0
    assert "RBoxLob" in text_out.read_text()
    assert dot_out.read_text().startswith("digraph")


def test_prove_countermodel_graph_format(tmp_path):
    out = tmp_path / "cm.dot"
    assert main(["prove", REFLECTION, "--emit-countermodel", str(out), "--format", "graph"]) == 1
    assert out.read_text().startswith("digraph")


def test_check_model_roundtrip_reports_falsification(tmp_path, capsys):
    cm = tmp_path / "cm.json"
    main(["prove", REFLECTION, "--emit-countermodel", str(cm)])
    capsys.readouterr()
    doc = json.loads(cm.read_text())
    rc = main(["check-model", str(cm), REFLECTION, str(doc["falsifiedAt"])])
    assert rc == 1
    assert "does not hold" in capsys.readouterr().out


def test_check_model_holds(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [0], "rel": [], "val": {}}')
    assert main(["check-model", str(path), "Box False", "0"]) == 0


def test_check_model_non_itf_reported(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [0], "rel": [[0, 0]], "val": {}}')
    assert main(["check-model", str(path), "True", "0"]) == 1
    assert "reflexive" in capsys.readouterr().out


def test_check_model_empty_worlds_exit_2(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [], "rel": [], "val": {}}')
    assert main(["check-model", str(path), "True", "0"]) == 2


def test_check_model_malformed_exit_2(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    assert main(["check-model", str(path), "True", "0"]) == 2


def test_oracle_gl_axiom(capsys):
    assert main(["oracle", GL_AXIOM, "--max-worlds", "3"]) == 0
    assert "valid" in capsys.readouterr().out


def test_oracle_falsified_emits_witness(tmp_path):
    out = tmp_path / "witness.json"
    assert main(["oracle", "Box False", "--max-worlds", "2",
                 "--emit-countermodel", str(out)]) == 1
    model, falsified_at = model_from_json(out.read_text())
    assert not holds(model, parse("Box False"), falsified_at)


def test_oracle_zero_worlds_exit_2():
    assert main(["oracle", "True", "--max-worlds", "0"]) == 2


def test_oracle_budget_exit_3():
    assert main(["oracle", GL_AXIOM, "--max-worlds", "6"]) == 3


def test_oracle_budget_stops_at_the_first_world_count_past_it(capsys):
    # The estimate for 100000 worlds would have billions of digits; the sum
    # stops at 5 worlds, where it first passes the default budget.
    for worlds in ("500", "3000", "100000"):
        assert main(["oracle", "p", "--max-worlds", worlds]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: oracle_valid: estimated evaluations on frames of up to 5 worlds "
            "exceed the budget of 100000000\n")


@pytest.mark.parametrize("flag", [
    ["prove", "--max-steps"],
    ["oracle", "--max-worlds"],
    ["oracle", "--max-worlds", "3", "--eval-budget"],
    ["henkin", "--eval-budget"],
])
def test_every_budget_flag_answers_at_once(flag, capsys):
    # at extreme values every budget is checked before the work it bounds:
    # an answer within a second, with a contract code, and never a wrong
    # verdict
    for text, verdict in ((GL_AXIOM, 0), ("Box p --> p", 1)):
        for value in ("0", "1", "-1", str(10**9)):
            start = time.perf_counter()
            code = main([flag[0], text, *flag[1:], value])
            assert time.perf_counter() - start < 1, (flag, text, value)
            assert code in (verdict, 2, 3), (flag, text, value)
    capsys.readouterr()


@pytest.mark.parametrize("argv, at_zero", [
    (["prove", "p", "--max-steps"], 1),  # refuting p takes no rule application
    (["prove", "True", "--max-steps"], 3),
    (["oracle", "p", "--max-worlds", "2", "--eval-budget"], 3),
    (["henkin", "p", "--eval-budget"], 3),
])
def test_negative_budget_is_a_usage_error(argv, at_zero, capsys):
    assert main([*argv, "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert main([*argv, "0"]) == at_zero
    capsys.readouterr()


def test_henkin_box_false(tmp_path):
    model_out = tmp_path / "m.json"
    worlds_out = tmp_path / "w.json"
    rc = main(["henkin", "Box False", "--emit-model", str(model_out),
               "--emit-worlds", str(worlds_out)])
    assert rc == 1
    model, falsified_at = model_from_json(model_out.read_text())
    assert len(model.frame.worlds) == 2
    assert not holds(model, parse("Box False"), falsified_at)
    sidecar = json.loads(worlds_out.read_text())
    assert sidecar[str(falsified_at)] == ["Not False", "Not Box False"]


def test_henkin_theorem_exit_0():
    assert main(["henkin", GL_AXIOM]) == 0


def test_henkin_max_steps_is_a_usage_error(capsys):
    # henkin makes no proof search, so it takes no step budget
    assert main(["henkin", "Box p --> p", "--max-steps", "1"]) == 2
    assert "unrecognized arguments: --max-steps 1" in capsys.readouterr().err
    assert main(["henkin", "Box p --> p"]) == 1


def test_henkin_type_budget_exit_3(capsys):
    # Box p --> p has 2^2 types: one atom and one Box subformula
    assert main(["henkin", "Box p --> p", "--eval-budget", "3"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: type elimination: 2^2 types exceed the budget (1 atoms, 1 Box subformulas)\n")
    assert main(["henkin", "Box p --> p", "--eval-budget", "4"]) == 1


def test_henkin_budget_counts_types_not_subformulas():
    # 14 subformulas but 2^5 types, within the default budget of 2^12
    assert main(["henkin", DIAMONDS]) == 1
    # a theorem over 14 atoms: 2^14 types exceed the default budget
    assert main(["henkin", " && ".join(f"a{i}" for i in range(14)) + " --> a0"]) == 3


def test_henkin_oversized_exit_3():
    big = " && ".join(f"a{i}" for i in range(14))
    assert main(["henkin", big]) == 3


def test_henkin_worlds_settle_every_subformula(tmp_path):
    path = tmp_path / "worlds.json"
    assert main(["henkin", DIAMONDS, "--eval-budget", "16384", "--emit-worlds", str(path)]) == 1
    sidecar = json.loads(path.read_text())
    assert len(sidecar) == 20
    subs = subformulas(parse(DIAMONDS))
    for members in sidecar.values():
        members = {parse(text) for text in members}
        assert all((q in members) != (Not(q) in members) for q in subs)


def test_bisim_self_contains_identity(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [0, 1], "rel": [[0, 1]], "val": {"p": [1]}}')
    assert main(["bisim", str(path), str(path)]) == 0
    pairs = json.loads(capsys.readouterr().out)
    assert [0, 0] in pairs and [1, 1] in pairs


def test_bisim_disjoint_chain_copies(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"worlds": [0, 1], "rel": [[0, 1]], "val": {}}')
    b.write_text('{"worlds": [0, 1], "rel": [[0, 1]], "val": {}}')
    assert main(["bisim", str(a), str(b)]) == 0
    pairs = json.loads(capsys.readouterr().out)
    assert pairs == [[0, 0], [1, 1]]


def test_bisim_malformed_exit_2(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[]")
    good = tmp_path / "g.json"
    good.write_text('{"worlds": [0], "rel": [], "val": {}}')
    assert main(["bisim", str(path), str(good)]) == 2


def test_check_proof_shipped_verum():
    assert main(["check-proof", str(PROOF_DIR / "verum.json")]) == 0


def test_check_proof_mutated_exit_1(tmp_path, capsys):
    doc = json.loads(proof_to_json(verum_proof()))
    doc["steps"][2]["formula"] = "z"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-proof", str(path)]) == 1
    assert "step 2" in capsys.readouterr().out


def test_check_proof_empty_file_exit_2(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert main(["check-proof", str(path)]) == 2


def test_emitted_files_are_canonical(tmp_path):
    cm = tmp_path / "cm.json"
    main(["prove", REFLECTION, "--emit-countermodel", str(cm)])
    text = cm.read_text()
    model, falsified_at = model_from_json(text)
    assert model_to_json(model, falsified_at) == text


def test_usage_error_exit_2():
    assert main(["prove", "p", "--format", "yaml"]) == 2
    assert main(["no-such-command"]) == 2


P, Q = Atom("p"), Atom("q")


def _random_formula(rng, size):
    """A formula of ``size`` random constructors, read as a postfix program:
    a leaf pushes an atom or a constant, a connective takes its operands from
    the stack (a leaf when it is short), and what remains is joined by
    conjunction."""
    stack = []
    for op in rng.choices([P, Q, TRUE, FALSE, Not, Box, And, Or, Imp, Iff], k=size):
        if isinstance(op, Formula):
            stack.append(op)
        elif op in (Not, Box):
            stack.append(op(stack.pop() if stack else P))
        else:
            right = stack.pop() if stack else P
            stack.append(op(stack.pop() if stack else Q, right))
    f = stack.pop() if stack else P
    while stack:
        f = And(stack.pop(), f)
    return f


_EDITS = st.sampled_from(["(", ")", " ", "&&", "||", "-->", "<->", "Not ", "Box ", "Diam ", "p", "-", "!"])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(size=st.integers(0, 1000), seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.floats(0, 1), _EDITS), max_size=3))
def test_prove_exits_with_a_contract_code(size, seed, edits):
    # printed formulas of up to 10^3 constructors, some with the text mutated
    text = pretty(_random_formula(random.Random(seed), size))
    for at, piece in edits:
        k = int(at * len(text))
        text = text[:k] + piece + text[k:]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["prove", text, "--max-steps", "2000"])
    assert code in (0, 1, 2, 3)


def test_check_proof_formula_not_a_string_exit_2(tmp_path, capsys):
    for formula in (5, True, None, ["p"]):
        doc = json.loads(proof_to_json(verum_proof()))
        doc["steps"][1]["formula"] = formula
        path = tmp_path / f"bad-{formula}.json"
        path.write_text(json.dumps(doc))
        assert main(["check-proof", str(path)]) == 2
        assert "step 1: 'formula' must be a string" in capsys.readouterr().err


def _valid_document(kind: str):
    if kind == "proof":
        return json.loads(proof_to_json(verum_proof()))
    if kind == "model":
        result = sequent.search(parse(REFLECTION))
        return json.loads(model_to_json(result.countermodel, result.falsified_at))
    f = parse("Box (q && p) --> Box p")
    return json.loads(derivation_to_json(sequent.search(f).derivation, f))


def _positions(doc, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _positions(value, path + (key,))


_DELETE = object()
_REPLACEMENTS = [5, True, "p &&", None, -1, 0.5, "", "p", "Box p", [], {}, [0, "p"], _DELETE]


def _replaced(doc, path, value):
    """A copy of ``doc`` whose value at the nonempty ``path`` is ``value``,
    or is removed for ``_DELETE``."""
    doc = copy.deepcopy(doc)
    container = doc
    for key in path[:-1]:
        container = container[key]
    if value is _DELETE:
        del container[path[-1]]
    else:
        container[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", ["proof", "model", "derivation"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_documents_are_rejected_as_input(kind, data, tmp_path_factory):
    # a valid document with one to three values replaced or removed
    doc = _valid_document(kind)
    for _ in range(data.draw(st.integers(1, 3))):
        positions = list(_positions(doc))[1:]
        if not positions:
            break
        doc = _replaced(doc, data.draw(st.sampled_from(positions)), data.draw(st.sampled_from(_REPLACEMENTS)))
    if kind == "derivation":
        try:
            derivation_from_json(json.dumps(doc))
        except ValueError:
            pass
        return
    # a fresh path each time: overwriting a file is slow on some file systems
    path = str(tmp_path_factory.mktemp(kind) / "doc.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    argvs = [["check-proof", path]] if kind == "proof" else [["check-model", path, REFLECTION, "0"],
                                                            ["bisim", path, path]]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv[0], doc)


_PROVE_EMITS = ["--emit-proof", "proof", "--emit-countermodel", "model"]
_SEED_CALLS = [
    *(["prove", "Box (p <-> q) --> (Box p <-> Box q)", "--format", fmt, *_PROVE_EMITS]
      for fmt in ("text", "structured", "graph")),
    *(["prove", REFLECTION, "--format", fmt, *_PROVE_EMITS] for fmt in ("text", "graph")),
    ["henkin", DIAMONDS, "--eval-budget", "16384", "--emit-model", "model", "--emit-worlds", "worlds"],
    ["oracle", "Box (p || q) --> Box p || Box q", "--max-worlds", "3", "--emit-countermodel", "model"],
]


def _cli_outputs(seed: str, tmp_path) -> list:
    """Exit code, stdout and emitted files of each call, run as a module
    under the given hash seed, each call in a directory of its own."""
    outputs = []
    for k, argv in enumerate(_SEED_CALLS):
        cwd = tmp_path / f"{seed}-{k}"
        cwd.mkdir()
        run = subprocess.run([sys.executable, "-m", "glprover.cli", *argv], cwd=cwd,
                             capture_output=True, env=_module_env(PYTHONHASHSEED=seed), timeout=60)
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        assert files, argv
        outputs.append((run.returncode, run.stdout, files))
    return outputs


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    assert _cli_outputs("0", tmp_path) == _cli_outputs("7", tmp_path)


# Runs ``prove`` on each formula of a file in one interpreter, after
# allocating argv[2] objects of assorted sizes, and prints one digest of
# every exit code, verdict line and certificate.
_PROVE_ALL = """
import contextlib, hashlib, io, os, sys
ballast = [bytearray(k % 97) for k in range(int(sys.argv[2]))]
from glprover.cli import main
digest = hashlib.sha256()
for text in open(sys.argv[1]).read().splitlines():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["prove", text, "--max-steps", "6000", "--format", "structured",
                     "--emit-proof", "proof", "--emit-countermodel", "model"])
    digest.update(f"{code} {out.getvalue()}".encode())
    for name in ("proof", "model"):
        if os.path.exists(name):
            digest.update(open(name, "rb").read())
            os.remove(name)
print(digest.hexdigest())
"""


def test_certificates_do_not_depend_on_memory_addresses(tmp_path, tier_formulas):
    # formulas hash by identity, so a set of them iterates in an order that
    # follows memory addresses: two fresh interpreters with different hash
    # seeds and different allocations before the run must write the same
    # certificates for the 180 benchmark formulas
    (tmp_path / "formulas").write_text("\n".join(pretty(f) for f in tier_formulas))
    digests = []
    for seed, ballast in (("1", "0"), ("2", "5003")):
        run = subprocess.run([sys.executable, "-c", _PROVE_ALL, "formulas", ballast], cwd=tmp_path,
                             capture_output=True, text=True, env=_module_env(PYTHONHASHSEED=seed), timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert digests[0] == digests[1]


def test_prove_budget_message_says_where_the_steps_went(capsys):
    # tier30-5#44 of the benchmark is refuted in 1,186 steps
    f = ("Box Box (Box Box (Box False --> p) || Not Box r <-> Box Not (Box (p || r <-> p) "
         "<-> Box (False && p) && Box Box (r <-> p)))")
    assert main(["prove", f, "--max-steps", "1000"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: proof search exceeded 1000 rule applications "
        "(labels created: 20, cache hits: 9, distinct label keys: 11)\n")
    assert main(["prove", f, "--max-steps", "1186"]) == 1
    assert main(["prove", f, "--max-steps", "1185"]) == 3
