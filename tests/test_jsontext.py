"""The shared JSON certificate writer and loader: the bytes of
``json.dumps(indent=2, sort_keys=True)``, without recursion."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glprover import henkin
from glprover._jsontext import dumps_indented
from glprover.derivation import (
    INIT, LBOX, RBOXLOB, RIMP, STRUCTURED_MAX_DEPTH, Derivation, derivation_from_json, derivation_to_json,
)
from glprover.errors import BudgetExceededError
from glprover.hilbert import proof_from_json
from glprover.semantics import model_from_json, model_to_dict, model_to_json
from glprover.sequent import Proved, search
from glprover.syntax import parse


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_AWKWARD = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "€", " ",
                            "\U0001f600", "\ud800"])
_TEXT = st.text(st.one_of(_AWKWARD, st.characters()), max_size=8)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), _TEXT)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=40)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_VALUES)
def test_writer_matches_json_dumps(value):
    assert dumps_indented(value) == stdlib(value)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1, 2}, {1: "int key"}, [b"bytes"]])
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        dumps_indented(value)


def test_writer_takes_any_depth():
    depth = 2 * sys.getrecursionlimit()
    doc: list = []
    for _ in range(depth - 1):
        doc = [doc]
    with pytest.raises(RecursionError):
        json.dumps(doc, indent=2)
    expected = ("".join("[\n" + "  " * (k + 1) for k in range(depth - 1)) + "[]"
                + "".join("\n" + "  " * k + "]" for k in reversed(range(depth - 1))) + "\n")
    assert dumps_indented(doc) == expected


def test_certificates_are_the_stdlib_rendering(corpus):
    """Structured proofs, countermodels, standard models and henkin sidecars
    over the corpus, byte for byte."""
    written = {"proof": 0, "countermodel": 0, "sidecar": 0}
    for f in corpus:
        result = search(f)
        if isinstance(result, Proved):
            text = derivation_to_json(result.derivation, f)
            assert text == stdlib(json.loads(text))
            written["proof"] += 1
        else:
            m, w = result.countermodel, result.falsified_at
            assert model_to_json(m, w) == stdlib(model_to_dict(m, w))
            written["countermodel"] += 1
        try:
            outcome = henkin.build_standard_model(f)
        except BudgetExceededError:
            continue
        if outcome is not None:
            sm, world = outcome
            index = sm.worlds.index(world)
            assert model_to_json(sm.model, index) == stdlib(model_to_dict(sm.model, index))
            assert henkin.world_lists_to_json(sm) == stdlib(henkin.world_lists_to_dict(sm))
            written["sidecar"] += 1
    assert min(written.values()) >= 30, written


def _repeated_lbox(n: int):
    """A derivation of ``Box p --> Box p`` with its Init leaf n premises
    below the root: RImp, RBoxLob, then n - 2 copies of one LBox step, which
    the schema allows although it changes nothing.  Every sequent is small,
    so the text stays near 19 MB at n = 494."""
    goal, box_p, p = parse("Box p --> Box p"), parse("Box p"), parse("p")
    node = Derivation(INIT, (1, p))
    for _ in range(n - 2):
        node = Derivation(LBOX, (0, box_p, 1), (node,))
    return Derivation(RIMP, (0, goal), (Derivation(RBOXLOB, (0, box_p, 1), (node,)),)), goal


def test_structured_depth_limit():
    """494 levels, the depth json.dumps(indent=2) wrote under the default
    recursion limit, are kept; 495 are refused before any text is returned."""
    assert STRUCTURED_MAX_DEPTH == 494
    # read from the text, since json.loads under the test runner's stack
    # would exceed the recursion limit: a node's line holds its opening brace
    # alone, indented 4 spaces a level, and its rule follows its premises
    lines = derivation_to_json(*_repeated_lbox(494)).splitlines()
    assert [len(line) - 1 for line in lines if line.lstrip() == "{"] == [4 * k for k in range(495)]
    rules = [((len(line) - len(line.lstrip()) - 2) // 4, line.strip()) for line in lines if '"rule": ' in line]
    assert rules == ([(494, '"rule": "Init",')] + [(k, '"rule": "LBox",') for k in range(493, 1, -1)]
                     + [(1, '"rule": "RBoxLob",'), (0, '"rule": "RImp",')])
    assert [line for line in lines if '"premises": []' in line] == [" " * (4 * 494 + 2) + '"premises": [],']
    with pytest.raises(ValueError, match="deeper than 494 levels"):
        derivation_to_json(*_repeated_lbox(495))


@pytest.mark.parametrize("load", [derivation_from_json, model_from_json, proof_from_json])
def test_loaders_reject_deep_nesting_as_invalid_json(load):
    with pytest.raises(ValueError, match="^invalid JSON: maximum recursion depth exceeded"):
        load("[" * 100_000)
