"""The JSON certificate writers against the compact canonical rendering
``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, and the shared
loader.  Models and the henkin sidecar are encoded from their documents, and
structured derivations written straight from the replay; each is compared
with the standard library's rendering of the same document."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glprover import henkin
from glprover.derivation import (
    INIT, LBOX, RBOXLOB, RIMP, STRUCTURED_MAX_DEPTH, Derivation, derivation_from_json, derivation_to_json,
)
from glprover.errors import BudgetExceededError
from glprover.hilbert import proof_from_json
from glprover.semantics import Frame, Model, model_from_json, model_to_dict, model_to_json
from glprover.sequent import Proved, search
from glprover.syntax import Atom, parse


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_AWKWARD = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "€", " ",
                            "\U0001f600", "\ud800"])
_NAMES = st.text(_AWKWARD, max_size=4)  # atom names, the empty one included


@st.composite
def _models(draw):
    """A model built directly: 0-12 worlds, any relation on them, atoms
    unsorted and possibly repeated, some true nowhere; and the falsifying
    world or None."""
    worlds = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=12))
    world = st.sampled_from(worlds) if worlds else st.nothing()
    rel = draw(st.frozensets(st.tuples(world, world)))
    val = tuple((name, draw(st.frozensets(world))) for name in draw(st.lists(_NAMES, max_size=5)))
    falsified_at = draw(st.sampled_from([None, 0, *worlds]))
    return Model(Frame(frozenset(worlds), rel), val), falsified_at


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_models())
@example((Model(Frame(frozenset(), frozenset())), None))
@example((Model(Frame(frozenset(), frozenset())), 0))
@example((Model(Frame(frozenset({0, 1}), frozenset({(0, 1)})),
                (("q", frozenset()), ("\ud800", frozenset({1})), ("p", frozenset({0, 1})), ("q", frozenset({0})))), 0))
def test_model_writer_is_the_stdlib_rendering(model_and_world):
    m, w = model_and_world
    assert model_to_json(m, w) == stdlib(model_to_dict(m, w))


def test_sidecar_writer_is_the_stdlib_rendering():
    """Keys in string order: "10" before "2"."""
    sm, _ = henkin.build_standard_model(parse("Box (p || q) --> Box p || Box q"))
    assert len(sm.worlds) >= 11
    text = henkin.world_lists_to_json(sm)
    assert text == stdlib(henkin.world_lists_to_dict(sm))
    assert text.index('"10":[') < text.index('"2":[')


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.lists(st.lists(_NAMES.map(Atom), max_size=4), max_size=12))
def test_sidecar_writer_takes_any_names_and_empty_lists(lists):
    sm = henkin.StandardModel(Atom("p"), tuple(map(tuple, lists)), Model(Frame(frozenset(), frozenset())))
    assert henkin.world_lists_to_json(sm) == stdlib(henkin.world_lists_to_dict(sm))


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
    so the text stays near 70 KB at n = 494."""
    goal, box_p, p = parse("Box p --> Box p"), parse("Box p"), parse("p")
    node = Derivation(INIT, (1, p))
    for _ in range(n - 2):
        node = Derivation(LBOX, (0, box_p, 1), (node,))
    return Derivation(RIMP, (0, goal), (Derivation(RBOXLOB, (0, box_p, 1), (node,)),)), goal


def test_structured_depth_limit():
    """494 levels, 992 JSON levels, which the loader reads under the default
    recursion limit from a top-level call, are kept, in a text linear in the
    depth; 495 are refused before any text is returned."""
    assert STRUCTURED_MAX_DEPTH == 494
    text = derivation_to_json(*_repeated_lbox(494))
    assert len(text.encode()) < 100_000
    # read from the text, since json.loads under the test runner's stack
    # would exceed the recursion limit: each node opens with its first premise,
    # one level deeper than its parent's, down to the Init leaf at 494, and
    # its rule follows its premises
    opened = text.split('{"premises":[')
    assert opened[:-1] == [""] * 495 and opened[-1].startswith('],"principal":[1,"p"],"rule":"Init",')
    rules = [piece.split('"', 1)[0] for piece in text.split('"rule":"')[1:]]
    assert rules == ["Init"] + ["LBox"] * 492 + ["RBoxLob", "RImp"]
    assert text.count('{"premises":[]') == 1 and text.endswith("}\n") and "\n" not in text[:-1]
    with pytest.raises(ValueError, match="deeper than 494 levels"):
        derivation_to_json(*_repeated_lbox(495))


@pytest.mark.parametrize("load", [derivation_from_json, model_from_json, proof_from_json])
def test_loaders_reject_deep_nesting_as_invalid_json(load):
    with pytest.raises(ValueError, match="^invalid JSON: maximum recursion depth exceeded"):
        load("[" * 100_000)
