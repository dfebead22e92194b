import copy
import json
import random
import sys
import time

import pytest

from conftest import random_formula
from glprover import derivation, semantics
from glprover.derivation import _replay
from glprover.errors import BudgetExceededError, InternalCheckError
from glprover.henkin import consistent
from glprover.semantics import Falsified, ValidUpTo, holds, is_itf, oracle_valid
from glprover.sequent import (
    Derivation, INIT, IRREF, LAND, LBOT, LBOX, LEAF_RULES, LIMP, LNOT, LOR,
    Proved, RAND, RBOXLOB, RIMP, RNOT, ROR, RTOP, Refuted, SequentState, TRANS, TWO_PREMISE_RULES,
    _Branch, _Reuse, _Searcher, check_derivation, derivation_error,
    derivation_from_dict, derivation_from_json, derivation_to_dot,
    derivation_to_json, derivation_to_text, extract_countermodel, search,
)
from glprover.syntax import (
    And, Atom, Box, FALSE, Falsum, Iff, Imp, Not, Or, Verum, parse, pretty, sort_key, subformulas,
)

P = Atom("p")

PROVED_EXAMPLES = [
    "Box (Box p --> p) --> Box p",
    "Not (Box False) --> Not (Box (Diam True))",
    "Box (p <-> Not (Box p)) && Not (Box (Box False)) --> Not (Box p) && Not (Box (Not p))",
    "Box (p <-> q) --> (Box p <-> Box q)",
    "Not (Box (Box False)) --> Not (Box (Not (Box False))) && Not (Box (Not (Not (Box False))))",
    "True",
]


@pytest.mark.parametrize("text", PROVED_EXAMPLES)
def test_search_proves(text):
    f = parse(text)
    result = search(f)
    assert isinstance(result, Proved)
    assert check_derivation(result.derivation, f)


def test_search_refutes_reflection_principle():
    f = parse("Box (Box p || Box (Not p)) --> (Box p || Box (Not p))")
    result = search(f)
    assert isinstance(result, Refuted)
    m, w = result.countermodel, result.falsified_at
    assert is_itf(m.frame)
    assert not holds(m, f, w)
    successors = [y for x, y in m.frame.rel if x == w]
    assert len(successors) >= 2
    p_true = m.true_worlds("p")
    assert any((u in p_true) != (v in p_true) for u in successors for v in successors)


def test_search_refutes_p_implies_box_p():
    f = parse("p --> Box p")
    result = search(f)
    assert isinstance(result, Refuted)
    assert len(result.countermodel.frame.worlds) == 2
    assert result.falsified_at in result.countermodel.true_worlds("p")
    # the exhaustive oracle produces a falsifying 2-world chain as well
    verdict = oracle_valid(f, 2)
    assert isinstance(verdict, Falsified)
    assert not holds(verdict.model, f, verdict.world)


def test_search_refutes_falsum_with_single_world():
    result = search(FALSE)
    assert isinstance(result, Refuted)
    assert result.countermodel.frame.worlds == frozenset({0})
    assert result.falsified_at == 0


def test_extract_countermodel_box_false():
    result = search(Box(FALSE))
    assert isinstance(result, Refuted)
    model, root = extract_countermodel(result.branch, 0)
    assert root == 0
    assert len(model.frame.worlds) == 2
    assert not holds(model, Box(FALSE), 0)


@pytest.mark.parametrize("rel, left, right, message", [
    # a reflexive relation is no ITF frame
    ({(0, 0)}, set(), set(), "irreflexive transitive"),
    # p is true at 0, since the branch asserts it on the left, so Not p fails
    (set(), {(0, P), (0, Not(P))}, set(), "fails antecedent 0:"),
    # p is false at 0, so Not p holds
    (set(), set(), {(0, Not(P))}, "satisfies consequent 0:"),
])
def test_extract_countermodel_rejects_a_branch_its_model_does_not_fit(rel, left, right, message):
    branch = SequentState(frozenset(rel), frozenset(left), frozenset(right))
    with pytest.raises(InternalCheckError, match=message):
        extract_countermodel(branch, 0)


def test_refuted_search_binds_the_evaluator_once(monkeypatch):
    # the branch and the goal at the root are checked in one evaluation
    models = []
    model_masks = semantics._model_masks
    monkeypatch.setattr(semantics, "_model_masks", lambda m: models.append(m) or model_masks(m))
    result = search(parse("Box a0 || Box a1 --> a2"))
    assert isinstance(result, Refuted)
    assert models == [result.countermodel]


def test_search_rejects_an_open_branch_its_goal_holds_on(monkeypatch):
    # an empty open branch reads as one world where p --> p holds, so the
    # goal check at the root must reject it
    empty = SequentState(frozenset(), frozenset(), frozenset())
    monkeypatch.setattr(_Searcher, "expand", lambda self, br: empty)
    with pytest.raises(InternalCheckError):
        search(parse("p --> p"))


def test_search_is_deterministic(corpus):
    for f in corpus[:40]:
        assert search(f) == search(f)


def test_proved_corpus_passes_checker_and_oracle(corpus):
    proved = 0
    for f in corpus[:60]:
        result = search(f)
        if isinstance(result, Proved):
            proved += 1
            assert check_derivation(result.derivation, f)
        else:
            assert is_itf(result.countermodel.frame)
            assert not holds(result.countermodel, f, result.falsified_at)
    assert proved > 0


def test_budget_error_is_distinct_from_refuted():
    with pytest.raises(BudgetExceededError):
        search(parse("Box (Box p --> p) --> Box p"), max_steps=3)


def test_node_arity_discipline(corpus):
    def walk(node):
        if not node.premises:
            assert node.rule in LEAF_RULES
        elif len(node.premises) == 2:
            assert node.rule in TWO_PREMISE_RULES
        else:
            assert len(node.premises) == 1
        for prem in node.premises:
            walk(prem)

    for f in corpus[:60]:
        result = search(f)
        if isinstance(result, Proved):
            walk(result.derivation)


def test_fresh_labels_strictly_increase():
    f = parse("Not (Box (Box False)) --> Not (Box (Not (Box False))) && Not (Box (Not (Not (Box False))))")
    result = search(f)
    assert isinstance(result, Proved)

    def walk(node, seen_max):
        if node.rule == RBOXLOB:
            y = node.principal[2]
            assert y > seen_max
            seen_max = y
        for prem in node.premises:
            walk(prem, seen_max)

    walk(result.derivation, 0)


def _relabel(node: Derivation, mapping) -> Derivation:
    principal = tuple(mapping.get(v, v) if isinstance(v, int) else v for v in node.principal)
    return Derivation(node.rule, principal, tuple(_relabel(p, mapping) for p in node.premises))


def test_checker_rejects_freshness_violation():
    f = parse("Box (Box p --> p) --> Box p")
    result = search(f)
    assert isinstance(result, Proved)
    assert check_derivation(result.derivation, f)
    broken = _relabel(result.derivation, {1: 0})
    assert not check_derivation(broken, f)
    assert "fresh" in (derivation_error(broken, f) or "")


def test_checker_rejects_unfounded_init():
    node = Derivation(INIT, (0, P))
    assert not check_derivation(node, P)


def test_checker_rejects_wrong_root():
    result = search(parse("q --> q"))
    assert isinstance(result, Proved)
    assert not check_derivation(result.derivation, P)


def test_checker_accepts_derivation_deeper_than_recursion_limit():
    # Box p --> Box p through RBoxLob and one LBox instance, repeated: the
    # repetitions leave the sequent unchanged, which the LBox schema allows
    goal = parse("Box p --> Box p")
    bp = Box(P)
    node = Derivation(INIT, (1, P))
    for _ in range(2 * sys.getrecursionlimit() + 1):
        node = Derivation(LBOX, (0, bp, 1), (node,))
    node = Derivation(RBOXLOB, (0, bp, 1), (node,))
    root = Derivation(RIMP, (0, goal), (node,))
    assert derivation_error(root, goal) is None

    nodes = 2 * sys.getrecursionlimit() + 4
    lines = derivation_to_text(root, goal).splitlines()
    assert len(lines) == nodes
    assert lines[0] == "RImp[0,Box p --> Box p]   => 0:Box p --> Box p"
    assert lines[-1].startswith("  " * (nodes - 1) + "Init[1,p]  0R1, ")
    dot = derivation_to_dot(root, goal).splitlines()
    edges = [line for line in dot if " -> " in line]
    assert edges[0] == f"  n{nodes - 2} -> n{nodes - 1};" and edges[-1] == "  n0 -> n1;"
    assert len(edges) == nodes - 1 and len(dot) == 2 * nodes + 1


def test_derivation_serialization_roundtrip():
    f = parse("Box (p <-> q) --> (Box p <-> Box q)")
    result = search(f)
    assert isinstance(result, Proved)
    text = derivation_to_json(result.derivation, f)
    back = derivation_from_json(text)
    assert check_derivation(back, f)
    assert derivation_to_json(back, f) == text
    assert derivation_to_text(result.derivation, f).startswith("RImp")
    assert derivation_to_dot(result.derivation, f).startswith("digraph")


def _accepted(doc: dict, goal) -> bool:
    try:
        d = derivation_from_json(json.dumps(doc))
    except ValueError:
        return False
    return check_derivation(d, goal)


def test_loader_checks_every_stated_sequent():
    f = parse("Box (Box p --> p) --> Box p")
    result = search(f)
    assert isinstance(result, Proved)
    doc = json.loads(derivation_to_json(result.derivation, f))
    assert _accepted(doc, f)

    altered = copy.deepcopy(doc)
    altered["premises"][0]["sequent"]["rel"].append([5, 6])
    assert not _accepted(altered, f)

    weakened = copy.deepcopy(doc)
    stack = [weakened]
    while stack:
        node = stack.pop()
        left = node["sequent"]["left"] + [[0, "q"]]
        node["sequent"]["left"] = sorted(left, key=lambda item: (item[0], sort_key(parse(item[1]))))
        stack.extend(node["premises"])
    assert not _accepted(weakened, f)


def _keys_reversed(value):
    if isinstance(value, dict):
        return {k: _keys_reversed(value[k]) for k in sorted(value, reverse=True)}
    if isinstance(value, list):
        return [_keys_reversed(v) for v in value]
    return value


def test_loader_compares_content_not_layout():
    f = parse("Box (Box p --> p) --> Box p")
    d = search(f).derivation
    doc = json.loads(derivation_to_json(d, f))
    assert list(_keys_reversed(doc)) == ["sequent", "rule", "principal", "premises"]
    for text in (json.dumps(doc), json.dumps(doc, indent=4), json.dumps(_keys_reversed(doc))):
        assert derivation_from_json(text) == d


def test_loader_rejects_one_changed_premise_sequent():
    f = parse("Box (Box p --> p) --> Box p")
    doc = json.loads(derivation_to_json(search(f).derivation, f))
    paths, stack = [], [((), doc)]
    while stack:
        path, node = stack.pop()
        paths.append(path)
        stack.extend((path + (k,), p) for k, p in enumerate(node["premises"]))
    assert len(paths) > 5
    for path in paths[1:]:  # every premise, one at a time
        for side, item in (("right", [0, "q"]), ("left", [9, "p"]), ("rel", [0, 9])):
            changed = copy.deepcopy(doc)
            node = changed
            for k in path:
                node = node["premises"][k]
            node["sequent"][side].append(item)
            assert not _accepted(changed, f), (path, side)


def test_loader_requires_natural_labels():
    f = parse("Box (Box p --> p) --> Box p")
    doc = json.loads(derivation_to_json(search(f).derivation, f))
    assert doc["principal"][0] == 0 and doc["premises"][0]["sequent"]["rel"] == []
    for label in (0.0, False, -1):
        bad = copy.deepcopy(doc)
        bad["principal"][0] = label
        assert not _accepted(bad, f)
    rboxlob = doc["premises"][0]
    assert rboxlob["rule"] == "RBoxLob" and rboxlob["premises"][0]["sequent"]["rel"] == [[0, 1]]
    for rel in ([[0, 1.0]], [[False, 1]], [[0, True]]):  # equal to [[0, 1]] under ==
        bad = copy.deepcopy(doc)
        bad["premises"][0]["premises"][0]["sequent"]["rel"] = rel
        assert not _accepted(bad, f)


def test_derivation_json_malformed():
    with pytest.raises(ValueError):
        derivation_from_json("{")
    with pytest.raises(ValueError):
        derivation_from_json('{"rule": "Init"}')
    f = parse("p --> p")
    doc = json.loads(derivation_to_json(search(f).derivation, f))
    doc["principal"] = [0, "p &&"]
    with pytest.raises(ValueError, match="malformed derivation document"):
        derivation_from_json(json.dumps(doc))
    doc["principal"] = [0, ["p"]]  # not a text, and not hashable
    with pytest.raises(ValueError, match="malformed derivation document"):
        derivation_from_json(json.dumps(doc))


def test_loader_parses_each_formula_text_once(monkeypatch):
    """A prove-chains proof repeats its principals from node to node; the
    loader parses each distinct text, the goal's included, exactly once."""
    f = _lob_conj(6)
    d = search(f).derivation
    doc = json.loads(derivation_to_json(d, f))
    texts, stack = {doc["sequent"]["right"][0][1]}, [doc]
    while stack:
        node = stack.pop()
        texts.update(v for v in node["principal"] if isinstance(v, str))
        stack.extend(node["premises"])
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(derivation, "parse", counting_parse)
    assert derivation_from_dict(doc) == d
    assert sorted(parsed) == sorted(texts)
    assert len(texts) < sum(1 for _ in _replay(d, f))  # some text repeats


def test_no_open_branch_contains_irreflexive_violation(corpus):
    for f in corpus[:40]:
        result = search(f)
        if isinstance(result, Refuted):
            assert all(x != y for x, y in result.branch.rel)


def _box_chain(n: int):
    return parse("Box " * (n + 1) + "False --> " + "Box " * n + "False")


def _lob_conj(n: int):
    c = " && ".join(f"p{i}" for i in range(1, n + 1))
    return parse(f"Box (Box ({c}) --> {c}) --> Box ({c})")


def _reflection(k: int):
    body = " && ".join(f"(Box p{i} || Box Not p{i})" for i in range(1, k + 1))
    return parse(f"Box ({body}) --> {body}")


def _box_p_implies_box(n: int):
    return parse("Box p --> " + "Box " * n + "p")


# the 29 formulas of the benchmark's prove-chains workload, in the order of
# perfbench/workloads.py; their labels hold many boxes
PROVE_CHAINS = ([_box_chain(n) for n in range(1, 15)] + [_reflection(k) for k in range(1, 6)]
                + [_lob_conj(n) for n in range(1, 11)])


def test_box_p_implies_long_box_chain_is_proved_quickly():
    # the labels hold many boxes with long shared Box prefixes, and their
    # nested keys are compared only when a leaf sorts its boxes for its
    # successor's left-box steps
    searcher = _Searcher(10**6)
    start = time.perf_counter()
    outcome = searcher.expand(_Branch(_box_p_implies_box(60)))
    assert time.perf_counter() - start < 3
    assert isinstance(outcome, Derivation) and searcher.steps == 34459


@pytest.mark.parametrize("n, steps", [(12, 377), (14, 575)])
def test_box_chain_step_count_is_pinned(n, steps):
    # the rule sequence of the search: each figure is the exact number of
    # rule applications, so any change of rule order or of a rule shows
    assert isinstance(search(_box_chain(n), max_steps=steps), Refuted)
    with pytest.raises(BudgetExceededError):
        search(_box_chain(n), max_steps=steps - 1)


def test_lob_conj10_derivation_size_is_pinned():
    result = search(_lob_conj(10))
    assert isinstance(result, Proved)
    nodes, stack = 0, [result.derivation]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.premises)
    assert nodes == 105


def _preorder(d: Derivation) -> list[Derivation]:
    nodes, stack = [], [d]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(node.premises))
    return nodes


def test_split_whose_first_premise_closes_without_it_is_dropped():
    # Loeb's axiom closes the first premise of LOr without 0:p, so that
    # subtree replaces the split (13 nodes with both premises)
    f = parse("(p || q) --> (Box (Box r --> r) --> Box r)")
    result = search(f)
    assert isinstance(result, Proved) and check_derivation(result.derivation, f)
    rules = [node.rule for node in _preorder(result.derivation)]
    assert len(rules) == 7 and LOR not in rules


def test_split_whose_second_premise_closes_without_it_is_dropped():
    # the first premise of LImp on 0:p --> q closes by Init on the 0:p it
    # added; the second closes by Loeb's axiom without 0:q and replaces the split
    f = parse("p --> ((p --> q) --> (Box (Box r --> r) --> Box r))")
    result = search(f)
    assert isinstance(result, Proved) and check_derivation(result.derivation, f)
    assert not [node for node in _preorder(result.derivation) if node.rule == LIMP and node.principal[0] == 0]


def test_needed_split_keeps_both_premises():
    f = parse("(Box p || Box q) --> Box (p || q)")
    result = search(f)
    assert isinstance(result, Proved) and check_derivation(result.derivation, f)
    (split,) = [node for node in _preorder(result.derivation) if node.rule == LOR]
    assert len(split.premises) == 2


def test_split_whose_item_a_dropped_split_took_is_dropped():
    # the second premise of LImp on 1:a || b --> a || b adds 1:a || b on the
    # left; LOr takes it and is dropped, and LOr on 1:(a || b) || a || b adds
    # it again for Init.  The later LOr's premise added it, so it is no reason
    # to keep the LImp: 19 nodes, 29 if it counted
    f = parse("Box ((a || b) || (a || b)) && Box Not ((a || b --> a || b) --> p) "
              "&& Box ((a || b --> a || b) --> p) --> Box False")
    result = search(f)
    assert isinstance(result, Proved) and check_derivation(result.derivation, f)
    nodes = _preorder(result.derivation)
    assert len(nodes) == 19
    assert not [node for node in nodes if node.rule == LIMP and node.principal == (1, parse("a || b --> a || b"))]


def test_tier_formula_step_count_is_pinned():
    # refuted by the world-local search with its cache of label keys; the
    # global Loeb order took 1,273 steps with backjumping and 53,414 without
    f = parse("Box Box ((Box Box (True --> True) || Box (Not r && r)) <-> "
              "Box Not (Box (False <-> (r && q)) <-> Box (True && (p --> r))))")
    result = search(f, max_steps=359)
    assert isinstance(result, Refuted) and len(result.countermodel.frame.worlds) == 4
    with pytest.raises(BudgetExceededError):
        search(f, max_steps=358)


def test_relational_atoms_point_to_the_newest_label(corpus, tier_formulas):
    """What the agenda's Trans handling rests on: no proof applies Irref,
    every Trans node adds an atom its conclusion lacks, and every open
    branch's relation is transitively closed, each atom xRy with x < y."""
    proofs = trans = branches = 0
    # the corpus proofs hold only 3 Trans nodes; Box p --> Box^6 p adds 15
    for f in corpus + tier_formulas + [parse("Box p --> " + "Box " * 6 + "p")]:
        try:
            result = search(f, max_steps=6000)
        except BudgetExceededError:
            continue
        if isinstance(result, Proved):
            proofs += 1
            for _, node, s in _replay(result.derivation, f):
                assert node.rule != IRREF, pretty(f)
                if node.rule == TRANS:
                    trans += 1
                    x, _, z = node.principal
                    assert (x, z) not in s.rel, pretty(f)
        else:
            branches += 1
            rel = result.branch.rel
            assert all(x < y for x, y in rel), pretty(f)
            assert all((x, z) in rel for x, y in rel for y2, z in rel if y2 == y), pretty(f)
    assert proofs >= 50 and trans >= 18 and branches >= 300


def _takes_as_principal(node: Derivation) -> set:
    """The labelled formulas a node's rule instance needs, as (on_left, x:A);
    Irref and Trans need only relational atoms, which no split adds."""
    rule, principal = node.rule, node.principal
    if rule == INIT:
        return {(True, principal), (False, principal)}
    if rule in (LBOT, LAND, LOR, LNOT, LIMP):
        return {(True, principal)}
    if rule in (RTOP, RAND, ROR, RNOT, RIMP):
        return {(False, principal)}
    if rule == LBOX:
        return {(True, principal[:2])}
    if rule == RBOXLOB:
        return {(False, principal[:2])}
    return set()


def test_every_split_left_in_a_proof_is_needed():
    rng = random.Random(1)
    proofs = splits = 0
    for _ in range(200):
        f = random_formula(rng, 20, max_modal_depth=4)
        result = search(f, max_steps=6000)
        if not isinstance(result, Proved):
            continue
        proofs += 1
        assert check_derivation(result.derivation, f), pretty(f)
        assert oracle_valid(f, 3) == ValidUpTo(3), pretty(f)
        nodes = list(_replay(result.derivation, f))
        for i, (depth, node, s) in enumerate(nodes):
            if len(node.premises) != 2:
                continue
            splits += 1
            end = next((j for j in range(i + 1, len(nodes)) if nodes[j][0] <= depth), len(nodes))
            starts = [j for j in range(i + 1, end) if nodes[j][0] == depth + 1] + [end]
            for start, stop in zip(starts, starts[1:]):
                premise = nodes[start][2]
                added = {(True, item) for item in premise.left - s.left}
                added |= {(False, item) for item in premise.right - s.right}
                used = set().union(*(_takes_as_principal(n) for _, n, _ in nodes[start:stop]))
                assert added & used, f"{pretty(f)}: unneeded {node.rule} at node {i}"
    assert proofs >= 20 and splits >= 10


def _lf_key(item):
    return (item[0], sort_key(item[1]))


class _ScanningSearcher(_Searcher):
    """Reference selectors that scan and sort the whole sequent and relation
    of the branch, the active label's part and its frozen older labels', at
    every step; the indexed selectors must choose exactly what they do.  The
    Loeb rule chooses among the active label's right boxes only.  The
    reference also keeps the loop check the indexed search does without:
    each branch records the Trans and LBox instances applied on it, copied
    at splits and passed on to a new label's branch, and neither rule is
    applied twice to one instance there."""

    def expand(self, br):
        self.applied = {br: set()}  # branch -> its applied Trans and LBox instances
        return super().expand(br)

    def applied_on(self, br):
        if br not in self.applied:  # a new label's branch: its parent's leaf is frozen
            self.applied[br] = set(self.applied[br.path[-1]])
        return self.applied[br]

    def sequent(self, br):
        labels = [a.label for a in br.path]
        rel = {(w, x) for i, w in enumerate(labels) for x in labels[i + 1:]}
        if labels:
            rel.add((labels[-1], br.label))
        rel |= {(w, y) for rule, w, _, y in self.applied_on(br) if rule == TRANS}
        left = {(a.label, f) for a in (*br.path, br) for f in a.left}
        right = {(a.label, f) for a in (*br.path, br) for f in a.right}
        return rel, left, right

    def apply_prop(self, br, rule, principal):
        applied = self.applied_on(br)
        premises, added = super().apply_prop(br, rule, principal)
        for premise in premises[:-1]:  # the last premise is br itself
            self.applied[premise] = set(applied)
        return premises, added

    def find_next(self, br):
        rel, left, right = self.sequent(br)
        found = self.find_close(rel, left, right) or self.find_prop(left, right)
        if found is not None:
            return found
        trans = self.find_trans(rel)
        if trans is not None:
            self.applied_on(br).add((TRANS, *trans))
            return TRANS, trans
        lbox = self.find_lbox(br, rel, left)
        if lbox is None:
            return None
        self.applied_on(br).add((LBOX, *lbox))
        return LBOX, lbox

    def find_close(self, rel, left, right):
        shared = left & right
        if shared:
            return INIT, min(shared, key=_lf_key)
        bots = [(x, f) for x, f in left if isinstance(f, Falsum)]
        if bots:
            return LBOT, min(bots)
        irrefs = [(x, y) for x, y in rel if x == y]
        if irrefs:
            return IRREF, (min(irrefs)[0],)
        tops = [(x, f) for x, f in right if isinstance(f, Verum)]
        if tops:
            return RTOP, min(tops)
        return None

    def find_prop(self, left, right):
        for rule, side, kinds in (
            (LAND, left, (And, Iff)),
            (ROR, right, (Or,)),
            (LNOT, left, (Not,)),
            (RNOT, right, (Not,)),
            (RIMP, right, (Imp,)),
            (RAND, right, (And, Iff)),
            (LOR, left, (Or,)),
            (LIMP, left, (Imp,)),
        ):
            candidates = [(x, f) for x, f in side if isinstance(f, kinds)]
            if candidates:
                return rule, min(candidates, key=_lf_key)
        return None

    def find_trans(self, rel):
        ordered = sorted(rel)
        for x, y in ordered:
            for y2, z in ordered:
                if y2 == y and (x, z) not in rel:
                    return (x, y, z)
        return None

    def find_lbox(self, br, rel, left):
        boxes = sorted(((x, f) for x, f in left if isinstance(f, Box)), key=_lf_key)
        for x, f in boxes:
            for x2, y in sorted(rel):
                if x2 == x and (LBOX, x, f, y) not in self.applied_on(br):
                    return (x, f, y)
        return None

    def find_rboxlob(self, br):
        _, _, right = self.sequent(br)
        candidates = [(x, f) for x, f in right if x == br.label and isinstance(f, Box)]
        if not candidates:
            return None
        bodies = [f.sub for _, f in candidates]

        def heuristic(item):
            x, f = item
            body = f.sub
            negated = 0 if isinstance(body, Not) else 1
            occurs = 0 if any(b != body and body in subformulas(b) for b in bodies) else 1
            return (negated, occurs, sort_key(body), x)

        return min(candidates, key=heuristic)


def _expand(searcher_class, f, max_steps):
    """The derivation's nodes in preorder, or the open branch's sequent, and
    the steps taken; or the steps at which the budget ran out.  The nodes
    are flat, since comparing deep derivations would recurse."""
    searcher = searcher_class(max_steps)
    try:
        outcome = searcher.expand(_Branch(f))
    except BudgetExceededError:
        return "budget exceeded", searcher.steps
    if isinstance(outcome, Derivation):
        outcome = [(node.rule, node.principal, len(node.premises)) for node in _preorder(outcome)]
    return outcome, searcher.steps


def test_indexed_selection_matches_scanning_reference(corpus, tier_formulas):
    extra = [parse(text) for text in PROVED_EXAMPLES]
    # labels holding many boxes from several older labels, and a split
    # between two left-box steps of one label's sequence
    extra += PROVE_CHAINS + [_box_p_implies_box(k) for k in range(1, 13)]
    extra.append(parse("Box (p || q) && Box r && Box (s || t) --> Box u"))
    for formulas, max_steps in ((corpus + extra, 10**6), (tier_formulas, 6000)):
        for f in formulas:
            expected = _expand(_ScanningSearcher, f, max_steps)
            assert _expand(_Searcher, f, max_steps) == expected, pretty(f)


def test_loeb_rule_takes_a_body_inside_another_body_first(corpus):
    # sort_key puts the And body before Box p, but Box p occurs in it
    br = _Branch(Box(Box(P)))
    br.add(False, Box(And(P, Box(P))))
    assert _Searcher(1).find_rboxlob(br) == (0, Box(Box(P)))
    # right boxes whose bodies occur in one another, and the search that
    # ranks them, against the reference that scans every pair of bodies
    rng = random.Random(43)
    formulas = []
    for _ in range(150):
        inner = rng.sample(corpus, 3)
        bodies = inner + [And(inner[0], inner[1]), Or(Box(inner[1]), inner[2]), Not(inner[2])]
        rng.shuffle(bodies)
        f = Box(bodies[0])
        for body in bodies[1:rng.randint(2, len(bodies))]:
            f = Or(f, Box(body))
        formulas.append(Imp(Box(rng.choice(corpus)), f) if rng.random() < 0.5 else f)
    for f in formulas:
        assert _expand(_Searcher, f, 6000) == _expand(_ScanningSearcher, f, 6000), pretty(f)


class _ForgetfulCache(dict):
    """A cache of label keys that stores nothing."""

    def setdefault(self, key, default=None):
        return []


class _UncachedSearcher(_Searcher):
    """The search with every label key searched afresh."""

    def __init__(self, max_steps):
        super().__init__(max_steps)
        self.cache = _ForgetfulCache()


def _decide(searcher, f) -> bool:
    """Whether ``searcher`` proves ``f``; its proof must pass the checker and
    its countermodel must be validated."""
    outcome = searcher.expand(_Branch(f))
    if isinstance(outcome, Derivation):
        assert check_derivation(outcome, f), pretty(f)
        return True
    model, world = extract_countermodel(outcome, 0)
    assert not holds(model, f, world), pretty(f)
    return False


def test_cache_of_label_keys_is_sound(corpus, tier_formulas):
    # a reused entry gives the verdict that searching its key afresh gives,
    # and both agree with type elimination
    formulas = corpus + tier_formulas
    for seed in range(1, 6):
        rng = random.Random(seed)
        formulas += [random_formula(rng, 16, max_modal_depth=5) for _ in range(400)]
    hits = 0
    for f in formulas:
        theorem = not consistent([Not(f)], max_candidates=2 ** 14)
        searcher, uncached = _Searcher(6000), _UncachedSearcher(10 ** 5)
        assert _decide(searcher, f) == theorem, pretty(f)
        assert _decide(uncached, f) == theorem, pretty(f)
        assert uncached.hits == 0
        hits += searcher.hits > 0
    assert hits >= 50


def test_cache_decides_tier40_6_35(tier_formulas):
    f = tier_formulas[120 + 35]
    searcher, uncached = _Searcher(6000), _UncachedSearcher(10 ** 5)
    assert not _decide(searcher, f) and searcher.hits > 0
    assert not _decide(uncached, f) and uncached.steps > 6000


class _CountingSearcher(_Searcher):
    """The search, counting how often its certificate writers take two
    paths of the cache: a reused closed tree that holds a reuse of its own,
    whose holders ``_proof`` renames through the outer reuse, and a world
    copied from a reused open entry that has successors, which
    ``_open_branch`` gives a fresh label."""

    nested_reuses = copied_worlds = 0

    def _proof(self, root):
        todo = [(root, False)]  # (node, inside a reused tree)
        while todo:
            node, inside = todo.pop()
            if isinstance(node, _Reuse):
                self.nested_reuses += inside
                todo.append((node.entry.tree, True))
            else:
                todo += [(premise, inside) for premise in node[2]]
        return super()._proof(root)

    def _open_branch(self, root):
        first = self.next_label  # only a copied world takes a label here
        branch = super()._open_branch(root)
        self.copied_worlds += self.next_label - first
        return branch


@pytest.mark.parametrize("text, proved, counter", [
    ("Box Not Not (Box ((r --> True <-> r --> Box True) <-> Box q --> True --> p && False) --> Box p)",
     True, "nested_reuses"),
    ("(Box Box True || Box (q --> r)) && Box Diam (q <-> False) || Box Box False", False, "copied_worlds"),
])
def test_reuse_inside_a_reused_entry(text, proved, counter):
    f = parse(text)
    searcher = _CountingSearcher(10**6)
    assert _decide(searcher, f) is proved
    assert getattr(searcher, counter) > 0
    assert _decide(_UncachedSearcher(10**6), f) is proved
    assert consistent([Not(f)]) is not proved


def test_wide_disjunction_of_right_boxes():
    # the Loeb rule ranks the root leaf's right boxes at each of its 800
    # steps, so a ranking that compares the boxes pairwise is cubic here
    f = parse(" || ".join(f"Box a{i}" for i in range(800)))
    start = time.perf_counter()
    result = search(f)
    assert time.perf_counter() - start < 10
    assert isinstance(result, Refuted)
    assert len(result.countermodel.frame.worlds) == 801
