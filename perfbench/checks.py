"""Checks of each operation's exit code and certificates.

Countermodels and henkin world lists are checked with the benchmark's own
evaluator (logic.py); derivations are read back with
``derivation_from_json`` and accepted by ``check_derivation``.  Nothing is
compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import logic

PROVED, REFUTED, BUDGET = 0, 1, 3


@dataclass
class Outcome:
    failed: bool = False          # budget exhausted, or wrong
    wrong: str | None = None      # a correctness failure
    cert_bytes: int = 0
    countermodel_worlds: int = 0
    proof_bytes: int = 0
    proof_nodes: int = 0
    branch_labels: int = 0        # largest sequent or countermodel, in labels
    branch_rel: int = 0           # ... and in relational atoms
    henkin_worlds: int = 0
    oracle_pairs: int = 0         # frame x valuation pairs of a valid verdict


def _read(path: Path):
    text = path.read_text()
    return text, len(text.encode())


def _derivation_sizes(doc, out: Outcome):
    stack = [doc]
    while stack:
        node = stack.pop()
        out.proof_nodes += 1
        seq = node["sequent"]
        labels = {x for pair in seq["rel"] for x in pair}
        labels |= {x for x, _ in seq["left"]} | {x for x, _ in seq["right"]}
        out.branch_labels = max(out.branch_labels, len(labels))
        out.branch_rel = max(out.branch_rel, len(seq["rel"]))
        stack.extend(node["premises"])


def _countermodel(op, path: Path, out: Outcome) -> dict:
    text, size = _read(path)
    doc = json.loads(text)
    out.cert_bytes += size
    out.countermodel_worlds += len(doc["worlds"])
    if not logic.falsifies(doc, op.formula):
        raise ValueError("countermodel does not falsify the formula at falsifiedAt")
    return doc


def check_prove(op, code, files, glp, frame_counts) -> Outcome:
    out = Outcome()
    if code == PROVED:
        text, size = _read(files["proof"])
        derivation = glp.sequent.derivation_from_json(text)
        if not glp.sequent.check_derivation(derivation, glp.syntax.parse(op.text)):
            raise ValueError("check_derivation rejects the emitted proof")
        out.cert_bytes += size
        out.proof_bytes += size
        _derivation_sizes(json.loads(text), out)
        if op.valid_worlds and not logic.valid_up_to(op.formula, op.valid_worlds):
            raise ValueError(f"proved, but falsified on an ITF frame of at most {op.valid_worlds} worlds")
    elif code == REFUTED:
        doc = _countermodel(op, files["model"], out)
        worlds = len(doc["worlds"])
        out.branch_labels, out.branch_rel = worlds, len(doc["rel"])
        if worlds < op.min_worlds:
            raise ValueError(f"countermodel has {worlds} worlds, fewer than {op.min_worlds}")
    return out


def check_oracle(op, code, files, glp, frame_counts) -> Outcome:
    out = Outcome()
    if code == PROVED:
        max_worlds = int(op.options[op.options.index("--max-worlds") + 1])
        if frame_counts:
            seen = [frame_counts.get(n, 0) for n in range(1, max_worlds + 1)]
            if seen != list(logic.ITF_FRAME_COUNTS[1:max_worlds + 1]):
                raise ValueError(f"enumerate_itf_frames yielded {seen} frames for n = 1..{max_worlds}")
        k = len(logic.atoms(op.formula))
        out.oracle_pairs = sum(logic.ITF_FRAME_COUNTS[n] * 2 ** (k * n) for n in range(1, max_worlds + 1))
    elif code == REFUTED:
        doc = _countermodel(op, files["model"], out)
        if len(doc["worlds"]) != op.least_worlds:
            raise ValueError(f"first countermodel has {len(doc['worlds'])} worlds, not {op.least_worlds}")
    return out


def check_henkin(op, code, files, glp, frame_counts) -> Outcome:
    out = Outcome()
    if code != REFUTED:
        return out
    doc = _countermodel(op, files["model"], out)
    text, size = _read(files["worlds"])
    out.cert_bytes += size
    out.henkin_worlds = len(doc["worlds"])
    lists = json.loads(text)
    if sorted(lists, key=int) != [str(w) for w in sorted(doc["worlds"])]:
        raise ValueError("world sidecar and model disagree on the worlds")
    index, succ, sl = logic.read_model(doc)
    subs = logic.subformulas(op.formula)
    forced = logic.truth_masks(op.formula, succ, sl)
    seen = set()
    for key, members in lists.items():
        members = frozenset(logic.parse(m) for m in members)
        if members in seen:
            raise ValueError(f"world list {key} repeats another world's list")
        seen.add(members)
        w = index[int(key)]
        for sub in subs:
            if (sub in members) == (logic.neg(sub) in members):
                raise ValueError(f"world list {key} does not settle {logic.render(sub)}")
            if (sub in members) != bool(forced[sub] >> w & 1):
                raise ValueError(f"truth lemma fails at world {key} for {logic.render(sub)}")
    return out


def frame_counts_error(semantics, max_worlds) -> str | None:
    """``enumerate_itf_frames(n)`` must yield every labelled strict partial
    order on n worlds, for n = 1..max_worlds."""
    seen = [sum(1 for _ in semantics.enumerate_itf_frames(n)) for n in range(1, max_worlds + 1)]
    want = list(logic.ITF_FRAME_COUNTS[1:max_worlds + 1])
    return None if seen == want else f"enumerate_itf_frames yielded {seen} frames, not {want}"


CHECKS = {"prove": check_prove, "oracle": check_oracle, "henkin": check_henkin}


def check(op, code, files, glp, frame_counts) -> Outcome:
    """Outcome of one operation; exit 3 is a budget failure, a verdict other
    than the known one, an exit code outside 0/1/3 or a certificate that does
    not check is a correctness failure."""
    if code == BUDGET:
        return Outcome(failed=True)
    if code not in (PROVED, REFUTED):
        return Outcome(failed=True, wrong=f"exit code {code}")
    if op.expect is not None and code != op.expect:
        return Outcome(failed=True, wrong=f"exit code {code}, known answer gives {op.expect}")
    try:
        return CHECKS[op.command](op, code, files, glp, frame_counts)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(failed=True, wrong=f"{type(exc).__name__}: {exc}")
