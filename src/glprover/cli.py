"""Batch command-line surface.

Exit statuses: 0 = theorem proved (or check passed), 1 = refuted / rejected
(countermodel or report emitted), 2 = usage or input error, 3 = resource
budget exceeded.  Failed self-checks of either verdict and any other
unexpected exception exit with 4; they indicate an engine bug, never bad
input.  The parser, the printer and the certificate writers do not recurse.
A structured derivation carries at most ``derivation.STRUCTURED_MAX_DEPTH``
levels, and a deeper one exits with 2 before its verdict is printed.  So do
the two interpreter limits left on the prove path, both in comparing the
nested sort keys of two formulas thousands of levels deep: the proof search
compares them when they wait for the same rule at one label, and when they
are left boxes of one label that makes a successor; the certificate writers
compare them when they sort one label's formulas in a proof sequent.
A certificate file that cannot be written fails the call before its verdict
is printed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bisimulation, henkin, hilbert, semantics, sequent
from .errors import BudgetExceededError, InternalCheckError
from .syntax import Formula, ParseError, parse, pretty

PROVED, REFUTED, USAGE_ERROR, BUDGET_ERROR, INTERNAL_ERROR = 0, 1, 2, 3, 4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _report(verdict: str, *outputs: tuple[str | None, str | None]) -> None:
    """Print the verdict line and its certificates, each ``(destination,
    text)``; a None destination is skipped.  Files are written first, so a
    destination that cannot be written fails the call before any verdict is
    printed; the certificates for '-' follow the verdict on stdout."""
    for destination, text in outputs:
        if destination not in (None, "-"):
            with open(destination, "w") as fh:
                fh.write(text)
    print(verdict)
    for destination, text in outputs:
        if destination == "-":
            sys.stdout.write(text)


class _UsageError(Exception):
    """Input that cannot be read; ``main`` reports it and exits 2."""


def _read_formula(args) -> Formula:
    text = args.formula
    if text is None and args.file:
        with open(args.file) as fh:
            text = fh.read().strip()
    if text is None:
        raise _UsageError("no formula given (inline argument or --file)")
    return parse(text)


def _read_certificate(path: str, load, what: str):
    """``load`` applied to the text of the file ``path``; a file that cannot
    be read or loaded is a usage error, ``cannot read {what}: ...``."""
    try:
        with open(path) as fh:
            return load(fh.read())
    except (OSError, ValueError, ParseError) as exc:
        raise _UsageError(f"cannot read {what}: {exc}") from None


def cmd_prove(args) -> int:
    formula = _read_formula(args)
    if args.max_steps < 0:
        return _fail("--max-steps must not be negative")
    result = sequent.search(formula, max_steps=args.max_steps)
    if isinstance(result, sequent.Proved):
        d = result.derivation
        if not sequent.check_derivation(d, formula):
            raise InternalCheckError("the derivation found is rejected by the derivation checker")
        render = {"structured": sequent.derivation_to_json, "graph": sequent.derivation_to_dot,
                  "text": sequent.derivation_to_text}[args.format]
        try:
            text = render(d, formula) if args.emit_proof else None
        except ValueError:  # a checked derivation deeper than derivation.STRUCTURED_MAX_DEPTH
            return _fail("derivation too deeply nested for --format structured; use text or graph")
        _report(f"proved: {pretty(formula)}", (args.emit_proof, text))
        return PROVED
    m, w = result.countermodel, result.falsified_at
    text = None
    if args.emit_countermodel:
        text = (semantics.model_to_dot if args.format == "graph" else semantics.model_to_json)(m, w)
    _report(f"refuted: {pretty(formula)} (countermodel with {len(m.frame.worlds)} worlds, "
            f"false at world {w})", (args.emit_countermodel, text))
    return REFUTED


def cmd_check_model(args) -> int:
    model, _ = _read_certificate(args.model, semantics.model_from_json, "model")
    formula = parse(args.formula)
    if args.world not in model.frame.worlds:
        return _fail(f"world {args.world} is not in the model")
    problems = semantics.itf_report(model.frame)
    if semantics.holds(model, formula, args.world):
        if not problems:
            print(f"holds: {pretty(formula)} at world {args.world}; frame is ITF")
            return PROVED
        print(f"holds at world {args.world}, but the frame is not ITF:")
    else:
        print(f"does not hold: {pretty(formula)} at world {args.world}")
    for problem in problems:
        print(f"  - {problem}")
    return REFUTED


def cmd_oracle(args) -> int:
    formula = _read_formula(args)
    if args.max_worlds < 1:
        return _fail("--max-worlds must be at least 1")
    if args.eval_budget < 0:
        return _fail("--eval-budget must not be negative")
    verdict = semantics.oracle_valid(formula, args.max_worlds, eval_budget=args.eval_budget)
    if isinstance(verdict, semantics.ValidUpTo):
        print(f"valid on every ITF frame with up to {verdict.bound} worlds")
        return PROVED
    _report(f"falsified at world {verdict.world}",
            (args.emit_countermodel or "-", semantics.model_to_json(verdict.model, verdict.world)))
    return REFUTED


def cmd_henkin(args) -> int:
    formula = _read_formula(args)
    if args.eval_budget < 0:
        return _fail("--eval-budget must not be negative")
    outcome = henkin.build_standard_model(formula, max_candidates=args.eval_budget)
    if outcome is None:
        print(f"theorem: {pretty(formula)} (no standard countermodel)")
        return PROVED
    sm, world = outcome
    index = sm.worlds.index(world)
    model = semantics.model_to_json(sm.model, index) if args.emit_model else None
    worlds = henkin.world_lists_to_json(sm) if args.emit_worlds else None
    _report(f"refuted: standard model with {len(sm.worlds)} worlds, false at world {index}",
            (args.emit_model, model), (args.emit_worlds, worlds))
    return REFUTED


def cmd_bisim(args) -> int:
    models = [_read_certificate(path, semantics.model_from_json, f"model {path}")[0]
              for path in (args.model_a, args.model_b)]
    pairs = bisimulation.largest_bisimulation(models[0], models[1])
    print(json.dumps(sorted([x, y] for x, y in pairs)))
    return PROVED


def cmd_check_proof(args) -> int:
    proof = _read_certificate(args.proof, hilbert.proof_from_json, "proof")
    conclusion, report = hilbert.check_proof_detailed(proof)
    if conclusion is not None:
        print(f"accepted: {pretty(conclusion)}")
        return PROVED
    print(f"rejected: {report}")
    return REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glprover",
        description="Decision procedure for Goedel-Loeb provability logic: "
                    "prove a formula in the labelled sequent calculus or emit a "
                    "finite irreflexive-transitive countermodel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formula_args(p):
        p.add_argument("formula", nargs="?", help="formula in concrete syntax (inline wins over --file)")
        p.add_argument("--file", help="read the formula from a file")

    p = sub.add_parser("prove", help="run sequent proof search")
    add_formula_args(p)
    p.add_argument("--emit-proof", metavar="PATH", help="write the derivation to PATH ('-' for stdout)")
    p.add_argument("--emit-countermodel", metavar="PATH", help="write the countermodel to PATH ('-' for stdout)")
    p.add_argument("--format", choices=("text", "structured", "graph"), default="text",
                   help="derivation as indented text, structured JSON or graph (DOT, also for the countermodel)")
    p.add_argument("--max-steps", type=int, default=sequent.DEFAULT_MAX_STEPS,
                   help="rule applications, plus proof nodes and countermodel worlds written from the search's cache")

    p = sub.add_parser("check-model", help="check a formula in a model file")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("formula")
    p.add_argument("world", type=int)

    p = sub.add_parser("oracle", help="exhaustive bounded ITF validity check")
    add_formula_args(p)
    p.add_argument("--max-worlds", type=int, required=True,
                   help="check every ITF frame with 1 to this many worlds")
    p.add_argument("--eval-budget", type=int, default=semantics.DEFAULT_EVAL_BUDGET,
                   help="refuse when 2^(n^2-n) * 2^(atoms*n) * n, summed over world counts n, exceeds this ceiling")
    p.add_argument("--emit-countermodel", metavar="PATH")

    p = sub.add_parser("henkin", help="standard countermodel from maximal consistent lists")
    add_formula_args(p)
    p.add_argument("--eval-budget", type=int, default=henkin.DEFAULT_CANDIDATE_BUDGET,
                   help="refuse when 2^(atoms + Box subformulas), the number of types that "
                        "elimination decides, exceeds this ceiling")
    p.add_argument("--emit-model", metavar="PATH")
    p.add_argument("--emit-worlds", metavar="PATH", help="write the index-to-list sidecar")

    p = sub.add_parser("bisim", help="largest bisimulation between two model files")
    p.add_argument("model_a")
    p.add_argument("model_b")

    p = sub.add_parser("check-proof", help="check a Hilbert-style proof file")
    p.add_argument("proof")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our table; re-raise others
        return USAGE_ERROR if exc.code else 0
    try:
        # looked up at call time, so a replaced cmd_<command> takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (_UsageError, ParseError, OSError) as exc:
        return _fail(str(exc))
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except RecursionError:
        return _fail("input is nested too deeply (recursion limit reached)")
    except Exception as exc:  # an engine bug must not pass for a verdict
        import traceback  # only a crash needs it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
