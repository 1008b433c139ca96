"""Command-line front end.

Exit codes are a function of the logical verdict only: 0 for
proved/valid/defines/no-separating-formula/countermodel-found (and for
purely informational commands), 1 for the opposite verdict, 2 for parse,
IO, or resource-bound errors, including running out of stack or memory,
and for internal errors (an ``internal error:`` line, then the traceback,
on stderr).  A stdout closed by its reader also exits 2, silently: the
verdict did not reach it.

Human-readable output uses logic glyphs unless the ``FDEK_ASCII`` or
``NO_COLOR`` environment variable is set; ``--json`` output is always
plain ASCII and round-trips through the package loaders.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback

from . import analysis, figures, semantics, tableau
from .semantics import BoundExceededError
from .syntax import ParseError, Sequent, parse_formula, parse_sequent, render

__all__ = ["main"]


def _pretty() -> bool:
    return not (os.environ.get("FDEK_ASCII") or os.environ.get("NO_COLOR"))


@contextlib.contextmanager
def _long_int_text():
    """Lift the limit on converting ints to text, where the interpreter has
    one, for printing a scan's formula count of thousands of digits.  Input
    files are read outside, under the limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _model_text(model, designated=None) -> str:
    data = semantics.model_to_dict(model)
    if designated is not None:
        data["designated"] = designated
    return json.dumps(data, indent=2)


def _cmd_prove(args) -> int:
    sequent = parse_sequent(args.sequent)
    result = tableau.prove(sequent, start=args.start)
    proved = isinstance(result, tableau.Proved)
    if args.json:
        print(tableau.result_to_json(result))
        return 0 if proved else 1
    # Every part is built before the first is printed, so an error while
    # building one leaves no verdict on stdout.  ``print`` writes the parts
    # one by one, with no joined copy of the tree.
    parts = ["PROVED" if proved else "REFUTED"]
    if args.tree:
        parts.append(tableau.tree_to_text(result.tree, pretty=_pretty()))
    if not proved:
        parts += ("countermodel:", _model_text(result.model, designated=result.world))
    print(*parts, sep="\n")
    return 0 if proved else 1


def _cmd_eval(args) -> int:
    model = semantics.model_from_dict(_load_json(args.model))
    formula = parse_formula(args.formula)
    value = semantics.eval_formula(model, args.world, formula)
    if args.json:
        print(json.dumps({"formula": render(formula), "world": args.world,
                          "value": value.name}))
    else:
        print(value.name)
    return 0


def _cmd_valid_on_frame(args) -> int:
    frame = semantics.frame_from_dict(_load_json(args.frame))
    claims = analysis.claims_from_text(args.claim)
    if len(claims) != 1:
        raise ParseError("expected exactly one sequent or formula", 0)
    claim = claims[0]
    if isinstance(claim, Sequent):
        valid = analysis.sequent_valid_on_frame(frame, claim)
    else:
        valid = analysis.formula_valid_on_frame(frame, claim)
    if args.json:
        print(json.dumps({"claim": args.claim.strip(), "valid": valid}))
    else:
        print("VALID" if valid else "INVALID")
    return 0 if valid else 1


def _cmd_dual(args) -> int:
    model = semantics.model_from_dict(_load_json(args.model))
    print(_model_text(semantics.dual_model(model)))
    return 0


def _cmd_countermodel(args) -> int:
    sequent = parse_sequent(args.sequent)
    found = analysis.find_countermodel(sequent, args.max_worlds)
    if found is None:
        if args.json:
            print(json.dumps({"found": False, "max_worlds": args.max_worlds}))
        else:
            print(f"no countermodel with <= {args.max_worlds} worlds")
        return 1
    if args.json:
        data = semantics.model_to_dict(found.model)
        data["designated"] = found.world
        print(json.dumps({"found": True, "countermodel": data}))
    else:
        print("countermodel:", _model_text(found.model, designated=found.world), sep="\n")
    return 0


def _cmd_definability(args) -> int:
    if args.sequents:
        with open(args.sequents, "r", encoding="utf-8") as fh:
            claims = analysis.claims_from_text(fh.read())
    elif args.property in analysis.PAPER_FRAME_CLASSES:
        claims = analysis.PAPER_FRAME_CLASSES[args.property]
    else:
        raise ValueError(f"no built-in claim set for {args.property!r}; pass --sequents")
    report = analysis.check_definability(args.property, claims, args.max_size)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"{report.property}: {report.verdict} "
              f"({report.frames_checked} frames, <= {report.max_size} worlds)")
        for text in report.claims:
            print(f"  claim: {text}")
        if report.witness:
            print(f"  witness frame: {report.witness['frame']}")
            print(f"  direction: {report.witness['direction']}")
    return 0 if report.verdict == "defines" else 1


def _cmd_separate(args) -> int:
    model_a = semantics.model_from_dict(_load_json(args.model_a))
    model_b = semantics.model_from_dict(_load_json(args.model_b))
    report = analysis.check_indistinguishability(
        semantics.PointedModel(model_a, args.world_a),
        semantics.PointedModel(model_b, args.world_b),
        args.language, args.max_size)
    with _long_int_text():
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(f"{report.verdict} "
                  f"({report.formulas_checked} formulas, mode {report.mode})")
            if report.witness:
                print(f"  witness: {report.witness} -> {report.witness_values}")
    return 0 if report.verdict == "no separating formula found" else 1


def _cmd_figures(args) -> int:
    # The checks' details print formula counts; they read only bundled data.
    with _long_int_text():
        checks = figures.run_figures(expressivity_size=args.max_size)
    if args.json:
        print(json.dumps([c.to_dict() for c in checks], indent=2))
    else:
        width = max(len(c.name) for c in checks)
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"{c.name:<{width}}  {mark}  {c.detail}")
        passed = sum(c.passed for c in checks)
        print(f"{passed}/{len(checks)} checks passed")
    return 0 if all(c.passed for c in checks) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdek",
        description="Four-valued modal logic workbench: model checking, "
                    "analytic-cut proof search, and bounded frame experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="run the tableau prover on a sequent")
    p.add_argument("sequent")
    p.add_argument("--tree", action="store_true", help="print the proof tree")
    p.add_argument("--start", choices=("truth", "nonfalsity"), default="truth",
                   help="root labelling (nonfalsity gives the contraposed tree)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("eval", help="evaluate a formula on a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("valid-on-frame",
                       help="exhaustive validity of a sequent (or '|- f') on a frame file")
    p.add_argument("claim")
    p.add_argument("--frame", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_valid_on_frame)

    p = sub.add_parser("dual", help="print the dual model (B and N swapped)")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("countermodel", help="exhaustive small-model search")
    p.add_argument("sequent")
    p.add_argument("--max-worlds", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("definability",
                       help="does a claim set define a frame property on small frames?")
    p.add_argument("--property", required=True,
                   choices=sorted(semantics.FRAME_PROPERTIES))
    p.add_argument("--sequents", help="file of claims; default: built-in set")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_definability)

    p = sub.add_parser("separate",
                       help="bounded search for a formula separating two pointed models")
    p.add_argument("--model-a", required=True)
    p.add_argument("--world-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--world-b", required=True)
    p.add_argument("--language", choices=("tri", "box"), required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("figures", help="re-run every bundled reproduction check")
    p.add_argument("--max-size", type=int, default=figures.DEFAULT_EXPRESSIVITY_SIZE,
                   help="formula-size bound for the expressivity checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left before the output was written, so no verdict
        # reached it.  With stdout on the null device the interpreter's own
        # flush at exit cannot fail again and override the exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (ValueError, BoundExceededError, OSError, RecursionError, MemoryError) as exc:
        # ValueError covers ParseError, ModelError, tableau.LanguageError
        # and json.JSONDecodeError.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A bug, not a verdict: exit 1 would read as "refuted" or "invalid".
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
