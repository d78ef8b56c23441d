"""Command line entry point: run scenarios, check expectations, explain.

Exit codes are a contract: 0 for successful evaluation (run) or a full
expectation match (check), 1 for an expectation mismatch, 2 for usage,
parse, or validation errors, and for an output closed before the end.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dsl import THEORY_NAMES, Scenario, parse_scenario
from .judge import Mechanism, judge
from .logic import FelicityError
from .report import build_report, render_report, render_traces
from .sexpr import ParseError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="felicity",
        description="Evaluate oddness scenarios over finite models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report format (default: table)",
    )
    common.add_argument(
        "--explain", action="store_true", help="append derivation traces to each report"
    )
    common.add_argument(
        "--theories",
        help="comma-separated theory subset to enable: " + ", ".join(THEORY_NAMES),
    )
    common.add_argument(
        "--bound", type=int, help="override the model-size bound of every scenario"
    )
    common.add_argument(
        "--fail-fast", action="store_true", help="stop at the first failure"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[common], help="evaluate scenarios and print reports")
    run.add_argument("paths", nargs="+")
    check = sub.add_parser(
        "check", parents=[common], help="compare aggregates against (expect ...) clauses"
    )
    check.add_argument("paths", nargs="+")
    explain = sub.add_parser(
        "explain", parents=[common], help="print the derivation trace of one scenario"
    )
    explain.add_argument("paths", nargs=1, metavar="path")
    return parser


def _config(args: argparse.Namespace) -> None:
    """Validate --theories and --bound, and split --theories into a tuple."""
    theories = None
    if args.theories is not None:
        theories = tuple(t.strip() for t in args.theories.split(",") if t.strip())
        unknown = [t for t in theories if t not in THEORY_NAMES]
        if unknown:
            raise FelicityError(
                f"unknown theories {unknown}; pick from {', '.join(THEORY_NAMES)}"
            )
        if not theories:
            raise FelicityError("--theories needs at least one name")
    if args.bound is not None and args.bound < 1:
        raise FelicityError("--bound must be >= 1")
    args.theories = theories


def _load(path: str, args: argparse.Namespace) -> Scenario:
    try:
        # utf-8-sig drops the byte-order mark some editors write first.
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FelicityError(f"{path}: {exc}") from None
    try:
        scenario = parse_scenario(text, source=path, bound=args.bound)
    except ParseError as exc:
        raise FelicityError(f"{path}: {exc}") from None
    if args.theories is not None:
        scenario = scenario._replace(enabled_theories=args.theories)
    return scenario


def cmd_run(args: argparse.Namespace) -> int:
    reports = []
    for path in args.paths:
        scenario = _load(path, args)
        report = build_report(scenario.name, judge(scenario))
        reports.append(report)
    for i, report in enumerate(reports):
        if i and args.format == "table":
            print()
        print(render_report(report, args.format))
        if args.explain and args.format == "table":
            print(render_traces(report))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    mismatches = []
    for path in args.paths:
        scenario = _load(path, args)
        if scenario.expect is None:
            raise FelicityError(f"{path}: scenario {scenario.name!r} has no (expect ...) clause")
        judgment = judge(scenario)
        got = judgment.aggregate
        fired = [
            v.mechanism.value for v in judgment.theories if v.mechanism is not Mechanism.NONE
        ]
        fired_note = ", ".join(fired) if fired else "none"
        if got == scenario.expect:
            print(f"ok {scenario.name}: {got.value} (fired: {fired_note})")
        else:
            mismatches.append(scenario.name)
            print(
                f"MISMATCH {scenario.name}: expected {scenario.expect.value},"
                f" got {got.value} (fired: {fired_note})"
            )
            if args.fail_fast:
                break
    if mismatches:
        print(f"{len(mismatches)} mismatch(es): {', '.join(mismatches)}")
        return EXIT_MISMATCH
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _config(args)
        if args.command == "check":
            code = cmd_check(args)
        else:
            if args.command == "explain":
                args.explain = True  # explain FILE is run --explain FILE
            code = cmd_run(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader of our output went away (`| head`): not an engine
        # fault. Send what is still buffered to devnull, so the flush at
        # exit does not fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except FelicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # Exit 1 means "mismatch": an engine fault must not look like one.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
