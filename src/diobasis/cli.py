"""Command-line entry point: solve / verify / gen / bench / unify."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable

from . import SOLVERS, __version__
from .acu import basis_to_unifier, equation_to_problem, format_unifier, verify_unifier
from .core import (
    DEFAULT_ORACLE_CAP,
    DiobasisError,
    Equation,
    EquationFormatError,
    build_weights,
    format_basis,
    oracle_basis,
    oracle_box_size,
    parse_equation,
)
from .graph import build_defect_graph, render_adjacency
from .lex import BoundKind, LexVariant, TailKind
from .slopes import slopes3


def _class_spec(text: str) -> list:
    from .bench import parse_class_spec

    try:
        return parse_class_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return int(text)


def _seconds(*, zero_ok: bool) -> Callable[[str], float]:
    """An argparse type for a finite number of seconds, > 0 or >= 0."""
    bound = ">= 0" if zero_ok else "> 0"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number {bound}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diobasis",
        description="Minimal natural-number solution bases of linear Diophantine equations.",
    )
    parser.add_argument("--version", action="version", version=f"diobasis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_equation_input(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "equation",
            nargs="?",
            help='equation text, e.g. "2 3 = 1 4 5"; use "-" to read stdin',
        )
        p.add_argument("--file", help="read the equation from a file instead")

    solve = sub.add_parser("solve", help="compute the basis of one equation")
    add_equation_input(solve)
    solve.add_argument("--algo", choices=SOLVERS, default="graph")
    solve.add_argument("--bound", choices=[b.value for b in BoundKind], default="lambert",
                       help="bound flavor for --algo lex")
    solve.add_argument("--tail", choices=[t.value for t in TailKind], default="one",
                       help="tail flavor for --algo lex")
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.add_argument("--no-timing", action="store_true",
                       help="omit the timing field for byte-stable output")
    solve.add_argument("--time-limit", type=_seconds(zero_ok=False), metavar="S")
    solve.add_argument("--emit-graph", metavar="PATH",
                       help="also write the defect-graph adjacency as text")
    solve.add_argument("--dump-slopes3", nargs=3, type=int, metavar=("A", "B", "C"),
                       help="print the minimal solutions of A x = B y + C z and exit")

    verify = sub.add_parser("verify", help="run all four algorithms plus the oracle")
    add_equation_input(verify)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--time-limit", type=_seconds(zero_ok=False), metavar="S")
    verify.add_argument("--oracle-cap", type=_positive_int, default=DEFAULT_ORACLE_CAP,
                        help="skip the oracle when the search box exceeds this many vectors")

    gen = sub.add_parser("gen", help="emit the 10 seeded tests of a benchmark class")
    gen.add_argument("--class", dest="bench_class", required=True, metavar="N,M,A",
                     type=_class_spec)
    gen.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="compare two algorithms over a class grid")
    bench.add_argument("--classes", default="all", metavar="all|N,M,A[;...]",
                       type=_class_spec)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--epsilon", type=_seconds(zero_ok=True), default=0.01,
                       help="tie threshold in seconds for the epsilon table")
    bench.add_argument("--out", default="bench-out", metavar="DIR")
    bench.add_argument("--algo-a", choices=SOLVERS, default="graph")
    bench.add_argument("--algo-b", choices=SOLVERS, default="slopes")
    bench.add_argument("--exec", dest="exec_path", metavar="PATH",
                       help="external solver executable standing in for algorithm B; "
                            "reads one equation on stdin, prints basis lines")
    bench.add_argument("--runs", type=_positive_int, default=5)
    bench.add_argument("--early-stop", type=_seconds(zero_ok=False), default=15.0,
                       metavar="S")
    bench.add_argument("--timeout", type=_seconds(zero_ok=False), default=600.0,
                       metavar="S")
    bench.add_argument("--quiet", action="store_true")

    unify = sub.add_parser("unify", help="build and check the ACU unifier of an equation")
    add_equation_input(unify)
    unify.add_argument("--algo", choices=SOLVERS, default="graph")
    unify.add_argument("--format", choices=("text", "json"), default="text")
    unify.add_argument("--time-limit", type=_seconds(zero_ok=False), metavar="S")

    return parser


def _read_equation(args: argparse.Namespace) -> Equation:
    if args.file:
        text = Path(args.file).read_text()
    elif args.equation == "-" or args.equation is None:
        text = sys.stdin.read()
    else:
        text = args.equation
    return parse_equation(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.dump_slopes3:
        a, b, c = args.dump_slopes3
        parse_equation(f"{a} = {b} {c}")  # the equation path's checks and messages
        print(format_basis(slopes3(a, b, c)))
        return 0
    eq = _read_equation(args)
    if args.emit_graph:
        graph = build_defect_graph(build_weights(eq))
        Path(args.emit_graph).write_text(render_adjacency(graph) + "\n")
    options = {}
    if args.algo == "lex":
        options["variant"] = LexVariant(BoundKind(args.bound), TailKind(args.tail))
    start = time.perf_counter()
    basis = SOLVERS[args.algo](eq, time_limit=args.time_limit, **options)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        payload = {
            "schema": "diobasis.solve/1",
            "algorithm": args.algo,
            "equation": eq.text(),
            "size": len(basis),
            "basis": [list(sol) for sol in basis],
        }
        if not args.no_timing:
            payload["time_s"] = elapsed
        print(json.dumps(payload))
    else:
        if basis:
            print(format_basis(basis))
        summary = f"basis size: {len(basis)}"
        if not args.no_timing:
            summary += f", time: {elapsed:.3f}s"
        print(summary)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    eq = _read_equation(args)
    results = {
        name: solve(eq, time_limit=args.time_limit)
        for name, solve in SOLVERS.items()
    }
    oracle_used = True
    try:
        results["oracle"] = oracle_basis(eq, cap=args.oracle_cap)
    except DiobasisError:
        oracle_used = False
        print(
            f"note: oracle skipped, box size {oracle_box_size(eq)} over cap",
            file=sys.stderr,
        )
    reference = results["graph"]
    mismatches = sorted(name for name, basis in results.items() if basis != reference)
    agree = not mismatches
    checked = "4 algorithms, oracle" if oracle_used else "4 algorithms"
    if args.format == "json":
        print(json.dumps({
            "schema": "diobasis.verify/1",
            "equation": eq.text(),
            "agree": agree,
            "checked": checked,
            "sizes": {name: len(basis) for name, basis in results.items()},
        }))
    elif agree:
        print(f"AGREE ({checked}), basis size {len(reference)}")
    else:
        sizes = ", ".join(f"{name}={len(results[name])}" for name in results)
        print(f"DISAGREE ({checked}): {sizes}")
    return 0 if agree else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    from .bench import generate_class

    for bc in args.bench_class:
        tests, _ = generate_class(bc, args.seed)
        for eq in tests:
            print(eq.text())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        TimingPolicy,
        make_internal_runner,
        make_subprocess_runner,
        render_reports,
        run_benchmark,
    )

    policy = TimingPolicy(
        runs=args.runs,
        early_stop_s=args.early_stop,
        timeout_s=args.timeout,
        epsilon_s=args.epsilon,
    )
    runner_a = make_internal_runner(args.algo_a)
    if args.exec_path:
        runner_b = make_subprocess_runner(args.exec_path)
        name_b, mode = args.exec_path, "internal-vs-subprocess"
    else:
        runner_b = make_internal_runner(args.algo_b)
        name_b, mode = args.algo_b, "internal"
    progress = None if args.quiet else (lambda line: print(line, file=sys.stderr))
    # An unwritable --out fails here, before the run rather than after it.
    Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_benchmark(
        args.classes, args.seed, policy, runner_a, runner_b,
        name_a=args.algo_a, name_b=name_b, mode=mode, progress=progress,
    )
    written = render_reports(report, args.out)
    wins_a = sum(1 for c in report.classes if c.score().winner == "a")
    wins_b = sum(1 for c in report.classes if c.score().winner == "b")
    print(f"classes: {len(report.classes)}, wins {report.name_a}: {wins_a}, "
          f"wins {name_b}: {wins_b}")
    print(f"total seconds: {report.name_a} {report.grand_total_a:.2f}, "
          f"{name_b} {report.grand_total_b:.2f}")
    print(f"reports written to {Path(args.out).resolve()} "
          f"({len(written)} files)")
    return 0


def _cmd_unify(args: argparse.Namespace) -> int:
    eq = _read_equation(args)
    problem = equation_to_problem(eq)
    basis = SOLVERS[args.algo](eq, time_limit=args.time_limit)
    unifier = basis_to_unifier(problem, basis)
    sound = verify_unifier(problem, unifier)
    if args.format == "json":
        print(json.dumps({
            "schema": "diobasis.unify/1",
            "equation": eq.text(),
            "fresh_variables": len(unifier.fresh_names),
            "verified": sound,
            "assignments": unifier.assignments,
        }))
    else:
        print(format_unifier(unifier))
    if not sound:
        print("error: unifier failed verification", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "unify": _cmd_unify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except EquationFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DiobasisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
