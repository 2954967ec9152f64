"""Command line front end.

One executable, seven subcommands: solve/pareto/presolve work on an
instance file, gen creates instance files, export emits LP models, and
bench/profile drive batch comparisons.  Each subcommand takes only the
flags it reads: every one takes -o/--output, solve and bench take
--time-limit, the two gen kinds take --seed, and bench takes --workers.
No solve method takes a tuning flag beyond --time-limit: the oracle
bounds its own work (see the oracle module) and exits 2 past it.
presolve prints the root bound of every initial clique, and exits 2
past presolve.MAX_ROOTS of them.  solve, gen and presolve exit 2 on
n > harness.MAX_N.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .graph import Instance, parse_instance
from .harness import (
    METHODS,
    RESULT_HEADER,
    bench_csv,
    check_size,
    parse_bench_csv,
    perf_profile,
    profile_csv,
    result_fields,
    run_bench,
    solve_with_method,
)
from .instgen import random_instance_text, synthetic_instance_text
from .modelgen import MODELS, export, summary_csv
from .oracle import objective_image_and_pareto
from .order import check_order, format_solution
from .presolve import full_presolve
from .solution import Solution

OBJECTIVE_MAP = {"double": "min-double", "nodes": "min-nodes"}

SOLVE_STATS_HEADER = ",".join(RESULT_HEADER)


def _command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand parser with the -o flag every subcommand takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the main artifact here instead of stdout",
    )
    return p


def _add_time_limit(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--time-limit", type=float, metavar="SECONDS",
        help="cooperative wall-clock limit per solve",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddvop",
        description="Exact solvers for minimum-double discretization orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = _command(sub, "solve", "run one method on one instance")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--method", choices=METHODS, default="dfs")
    p.add_argument("--objective", choices=("double", "nodes"), default="double")
    _add_time_limit(p)

    p = _command(sub, "pareto", "objective image and Pareto frontier")
    p.add_argument("instance")

    p = _command(sub, "presolve", "print the root bound of every initial clique")
    p.add_argument("instance")

    p = sub.add_parser("gen", help="generate an instance file")
    kinds = p.add_subparsers(dest="kind", required=True, metavar="KIND")
    r = _command(kinds, "random", "independent edges at a target density")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--density", type=float, required=True)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--seed", type=int, default=0, help="generator seed")
    s = _command(kinds, "synthetic", "planted-order instance")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--doubles", type=int, required=True)
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0, help="generator seed")

    p = _command(sub, "export", "write an LP model file")
    p.add_argument("instance")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--unordered-cliques", action="store_true",
                   help="one rank labeling per clique instead of all K! "
                   "(cycles, ranks and ccg only)")

    p = _command(sub, "bench", "instance x method grid to CSV")
    p.add_argument("instances", nargs="+", help="instance files")
    p.add_argument("--methods", default=",".join(METHODS),
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--objective", choices=("double", "nodes"), default="double")
    _add_time_limit(p)
    p.add_argument("--workers", type=int, default=1, help="bench worker processes")

    p = _command(sub, "profile", "performance-profile points from a bench CSV")
    p.add_argument("bench_csv", help="bench CSV file, or - for stdin")

    return parser


def _load_instance(path: str) -> Instance:
    if path == "-":
        return parse_instance(sys.stdin.read(), name="stdin")
    return parse_instance(Path(path).read_text(), name=Path(path).stem)


def _emit(ns: argparse.Namespace, text: str, side_text: str = "") -> None:
    """Main artifact to --output or stdout; side channel never collides."""
    if ns.output and ns.output != "-":
        Path(ns.output).write_text(text)
        if side_text:
            sys.stdout.write(side_text)
    else:
        sys.stdout.write(text)
        if side_text:
            sys.stderr.write(side_text)


def _solve_stats_csv(method: str, sol: Solution) -> str:
    row = ",".join(result_fields(method, sol.status, sol.objective, sol.stats))
    return SOLVE_STATS_HEADER + "\n" + row + "\n"


def cmd_solve(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.instance)
    sol = solve_with_method(
        inst, ns.method, OBJECTIVE_MAP[ns.objective], time_limit=ns.time_limit
    )
    report = None if sol.order is None else check_order(inst, sol.order)
    text = format_solution(sol.status, sol.order, report, sol.lower_bound)
    _emit(ns, text, _solve_stats_csv(ns.method, sol))
    return 0


def cmd_pareto(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.instance)
    image, front = objective_image_and_pareto(inst)
    front_set = set(front)
    lines = ["nodes,doubles,dominated"]
    for pt in sorted(image):
        flag = 0 if pt in front_set else 1
        lines.append(f"{pt.nodes_obj},{pt.doubles_obj},{flag}")
    side = "" if image else "no valid orders: instance is infeasible\n"
    _emit(ns, "\n".join(lines) + "\n", side)
    return 0


def cmd_presolve(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.instance)
    check_size(inst.n)
    result = full_presolve(inst)
    _emit(ns, "\n".join(result.as_lines()) + "\n")
    return 0


def cmd_gen(ns: argparse.Namespace) -> int:
    check_size(ns.n)
    if ns.kind == "random":
        text = random_instance_text(ns.n, ns.density, ns.k, ns.seed)
    else:
        text = synthetic_instance_text(ns.k, ns.doubles, ns.noise, ns.n, ns.seed)
    _emit(ns, text)
    return 0


def cmd_export(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns.instance)
    text, summary = export(inst, ns.model, unordered_cliques=ns.unordered_cliques)
    side = summary_csv(summary)
    if summary.warning:
        print(f"warning: {summary.warning}", file=sys.stderr)
    _emit(ns, text, side)
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    instances = [_load_instance(p) for p in ns.instances]
    methods = [m for m in ns.methods.split(",") if m]
    rows = run_bench(
        instances,
        methods,
        OBJECTIVE_MAP[ns.objective],
        time_limit=ns.time_limit,
        workers=ns.workers,
    )
    _emit(ns, bench_csv(rows))
    return 0


def cmd_profile(ns: argparse.Namespace) -> int:
    if ns.bench_csv == "-":
        text = sys.stdin.read()
    else:
        text = Path(ns.bench_csv).read_text()
    points = perf_profile(parse_bench_csv(text))
    _emit(ns, profile_csv(points))
    return 0


HANDLERS = {
    "solve": cmd_solve,
    "pareto": cmd_pareto,
    "presolve": cmd_presolve,
    "gen": cmd_gen,
    "export": cmd_export,
    "bench": cmd_bench,
    "profile": cmd_profile,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return HANDLERS[ns.command](ns)
    except (ValueError, OSError) as exc:
        # ParseError, GenerationError, UsageError, CapExceededError,
        # ModelTooLargeError and presolve's refusal are all ValueErrors;
        # a missing file or a directory path is an OSError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
