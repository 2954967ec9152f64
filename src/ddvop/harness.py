"""Benchmark runner and performance-profile data generation.

The bench loop is deliberately plain: every (instance, method) pair becomes
one CSV row, a solver crash becomes an ERROR row instead of aborting the
batch, and cross-method agreement is asserted at aggregation time so a
silently wrong solver fails loudly here rather than in a plot.  Performance
profiles are emitted as (method, tau, fraction) data points; plotting is
left to external tools.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .dfs_solver import solve
from .graph import Instance
from .naive_decomp import solve_naive
from .oracle import brute_optimum
from .solution import OBJECTIVES, STATS_COLUMNS, Solution, SolveStats
from .witness_decomp import solve_witness

METHODS = ("oracle", "dfs", "naive", "witness")

# Methods built around double-pattern masters cannot minimize node counts.
DOUBLE_ONLY_METHODS = ("naive", "witness")

# Largest n a solve accepts, and so `ddvop gen` and `ddvop presolve`
# too (check_size).  Every search recurses up to one frame per rank
# (dfs: one per double), so n near Python's default recursion limit of
# 1000 dies in RecursionError; 500 leaves half that limit to the
# callers (CLI, bench, a test runner).  presolve's root bounds cost
# O(n^2) on a path.
# The greedy and root-bound passes of naive and witness set no lower
# cap: greedy is O(c(n + m)) for c root cliques and polls the deadline
# after each one, and the bound polls it before each O(n + m) relaxation
# pass (on all 399 roots of a 400-vertex path they take about 0.13 s
# and 0.14 s).
MAX_N = 500

# The solve stats CSV prints RESULT_HEADER; a bench row prefixes the instance.
RESULT_HEADER = ("method", "status", "objective") + STATS_COLUMNS
BENCH_HEADER = ("instance", "n", "density", "K") + RESULT_HEADER

PROFILE_HEADER = ("method", "tau", "fraction")

# Sub-millisecond timings are noise; floor them before forming ratios.
_TIME_FLOOR_MS = 0.01


class UsageError(ValueError):
    """Caller misuse (bad method list, unsupported combination)."""


def check_size(n: int) -> None:
    """Refuse an instance of more than MAX_N vertices."""
    if n > MAX_N:
        raise UsageError(f"n = {n} exceeds the solver ceiling of {MAX_N}")


def result_fields(
    method: str, status: str, objective: Optional[int], stats: SolveStats
) -> list[str]:
    """One RESULT_HEADER row as CSV text."""
    obj = "" if objective is None else str(objective)
    return [method, status, obj, *stats.csv_fields()]


@dataclass(frozen=True)
class BenchRow:
    instance: str
    n: int
    density: float
    K: int
    method: str
    status: str
    objective: Optional[int]
    stats: SolveStats

    def csv_fields(self) -> list[str]:
        return [
            self.instance,
            str(self.n),
            f"{self.density:.4f}",
            str(self.K),
            *result_fields(self.method, self.status, self.objective, self.stats),
        ]


def _check_usage(
    methods: Sequence[str], objective: str, time_limit: Optional[float]
) -> None:
    """Reject an empty or unknown method list, an unsupported objective,
    or a NaN or negative time limit (a NaN deadline never expires)."""
    if not methods:
        raise UsageError("at least one method is required")
    if objective not in OBJECTIVES:
        raise UsageError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if time_limit is not None and not time_limit >= 0:
        raise UsageError(f"time limit must be >= 0 seconds, got {time_limit}")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"method must be one of {METHODS}, got {m!r}")
        if m in DOUBLE_ONLY_METHODS and objective != "min-double":
            raise UsageError(f"method {m} supports only the min-double objective")


def solve_with_method(
    inst: Instance,
    method: str,
    objective: str = "min-double",
    time_limit: Optional[float] = None,
) -> Solution:
    """Uniform front door: any method in, a Solution out."""
    _check_usage((method,), objective, time_limit)
    check_size(inst.n)
    if method == "oracle":
        t0 = time.monotonic()
        res = brute_optimum(inst, objective)
        stats = SolveStats(time_ms=(time.monotonic() - t0) * 1000.0)
        if res is None:
            return Solution("INFEASIBLE", None, None, None, stats)
        return Solution(
            "OPTIMAL", res.value, res.order, res.report.doubles, stats, res.value
        )
    if method == "dfs":
        return solve(inst, objective, time_limit)
    if method == "naive":
        return solve_naive(inst, time_limit)
    return solve_witness(inst, time_limit)


def _row_from_solution(inst: Instance, method: str, sol: Solution) -> BenchRow:
    name = inst.name or f"n{inst.n}_K{inst.K}_m{inst.m}"
    return BenchRow(
        name, inst.n, inst.density(), inst.K,
        method, sol.status, sol.objective, sol.stats,
    )


def _bench_task(
    task: tuple[Instance, str], objective: str, time_limit: Optional[float]
) -> BenchRow:
    inst, method = task
    t0 = time.monotonic()
    try:
        sol = solve_with_method(inst, method, objective, time_limit)
    except Exception:
        stats = SolveStats(time_ms=(time.monotonic() - t0) * 1000.0)
        sol = Solution("ERROR", None, None, None, stats)
    return _row_from_solution(inst, method, sol)


def _assert_agreement(rows: Sequence[BenchRow], per_instance: int) -> None:
    """Every instance's rows agree: OPTIMAL values are equal, no OPTIMAL or
    TIMEOUT incumbent sits beside an INFEASIBLE verdict, and no TIMEOUT
    incumbent is below an OPTIMAL value."""
    for start in range(0, len(rows), per_instance):
        group = rows[start : start + per_instance]
        finished = [r for r in group if r.status == "OPTIMAL"]
        infeasible = [r for r in group if r.status == "INFEASIBLE"]
        incumbents = [
            r for r in group if r.status == "TIMEOUT" and r.objective is not None
        ]
        values = {r.objective for r in finished}
        assert len(values) <= 1, (
            f"optimal objectives disagree on {group[0].instance}: "
            + ", ".join(f"{r.method}={r.objective}" for r in finished)
        )
        assert not ((finished or incumbents) and infeasible), (
            f"feasibility verdicts disagree on {group[0].instance}: "
            + ", ".join(f"{r.method}={r.status}" for r in group)
        )
        assert all(r.objective >= v for r in incumbents for v in values), (
            f"a TIMEOUT incumbent beats an optimum on {group[0].instance}: "
            + ", ".join(f"{r.method}={r.objective}" for r in finished + incumbents)
        )


def run_bench(
    instances: Sequence[Instance],
    methods: Sequence[str],
    objective: str = "min-double",
    time_limit: Optional[float] = None,
    workers: int = 1,
) -> list[BenchRow]:
    """One row per (instance, method), instance-major deterministic order.

    At most one worker process per task and per CPU is started, however
    many are asked for.
    """
    _check_usage(methods, objective, time_limit)
    if workers < 1:
        raise UsageError("workers must be >= 1")

    tasks = [(inst, m) for inst in instances for m in methods]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    fn = partial(_bench_task, objective=objective, time_limit=time_limit)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(fn, tasks))
    else:
        rows = [fn(t) for t in tasks]
    _assert_agreement(rows, len(methods))
    return rows


def bench_csv(rows: Sequence[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_HEADER)
    for row in rows:
        writer.writerow(row.csv_fields())
    return buf.getvalue()


def parse_bench_csv(text: str) -> list[BenchRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ValueError("empty bench CSV") from None
    if header != BENCH_HEADER:
        raise ValueError(f"bench CSV header mismatch: {header}")
    rows = []
    for fields in reader:
        if not fields:
            continue
        if len(fields) != len(BENCH_HEADER):
            raise ValueError(f"bench CSV row has {len(fields)} fields: {fields}")
        instance, n, density, K, method, status, objective, *stats = fields
        rows.append(
            BenchRow(
                instance,
                int(n),
                float(density),
                int(K),
                method,
                status,
                None if objective == "" else int(objective),
                SolveStats.from_csv_fields(stats),
            )
        )
    return rows


def perf_profile(rows: Sequence[BenchRow]) -> list[tuple[str, float, float]]:
    """Performance-profile points over the OPTIMAL rows of a bench.

    For each instance the best OPTIMAL time across methods is the baseline;
    a method's curve value at tau is the fraction of profiled instances it
    solved within a factor tau of that baseline.  Instances no method solved
    to OPTIMAL (infeasible ones included) are outside the profile universe.
    """
    methods: list[str] = []
    for r in rows:
        if r.method not in methods:
            methods.append(r.method)

    by_instance: dict[tuple[str, int, int], dict[str, float]] = {}
    for r in rows:
        if r.status != "OPTIMAL":
            continue
        key = (r.instance, r.n, r.K)
        time_ms = max(r.stats.time_ms, _TIME_FLOOR_MS)
        by_instance.setdefault(key, {})[r.method] = time_ms
    if not by_instance:
        return []

    total = len(by_instance)
    ratios: dict[str, list[float]] = {m: [] for m in methods}
    for times in by_instance.values():
        best = min(times.values())
        for m, t in times.items():
            ratios[m].append(t / best)

    taus = sorted({1.0} | {r for rs in ratios.values() for r in rs if math.isfinite(r)})
    points = []
    for m in methods:
        solved = sorted(ratios[m])
        for tau in taus:
            within = sum(1 for r in solved if r <= tau + 1e-12)
            points.append((m, tau, within / total))
    return points


def profile_csv(points: Sequence[tuple[str, float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PROFILE_HEADER)
    for method, tau, fraction in points:
        writer.writerow([method, f"{tau:.6g}", f"{fraction:.6f}"])
    return buf.getvalue()
