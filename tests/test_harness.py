"""Benchmark harness: method dispatch, grid runs, CSV, performance profiles."""

import itertools
import random
import time

import pytest

import ddvop.harness
import ddvop.oracle
from ddvop.harness import (
    BENCH_HEADER,
    MAX_N,
    BenchRow,
    UsageError,
    bench_csv,
    parse_bench_csv,
    perf_profile,
    profile_csv,
    run_bench,
    solve_with_method,
)
from ddvop.graph import DisconnectedGraphError, Instance
from ddvop.instgen import gen_random
from ddvop.oracle import brute_optimum
from ddvop.order import check_order
from ddvop.solution import SolveStats

ALL_METHODS = ["oracle", "dfs", "naive", "witness"]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_dispatch_min_double(method, g6a, g6b):
    sol = solve_with_method(g6a, method)
    assert sol.status == "OPTIMAL" and sol.objective == 2
    assert check_order(g6a, sol.order).is_dvop
    sol = solve_with_method(g6b, method)
    assert sol.status == "OPTIMAL" and sol.objective == 1


def test_routes_match_brute_optimum_sweep():
    # 600 random connected instances (n 6-11, K 1-3, edge probability
    # 0.3-0.9): every solver route gives the oracle's verdict and value,
    # with lower_bound equal to the optimum, under both objectives where
    # it supports them.  The root bounds skip witness roots and start
    # naive's deepening, so a bound above some root's optimum shows here.
    rng = random.Random(17)
    swept = feasible = 0
    while swept < 600:
        n, K = rng.randint(6, 11), rng.randint(1, 3)
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        try:
            inst = Instance.build(n, K, edges)
        except DisconnectedGraphError:
            continue
        swept += 1
        for objective, methods in (
            ("min-double", ("dfs", "naive", "witness")),
            ("min-nodes", ("dfs",)),
        ):
            ref = brute_optimum(inst, objective)
            feasible += ref is not None and objective == "min-double"
            for method in methods:
                sol = solve_with_method(inst, method, objective)
                if ref is None:
                    assert (sol.status, sol.lower_bound) == ("INFEASIBLE", None), method
                else:
                    got = (sol.status, sol.objective, sol.lower_bound)
                    assert got == ("OPTIMAL", ref.value, ref.value), (method, objective, edges)
    assert feasible > 300


@pytest.mark.parametrize("method", ["oracle", "dfs"])
def test_dispatch_min_nodes(method, g6a):
    sol = solve_with_method(g6a, method, "min-nodes")
    assert sol.status == "OPTIMAL" and sol.objective == 12


def test_dispatch_usage_errors(g6a):
    with pytest.raises(UsageError):
        solve_with_method(g6a, "naive", "min-nodes")
    with pytest.raises(UsageError):
        solve_with_method(g6a, "witness", "min-nodes")
    with pytest.raises(UsageError):
        solve_with_method(g6a, "simplex")


def triangle_sparse(n):
    """K = 2, feasible, with three triangles, all among vertices 0..4.

    naive recurses about n frames deep on it and dfs one frame per
    double (all but the first three vertices), while greedy stays cheap:
    it has only three initial cliques to try.
    """
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    edges += [(v - 3, v) for v in range(4, n)] + [(v - 1, v) for v in range(4, n)]
    return Instance.build(n, 2, edges)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_solver_ceiling_refuses_larger_n(method):
    with pytest.raises(UsageError, match="solver ceiling"):
        solve_with_method(triangle_sparse(MAX_N + 1), method, time_limit=5.0)


@pytest.mark.parametrize("method", ["naive", "dfs"])
def test_solver_ceiling_admits_ceiling(method):
    inst = triangle_sparse(MAX_N)
    sol = solve_with_method(inst, method, time_limit=0.2)
    assert sol.status in ("OPTIMAL", "TIMEOUT")
    assert check_order(inst, sol.order).is_dvop


@pytest.fixture(scope="module")
def dense50():
    # 665 031 initial 5-cliques: listing them all took dfs about
    # 1 s before its first deadline poll.
    return gen_random(50, 0.9, 4, 1)


@pytest.mark.parametrize("method", ["dfs", "witness", "naive"])
def test_time_limit_covers_clique_enumeration(dense50, method):
    t0 = time.monotonic()
    sol = solve_with_method(dense50, method, time_limit=0.5)
    assert time.monotonic() - t0 < 0.5
    assert (sol.status, sol.objective) == ("OPTIMAL", 1)


def test_bench_grid(g6a, g6b):
    rows = run_bench([g6a, g6b], ALL_METHODS)
    assert len(rows) == 8
    assert [r.instance for r in rows] == ["g6a"] * 4 + ["g6b"] * 4
    assert [r.method for r in rows] == ALL_METHODS * 2
    assert all(r.status == "OPTIMAL" for r in rows)
    assert [r.objective for r in rows[:4]] == [2, 2, 2, 2]
    assert [r.objective for r in rows[4:]] == [1, 1, 1, 1]
    assert all(r.n == 6 and r.K == 2 for r in rows)
    assert abs(rows[0].density - 11 / 15) < 1e-12


def test_bench_infeasible(g6a_k3):
    rows = run_bench([g6a_k3], ALL_METHODS)
    assert all(r.status == "INFEASIBLE" and r.objective is None for r in rows)


def test_bench_parallel_matches_serial(g6a, g6b):
    serial = run_bench([g6a, g6b], ALL_METHODS)
    parallel = run_bench([g6a, g6b], ALL_METHODS, workers=3)

    def proj(rows):
        return [(r.instance, r.method, r.status, r.objective) for r in rows]

    assert proj(parallel) == proj(serial)


def test_bench_usage_errors(g6a):
    with pytest.raises(UsageError):
        run_bench([g6a], [])
    with pytest.raises(UsageError):
        run_bench([g6a], ["bogus"])
    with pytest.raises(UsageError):
        run_bench([g6a], ["naive"], objective="min-nodes")
    with pytest.raises(UsageError):
        run_bench([g6a], ["dfs"], workers=0)
    assert run_bench([], ALL_METHODS) == []


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the size, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "workers,methods,cpus,pool_size",
    [
        (10_000, ALL_METHODS, 4, 4),  # capped by the CPU count
        (10_000, ["dfs", "naive"], 8, 2),  # capped by the task count
        (3, ALL_METHODS, 8, 3),  # as asked
        (10_000, ALL_METHODS, 1, None),  # one CPU: no pool at all
        (10_000, ALL_METHODS, None, None),  # unknown CPU count counts as one
    ],
    ids=["cpu-bound", "task-bound", "as-asked", "one-cpu", "cpu-unknown"],
)
def test_bench_worker_clamp(monkeypatch, g6a, workers, methods, cpus, pool_size):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(ddvop.harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(ddvop.harness.os, "cpu_count", lambda: cpus)
    rows = run_bench([g6a], methods, workers=workers)
    assert [r.status for r in rows] == ["OPTIMAL"] * len(methods)
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])


def test_bench_error_row_isolates_failure(monkeypatch):
    # The oracle refuses an instance past its work budget, here one of no
    # work at all; the batch keeps going.
    monkeypatch.setattr(ddvop.oracle, "MAX_PREFIX_TESTS", 0)
    big = gen_random(13, 0.4, 3, 1)
    rows = run_bench([big], ["oracle", "dfs"])
    assert rows[0].method == "oracle"
    assert rows[0].status == "ERROR" and rows[0].objective is None
    assert rows[1].status in ("OPTIMAL", "INFEASIBLE")


def test_csv_round_trip(g6a, g6b):
    rows = run_bench([g6a, g6b], ALL_METHODS)
    text = bench_csv(rows)
    assert text.splitlines()[0] == ",".join(BENCH_HEADER)
    assert bench_csv(parse_bench_csv(text)) == text


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_bench_csv("foo,bar\n1,2\n")


def mk(inst, method, status, obj, t):
    return BenchRow(inst, 6, 0.5, 2, method, status, obj, SolveStats(time_ms=t))


HAND = [
    mk("i1", "a", "OPTIMAL", 2, 10.0),
    mk("i1", "b", "OPTIMAL", 2, 20.0),
    mk("i2", "a", "OPTIMAL", 1, 4.0),
    mk("i2", "b", "OPTIMAL", 1, 8.0),
]


def agreement_error(rows):
    try:
        ddvop.harness._assert_agreement(rows, len(rows))
    except AssertionError as exc:
        return str(exc)
    return None


def test_agreement_timeout_below_optimum():
    # A TIMEOUT incumbent is a valid order, so it can match an optimum or
    # exceed it, never beat it.
    optimal = mk("i1", "a", "OPTIMAL", 3, 1.0)
    assert agreement_error([optimal, mk("i1", "b", "TIMEOUT", 3, 1.0)]) is None
    assert agreement_error([optimal, mk("i1", "b", "TIMEOUT", None, 1.0)]) is None
    got = agreement_error([optimal, mk("i1", "b", "TIMEOUT", 2, 1.0)])
    assert got is not None and "TIMEOUT incumbent" in got


def test_agreement_timeout_incumbent_beside_infeasible():
    # An incumbent proves a valid order exists; a TIMEOUT with none does not.
    infeasible = mk("i1", "a", "INFEASIBLE", None, 1.0)
    assert agreement_error([infeasible, mk("i1", "b", "TIMEOUT", None, 1.0)]) is None
    got = agreement_error([infeasible, mk("i1", "b", "TIMEOUT", 4, 1.0)])
    assert got is not None and "feasibility verdicts disagree" in got


def test_profile_hand_built():
    pts = perf_profile(HAND)
    d = {(m, t): f for m, t, f in pts}
    assert d[("a", 1.0)] == 1.0
    assert d[("b", 1.0)] == 0.0
    assert d[("b", 2.0)] == 1.0
    for m in ("a", "b"):
        fractions = [f for mm, t, f in pts if mm == m]
        assert fractions == sorted(fractions)


def test_profile_single_row():
    assert perf_profile(HAND[:1]) == [("a", 1.0, 1.0)]


def test_profile_empty():
    assert perf_profile([]) == []


def test_profile_timeout_plateau():
    # Instances no method solves drop out of the universe; a method
    # that times out elsewhere plateaus below fraction one.
    rows = HAND + [
        mk("i3", "a", "OPTIMAL", 3, 5.0),
        mk("i3", "b", "TIMEOUT", None, 1000.0),
        mk("i4", "a", "INFEASIBLE", None, 1.0),
        mk("i4", "b", "INFEASIBLE", None, 1.0),
    ]
    pts = perf_profile(rows)
    top = {m: max(f for mm, t, f in pts if mm == m) for m in ("a", "b")}
    assert top["a"] == 1.0
    assert abs(top["b"] - 2 / 3) < 1e-12
    text = profile_csv(pts)
    assert text.splitlines()[0] == "method,tau,fraction"


def test_bench_feeds_profile(g6a, g6b):
    rows = run_bench([g6a, g6b], ALL_METHODS)
    pts = perf_profile(rows)
    methods_seen = {m for m, t, f in pts}
    assert methods_seen == set(ALL_METHODS)
    for m in methods_seen:
        fractions = [f for mm, t, f in pts if mm == m]
        assert fractions[-1] == 1.0
