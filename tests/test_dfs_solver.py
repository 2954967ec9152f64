"""Closure search vs the oracle, on planted instances up to n = 22 too,
and vs naive and witness on planted instances up to n = 40; plus the
formulation validator (modelgen.validate_formulation)."""

import itertools
import time

import pytest
from hypothesis import given, settings

from conftest import assert_timeout_incumbent, path_edges, small_instances
from ddvop import dfs_solver
from ddvop.dfs_solver import solve
from ddvop.graph import Instance, enumerate_cliques
from ddvop.harness import solve_with_method
from ddvop.instgen import GenerationError, gen_random, gen_synthetic_detailed
from ddvop.modelgen import FORMULATIONS, validate_formulation
from ddvop.naive_decomp import solve_naive
from ddvop.oracle import brute_optimum, enumerate_valid_orders
from ddvop.order import DoublePattern, VertexOrder, check_order
from ddvop.witness_decomp import solve_witness

EXPECT = {
    "g6a": (2, 12),
    "g6b": (1, 10),
    "g5k3a": (2, 9),
    "k4": (1, 6),
    "k6": (1, 10),
    "p5_k1": (4, 31),
    "wheel6": (3, 24),
}


def solve_via(front_door, inst, objective):
    """dfs directly, or through harness.solve_with_method."""
    if front_door:
        return solve_with_method(inst, "dfs", objective)
    return solve(inst, objective)


@pytest.mark.parametrize("fixture", sorted(EXPECT))
@pytest.mark.parametrize("front_door", [True, False])
def test_frozen_optima(fixture, front_door, request):
    inst = request.getfixturevalue(fixture)
    doubles, nodes = EXPECT[fixture]
    sd = solve_via(front_door, inst, "min-double")
    sn = solve_via(front_door, inst, "min-nodes")
    assert sd.status == "OPTIMAL" and sd.objective == doubles
    assert sn.status == "OPTIMAL" and sn.objective == nodes
    for sol in (sd, sn):
        report = check_order(inst, sol.order)
        assert report.is_dvop
        assert report.doubles == sol.doubles


@pytest.mark.parametrize("fixture", ["g6a_k3", "p5_k2"])
@pytest.mark.parametrize("front_door", [True, False])
def test_infeasible(fixture, front_door, request):
    inst = request.getfixturevalue(fixture)
    sol = solve_via(front_door, inst, "min-double")
    assert sol.status == "INFEASIBLE"
    assert sol.objective is None and sol.order is None


def test_timeout(g6a):
    sol = solve(g6a, "min-double", time_limit=0.0)
    assert sol.status == "TIMEOUT"
    assert_timeout_incumbent(g6a, sol)
    # No root finished, and no greedy pass stands in for one.
    assert sol.order is None


def test_timeout_keeps_time_limit():
    # The first of the 399 roots of a 400-vertex path finishes well within
    # the limit, all of them do not: the search stops at the limit and
    # keeps that root's order, with no greedy pass after it.
    inst = Instance.build(400, 1, path_edges(400))
    t0 = time.monotonic()
    sol = solve(inst, "min-double", time_limit=0.5)
    assert time.monotonic() - t0 < 1.5
    assert_timeout_incumbent(inst, sol)
    assert sol.objective == 399


@pytest.mark.parametrize(
    "fixture,time_limit,status,searched",
    [
        ("g6a", None, "OPTIMAL", True),
        ("p5_k2", None, "INFEASIBLE", False),
        ("g6a_k3", None, "INFEASIBLE", True),
        ("g6a", 0.0, "TIMEOUT", False),
    ],
    ids=["optimal", "no-clique", "search-infeasible", "timeout"],
)
def test_time_recorded_on_every_exit(fixture, time_limit, status, searched, request):
    sol = solve(request.getfixturevalue(fixture), "min-double", time_limit)
    assert sol.status == status
    assert (sol.stats.choice_points > 0) == searched
    assert sol.stats.time_ms > 0


def floor_value(inst, objective):
    """What every order pays: the rank-K double, and width 2 from rank K on."""
    return 1 if objective == "min-double" else inst.K + 2 * (inst.n - inst.K)


@pytest.mark.parametrize("objective", ["min-double", "min-nodes"])
@pytest.mark.parametrize("name", ["k6", "dense"])
def test_stops_at_first_floor_root(name, objective, request, monkeypatch):
    inst = request.getfixturevalue(name) if name == "k6" else gen_random(20, 0.7, 3, 1)
    sol = solve(inst, objective)
    assert sol.status == "OPTIMAL"
    assert sol.objective == floor_value(inst, objective)
    # The value of each root alone, searched in clique order up to the
    # first one at the floor: that many roots are searched, no more.
    roots = enumerate_cliques(inst, inst.K + 1)
    for searched, root in enumerate(roots, 1):
        monkeypatch.setattr(dfs_solver, "iter_cliques", lambda i, s: iter([root]))
        if solve(inst, objective).objective == sol.objective:
            break
    assert sol.stats.cliques_considered == searched < len(roots)


@pytest.mark.parametrize("objective", ["min-double", "min-nodes"])
def test_timeout_lower_bound_is_floor(g6a, objective):
    sol = solve(g6a, objective, time_limit=0.0)
    assert sol.status == "TIMEOUT"
    assert sol.lower_bound == floor_value(g6a, objective)
    assert solve(g6a, objective).lower_bound == EXPECT["g6a"][objective == "min-nodes"]


@pytest.mark.parametrize("objective", ["min-double", "min-nodes"])
def test_searches_every_root_above_floor(g6a, objective):
    sol = solve(g6a, objective)
    assert sol.objective > floor_value(g6a, objective)
    assert sol.stats.cliques_considered == len(enumerate_cliques(g6a, 3))


def test_stats_populated(g6a):
    sol = solve(g6a, "min-double")
    assert sol.stats.choice_points > 0
    assert sol.stats.time_ms >= 0.0


def test_bad_objective(g6a):
    with pytest.raises(ValueError):
        solve(g6a, "min-width")


@settings(deadline=None)
@given(small_instances(max_n=10))
def test_agrees_with_oracle_min_double(inst):
    ref = brute_optimum(inst, "min-double")
    sol = solve(inst, "min-double")
    if ref is None:
        assert sol.status == "INFEASIBLE"
    else:
        assert sol.status == "OPTIMAL"
        assert sol.objective == ref.value
        assert check_order(inst, sol.order).double_count == ref.value


@settings(deadline=None)
@given(small_instances(max_n=10))
def test_agrees_with_oracle_min_nodes(inst):
    ref = brute_optimum(inst, "min-nodes")
    sol = solve(inst, "min-nodes")
    if ref is None:
        assert sol.status == "INFEASIBLE"
    else:
        assert sol.status == "OPTIMAL"
        assert sol.objective == ref.value
        assert check_order(inst, sol.order).total_nodes == ref.value


# Planted instances with n from 14 to 40: round(n/6) doubles and noise 0.1,
# from the first seed (0, 1, ...) the generator accepts.  The planted order
# is the identity, so it bounds both optima.  Up to n = 22 the oracle's work
# budget admits them, so it is the ground truth there; at every n, naive and
# witness are checked against dfs, and so is every lower bound they report,
# TIMEOUT included: an end-to-end check of the lifted root bounds.
PLANTED_GRID = [
    (14, 2), (16, 3), (18, 4), (22, 2), (22, 4),
    (26, 3), (32, 2), (32, 4), (40, 3), (40, 4),
]


def planted(n, K):
    for seed in itertools.count():
        try:
            return gen_synthetic_detailed(K, round(n / 6), 0.1, n, seed)
        except GenerationError:
            continue


@pytest.mark.parametrize("n,K", PLANTED_GRID)
def test_planted_grid_routes_agree(n, K):
    inst, marks, _, _ = planted(n, K)
    identity = check_order(inst, VertexOrder(tuple(range(n))))
    assert identity.is_dvop
    sd = solve(inst, "min-double", time_limit=10.0)
    sn = solve(inst, "min-nodes", time_limit=10.0)
    assert sd.status == sn.status == "OPTIMAL"
    assert check_order(inst, sd.order).double_count == sd.objective <= sum(marks)
    assert check_order(inst, sn.order).total_nodes == sn.objective <= identity.total_nodes
    if n <= 22:
        assert brute_optimum(inst, "min-double").value == sd.objective
        assert brute_optimum(inst, "min-nodes").value == sn.objective
    for route in (solve_naive, solve_witness):
        sol = route(inst, time_limit=0.5)
        assert sol.lower_bound <= sd.objective, route.__name__
        if sol.status == "OPTIMAL":
            assert sol.objective == sd.objective, route.__name__
        else:
            assert_timeout_incumbent(inst, sol)
            assert sol.objective is None or sol.objective >= sd.objective


def iter_checked_orders(inst, limit=25):
    _, walk = enumerate_valid_orders(inst)
    for order in itertools.islice(walk, limit):
        yield order, check_order(inst, order)


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_accepts_true_assignments(fixture, request):
    inst = request.getfixturevalue(fixture)
    for order, report in iter_checked_orders(inst):
        for model in FORMULATIONS:
            assert validate_formulation(inst, order, report.doubles, model)


def flip_first(bits, start, value):
    """The pattern with the first bit at or after start equal to value flipped."""
    for r in range(start, len(bits)):
        if bits[r] == value:
            return DoublePattern(bits[:r] + (1 - value,) + bits[r + 1 :])
    return None


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_rank_k_bit(fixture, request):
    # Clearing the forced rank-K bit escapes only the rank model, whose
    # constraints count doubles per rank rather than per placed vertex.
    inst = request.getfixturevalue(fixture)
    for order, report in iter_checked_orders(inst):
        faked = flip_first(report.doubles.bits, inst.K, 1)
        assert validate_formulation(inst, order, faked, "CP-RANK")
        for model in ("IP", "CP-VERTEX", "CP-COMBINED"):
            assert not validate_formulation(inst, order, faked, model)


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_spurious_double_tolerated(fixture, request):
    inst = request.getfixturevalue(fixture)
    for order, report in iter_checked_orders(inst):
        faked = flip_first(report.doubles.bits, inst.K + 1, 0)
        if faked is not None:
            for model in FORMULATIONS:
                assert validate_formulation(inst, order, faked, model)


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_hidden_double_rejected(fixture, request):
    inst = request.getfixturevalue(fixture)
    for order, report in iter_checked_orders(inst):
        faked = flip_first(report.doubles.bits, inst.K + 1, 1)
        if faked is not None:
            for model in FORMULATIONS:
                assert not validate_formulation(inst, order, faked, model)
