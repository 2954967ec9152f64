"""Branch-and-bound solver vs the oracle, plus the formulation validator."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import assert_timeout_incumbent, small_instances
from ddvop.dfs_solver import MODELS, SolveOptions, solve, validate_formulation
from ddvop.oracle import brute_optimum, enumerate_valid_orders
from ddvop.order import DoublePattern, check_order

EXPECT = {
    "g6a": (2, 12),
    "g6b": (1, 10),
    "g5k3a": (2, 9),
    "k4": (1, 6),
    "k6": (1, 10),
    "p5_k1": (4, 31),
    "wheel6": (3, 24),
}


@pytest.mark.parametrize("fixture", sorted(EXPECT))
@pytest.mark.parametrize("use_presolve", [True, False])
def test_frozen_optima(fixture, use_presolve, request):
    inst = request.getfixturevalue(fixture)
    doubles, nodes = EXPECT[fixture]
    opts = SolveOptions(use_presolve=use_presolve)
    sd = solve(inst, "min-double", opts)
    sn = solve(inst, "min-nodes", opts)
    assert sd.status == "OPTIMAL" and sd.objective == doubles
    assert sn.status == "OPTIMAL" and sn.objective == nodes
    for sol in (sd, sn):
        report = check_order(inst, sol.order)
        assert report.is_dvop
        assert report.doubles == sol.doubles


@pytest.mark.parametrize("fixture", ["g6a_k3", "p5_k2"])
@pytest.mark.parametrize("use_presolve", [True, False])
def test_infeasible(fixture, use_presolve, request):
    inst = request.getfixturevalue(fixture)
    sol = solve(inst, "min-double", SolveOptions(use_presolve=use_presolve))
    assert sol.status == "INFEASIBLE"
    assert sol.objective is None and sol.order is None


def test_timeout(g6a):
    sol = solve(g6a, "min-double", SolveOptions(time_limit=0.0))
    assert sol.status == "TIMEOUT"
    assert_timeout_incumbent(g6a, sol)


@pytest.mark.parametrize(
    "fixture,opts,status,searched",
    [
        ("g6a", SolveOptions(), "OPTIMAL", True),
        ("p5_k2", SolveOptions(), "INFEASIBLE", False),
        ("p5_k2", SolveOptions(use_presolve=False), "INFEASIBLE", True),
        ("g6a", SolveOptions(time_limit=0.0), "TIMEOUT", False),
    ],
    ids=["optimal", "presolve-infeasible", "search-infeasible", "timeout"],
)
def test_time_recorded_on_every_exit(fixture, opts, status, searched, request):
    sol = solve(request.getfixturevalue(fixture), "min-double", opts)
    assert sol.status == status
    assert (sol.stats.choice_points > 0) == searched
    assert sol.stats.time_ms > 0


def test_stats_populated(g6a):
    sol = solve(g6a, "min-double")
    assert sol.stats.choice_points > 0
    assert sol.stats.time_ms >= 0.0


def test_bad_objective(g6a):
    with pytest.raises(ValueError):
        solve(g6a, "min-width")


@settings(deadline=None)
@given(small_instances(), st.booleans())
def test_agrees_with_oracle_min_double(inst, use_presolve):
    ref = brute_optimum(inst, "min-double")
    sol = solve(inst, "min-double", SolveOptions(use_presolve=use_presolve))
    if ref is None:
        assert sol.status == "INFEASIBLE"
    else:
        assert sol.status == "OPTIMAL"
        assert sol.objective == ref.value
        assert check_order(inst, sol.order).double_count == ref.value


@settings(deadline=None)
@given(small_instances(), st.booleans())
def test_agrees_with_oracle_min_nodes(inst, use_presolve):
    ref = brute_optimum(inst, "min-nodes")
    sol = solve(inst, "min-nodes", SolveOptions(use_presolve=use_presolve))
    if ref is None:
        assert sol.status == "INFEASIBLE"
    else:
        assert sol.status == "OPTIMAL"
        assert sol.objective == ref.value
        assert check_order(inst, sol.order).total_nodes == ref.value


def iter_checked_orders(inst, limit=25):
    _, walk = enumerate_valid_orders(inst)
    for order in itertools.islice(walk, limit):
        yield order, check_order(inst, order)


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_accepts_true_assignments(fixture, request):
    inst = request.getfixturevalue(fixture)
    for order, report in iter_checked_orders(inst):
        for model in MODELS:
            assert validate_formulation(inst, order, report.doubles, model)


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_rank_k_bit(fixture, request):
    # Clearing the forced rank-K bit escapes only the rank model, whose
    # constraints count doubles per rank rather than per placed vertex.
    inst = request.getfixturevalue(fixture)
    K = inst.K
    for order, report in iter_checked_orders(inst):
        bits = tuple(
            0 if r == K else b for r, b in enumerate(report.doubles.bits)
        )
        faked = DoublePattern(bits)
        assert validate_formulation(inst, order, faked, "CP-RANK")
        for model in ("IP", "CP-VERTEX", "CP-COMBINED"):
            assert not validate_formulation(inst, order, faked, model)


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_spurious_double_tolerated(fixture, request):
    inst = request.getfixturevalue(fixture)
    for order, report in iter_checked_orders(inst):
        bits = list(report.doubles.bits)
        for r in range(inst.K + 1, inst.n):
            if bits[r] == 0:
                faked = DoublePattern(
                    tuple(1 if q == r else b for q, b in enumerate(bits))
                )
                for model in MODELS:
                    assert validate_formulation(inst, order, faked, model)
                break


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g5k3a", "wheel6"])
def test_validator_hidden_double_rejected(fixture, request):
    inst = request.getfixturevalue(fixture)
    for order, report in iter_checked_orders(inst):
        bits = list(report.doubles.bits)
        for r in range(inst.K + 1, inst.n):
            if bits[r] == 1:
                faked = DoublePattern(
                    tuple(0 if q == r else b for q, b in enumerate(bits))
                )
                for model in MODELS:
                    assert not validate_formulation(inst, order, faked, model)
                break
