"""Arc-witness decomposition: states, refused cycles, and the full loop."""

import itertools
import sys
import time

import pytest
from hypothesis import example, given, settings

from conftest import assert_timeout_incumbent, small_instances
from ddvop import order as order_module
from ddvop import witness_decomp
from ddvop.dfs_solver import solve as solve_dfs
from ddvop.graph import Instance, enumerate_cliques
from ddvop.instgen import gen_random, gen_synthetic
from ddvop.naive_decomp import solve_naive
from ddvop.oracle import brute_optimum, enumerate_valid_orders
from ddvop.solution import SolveStats
from ddvop.order import (
    VertexOrder,
    bound_reaches,
    check_order,
    greedy_dvop,
    greedy_roots,
    root_bound,
)
from ddvop.witness_decomp import (
    CycleCut,
    WitnessState,
    WitnessTrace,
    ef_validate,
    induce_witness_state,
    mp2_solve,
    solve_witness,
    sp2_check,
    state_violations,
)


@pytest.fixture
def g6b_cyclic_state(g6b_state):
    return WitnessState(
        clique=g6b_state.clique,
        witness_arcs=g6b_state.witness_arcs | {(4, 2)},
        doubles=(0, 0, 0, 0, 0, 0),
    )


def test_acyclic_state_yields_order(g6b, g6b_state):
    assert state_violations(g6b, g6b_state) == []
    assert g6b_state.y_sum == 1
    got = sp2_check(g6b, g6b_state)
    assert isinstance(got, VertexOrder)
    assert got.perm == (0, 1, 3, 4, 2, 5)
    report = check_order(g6b, got)
    assert report.is_dvop
    assert report.doubles.bits == (0, 0, 1, 1, 0, 0)
    assert report.double_count == g6b_state.y_sum + 1
    assert ef_validate(g6b, g6b_state, got)


def test_cyclic_state_yields_cycle(g6b, g6b_state, g6b_cyclic_state):
    assert state_violations(g6b, g6b_cyclic_state) == []
    assert sp2_check(g6b, g6b_cyclic_state) is None
    cut = CycleCut(((2, 4), (4, 2)))
    assert cut.vertices == frozenset({2, 4})
    assert not cut.satisfied_by(g6b_cyclic_state)
    assert cut.satisfied_by(g6b_state)
    # A 3-cycle inside the clique {0, 1, 3} counts no arc; the same arcs
    # chosen off the clique count all three.
    inside = CycleCut(((0, 1), (1, 3), (3, 0)))
    assert inside.satisfied_by(g6b_state)
    off = WitnessState(frozenset({2, 4, 5}), g6b_state.witness_arcs, g6b_state.doubles)
    assert not inside.satisfied_by(off)


def test_make_cycle_cut_units():
    # A cut counts the arcs a state holds whose tail is outside its
    # clique, against |C| - 1, with no lift.
    c3 = CycleCut([(0, 1), (1, 2), (2, 0)])
    assert c3.arcs == ((0, 1), (1, 2), (2, 0))
    assert c3.vertices == frozenset({0, 1, 2})

    def state(clique, arcs):
        return WitnessState(frozenset(clique), frozenset(arcs), (0,) * 10)

    # Inside the clique every arc has a clique tail: satisfied.
    assert c3.satisfied_by(state({0, 1, 2}, c3.arcs))
    # The same cycle chosen off the clique is violated.
    assert not c3.satisfied_by(state({7, 8, 9}, c3.arcs))
    # Meeting the clique at 0 leaves 2 counted arcs of 3.
    assert c3.satisfied_by(state({0, 8, 9}, c3.arcs))
    c4 = CycleCut([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.satisfied_by(state({7, 8, 9}, c4.arcs[:3]))
    assert not c4.satisfied_by(state({7, 8, 9}, c4.arcs))


@pytest.mark.parametrize(
    "arcs",
    [
        [],
        [(0, 1), (1, 0), (2, 3), (3, 2)],
        [(0, 1), (1, 2)],
    ],
)
def test_make_cycle_cut_rejects_non_cycles(arcs):
    with pytest.raises(ValueError):
        CycleCut(arcs)


def test_invalid_states_rejected(g6b, g6b_state):
    # Doubles must account for every extra witness beyond the clique.
    short = WitnessState(
        clique=g6b_state.clique,
        witness_arcs=g6b_state.witness_arcs,
        doubles=(0, 0, 0, 0, 0, 0),
    )
    assert any("witnesses" in s for s in state_violations(g6b, short))
    # sp2_check only orders the arcs; ef_validate checks the state too.
    order = sp2_check(g6b, short)
    assert order is not None and ef_validate(g6b, g6b_state, order)
    assert not ef_validate(g6b, short, order)
    oversized = WitnessState(
        clique=frozenset({0, 1, 2, 3}),
        witness_arcs=g6b_state.witness_arcs,
        doubles=g6b_state.doubles,
    )
    assert state_violations(g6b, oversized)
    assert not ef_validate(g6b, oversized, order)


FROZEN = [
    ("g6a", "OPTIMAL", 2),
    ("g6b", "OPTIMAL", 1),
    ("g6a_k3", "INFEASIBLE", None),
    ("p5_k2", "INFEASIBLE", None),
    ("p5_k1", "OPTIMAL", 4),
    ("k4", "OPTIMAL", 1),
    ("k6", "OPTIMAL", 1),
    ("g5k3a", "OPTIMAL", 2),
    ("g5k3b", "OPTIMAL", 1),
    ("g6k3", "OPTIMAL", 3),
    ("wheel6", "OPTIMAL", 3),
]


def two_cycle_cuts(inst):
    """The cut of every 2-cycle, one per edge."""
    return [CycleCut(((u, v), (v, u))) for u, v in inst.sorted_edges()]


def three_cycle_cuts(inst):
    """The cuts of both directions of every triangle."""
    cuts = []
    for a, b, c in enumerate_cliques(inst, 3):
        cuts.append(CycleCut(((a, b), (b, c), (c, a))))
        cuts.append(CycleCut(((a, c), (c, b), (b, a))))
    return cuts


FAMILIES = {
    "none": lambda inst: [],
    "2cycles": two_cycle_cuts,
    "2and3cycles": lambda inst: two_cycle_cuts(inst) + three_cycle_cuts(inst),
}


@pytest.mark.parametrize("fixture,status,objective", FROZEN)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_frozen_objectives(fixture, status, objective, family, request):
    # The frozen answers, and an accepted state that satisfies every cut of
    # the family: each is valid, and the master refuses a cycle as it closes.
    inst = request.getfixturevalue(fixture)
    trace = WitnessTrace()
    sol = solve_witness(inst, trace=trace)
    assert sol.status == status
    assert sol.objective == objective
    if status == "OPTIMAL":
        report = check_order(inst, sol.order)
        assert report.is_dvop and report.double_count == objective
        [(state, _)] = trace.accepted
        assert all(cut.satisfied_by(state) for cut in FAMILIES[family](inst))


@pytest.mark.parametrize(
    "fixture", ["g6a", "g6b", "g5k3a", "g5k3b", "g6k3", "k4", "p5_k1", "wheel6"]
)
def test_induced_states(fixture, request):
    inst = request.getfixturevalue(fixture)
    _, walker = enumerate_valid_orders(inst)
    for order in itertools.islice(walker, 60):
        state = induce_witness_state(inst, order)
        assert state_violations(inst, state) == []
        report = check_order(inst, order)
        assert state.y_sum + 1 == report.double_count
        assert ef_validate(inst, state, order)


@pytest.mark.parametrize(
    "fixture,refusals",
    [
        pytest.param(f, r, id=f)
        for f, r in (("g6a", 0), ("g6b", 0), ("wheel6", 0), ("separating", 2))
    ],
)
def test_manual_loop_cut_soundness(fixture, refusals, request):
    # One master search with no cutoff: refused cycles avoid the clique,
    # each is violated by the partial state that would have closed it, and
    # none excludes a state induced by an optimal order.
    inst = request.getfixturevalue(fixture)
    ref = brute_optimum(inst, "min-double")
    _, walker = enumerate_valid_orders(inst)
    optimal_states = [
        induce_witness_state(inst, o)
        for o in walker
        if check_order(inst, o).double_count == ref.value
    ]
    _, roots = greedy_roots(inst)
    stats, trace = SolveStats(), WitnessTrace()
    state, order = mp2_solve(inst, roots, inst.n, stats, trace=trace)
    report = check_order(inst, order)
    assert report.is_dvop
    assert report.double_count == state.y_sum + 1 == ref.value
    assert len(trace.cuts) == stats.cuts == refusals
    for cut, partial in trace.cuts:
        assert all(v not in partial.clique for arc in cut.arcs for v in arc)
        assert not cut.satisfied_by(partial)
        for induced in optimal_states:
            assert cut.satisfied_by(induced)


@pytest.mark.parametrize("family", ["empty", "2cycles"])
@pytest.mark.parametrize("args", [(9, 0.4, 2, 383), (10, 0.7, 3, 525)])
def test_master_alone_is_exact(args, family):
    # With no greedy cutoff the master reaches the optimum by itself, past
    # 25 and 507 refused cycles: a refusal must leave the free counts as
    # it found them, or the search over-prunes.  Its state satisfies every
    # cut of the family.
    inst = gen_random(*args)
    _, roots = greedy_roots(inst)
    stats = SolveStats()
    state, order = mp2_solve(inst, roots, inst.n, stats)
    assert stats.cuts > 0
    assert check_order(inst, order).double_count == state.y_sum + 1
    assert state.y_sum + 1 == brute_optimum(inst, "min-double").value
    cuts = [] if family == "empty" else two_cycle_cuts(inst)
    assert all(cut.satisfied_by(state) for cut in cuts)


# Optimum 2 needs a vertex to use a neighbor assigned before it; a master
# that drew witnesses only from unassigned neighbors would answer 3.
LATE_WITNESS = Instance.build(
    8,
    1,
    [(0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5), (3, 4),
     (3, 5), (4, 6), (4, 7), (6, 7)],
)


@settings(deadline=None, max_examples=60)
@given(small_instances())
@example(LATE_WITNESS)
def test_master_alone_matches_oracle(inst):
    # From every root and no cutoff, the master by itself finds the
    # optimum, or nothing exactly when no valid order exists.
    ref = brute_optimum(inst, "min-double")
    found = mp2_solve(inst, enumerate_cliques(inst, inst.K + 1), inst.n)
    if ref is None:
        assert found is None
    else:
        state, order = found
        assert state.y_sum + 1 == check_order(inst, order).double_count == ref.value


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_master_forms_no_two_cycle(inst):
    # Witnesses come from free neighbors only, so neither a leaf nor the
    # partial state of a refusal holds a pair of arcs (v, u), (u, v)
    # between non-clique vertices, and every refused cycle has three or
    # more arcs.
    leaves = []

    def check(inst, state):
        leaves.append(state)
        return sp2_check(inst, state)

    trace = WitnessTrace()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness_decomp, "sp2_check", check)
        mp2_solve(inst, enumerate_cliques(inst, inst.K + 1), inst.n, trace=trace)
    for state in leaves + [partial for _, partial in trace.cuts]:
        for v, u in state.witness_arcs:
            if v not in state.clique and u not in state.clique:
                assert (u, v) not in state.witness_arcs
    assert all(len(cut.arcs) >= 3 for cut, _ in trace.cuts)


# The master refuses two 3-cycles.  Each fits inside the initial clique of
# some valid order, whose induced state holds all its arcs with clique
# tails; a cut that counted those arcs would refuse that order.
CLIQUE_CYCLE = Instance.build(
    6, 2, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (4, 5)]
)


@settings(deadline=None, max_examples=60)
@given(small_instances())
@example(CLIQUE_CYCLE)
def test_cuts_hold_for_every_valid_order(inst):
    # From every root and no cutoff: sp2_check orders every leaf the master
    # reaches; each refused cycle has three or more arcs, avoids its clique
    # and is violated by its partial state; and every refusal keeps the
    # induced state of every valid order (the first 3000 in lexicographic
    # order).
    checked = []

    def check(inst, state):
        checked.append(sp2_check(inst, state))
        return checked[-1]

    trace = WitnessTrace()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness_decomp, "sp2_check", check)
        mp2_solve(inst, enumerate_cliques(inst, inst.K + 1), inst.n, trace=trace)
    assert None not in checked
    for cut, partial in trace.cuts:
        assert len(cut.arcs) >= 3
        assert not cut.vertices & partial.clique
        assert not cut.satisfied_by(partial)
    if not trace.cuts:
        return
    _, walker = enumerate_valid_orders(inst)
    for order in itertools.islice(walker, 3000):
        state = induce_witness_state(inst, order)
        assert all(cut.satisfied_by(state) for cut, _ in trace.cuts)


@pytest.fixture
def separating():
    """An instance whose master, with no root bounds, refuses two 3-cycles
    over 24 root cliques.  The root bounds skip every root, so
    solve_witness refuses none."""
    return gen_synthetic(3, 2, 0.1, 9, 11)


@pytest.fixture
def cutting():
    """An acceptance instance whose master refuses 84 cycles of 3 and 4
    arcs with every root bound on; its greedy order (5 doubles) is
    optimal."""
    return gen_random(10, 0.5, 3, 123)


def test_trace_hooks(cutting):
    trace = WitnessTrace()
    sol = solve_witness(cutting, trace=trace)
    assert sol.status == "OPTIMAL" and sol.objective == 5
    assert sol.stats.iterations == 1 and sol.stats.cuts == 84
    assert len(trace.cuts) == sol.stats.cuts
    assert {len(cut.arcs) for cut, _ in trace.cuts} == {3, 4}
    assert len(trace.accepted) == 1
    state, order = trace.accepted[0]
    assert ef_validate(cutting, state, order)
    for cut, partial in trace.cuts:
        assert not cut.vertices & partial.clique
        assert not cut.satisfied_by(partial)


def test_greedy_once_per_root(separating, monkeypatch):
    # One greedy completion per root clique and solve: one master search,
    # 24 roots, 24 greedy calls.
    calls, greedy = [], order_module.greedy_from_clique
    for name, module in list(sys.modules.items()):
        if name.startswith("ddvop") and getattr(module, "greedy_from_clique", None) is greedy:
            monkeypatch.setattr(
                module, "greedy_from_clique", lambda i, c: calls.append(c) or greedy(i, c)
            )
    roots = enumerate_cliques(separating, 4)
    assert len(roots) == 24
    assert solve_witness(separating).stats.iterations == 1
    assert sorted(calls, key=lambda c: c.members) == roots


@pytest.mark.parametrize(
    "route,fixture",
    [
        pytest.param(route, f, id=f if route is solve_witness else f"naive-{f}")
        for route in (solve_witness, solve_naive)
        for f in ("g6a", "g6b", "wheel6", "p5_k2", "g6a_k3")
    ],
)
def test_reads_no_presolve(route, fixture, request, monkeypatch):
    # Both compute their own root bounds, so they return their frozen
    # answer with presolve unreachable.
    def refuse(*args, **kwargs):
        raise AssertionError(f"{route.__name__} called presolve")

    for name, module in list(sys.modules.items()):
        if name.startswith("ddvop"):
            if hasattr(module, "full_presolve"):
                monkeypatch.setattr(module, "full_presolve", refuse)
    sol = route(request.getfixturevalue(fixture))
    want = {f: (status, objective) for f, status, objective in FROZEN}
    assert (sol.status, sol.objective) == want[fixture]


def test_greedy_decides_infeasibility():
    # Greedy completes no root clique, so no master solve runs; one master
    # solve needs more than the 0.6 s limit to prove the same.
    inst = gen_random(12, 0.4, 3, 116)
    sol = solve_witness(inst, time_limit=0.6)
    assert sol.status == "INFEASIBLE"
    assert sol.stats.iterations == 0


@pytest.mark.parametrize("fixture", ["g6a", "wheel6", "separating"])
def test_greedy_order_proved_optimal(fixture, request):
    # The master finds no state below the greedy count, so the greedy
    # order is the answer, accepted with the state it induces.
    inst = request.getfixturevalue(fixture)
    greedy, report = greedy_dvop(inst)
    trace = WitnessTrace()
    sol = solve_witness(inst, trace=trace)
    assert sol.status == "OPTIMAL"
    assert sol.objective == report.double_count == brute_optimum(inst, "min-double").value
    assert sol.order == greedy
    assert sol.stats.iterations == 1
    assert trace.accepted == [(induce_witness_state(inst, greedy), greedy)]
    assert ef_validate(inst, *trace.accepted[0])


@pytest.mark.parametrize("density,seed,status", [(0.6, 11, "OPTIMAL"), (0.3, 10, "TIMEOUT")])
def test_dense_solve_keeps_time_limit(density, seed, status):
    # The master polls the deadline at every node.  At d = 0.6 the greedy
    # order has the one double every order has, so no search runs.  At
    # d = 0.3 the master still runs for more than 4 s.
    inst = gen_random(28, density, 3, seed)
    _, report = greedy_dvop(inst)
    t0 = time.monotonic()
    sol = solve_witness(inst, time_limit=0.4)
    assert time.monotonic() - t0 < 0.6
    assert sol.status == status
    assert sol.objective == report.double_count
    if status == "TIMEOUT":
        assert_timeout_incumbent(inst, sol)


def refuse_master(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mp2_solve called")

    monkeypatch.setattr(witness_decomp, "mp2_solve", refuse)


def test_one_double_greedy_needs_no_master(monkeypatch):
    # Every order has its rank-K double, so a 1-double greedy order proves
    # itself, even past the deadline, with no master search.
    refuse_master(monkeypatch)
    big = Instance.build(12, 3, list(itertools.combinations(range(12), 2)))
    sol = solve_witness(big, time_limit=1e-6)
    assert sol.status == "OPTIMAL"
    assert sol.objective == 1
    assert sol.stats.iterations == 0
    assert check_order(big, sol.order).double_count == 1


def test_timeout(wheel6):
    # wheel6's optimum is 3, so its greedy order needs the master, and
    # the master polls the expired deadline before its first root.
    sol = solve_witness(wheel6, time_limit=0.0)
    assert_timeout_incumbent(wheel6, sol)
    assert sol.objective >= 3
    assert sol.stats.iterations == 0


@pytest.mark.parametrize("route", [solve_witness, solve_naive])
def test_path_timeout_keeps_time_limit(route):
    # Greedy polls the deadline after each of the 399 roots; naive gives
    # its TIMEOUT greedy pass a fresh half of the limit.
    inst = Instance.build(400, 1, [(i, i + 1) for i in range(399)])
    t0 = time.monotonic()
    sol = route(inst, time_limit=0.5)
    assert time.monotonic() - t0 < 0.75
    assert_timeout_incumbent(inst, sol)
    assert sol.objective == 399


@pytest.mark.parametrize("route", [solve_witness, solve_naive])
def test_path_bound_pass_keeps_time_limit(route):
    # The bound pass over the path's 399 roots (naive's after its first
    # subproblem fails) is O(n + m) per pass, so it ends inside the limit:
    # the middle roots bound the 398 doubles past rank K by 200.
    inst = Instance.build(400, 1, [(i, i + 1) for i in range(399)])
    t0 = time.monotonic()
    sol = route(inst, time_limit=0.5)
    assert time.monotonic() - t0 < 0.75
    assert_timeout_incumbent(inst, sol)
    assert sol.lower_bound == 201


def test_root_bounds_skip_every_root(separating):
    # Every root's bound reaches the greedy cutoff, so the master visits
    # each root and searches none, yet still counts as one iteration.
    _, roots = greedy_roots(separating)
    assert min(root_bound(separating, c) for c in roots) + 1 == 2
    sol = solve_witness(separating)
    assert sol.status == "OPTIMAL" and sol.objective == sol.lower_bound == 2
    assert sol.stats.iterations == 1 and sol.stats.cliques_considered == 24
    assert sol.stats.choice_points == 0 and sol.stats.cuts == 0


def test_deepened_bounds_skip_planted_core():
    # Planted n = 32, K = 3 (the bench's s16): 15 of its 21 roots sit one
    # below the greedy cutoff at depth 1, and the depth-3 test lifts every
    # one of them, so the master searches no root at all.
    inst = gen_synthetic(3, 5, 0.1, 32, 16)
    sol = solve_witness(inst, time_limit=0.28)
    assert sol.status == "OPTIMAL" and sol.stats.choice_points == 0
    assert sol.objective == sol.lower_bound == solve_dfs(inst, "min-double").objective


def test_deepened_bounds_keep_improving_roots():
    # Greedy gives 4 doubles.  Twelve roots have one-step bound 2, one
    # below the cutoff; the deeper test lifts exactly the four whose own
    # optimum is 3 past rank K.  Lifting the rest, whose optimum is 2, would
    # make witness answer greedy's 4.
    inst = gen_random(12, 0.4, 2, 158)
    warm, roots = greedy_roots(inst)
    assert warm[1].double_count == 4
    live = [c for c in roots if root_bound(inst, c) < 3]
    assert len(live) == 12 and all(root_bound(inst, c) == 2 for c in live)
    lifted = [c.members for c in live if bound_reaches(inst, c, 3)]
    assert lifted == [(0, 6, 10), (1, 2, 3), (2, 3, 6), (2, 3, 7)]
    sol = solve_witness(inst)
    assert sol.objective == sol.lower_bound == 3
    assert brute_optimum(inst, "min-double").value == 3


def test_timeout_lower_bound():
    # The master runs out of time, so the bound pass over all roots gives
    # the lower bound; a deadline spent before that pass leaves only 1.
    inst = gen_random(28, 0.3, 3, 10)
    _, roots = greedy_roots(inst)
    sol = solve_witness(inst, time_limit=0.4)
    assert_timeout_incumbent(inst, sol)
    assert sol.lower_bound == 1 + min(root_bound(inst, c) for c in roots)
    assert 1 < sol.lower_bound < sol.objective
    assert solve_witness(inst, time_limit=0.0).lower_bound == 1


@pytest.mark.parametrize(
    "fixture,time_limit,status,iterations",
    [
        ("g6a", None, "OPTIMAL", None),
        ("p5_k2", None, "INFEASIBLE", 0),
        ("g6a_k3", None, "INFEASIBLE", 0),
        ("g6a", 0.0, "TIMEOUT", 0),
        ("k5", 0.0, "OPTIMAL", 0),
    ],
    ids=[
        "optimal",
        "no-clique",
        "greedy-infeasible",
        "timeout",
        "greedy-one-double",
    ],
)
def test_time_recorded_on_every_exit(fixture, time_limit, status, iterations, request):
    sol = solve_witness(request.getfixturevalue(fixture), time_limit)
    assert sol.status == status
    if iterations is not None:
        assert sol.stats.iterations == iterations
    assert sol.stats.time_ms > 0


@settings(deadline=None, max_examples=40)
@given(small_instances(max_n=7))
def test_agrees_with_oracle(inst):
    ref = brute_optimum(inst, "min-double")
    sol = solve_witness(inst)
    if ref is None:
        assert sol.status == "INFEASIBLE"
    else:
        assert sol.status == "OPTIMAL"
        assert sol.objective == ref.value
        report = check_order(inst, sol.order)
        assert report.is_dvop and report.double_count == ref.value
