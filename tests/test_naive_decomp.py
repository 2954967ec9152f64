"""Pattern-first decomposition: master, subproblem, minimal infeasible cuts."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_timeout_incumbent, small_instances
from ddvop import naive_decomp
from ddvop.graph import enumerate_cliques
from ddvop.harness import solve_with_method
from ddvop.instgen import acceptance_corpus, gen_synthetic
from ddvop.naive_decomp import (
    BendersCut,
    NaiveTrace,
    deepening_start,
    find_iis,
    mp1_solve,
    solve_naive,
    sp1_solve,
)
from ddvop.oracle import brute_optimum, enumerate_valid_orders
from ddvop.order import DoublePattern, VertexOrder, check_order, root_bound
from ddvop.solution import SolveStats


def test_cut_satisfaction():
    cover = BendersCut(frozenset({3, 5}))
    assert cover.satisfied_by((0, 0, 1, 0, 0, 1))
    assert not cover.satisfied_by((0, 0, 1, 0, 1, 0))


def test_mp1_base_only():
    assert mp1_solve(6, 2, []).bits == (0, 0, 1, 0, 0, 0)
    cuts = [BendersCut(frozenset({3})), BendersCut(frozenset({4, 5}))]
    assert mp1_solve(6, 2, cuts).bits == (0, 0, 1, 1, 0, 1)
    # A cover below rank K is unsatisfiable; one holding rank K always holds.
    assert mp1_solve(6, 2, [BendersCut(frozenset({0, 1}))]) is None
    assert mp1_solve(6, 2, [BendersCut(frozenset({1, 2}))]).bits == (0, 0, 1, 0, 0, 0)


def test_mp1_deepening_start():
    # The deepening begins at `start` free doubles; the cuts still apply.
    assert mp1_solve(6, 2, [], start=2).bits == (0, 0, 1, 0, 1, 1)
    cuts = [BendersCut(frozenset({3})), BendersCut(frozenset({4, 5}))]
    assert mp1_solve(6, 2, cuts, start=1).bits == (0, 0, 1, 1, 0, 1)
    assert mp1_solve(6, 2, cuts, start=3).bits == (0, 0, 1, 1, 1, 1)
    # A start no pattern can reach leaves nothing.
    assert mp1_solve(6, 2, [], start=4) is None


def test_sp1_g6a(g6a):
    order = sp1_solve(g6a, DoublePattern((0, 0, 1, 0, 0, 1)))
    assert order is not None
    report = check_order(g6a, order)
    assert report.is_dvop and report.double_count == 2
    assert sp1_solve(g6a, DoublePattern((0, 0, 1, 0, 0, 0))) is None


def test_sp1_k5(k5):
    assert sp1_solve(k5, DoublePattern((0, 0, 1, 0, 0))) is not None


def test_find_iis_g6a(g6a):
    pattern = DoublePattern((0, 0, 1, 0, 0, 0))
    cut = find_iis(g6a, pattern)
    assert cut is not None
    assert cut.ranks and cut.ranks <= {3, 4, 5}
    assert not cut.satisfied_by(pattern.bits)
    # Minimality: granting all but one member keeps the pattern stuck,
    # so re-granting any single member must restore feasibility.
    for r in cut.ranks:
        bits = [0, 0, 1, 0, 0, 0]
        for q in range(3, 6):
            bits[q] = 0 if (q in cut.ranks and q != r) else 1
        assert sp1_solve(g6a, DoublePattern(tuple(bits))) is not None


def test_find_iis_rejects_realizable(g6a):
    with pytest.raises(ValueError):
        find_iis(g6a, DoublePattern((0, 0, 1, 1, 0, 1)))


def reference_feasible(inst, bits):
    """Unmemoized subproblem: the masks reachable rank by rank.

    A mask of popcount r is a placed prefix, and the rank-r vertex needs
    r adjacent predecessors below K (a clique), K at a double and K+1
    elsewhere.
    """
    n, K, adj = inst.n, inst.K, inst.adj_bits
    layer = {0}
    for r in range(n):
        need = r if r < K else (K if bits[r] else K + 1)
        layer = {
            mask | 1 << v
            for mask in layer
            for v in range(n)
            if not mask >> v & 1 and (adj[v] & mask).bit_count() >= need
        }
    return bool(layer)


@st.composite
def instance_and_pattern(draw):
    """A small instance and a pattern that respects its base fixings."""
    inst = draw(small_instances())
    n, K = inst.n, inst.K
    free = draw(st.lists(st.booleans(), min_size=n - K - 1, max_size=n - K - 1))
    return inst, DoublePattern((0,) * K + (1,) + tuple(map(int, free)))


@settings(deadline=None, max_examples=300)
@given(instance_and_pattern())
def test_sp1_matches_reference(case):
    inst, pattern = case
    order = sp1_solve(inst, pattern)
    assert (order is not None) == reference_feasible(inst, pattern.bits)
    if order is not None:
        report = check_order(inst, order)
        assert report.is_dvop
        assert all(report.doubles.bits[r] <= b for r, b in enumerate(pattern.bits))


def strict_only(inst, strict):
    """The pattern strict on `strict` above K, double everywhere else."""
    return [0 if (r < inst.K or r in strict) else 1 for r in range(inst.n)]


def assert_irreducible(inst, cut):
    """The cut's strict ranks cannot all hold, and dropping any one can."""
    assert not reference_feasible(inst, strict_only(inst, cut.ranks))
    for r in cut.ranks:
        assert reference_feasible(inst, strict_only(inst, cut.ranks - {r}))


@settings(deadline=None, max_examples=300)
@given(instance_and_pattern())
def test_find_iis_matches_reference(case):
    # The blocked set of a failed call on the pattern is a cover: the
    # pattern strict only there is still infeasible.  The filter's cut
    # lies inside it, is the same whether the filter records the cover
    # itself or is handed it, and is irreducible; with no cut, not even
    # the all-double pattern is feasible.
    inst, pattern = case
    strict = {r for r in range(inst.K + 1, inst.n) if not pattern.bits[r]}
    cover = set()
    found = sp1_solve(inst, pattern, blocked=cover)
    assert (found is not None) == reference_feasible(inst, pattern.bits)
    if found is not None:
        with pytest.raises(ValueError):
            find_iis(inst, pattern)
        return
    assert cover <= strict
    assert not reference_feasible(inst, strict_only(inst, cover))
    cut = find_iis(inst, pattern)
    assert find_iis(inst, pattern, cover=cover) == cut
    if cut is None:
        assert not reference_feasible(inst, strict_only(inst, set()))
    else:
        assert cut.ranks <= cover
        assert_irreducible(inst, cut)


def reference_sp1(inst, pattern, stats=None):
    """The rescanning subproblem: every vertex tested at every node.

    The same search order as sp1_solve (most adjacent predecessors, then
    lowest vertex; the initial clique ascending), a memo of its own past
    rank K, and one choice point per placement.
    """
    n, K, adj, bits = inst.n, inst.K, inst.adj_bits, pattern.bits
    if bits[K] != 1:
        return None
    dead = [set() for _ in range(n)]
    perm = []

    def rec(mask):
        r = len(perm)
        if r == n:
            return True
        if r > K and mask in dead[r]:
            return False
        cands = []
        for v in range(n):
            if mask >> v & 1:
                continue
            pred = (adj[v] & mask).bit_count()
            if r <= K:
                if pred == r and (r == 0 or v > perm[-1]):
                    cands.append((pred, v))
            elif pred >= (K if bits[r] else K + 1):
                cands.append((pred, v))
        cands.sort(key=lambda t: (-t[0], t[1]))
        for _, v in cands:
            if stats is not None:
                stats.choice_points += 1
            perm.append(v)
            if rec(mask | (1 << v)):
                return True
            perm.pop()
        if r > K:
            dead[r].add(mask)
        return False

    return VertexOrder(tuple(perm)) if rec(0) else None


@settings(deadline=None, max_examples=300)
@given(instance_and_pattern())
def test_sp1_matches_rescanning_reference(case):
    # The bit walk and native sort visit the reference's nodes in its order.
    inst, pattern = case
    got, want = SolveStats(), SolveStats()
    assert sp1_solve(inst, pattern, stats=got) == reference_sp1(inst, pattern, want)
    assert got.choice_points == want.choice_points


@st.composite
def pattern_sequence(draw):
    """Patterns for one shared memo, each with the ranks it keeps memoized.

    A step keeps the buckets of popcount >= keep and may redraw every
    rank below keep; from keep up a double may only become strict, so
    each kept dead mask stays dead.  With keep <= K + 1 every free rank
    may only tighten, and the buckets up to rank K are kept too.
    """
    inst, pattern = draw(instance_and_pattern())
    n, K = inst.n, inst.K
    bits = list(pattern.bits)
    steps = [(0, pattern)]
    for _ in range(draw(st.integers(1, 4))):
        keep = draw(st.integers(0, n))
        for r in range(K + 1, n):
            if r < keep or bits[r]:
                bits[r] = int(draw(st.booleans()))
        steps.append((keep, DoublePattern(tuple(bits))))
    return inst, steps


@settings(deadline=None, max_examples=200)
@given(pattern_sequence())
def test_sp1_shared_memo_matches_reference(case):
    inst, steps = case
    dead = [set() for _ in range(inst.n)]
    for keep, pattern in steps:
        for masks in dead[:keep]:
            masks.clear()
        assert sp1_solve(inst, pattern, dead=dead) == reference_sp1(inst, pattern)


class Countdown:
    """A deadline that expires at its (polls + 1)-th poll."""

    def __init__(self, polls):
        self.polls = polls

    def expired(self):
        self.polls -= 1
        return self.polls < 0


def test_sp1_counts_choice_points_on_timeout(g6a):
    # One poll per node: the sixth raises after five placements.
    stats = SolveStats()
    with pytest.raises(TimeoutError):
        sp1_solve(g6a, DoublePattern((0, 0, 1, 1, 1, 1)), Countdown(5), stats)
    assert stats.choice_points == 5


def test_failed_memo_reproves_without_search(g6a):
    # Every state of a failed call is memoized, the empty placement too.
    pattern = DoublePattern((0, 0, 1, 0, 0, 0))
    dead = [set() for _ in range(g6a.n)]
    assert sp1_solve(g6a, pattern, dead=dead) is None
    assert dead[0] == {0}
    stats = SolveStats()
    assert sp1_solve(g6a, pattern, stats=stats, dead=dead) is None
    assert stats.choice_points == 0


def solve_with_and_without_cover(inst):
    """solve_naive as is, and with find_iis never handed the failed cover.

    Without it the filter's first test repeats the failed call's search
    on a fresh memo, so it records the same cover."""
    runs = []
    for patch in (False, True):
        with pytest.MonkeyPatch.context() as m:
            if patch:
                m.setattr(naive_decomp, "find_iis", lambda *a: find_iis(*a[:4]))
            trace = NaiveTrace()
            runs.append((solve_naive(inst, trace=trace), trace.cuts))
    return runs


def assert_cover_changes_only_work(runs):
    (got, got_cuts), (want, want_cuts) = runs
    assert got.status == want.status and got.objective == want.objective
    assert got.order == want.order and got.lower_bound == want.lower_bound
    assert got.stats.iterations == want.stats.iterations
    assert got.stats.cuts == want.stats.cuts and got_cuts == want_cuts
    assert got.stats.choice_points <= want.stats.choice_points


def test_handed_cover_on_acceptance_corpus():
    saved = 0
    for inst in acceptance_corpus():
        runs = solve_with_and_without_cover(inst)
        assert_cover_changes_only_work(runs)
        saved += runs[1][0].stats.choice_points - runs[0][0].stats.choice_points
    assert saved > 0


@settings(deadline=None)
@given(small_instances())
def test_handed_cover_on_small_instances(inst):
    assert_cover_changes_only_work(solve_with_and_without_cover(inst))


def test_find_iis_hopeless_instance(p5_k2, monkeypatch):
    # One subproblem, the pattern's own test: no triangle, so no strict
    # rank is reached, the cover is empty and the scan runs no test.
    calls = []
    monkeypatch.setattr(
        naive_decomp,
        "sp1_solve",
        lambda *a, **kw: calls.append(a) or sp1_solve(*a, **kw),
    )
    assert find_iis(p5_k2, DoublePattern((0, 0, 1, 0, 0))) is None
    assert len(calls) == 1


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_cuts_hold_for_every_valid_order(inst):
    # Every cut solve_naive emits refuses its pattern, lies inside the
    # cover its failed call records (itself inside the pattern's strict
    # ranks), is irreducible, and holds for the induced pattern of every
    # valid order (the first 3000 in lexicographic order).
    trace = NaiveTrace()
    solve_naive(inst, trace=trace)
    for cut, pattern in trace.cuts:
        assert not cut.satisfied_by(pattern.bits)
        cover = set()
        assert sp1_solve(inst, pattern, blocked=cover) is None
        assert cut.ranks <= cover
        assert all(r > inst.K and not pattern.bits[r] for r in cover)
        assert_irreducible(inst, cut)
    if not trace.cuts:
        return
    _, walker = enumerate_valid_orders(inst)
    for order in itertools.islice(walker, 3000):
        bits = check_order(inst, order).doubles.bits
        assert all(cut.satisfied_by(bits) for cut, _ in trace.cuts)


def test_iis_time_counts_timed_out_filter(g6a, monkeypatch):
    # The filter call that the deadline cuts off still adds its time.
    def slow_timeout(*a):
        time.sleep(0.02)
        raise TimeoutError

    monkeypatch.setattr(naive_decomp, "find_iis", slow_timeout)
    sol = solve_naive(g6a, 60.0)
    assert sol.status == "TIMEOUT"
    assert sol.stats.iis_time_ms >= 20


def test_planted_s18_work_pin():
    # The bench's planted s18: the filter scans only the blocked ranks,
    # so the solve stays far below the full filter's 280 990 choice points.
    sol = solve_naive(gen_synthetic(2, 7, 0.1, 40, 18), None)
    assert sol.status == "OPTIMAL" and sol.objective == 4
    assert sol.stats.choice_points < 100_000


@pytest.mark.parametrize(
    "fixture,want",
    [
        ("g6a", 2),
        ("g6b", 1),
        ("k5", 1),
        ("g6a_k3", None),
        ("p5_k2", None),
    ],
)
@pytest.mark.parametrize("front_door", [True, False])
@pytest.mark.parametrize("limited", [False, True])
def test_frozen_instances(fixture, want, front_door, limited, request):
    # The same answers directly and through harness.solve_with_method,
    # with no deadline and with one that never expires.
    inst = request.getfixturevalue(fixture)
    time_limit = 60.0 if limited else None
    if front_door:
        sol = solve_with_method(inst, "naive", time_limit=time_limit)
    else:
        sol = solve_naive(inst, time_limit)
    if want is None:
        assert sol.status == "INFEASIBLE"
    else:
        assert sol.status == "OPTIMAL" and sol.objective == want
        report = check_order(inst, sol.order)
        assert report.is_dvop and report.double_count == want


def test_timeout(g6a):
    # The greedy warm start is the incumbent, as in witness.
    sol = solve_naive(g6a, time_limit=0.0)
    assert sol.status == "TIMEOUT"
    assert sol.objective == 2 and sol.order is not None
    assert_timeout_incumbent(g6a, sol)


@pytest.mark.parametrize(
    "fixture,time_limit,master_empty,status,iterations",
    [
        ("g6a", None, False, "OPTIMAL", None),
        # The deletion filter finds no cut: not even all doubles is feasible.
        ("p5_k2", None, False, "INFEASIBLE", 1),
        # The master comes back empty: no pattern satisfies the cuts.
        ("g6a", None, True, "INFEASIBLE", 1),
        ("g6a", 0.0, False, "TIMEOUT", None),
    ],
    ids=["optimal", "iis-infeasible", "master-infeasible", "timeout"],
)
def test_time_recorded_on_every_exit(
    fixture, time_limit, master_empty, status, iterations, request, monkeypatch
):
    if master_empty:
        monkeypatch.setattr(naive_decomp, "mp1_solve", lambda *a: None)
    sol = solve_naive(request.getfixturevalue(fixture), time_limit)
    assert sol.status == status
    if iterations is not None:
        assert sol.stats.iterations == iterations
    assert sol.stats.time_ms > 0


def test_deepening_start_stops_at_bound_one(g6a, wheel6, monkeypatch):
    # g6a's first root already has bound 1, which ends the scan; wheel6's
    # least bound, 2, needs every root.
    calls, bound = [], root_bound
    monkeypatch.setattr(
        naive_decomp, "root_bound", lambda *a, **k: calls.append(a[1]) or bound(*a, **k)
    )
    assert deepening_start(g6a) == 1
    assert calls == enumerate_cliques(g6a, 3)[:1]
    calls.clear()
    assert deepening_start(wheel6) == 2
    assert calls == enumerate_cliques(wheel6, 3)


def test_deepening_start_leaves_infeasibility_to_master(g6a_k3):
    # No root completes, so every bound is infinite; naive still proves
    # INFEASIBLE through its own master and IIS filter.
    assert all(root_bound(g6a_k3, c) == float("inf") for c in enumerate_cliques(g6a_k3, 4))
    assert deepening_start(g6a_k3) == 0
    sol = solve_naive(g6a_k3)
    assert sol.status == "INFEASIBLE" and sol.lower_bound is None


def test_master_starts_at_least_bound(wheel6, monkeypatch):
    # After the first subproblem fails, every master call deepens from
    # wheel6's least root bound (2 free doubles, the optimum's count).
    starts, master = [], mp1_solve
    monkeypatch.setattr(
        naive_decomp, "mp1_solve", lambda *a: starts.append(a[4]) or master(*a)
    )
    sol = solve_naive(wheel6)
    assert sol.status == "OPTIMAL" and sol.objective == sol.lower_bound == 3
    assert starts[0] == 0 and set(starts[1:]) == {2}


def test_timeout_lower_bound(g6a):
    # Before the bound pass only the first pattern's count is proved.
    sol = solve_naive(g6a, time_limit=0.0)
    assert sol.lower_bound == 1 <= sol.objective


def test_trace_records_cuts(g6a):
    trace = NaiveTrace()
    sol = solve_naive(g6a, trace=trace)
    assert sol.status == "OPTIMAL"
    assert len(trace.cuts) == sol.stats.cuts
    for cut, pattern in trace.cuts:
        assert not cut.satisfied_by(pattern.bits)


@settings(deadline=None)
@given(small_instances())
def test_agrees_with_oracle(inst):
    ref = brute_optimum(inst, "min-double")
    sol = solve_naive(inst)
    if ref is None:
        assert sol.status == "INFEASIBLE"
    else:
        assert sol.status == "OPTIMAL" and sol.objective == ref.value


@settings(deadline=None)
@given(small_instances())
def test_cut_loop_soundness(inst):
    # Replay the master/subproblem dialogue by hand: every emitted cover
    # must exclude the pattern that spawned it yet keep the oracle's
    # optimal pattern feasible.
    ref = brute_optimum(inst, "min-double")
    if ref is None:
        return
    opt_bits = check_order(inst, ref.order).doubles.bits
    cuts = []
    pattern = mp1_solve(inst.n, inst.K, cuts)
    while pattern is not None and sp1_solve(inst, pattern) is None:
        cut = find_iis(inst, pattern)
        assert cut is not None
        assert not cut.satisfied_by(pattern.bits)
        assert cut.satisfied_by(opt_bits)
        cuts.append(cut)
        pattern = mp1_solve(inst.n, inst.K, cuts)
    assert pattern is not None
    assert pattern.count() == ref.value
