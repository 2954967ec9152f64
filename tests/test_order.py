"""Order validation, double/node accounting, and greedy construction."""

import itertools
from math import inf

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import small_instances
from ddvop import order as order_module
from ddvop.graph import Clique, Instance, enumerate_cliques
from ddvop.order import (
    MAX_DEPTH,
    DoublePattern,
    OrderReport,
    VertexOrder,
    check_order,
    format_solution,
    greedy_dvop,
    greedy_from_clique,
    greedy_roots,
    bound_reaches,
    parse_solution,
    root_bound,
)
from ddvop.oracle import enumerate_valid_orders
from ddvop.solution import Deadline


def test_vertex_order_views():
    order = VertexOrder((3, 5, 2, 1, 0, 4))
    assert order.n == 6
    assert order.inverse == (4, 3, 2, 0, 5, 1)
    with pytest.raises(ValueError):
        VertexOrder((0, 0, 1))


def test_double_pattern():
    p = DoublePattern((0, 0, 1, 1, 0, 1))
    assert p.count() == 3
    assert list(p) == [0, 0, 1, 1, 0, 1]
    assert p[2] == 1 and len(p) == 6
    with pytest.raises(ValueError):
        DoublePattern((0, 2))


def test_identity_order_g6a(g6a):
    report = check_order(g6a, VertexOrder(tuple(range(6))))
    assert report.is_dvop
    assert report.doubles.bits == (0, 0, 1, 1, 1, 0)
    assert report.double_count == 3
    assert report.node_counts == (1, 1, 2, 4, 8, 8)
    assert report.total_nodes == 24


def test_optimal_order_g6a(g6a):
    report = check_order(g6a, VertexOrder((3, 5, 2, 1, 0, 4)))
    assert report.is_dvop
    assert report.double_count == 2
    assert report.total_nodes == 12


def test_invalid_order_g6a_k3(g6a_k3):
    report = check_order(g6a_k3, VertexOrder(tuple(range(6))))
    assert not report.is_dvop


def test_check_order_rejects_size_mismatch(g6a):
    with pytest.raises(ValueError):
        check_order(g6a, VertexOrder((0, 1, 2)))


def test_node_counts_follow_recursion(g6a):
    report = check_order(g6a, VertexOrder(tuple(range(6))))
    counts = report.node_counts
    for r in range(6):
        if r < g6a.K:
            assert counts[r] == 1
        else:
            assert counts[r] == (report.doubles[r] + 1) * counts[r - 1]
    assert report.total_nodes == sum(counts)


def test_clique_prefix_permutation_invariance(g6a):
    base = check_order(g6a, VertexOrder((3, 5, 2, 1, 0, 4)))
    swapped = check_order(g6a, VertexOrder((5, 3, 2, 1, 0, 4)))
    assert swapped.is_dvop
    assert swapped.doubles == base.doubles
    assert swapped.total_nodes == base.total_nodes


def test_greedy_g6a(g6a):
    got = greedy_dvop(g6a)
    assert got is not None
    order, report = got
    assert report.is_dvop
    assert check_order(g6a, order) == report
    assert 2 <= report.double_count <= 3


def test_greedy_k5_single_double(k5):
    got = greedy_dvop(k5)
    assert got is not None
    assert got[1].double_count == 1


def test_greedy_infeasible(p5_k2, g6a_k3):
    assert greedy_dvop(p5_k2) is None
    assert greedy_dvop(g6a_k3) is None


def test_greedy_from_clique_stuck():
    # Triangle plus a pendant vertex: no completion has 2 placed
    # neighbors for vertex 3, so the greedy walk dead-ends.
    inst = Instance.build(4, 2, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert greedy_from_clique(inst, Clique((0, 1, 2))) is None
    assert greedy_dvop(inst) is None


def rescan_from_clique(inst, clique):
    """Reference greedy completion: rescan every vertex at each step."""
    perm = list(clique.members)
    placed = 0
    for v in perm:
        placed |= 1 << v
    while len(perm) < inst.n:
        best_v = -1
        best_pred = -1
        for v in range(inst.n):
            if placed >> v & 1:
                continue
            pred = (inst.adj_bits[v] & placed).bit_count()
            if pred > best_pred:
                best_pred = pred
                best_v = v
        if best_pred < inst.K:
            return None
        perm.append(best_v)
        placed |= 1 << best_v
    order = VertexOrder(tuple(perm))
    return order, check_order(inst, order).double_count


@settings(deadline=None)
@given(small_instances())
def test_greedy_matches_rescanning_reference(inst):
    # The bucket queue picks exactly the vertex a full rescan picks and
    # counts the doubles check_order counts, and greedy_roots keeps the
    # first completion with the fewest doubles.
    want = None
    for clique in enumerate_cliques(inst, inst.K + 1):
        ref = rescan_from_clique(inst, clique)
        assert greedy_from_clique(inst, clique) == ref
        if ref is not None and (want is None or ref[1] < want[1]):
            want = ref
    assert greedy_dvop(inst) == (want and (want[0], check_order(inst, want[0])))


def test_greedy_checks_only_the_winner(g6a, monkeypatch):
    # Greedy counts its doubles as it places them, so a full pass (g6a's
    # best completion has 2 doubles) runs check_order once, on the winner.
    calls, check = [], order_module.check_order
    monkeypatch.setattr(
        order_module, "check_order", lambda i, o: calls.append(o) or check(i, o)
    )
    best, ranked = greedy_roots(g6a)
    assert len(ranked) == len(enumerate_cliques(g6a, 3))
    assert best[1].double_count == 2
    assert calls == [best[0]]


def count_completions(monkeypatch):
    calls, greedy = [], order_module.greedy_from_clique
    monkeypatch.setattr(
        order_module, "greedy_from_clique", lambda i, c: calls.append(c) or greedy(i, c)
    )
    return calls


def test_greedy_stops_at_one_double(k6, monkeypatch):
    # Every order has its rank-K double, so the first 1-double completion
    # ends the pass: one of k6's 20 triangles is completed and ranked.
    calls = count_completions(monkeypatch)
    best, ranked = greedy_roots(k6)
    assert best[1].double_count == 1
    assert calls == ranked == [Clique((0, 1, 2))]


def test_greedy_polls_deadline_per_completion(monkeypatch):
    # A path's every completion has n - K doubles, so only the deadline
    # stops the pass early: an expired one after the first completion.
    inst = Instance.build(12, 1, [(i, i + 1) for i in range(11)])
    calls = count_completions(monkeypatch)
    best, ranked = greedy_roots(inst, Deadline(0.0))
    assert len(calls) == len(ranked) == 1
    assert (best[0], best[1].double_count) == rescan_from_clique(inst, ranked[0])
    assert len(greedy_roots(inst, Deadline(None))[1]) == 11


def root_optimum(inst, members):
    """Reference: fewest doubles past rank K over the valid orders that
    start with `members`, or inf when there is none (DP over placed masks)."""
    full = (1 << inst.n) - 1
    memo = {full: 0}

    def rest(mask):
        if mask not in memo:
            best = inf
            for v in range(inst.n):
                if not mask >> v & 1:
                    pred = (inst.adj_bits[v] & mask).bit_count()
                    if pred >= inst.K:
                        best = min(best, (pred == inst.K) + rest(mask | 1 << v))
            memo[mask] = best
        return memo[mask]

    return rest(sum(1 << v for v in members))


@settings(deadline=None, max_examples=300)
@given(small_instances())
def test_root_bound_below_root_optimum(inst):
    # On every root: a lower bound; infinite exactly when the root cannot
    # be completed (the relaxation decides feasibility), and 0 exactly
    # when the closure of the root alone completes it.
    for clique in enumerate_cliques(inst, inst.K + 1):
        bound, best = root_bound(inst, clique), root_optimum(inst, clique.members)
        assert bound <= best
        assert (bound == inf) == (best == inf)
        assert (bound == 0) == (best == 0)


@pytest.mark.parametrize(
    "fixture,members,bound",
    [
        ("g6a", (0, 1, 2), 1),
        ("wheel6", (0, 1, 2), 2),
        ("k5", (0, 1, 2), 0),
        ("g6a_k3", (0, 1, 2, 3), inf),
        # A path stalls at both ends at once, so the bound is below the 3
        # doubles past rank K of every completion.
        ("p5_k1", (1, 2), 2),
    ],
)
def test_root_bound_examples(fixture, members, bound, request):
    inst = request.getfixturevalue(fixture)
    assert root_bound(inst, Clique(members)) == bound
    assert bound <= root_optimum(inst, members)


def test_root_bound_polls_deadline_per_pass():
    # Polled before the plain pass and before each lookahead pass: one
    # that expires at its second poll stops the bound after one pass.
    inst = Instance.build(400, 1, [(i, i + 1) for i in range(399)])
    polls = []

    class SecondPoll:
        def expired(self):
            polls.append(None)
            return len(polls) > 1

    with pytest.raises(TimeoutError):
        root_bound(inst, Clique((199, 200)), SecondPoll())
    assert len(polls) == 2
    with pytest.raises(TimeoutError):
        root_bound(inst, Clique((199, 200)), Deadline(0.0))
    assert root_bound(inst, Clique((199, 200)), Deadline(None)) == 200


def reaches(inst, clique, t, depth):
    """bound_reaches asked at `depth` instead of MAX_DEPTH."""
    return order_module._reaches(
        order_module._Relaxed(inst, clique.members), t, depth, Deadline(None)
    )


@settings(deadline=None, max_examples=150)
@given(small_instances())
def test_bound_reaches_sound_and_monotone(inst):
    # A yes at t is a lower bound of t on the root's optimum; depth 1 is
    # root_bound asked as a threshold; and a yes survives a deeper look.
    for clique in enumerate_cliques(inst, inst.K + 1):
        best, one = root_optimum(inst, clique.members), root_bound(inst, clique)
        for t in range(inst.n - inst.K + 1):
            answers = [reaches(inst, clique, t, d) for d in range(4)]
            assert not answers[-1] or t <= best
            assert answers[1] == (one >= t)
            assert all(a <= b for a, b in zip(answers, answers[1:]))


def test_bound_reaches_beats_one_step(p5_k1):
    # Root (1, 2) of the path: root_bound's one step stops at 2, while the
    # deeper test reaches the root's optimum, 3 (order 1, 2, 0, 3, 4).
    root = Clique((1, 2))
    assert root_bound(p5_k1, root) == 2 == root_optimum(p5_k1, root.members) - 1
    assert not reaches(p5_k1, root, 3, 1)
    assert bound_reaches(p5_k1, root, 3)
    assert not bound_reaches(p5_k1, root, 4)


def test_bound_reaches_polls_deadline_per_pass():
    # Polled before each pass: the middle root stalls 199 times, so t = 200
    # needs the lookahead passes after the first.
    inst = Instance.build(400, 1, [(i, i + 1) for i in range(399)])
    polls = []

    class SecondPoll:
        def expired(self):
            polls.append(None)
            return len(polls) > 1

    with pytest.raises(TimeoutError):
        bound_reaches(inst, Clique((199, 200)), 200, SecondPoll())
    assert len(polls) == 2
    with pytest.raises(TimeoutError):
        bound_reaches(inst, Clique((199, 200)), 200, Deadline(0.0))
    assert bound_reaches(inst, Clique((199, 200)), 200, Deadline(None))
    assert not bound_reaches(inst, Clique((199, 200)), 201, Deadline(None))


def one_step_root_bound(inst, clique, deadline):
    """Reference: root_bound's one-step lookahead as its own branch loop."""
    if deadline.expired():
        raise TimeoutError
    closed = order_module._Relaxed(inst, clique.members)
    closed.close()
    if not closed.left:
        return 0
    plain = closed.copy().stalls()
    if plain == inf:
        return inf
    bound = 1 + plain
    for v in sorted(closed.level):
        if bound == plain:
            break
        if deadline.expired():
            raise TimeoutError
        branch = closed.copy()
        branch.level.discard(v)
        branch.place((v,))
        bound = min(bound, 1 + branch.stalls(bound - 1))
    return bound


def count_stalls(mp):
    calls, stalls = [], order_module._Relaxed.stalls
    mp.setattr(
        order_module._Relaxed, "stalls", lambda s, *a: calls.append(None) or stalls(s, *a)
    )
    return calls


class CountPolls:
    def __init__(self):
        self.polls = 0

    def expired(self):
        self.polls += 1
        return False


@settings(deadline=None, max_examples=200)
@given(small_instances())
def test_root_bound_matches_one_step_loop(inst):
    # root_bound's value through bound_reaches' branch scan is the
    # reference loop's, with a deadline poll before the same passes.
    for clique in enumerate_cliques(inst, inst.K + 1):
        want, got = CountPolls(), CountPolls()
        assert root_bound(inst, clique, got) == one_step_root_bound(inst, clique, want)
        assert got.polls == want.polls


@settings(deadline=None, max_examples=150)
@given(small_instances())
def test_default_depth_answers_for_every_depth(inst):
    # One MAX_DEPTH ask one above root_bound answers as asking depth 2,
    # then each deeper one up to a yes, did, and makes no more passes.
    with pytest.MonkeyPatch.context() as mp:
        calls = count_stalls(mp)
        for clique in enumerate_cliques(inst, inst.K + 1):
            t = root_bound(inst, clique) + 1
            start = len(calls)
            want = any(reaches(inst, clique, t, d) for d in range(2, MAX_DEPTH + 1))
            mid = len(calls)
            assert bound_reaches(inst, clique, t) == want
            assert len(calls) - mid <= mid - start


@settings(deadline=None, max_examples=150)
@given(small_instances())
def test_root_bound_lifts_to_threshold(inst):
    # root_bound(lift_to=t) is the two-step answer: the one-step bound,
    # or t when that is t - 1 and the deeper test reaches t; and it makes
    # no more passes than the two steps.
    with pytest.MonkeyPatch.context() as mp:
        calls = count_stalls(mp)
        for clique in enumerate_cliques(inst, inst.K + 1):
            for t in range(inst.n):
                start = len(calls)
                want = root_bound(inst, clique)
                if want == t - 1 and bound_reaches(inst, clique, t):
                    want = t
                mid = len(calls)
                assert root_bound(inst, clique, lift_to=t) == want
                assert len(calls) - mid <= mid - start


def test_format_and_parse_solution(g6a):
    order = VertexOrder((3, 5, 2, 1, 0, 4))
    report = check_order(g6a, order)
    text = format_solution("OPTIMAL", order, report)
    assert text.splitlines()[0] == "s OPTIMAL 2 12"
    status, got_order, got_pattern = parse_solution(text)
    assert status == "OPTIMAL"
    assert got_order == order
    assert got_pattern == report.doubles


def test_format_solution_without_order():
    text = format_solution("INFEASIBLE")
    assert text == "s INFEASIBLE - -\n"
    status, order, pattern = parse_solution(text)
    assert status == "INFEASIBLE" and order is None and pattern is None


@pytest.mark.parametrize("status,with_order", [("OPTIMAL", True), ("TIMEOUT", False)])
def test_lower_bound_line_round_trip(status, with_order, g6a):
    order = VertexOrder((3, 5, 2, 1, 0, 4)) if with_order else None
    report = check_order(g6a, order) if with_order else None
    text = format_solution(status, order, report, lower_bound=2)
    assert text.splitlines()[-1] == "c lower_bound 2"
    assert text.startswith(format_solution(status, order, report))
    assert parse_solution(text) == parse_solution(format_solution(status, order, report))


def test_format_solution_errors(g6a):
    order = VertexOrder(tuple(range(6)))
    with pytest.raises(ValueError):
        format_solution("DONE")
    with pytest.raises(ValueError):
        format_solution("OPTIMAL", order, None)


@pytest.mark.parametrize(
    "text",
    [
        "o 0 1 2\nd 0 0 1\n",
        "s OPTIMAL 1\n",
        "s OPTIMAL 1 2\ns OPTIMAL 1 2\n",
        "s OPTIMAL 1 2\no 0 1 2\n",
        "x 1 2\n",
    ],
)
def test_parse_solution_errors(text):
    with pytest.raises(ValueError):
        parse_solution(text)


@given(small_instances())
def test_greedy_agrees_with_feasibility(inst):
    count, _ = enumerate_valid_orders(inst)
    got = greedy_dvop(inst)
    if count == 0:
        assert got is None
    else:
        assert got is not None
        order, report = got
        assert report.is_dvop
        assert check_order(inst, order) == report


@settings(deadline=None)
@given(small_instances())
def test_every_valid_order_checks_out(inst):
    _, orders = enumerate_valid_orders(inst)
    for order in itertools.islice(orders, 200):
        report = check_order(inst, order)
        assert report.is_dvop
        assert report.double_count == report.doubles.count()
        prefix = order.perm[: inst.K + 1]
        for i, u in enumerate(prefix):
            for v in prefix[i + 1 :]:
                assert inst.has_edge(u, v)
