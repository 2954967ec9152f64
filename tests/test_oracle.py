"""Exhaustive oracle: order counts, optima, objective images, Pareto fronts.

The numeric expectations here were computed by the subset DP and
double-checked against a plain permutation sweep before being frozen.
"""

import itertools
import time
from math import inf

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import G6A_EDGES, complete_edges, path_edges, small_instances
from ddvop import oracle
from ddvop.dfs_solver import solve
from ddvop.graph import Instance
from ddvop.instgen import acceptance_corpus
from ddvop.oracle import (
    CapExceededError,
    ParetoPoint,
    _admissible,
    _cost,
    _layers,
    brute_optimum,
    simultaneous_optimum_probe,
    enumerate_valid_orders,
    objective_image,
    objective_image_and_pareto,
    pareto_front,
)
from ddvop.order import check_order


def as_pairs(image):
    return {(p.nodes_obj, p.doubles_obj) for p in image}


def test_g6a_counts_and_image(g6a):
    count, orders = enumerate_valid_orders(g6a)
    assert count == 180
    listed = list(orders)
    assert len(listed) == 180
    perms = [o.perm for o in listed]
    assert perms == sorted(perms)
    assert as_pairs(objective_image(g6a)) == {
        (12, 2), (14, 2), (16, 2), (20, 3), (24, 3),
    }


def test_g6a_optima(g6a):
    dbl = brute_optimum(g6a, "min-double")
    assert dbl.value == 2
    assert dbl.order.perm == (0, 1, 2, 5, 3, 4)
    assert dbl.report.double_count == 2
    nod = brute_optimum(g6a, "min-nodes")
    assert nod.value == 12
    assert nod.report.total_nodes == 12


def test_g6a_pareto(g6a):
    image, front = objective_image_and_pareto(g6a)
    assert front == {ParetoPoint(12, 2)}
    assert pareto_front(image) == [ParetoPoint(12, 2)]


def test_g6a_k3_infeasible(g6a_k3):
    count, _ = enumerate_valid_orders(g6a_k3)
    assert count == 0
    assert brute_optimum(g6a_k3, "min-double") is None
    assert brute_optimum(g6a_k3, "min-nodes") is None
    assert objective_image(g6a_k3) == set()


def test_g6b_counts_and_optima(g6b):
    count, _ = enumerate_valid_orders(g6b)
    assert count == 312
    assert as_pairs(objective_image(g6b)) == {
        (10, 1), (14, 2), (16, 2), (24, 3),
    }
    assert brute_optimum(g6b, "min-double").value == 1
    nod = brute_optimum(g6b, "min-nodes")
    assert nod.value == 10
    assert nod.order.perm == (0, 1, 2, 4, 5, 3)
    assert pareto_front(objective_image(g6b)) == [ParetoPoint(10, 1)]


@pytest.mark.parametrize(
    "fixture,count,image",
    [
        ("g5k3a", 48, {(9, 2)}),
        ("g5k3b", 120, {(7, 1)}),
        ("g6k3", 96, {(17, 3)}),
        ("k4", 24, {(6, 1)}),
        ("k6", 720, {(10, 1)}),
        ("p5_k1", 16, {(31, 4)}),
        ("wheel6", 120, {(24, 3)}),
    ],
)
def test_structured_instances(fixture, count, image, request):
    inst = request.getfixturevalue(fixture)
    got_count, _ = enumerate_valid_orders(inst)
    assert got_count == count
    assert as_pairs(objective_image(inst)) == image


def test_p5_k2_infeasible(p5_k2):
    assert brute_optimum(p5_k2) is None
    assert objective_image(p5_k2) == set()


def test_cap_guard(g6a, wheel6, monkeypatch):
    # The budget counts every admissibility test _layers makes.  It admits
    # an instance at exactly its work and refuses it at one test less,
    # before the last layer is scanned.
    calls = []
    monkeypatch.setattr(
        oracle, "_admissible", lambda *a: calls.append(None) or _admissible(*a)
    )
    for inst in (g6a, wheel6):
        calls.clear()
        layers = _layers(inst)
        work = sum(len(layer) * (inst.n - r) for r, layer in enumerate(layers[:-1]))
        assert len(calls) == work
        monkeypatch.setattr(oracle, "MAX_PREFIX_TESTS", work)
        assert brute_optimum(inst) is not None
        assert enumerate_valid_orders(inst)[0] > 0
        assert objective_image(inst)
        monkeypatch.setattr(oracle, "MAX_PREFIX_TESTS", work - 1)
        for route in (brute_optimum, enumerate_valid_orders, objective_image):
            calls.clear()
            with pytest.raises(CapExceededError, match=f"layer {inst.n - 1} "):
                route(inst)
            # Layer n - 1 holds sets with one free vertex each.
            assert len(calls) == work - len(layers[-2])


@pytest.mark.parametrize("fixture", ["g6a", "k6", "wheel6"])
def test_image_holds_two_layers_at_most(fixture, monkeypatch, request):
    # objective_image reads only the empty set's pair set, so the pair
    # sets alive at once are the layer being built, its successor and
    # the leaf value: never every layer's, as a list of layers would be.
    inst = request.getfixturevalue(fixture)
    want = objective_image(inst)

    class LiveSet(frozenset):
        live = peak = 0

        def __new__(cls, *args):
            LiveSet.live += 1
            LiveSet.peak = max(LiveSet.peak, LiveSet.live)
            return super().__new__(cls, *args)

        def __del__(self):
            LiveSet.live -= 1

    monkeypatch.setattr(oracle, "frozenset", LiveSet, raising=False)
    assert objective_image(inst) == want
    sizes = [len(layer) for layer in _layers(inst)]
    assert LiveSet.peak <= 1 + max(a + b for a, b in zip(sizes, sizes[1:]))
    assert LiveSet.peak < sum(sizes)


def test_cap_ceiling():
    # A path has few valid prefix sets, so n = 21 is answered: every vertex
    # from rank 1 on has one placed neighbour, so n - 1 doubles, as dfs says.
    path = Instance.build(21, 1, path_edges(21))
    assert brute_optimum(path).value == 20 == solve(path, "min-double").objective
    assert enumerate_valid_orders(path)[0] > 0
    assert {p.doubles_obj for p in objective_image(path)} == {20}
    # K_100 is refused once layers 0-2 are scanned, before layer 3's
    # C(100, 3) * 97 tests.
    k100 = Instance.build(100, 3, complete_edges(100))
    t0 = time.monotonic()
    with pytest.raises(CapExceededError, match="layer 3 "):
        brute_optimum(k100)
    assert time.monotonic() - t0 < 5.0


def test_bad_objective(g6a):
    with pytest.raises(ValueError):
        brute_optimum(g6a, "min-width")


def test_simultaneous_optimum_probe(g6a, g6b, p5_k2):
    probe = simultaneous_optimum_probe(g6a)
    assert probe == {
        "feasible": True,
        "min_nodes": 12,
        "min_double": 2,
        "pareto": [(12, 2)],
        "simultaneous": True,
    }
    assert simultaneous_optimum_probe(g6b)["simultaneous"]
    assert simultaneous_optimum_probe(p5_k2) == {"feasible": False}


@settings(deadline=None)
@given(small_instances(max_n=7))
def test_image_matches_order_sweep(inst):
    _, orders = enumerate_valid_orders(inst)
    swept = set()
    for order in orders:
        report = check_order(inst, order)
        assert report.is_dvop
        swept.add((report.total_nodes, report.double_count))
    assert as_pairs(objective_image(inst)) == swept


@settings(deadline=None)
@given(small_instances())
def test_optima_match_image(inst):
    image = objective_image(inst)
    dbl = brute_optimum(inst, "min-double")
    nod = brute_optimum(inst, "min-nodes")
    if not image:
        assert dbl is None and nod is None
        return
    assert dbl.value == min(p.doubles_obj for p in image)
    assert nod.value == min(p.nodes_obj for p in image)
    assert check_order(inst, dbl.order).double_count == dbl.value
    assert check_order(inst, nod.order).total_nodes == nod.value


@settings(deadline=None)
@given(small_instances())
def test_pareto_front_properties(inst):
    image = objective_image(inst)
    front = pareto_front(image)
    assert set(front) <= image
    for p, q in itertools.combinations(front, 2):
        assert not (p.nodes_obj <= q.nodes_obj and p.doubles_obj <= q.doubles_obj)
        assert not (q.nodes_obj <= p.nodes_obj and q.doubles_obj <= p.doubles_obj)
    for p in image:
        assert any(
            q.nodes_obj <= p.nodes_obj and q.doubles_obj <= p.doubles_obj
            for q in front
        )


STEPS = {
    "min-double": lambda c, future: c + future,
    "min-nodes": lambda c, future: 2 ** c * (1 + future),
}


def sweep_reference(inst):
    """The full subset DP over all 2^n masks that the layered oracle replaced.

    Fills every mask after all of its one-vertex extensions (decreasing
    popcount) and returns the order count, the (nodes, doubles) image and,
    per objective, the optimum with its lexicographically first order, or
    None when no valid order exists.
    """
    full = (1 << inst.n) - 1

    def moves(mask):
        count = mask.bit_count()
        return [
            (v, _cost(inst, mask, count, v))
            for v in range(inst.n)
            if not mask >> v & 1 and _admissible(inst, mask, count, v)
        ]

    ways, pairs = {full: 1}, {full: {(0, 0)}}
    tables = {objective: {full: 0} for objective in STEPS}
    for mask in sorted(range(full), key=int.bit_count, reverse=True):
        succ = [(mask | 1 << v, c) for v, c in moves(mask)]
        ways[mask] = sum(ways[s] for s, _ in succ)
        pairs[mask] = {(2 ** c * (1 + t), c + d) for s, c in succ for t, d in pairs[s]}
        for objective, table in tables.items():
            step = STEPS[objective]
            table[mask] = min((step(c, table[s]) for s, c in succ), default=inf)
    optima = {}
    for objective, table in tables.items():
        optima[objective] = None
        if table[0] == inf:
            continue
        mask, perm = 0, []
        while mask != full:
            v = next(
                v for v, c in moves(mask)
                if STEPS[objective](c, table[mask | 1 << v]) == table[mask]
            )
            perm.append(v)
            mask |= 1 << v
        optima[objective] = (table[0], tuple(perm))
    return ways[0], pairs[0], optima


def assert_matches_sweep_reference(inst):
    count, image, optima = sweep_reference(inst)
    assert enumerate_valid_orders(inst)[0] == count
    assert as_pairs(objective_image(inst)) == image
    for objective, want in optima.items():
        got = brute_optimum(inst, objective)
        assert (got and (got.value, got.order.perm)) == want


def test_layers_match_sweep_on_acceptance_corpus():
    # 42 of the 70 instances are infeasible.
    for inst in acceptance_corpus():
        assert_matches_sweep_reference(inst)


@settings(deadline=None, max_examples=60)
@given(small_instances(max_n=10))
@example(Instance.build(6, 3, G6A_EDGES))  # infeasible
def test_layers_match_sweep_reference(inst):
    assert_matches_sweep_reference(inst)
