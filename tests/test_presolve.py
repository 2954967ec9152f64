"""The per-root bound table: its values, exact infeasibility, soundness.

On the fixtures below every bound equals its root's optimum (the fewest
doubles past rank K over the orders from that root), apart from the two
inner roots of p5_k1, where the one-step bound is one short.
"""

import pytest
from hypothesis import given, settings

from conftest import small_instances
from ddvop import graph, presolve
from ddvop.graph import Clique, enumerate_cliques
from ddvop.instgen import gen_random
from ddvop.oracle import brute_optimum, enumerate_valid_orders
from ddvop.order import check_order, root_bound
from ddvop.presolve import full_presolve


def table(result):
    return [(c.members, b) for c, b in result.bounds]


def test_full_presolve_g5k3a(g5k3a):
    r = full_presolve(g5k3a)
    assert table(r) == [((0, 1, 2, 3), 1), ((1, 2, 3, 4), 1)]
    assert not r.infeasible


def test_full_presolve_g5k3b(g5k3b):
    r = full_presolve(g5k3b)
    assert table(r) == [(c.members, 0) for c in enumerate_cliques(g5k3b, 4)]
    assert len(r.bounds) == 5


def test_full_presolve_g6k3(g6k3):
    r = full_presolve(g6k3)
    assert table(r) == [((0, 1, 2, 3), 2), ((0, 1, 2, 5), 2), ((1, 2, 3, 4), 2)]


def test_full_presolve_g6a(g6a):
    r = full_presolve(g6a)
    assert table(r) == [(c.members, 1) for c in enumerate_cliques(g6a, 3)]
    assert len(r.bounds) == 8


def test_full_presolve_k6(k6):
    # The closure of any triangle is every vertex.
    r = full_presolve(k6)
    assert table(r) == [(c.members, 0) for c in enumerate_cliques(k6, 3)]
    assert len(r.bounds) == 20


def test_full_presolve_p5(p5_k1, p5_k2):
    r = full_presolve(p5_k1)
    assert table(r) == [((0, 1), 3), ((1, 2), 2), ((2, 3), 2), ((3, 4), 3)]
    assert not r.infeasible
    r = full_presolve(p5_k2)
    assert r.bounds == () and r.infeasible


def test_as_lines(g6a, p5_k2, g6a_k3):
    assert full_presolve(g6a).as_lines() == [
        "root 0 1 2 bound 1",
        "root 0 1 5 bound 1",
        "root 0 2 5 bound 1",
        "root 1 2 3 bound 1",
        "root 1 2 5 bound 1",
        "root 1 3 5 bound 1",
        "root 2 3 4 bound 1",
        "root 2 3 5 bound 1",
        "lower_bound 2",
    ]
    assert full_presolve(p5_k2).as_lines() == ["infeasible"]
    # Roots that exist but cannot be completed.
    lines = full_presolve(g6a_k3).as_lines()
    assert lines[-1] == "infeasible"
    assert len(lines) > 1 and all(line.endswith(" bound inf") for line in lines[:-1])


def test_clique_budget_bounds_enumeration(monkeypatch, g6a):
    monkeypatch.setattr(presolve, "MAX_ROOTS", 8)
    assert len(full_presolve(g6a).bounds) == 8
    monkeypatch.setattr(presolve, "MAX_ROOTS", 7)
    with pytest.raises(ValueError, match="more than 7 initial 3-cliques"):
        full_presolve(g6a)

    # This graph has 243765 4-cliques; one past the budget proves it spent.
    inst = gen_random(60, 0.9, 3, 1)
    built = []

    class CountedClique(graph.Clique):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(graph, "Clique", CountedClique)
    monkeypatch.setattr(presolve, "MAX_ROOTS", 10)
    with pytest.raises(ValueError):
        full_presolve(inst)
    assert len(built) == 11


@settings(deadline=None)
@given(small_instances())
def test_bounds_are_root_bounds(inst):
    roots = enumerate_cliques(inst, inst.K + 1)
    assert full_presolve(inst).bounds == tuple((c, root_bound(inst, c)) for c in roots)


@settings(deadline=None)
@given(small_instances())
def test_presolve_infeasible_only_when_unsolvable(inst):
    # Exact both ways: infeasible iff the oracle finds no valid order.
    assert full_presolve(inst).infeasible == (brute_optimum(inst) is None)


@settings(deadline=None)
@given(small_instances())
def test_presolve_sound_for_every_valid_order(inst):
    bounds = dict(full_presolve(inst).bounds)
    _, walk = enumerate_valid_orders(inst)
    for order in walk:
        root = Clique(tuple(sorted(order.perm[: inst.K + 1])))
        assert check_order(inst, order).double_count - 1 >= bounds[root]
