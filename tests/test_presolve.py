"""Rank-variable presolve: base/tail fixings, head analysis, soundness.

The fixed sets below were derived by hand from the clique structure of
each instance and confirmed against the full order enumeration.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import small_instances
from ddvop import graph
from ddvop.instgen import gen_random
from ddvop.oracle import enumerate_valid_orders
from ddvop.order import check_order
from ddvop.presolve import (
    DEFAULT_CLIQUE_BUDGET,
    base_fixings,
    full_presolve,
    head_analysis,
    tail_fixings,
)


def test_base_fixings(g6a, g5k3a):
    assert base_fixings(g6a) == (frozenset({0, 1}), frozenset({2}))
    assert base_fixings(g5k3a) == (frozenset({0, 1, 2}), frozenset({3}))


def test_tail_fixings(g6a, k6):
    assert tail_fixings(g6a) == frozenset()
    assert tail_fixings(k6) == frozenset({3, 4, 5})


def test_full_presolve_g5k3a(g5k3a):
    r = full_presolve(g5k3a)
    assert r.fixed_zero == frozenset({0, 1, 2})
    assert r.fixed_one == frozenset({3, 4})
    assert r.cover_inequalities == ()
    assert not r.infeasible and not r.skipped


def test_full_presolve_g5k3b(g5k3b):
    r = full_presolve(g5k3b)
    assert r.fixed_zero == frozenset({0, 1, 2, 4})
    assert r.fixed_one == frozenset({3})
    assert r.cover_inequalities == ()


def test_full_presolve_g6k3(g6k3):
    r = full_presolve(g6k3)
    assert r.fixed_zero == frozenset({0, 1, 2})
    assert r.fixed_one == frozenset({3, 4, 5})
    assert r.cover_inequalities == ()


def test_full_presolve_g6a(g6a):
    r = full_presolve(g6a)
    assert r.fixed_zero == frozenset({0, 1})
    assert r.fixed_one == frozenset({2})
    assert r.cover_inequalities == (frozenset({3, 4, 5}),)


def test_full_presolve_k6(k6):
    r = full_presolve(k6)
    assert r.fixed_zero == frozenset({0, 1, 3, 4, 5})
    assert r.fixed_one == frozenset({2})
    assert r.cover_inequalities == ()


def test_full_presolve_p5(p5_k1, p5_k2):
    r = full_presolve(p5_k1)
    assert r.fixed_zero == frozenset({0})
    assert r.fixed_one == frozenset({1, 2, 3})
    assert full_presolve(p5_k2).infeasible


def test_head_analysis_off(g6a):
    r = full_presolve(g6a, use_head=False)
    assert r.fixed_zero == frozenset({0, 1})
    assert r.fixed_one == frozenset({2})
    assert r.cover_inequalities == ()
    assert not r.skipped


def test_clique_budget_skips(g6a):
    r = full_presolve(g6a, clique_budget=0)
    assert r.skipped
    assert r.fixed_one == frozenset({2})
    assert "head analysis skipped (clique budget)" in r.as_lines()


def test_clique_budget_bounds_enumeration(monkeypatch):
    # This graph has 243765 4-cliques; one past the budget proves it spent.
    inst = gen_random(60, 0.9, 3, 1)
    built = []

    class CountedClique(graph.Clique):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(graph, "Clique", CountedClique)
    assert head_analysis(inst, clique_budget=10).skipped
    assert len(built) <= 11


def test_as_lines(g6a, p5_k2):
    lines = full_presolve(g6a).as_lines()
    assert lines == [
        "fix y[0]=0",
        "fix y[1]=0",
        "fix y[2]=1",
        "cut y[3]+y[4]+y[5]>=1",
    ]
    assert full_presolve(p5_k2).as_lines()[-1] == "infeasible"


def test_satisfied_by(g6a):
    r = full_presolve(g6a)
    assert r.satisfied_by((0, 0, 1, 0, 1, 0))
    assert not r.satisfied_by((1, 0, 1, 0, 1, 0))
    assert not r.satisfied_by((0, 0, 0, 0, 1, 0))
    assert not r.satisfied_by((0, 0, 1, 0, 0, 0))


@settings(deadline=None)
@given(small_instances())
def test_presolve_sound_for_every_valid_order(inst):
    total, walk = enumerate_valid_orders(inst)
    res = full_presolve(inst)
    if total == 0:
        return
    assert not res.infeasible
    for order in walk:
        report = check_order(inst, order)
        assert res.satisfied_by(report.doubles.bits)


@settings(deadline=None)
@given(small_instances())
def test_presolve_infeasible_only_when_unsolvable(inst):
    res = full_presolve(inst)
    if res.infeasible:
        count, _ = enumerate_valid_orders(inst)
        assert count == 0


@settings(deadline=None)
@given(small_instances())
def test_head_analysis_subset_of_full(inst):
    base = full_presolve(inst, use_head=False)
    full = full_presolve(inst)
    if full.infeasible or base.infeasible:
        return
    assert base.fixed_zero <= full.fixed_zero
    assert base.fixed_one <= full.fixed_one
