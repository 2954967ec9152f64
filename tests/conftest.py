"""Shared instances and strategies for the test suite.

The two 6-vertex worked examples, the three 5/6-vertex presolve
examples, and a few structured graphs (complete, path, wheel) carry the
frozen expectations; the hypothesis strategy supplies small random
connected instances for property tests.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import assume

from ddvop.graph import DisconnectedGraphError, Instance
from ddvop.order import check_order
from ddvop.witness_decomp import WitnessState

G6A_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (0, 2),
    (0, 5), (3, 5), (1, 3), (1, 5), (2, 5),
]
# 312 valid orders; min-double 1, certified by (0, 1, 2, 4, 5, 3); min-nodes
# 10. Whether this is exactly the paper's second figure is not settled.
G6B_EDGES = [
    (0, 5), (0, 1), (1, 2), (0, 2), (0, 4), (1, 4),
    (1, 3), (0, 3), (2, 4), (2, 5), (1, 5), (3, 5),
]
G5K3_EDGES = [
    (0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3), (3, 4), (1, 4), (2, 4),
]


def complete_edges(n):
    return list(itertools.combinations(range(n), 2))


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


WHEEL6_EDGES = [(0, i) for i in range(1, 6)] + [
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
]


@pytest.fixture
def g6a():
    return Instance.build(6, 2, G6A_EDGES, name="g6a")


@pytest.fixture
def g6b():
    return Instance.build(6, 2, G6B_EDGES, name="g6b")


@pytest.fixture
def g6a_k3():
    return Instance.build(6, 3, G6A_EDGES, name="g6a_k3")


@pytest.fixture
def g5k3a():
    return Instance.build(5, 3, G5K3_EDGES, name="g5k3a")


@pytest.fixture
def g5k3b():
    return Instance.build(5, 3, G5K3_EDGES + [(0, 4)], name="g5k3b")


@pytest.fixture
def g6k3():
    return Instance.build(6, 3, G5K3_EDGES + [(0, 5), (2, 5), (1, 5)], name="g6k3")


@pytest.fixture
def k4():
    return Instance.build(4, 2, complete_edges(4), name="k4")


@pytest.fixture
def k5():
    return Instance.build(5, 2, complete_edges(5), name="k5")


@pytest.fixture
def k6():
    return Instance.build(6, 2, complete_edges(6), name="k6")


@pytest.fixture
def p5_k1():
    return Instance.build(5, 1, path_edges(5), name="p5_k1")


@pytest.fixture
def p5_k2():
    return Instance.build(5, 2, path_edges(5), name="p5_k2")


@pytest.fixture
def wheel6():
    return Instance.build(6, 2, WHEEL6_EDGES, name="wheel6")


@pytest.fixture
def g6b_state():
    """The reference witness state of g6b: clique {0, 1, 3}, one double (4)."""
    clique = (0, 1, 3)
    arcs = [(v, u) for v in clique for u in clique if u != v]
    arcs += [(4, 0), (4, 1), (2, 0), (2, 1), (2, 4), (5, 0), (5, 1), (5, 3)]
    return WitnessState(frozenset(clique), frozenset(arcs), (0, 0, 0, 0, 1, 0))


def assert_timeout_incumbent(inst, sol):
    """A min-double TIMEOUT carries no incumbent, or a valid order whose
    double count is the reported objective."""
    assert sol.status == "TIMEOUT"
    if sol.order is None:
        assert sol.objective is None and sol.doubles is None
    else:
        report = check_order(inst, sol.order)
        assert report.is_dvop
        assert sol.objective == report.double_count
        assert sol.doubles == report.doubles


@st.composite
def small_instances(draw, min_n=4, max_n=8, max_k=3):
    """Random connected instance with n in [min_n, max_n] and K in [1, max_k]."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, min(max_k, n - 2)))
    pairs = complete_edges(n)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, b in zip(pairs, keep) if b]
    try:
        return Instance.build(n, k, edges)
    except DisconnectedGraphError:
        assume(False)
