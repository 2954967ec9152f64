"""Instance parsing, validation, and clique enumeration."""

import itertools
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import G6A_EDGES, complete_edges, path_edges, small_instances
from ddvop.graph import (
    BadDimensionError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    Instance,
    MalformedHeaderError,
    SelfLoopError,
    VertexRangeError,
    enumerate_cliques,
    extendable_k_cliques,
    parse_instance,
    render_instance,
)

G6A_TEXT = "p dvop 6 11 2\n" + "".join(
    f"e {u} {v}\n" for u, v in sorted((min(e), max(e)) for e in G6A_EDGES)
)


def test_parse_g6a():
    inst = parse_instance(G6A_TEXT)
    assert inst.n == 6 and inst.K == 2 and inst.m == 11
    assert inst.degree(4) == 2
    assert inst.neighbors[4] == frozenset({2, 3})


def test_parse_complete_k4():
    text = "p dvop 4 6 2\n" + "".join(f"e {u} {v}\n" for u, v in complete_edges(4))
    inst = parse_instance(text)
    assert inst.m == 6
    assert all(inst.degree(v) == 3 for v in range(4))


def test_parse_comments_and_name():
    inst = parse_instance("c generator test\nc seed 9\n" + G6A_TEXT, name="x")
    assert inst.name == "x"
    assert inst == parse_instance(G6A_TEXT)


@pytest.mark.parametrize(
    "text,err",
    [
        ("p dvop 6 11\n", MalformedHeaderError),
        ("e 0 1\np dvop 2 1 1\n", MalformedHeaderError),
        ("p dvop 3 2 1\ne 0 1\ne 1 3\n", VertexRangeError),
        ("p dvop 3 2 1\ne 0 1\ne 0 1\n", DuplicateEdgeError),
        ("p dvop 6 1 2\ne 5 5\n", SelfLoopError),
        ("p dvop 4 2 1\ne 0 1\ne 2 3\n", DisconnectedGraphError),
        ("p dvop 3 2 0\ne 0 1\ne 1 2\n", BadDimensionError),
        ("p dvop 3 2 3\ne 0 1\ne 1 2\n", BadDimensionError),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse_instance(text)


def test_tiny_header_with_huge_n_rejected():
    # A connected graph needs n - 1 edges; the header's edge count says
    # there are none, so nothing sized by n may be built.
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError, match="^line 1: 0 edges"):
            parse_instance("p dvop 100000000 0 1\n")
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_render_round_trip(g6a):
    assert parse_instance(render_instance(g6a)) == g6a
    text = render_instance(g6a, comments=["generator test"])
    assert text.startswith("c generator test\n")
    assert parse_instance(text) == g6a


def test_adjacency_invariants(g6a):
    assert sum(g6a.degree(v) for v in range(6)) == 2 * g6a.m


def test_enumerate_cliques_g6a(g6a):
    tri = [tuple(c.members) for c in enumerate_cliques(g6a, 3)]
    assert (0, 1, 2) in tri and (1, 3, 5) in tri
    assert tri == sorted(tri)
    assert enumerate_cliques(g6a, 5) == []


def test_enumerate_cliques_complete(k4):
    assert len(enumerate_cliques(k4, 3)) == 4
    assert len(enumerate_cliques(k4, 4)) == 1


def test_extendable_k_cliques(g6a, p5_k2):
    ext = extendable_k_cliques(g6a)
    for c in ext:
        assert len(c.members) == 2
        assert any(
            set(c.members) < set(t.members) for t in enumerate_cliques(g6a, 3)
        )
    assert extendable_k_cliques(p5_k2) == []


@given(small_instances())
def test_round_trip_property(inst):
    assert parse_instance(render_instance(inst)) == inst
    assert sum(inst.degree(v) for v in range(inst.n)) == 2 * inst.m


@given(small_instances(max_n=7))
def test_cliques_match_brute_force(inst):
    for size in range(1, inst.n + 1):
        got = [tuple(c.members) for c in enumerate_cliques(inst, size)]
        want = [
            c
            for c in itertools.combinations(range(inst.n), size)
            if all(inst.has_edge(u, v) for u, v in itertools.combinations(c, 2))
        ]
        assert got == want


def test_instance_equality_ignores_name():
    a = Instance.build(3, 1, path_edges(3), name="a")
    b = Instance.build(3, 1, path_edges(3), name="b")
    assert a == b
