"""Vertex orders, validity checking, double/node accounting, and greedy search.

A discretization order for dimension K is a total vertex order whose first
K vertices are pairwise adjacent and where every later vertex has at least K
neighbors among its predecessors.  The first K+1 vertices are then forced to
form a clique, and the vertex at rank K always has exactly K adjacent
predecessors.

A vertex at rank r >= K with exactly K adjacent predecessors is a "double":
it doubles the width of the search tree from its rank onward.  Writing
doubles[r] for that indicator, the level widths are

    nodes[r] = 1                               for r < K
    nodes[r] = (doubles[r] + 1) * nodes[r-1]   for r >= K

and the tree size is sum(nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .graph import Clique, Instance, enumerate_cliques

if TYPE_CHECKING:  # solution imports this module
    from .solution import Deadline


@dataclass(frozen=True)
class VertexOrder:
    """A permutation of the vertices, kept in both directions.

    perm[r] is the vertex at rank r (the dual view); inverse[v] is the rank
    of vertex v (the primal view); inverse[perm[r]] = r always.
    """

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for r, v in enumerate(self.perm):
            inv[v] = r
        return tuple(inv)


@dataclass(frozen=True)
class DoublePattern:
    """Rank-indexed double indicators; bits[r] = 1 iff rank r is a double."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("pattern bits must be 0/1")

    def count(self) -> int:
        return sum(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, r: int) -> int:
        return self.bits[r]

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class OrderReport:
    """Validity plus the double/node accounting of one order.

    When is_dvop is False the double and node fields are still computed from
    predecessor counts, but they have no search-tree meaning.
    """

    is_dvop: bool
    doubles: DoublePattern
    double_count: int
    node_counts: tuple[int, ...]
    total_nodes: int


def check_order(inst: Instance, order: VertexOrder) -> OrderReport:
    """Validate an order and compute its double pattern and node counts."""
    if order.n != inst.n:
        raise ValueError(f"order over {order.n} vertices, instance has {inst.n}")
    K = inst.K
    valid = True
    placed = 0
    bits = []
    for r, v in enumerate(order.perm):
        pred = (inst.adj_bits[v] & placed).bit_count()
        if r < K:
            if pred != r:
                valid = False
        elif pred < K:
            valid = False
        bits.append(1 if (r >= K and pred == K) else 0)
        placed |= 1 << v
    node_counts = []
    width = 1
    for r in range(inst.n):
        if r >= K:
            width *= bits[r] + 1
        node_counts.append(width)
    pattern = DoublePattern(tuple(bits))
    return OrderReport(
        is_dvop=valid,
        doubles=pattern,
        double_count=pattern.count(),
        node_counts=tuple(node_counts),
        total_nodes=sum(node_counts),
    )


def greedy_from_clique(
    inst: Instance, clique: Clique
) -> Optional[tuple[VertexOrder, OrderReport]]:
    """Greedy completion from one initial clique (placed in sorted order).

    The unplaced vertex with the most adjacent placed predecessors is
    appended, ties broken by lowest index, until the order completes or
    no vertex has K placed neighbors.  Each vertex keeps its count of
    placed neighbors, and a bucket queue (one vertex bitmask per count)
    yields the next vertex: a placement costs O(deg) count updates, so a
    completion is O(n + m) bucket operations rather than a rescan of
    every vertex per step.
    """
    n, K = inst.n, inst.K
    perm = list(clique.members)
    placed = [False] * n
    for v in perm:
        placed[v] = True
    count = [0] * n
    for v in perm:
        for u in inst.neighbors[v]:
            count[u] += 1
    # buckets[c]: the unplaced vertices with c placed neighbors, as bits.
    buckets = [0] * n
    top = -1
    for v in range(n):
        if not placed[v]:
            c = count[v]
            buckets[c] |= 1 << v
            if c > top:
                top = c
    while len(perm) < n:
        while top >= K and not buckets[top]:
            top -= 1
        if top < K:
            return None
        ties = buckets[top]
        v = (ties & -ties).bit_length() - 1
        buckets[top] = ties ^ (1 << v)
        perm.append(v)
        placed[v] = True
        for u in inst.neighbors[v]:
            if not placed[u]:
                c = count[u]
                count[u] = c + 1
                buckets[c] ^= 1 << u
                buckets[c + 1] |= 1 << u
                if c + 1 > top:
                    top = c + 1
    order = VertexOrder(tuple(perm))
    return order, check_order(inst, order)


def greedy_roots(
    inst: Instance, deadline: Optional[Deadline] = None
) -> tuple[Optional[tuple[VertexOrder, OrderReport]], list[Clique]]:
    """The greedy order, and the initial (K+1)-cliques ranked by greedy.

    One greedy completion per clique, in lexicographic clique order.  The
    order is the completion with the fewest doubles (first clique wins
    ties), or None.  The cliques are sorted by their completion's double
    count, those whose walk dead-ends last; the sort is stable, so ties
    keep the lexicographic clique order.

    The pass stops early in two cases, and then ranks only the cliques
    completed so far.  A completion with 1 double stops it: rank K is a
    double in every order, so no clique can do better, and the first
    such completion is the one the full pass would return.  And the
    deadline (None: no limit) is polled after each completion; once it
    has expired, the best completion so far is returned.  A pass cut by
    the deadline with no completion does not prove infeasibility, so the
    caller must poll the deadline itself before reading None that way.
    """
    best: Optional[tuple[VertexOrder, OrderReport]] = None
    scored = []
    for clique in enumerate_cliques(inst, inst.K + 1):
        got = greedy_from_clique(inst, clique)
        scored.append((got[1].double_count if got else inst.n + 1, clique))
        if got is not None and (best is None or got[1].double_count < best[1].double_count):
            best = got
            if best[1].double_count == 1:
                break
        if deadline is not None and deadline.expired():
            break
    return best, [c for _, c in sorted(scored, key=lambda s: s[0])]


def greedy_dvop(inst: Instance) -> Optional[tuple[VertexOrder, OrderReport]]:
    """Greedy order construction, one attempt per initial (K+1)-clique.

    Appending any appendable vertex preserves completability, so some
    clique completes iff the instance is feasible.  Returns the completed
    order with the fewest doubles (first clique wins ties), or None when
    the instance has no valid order.
    """
    return greedy_roots(inst)[0]


STATUSES = ("OPTIMAL", "INFEASIBLE", "TIMEOUT", "ERROR")


def format_solution(
    status: str,
    order: Optional[VertexOrder] = None,
    report: Optional[OrderReport] = None,
) -> str:
    """Render a solution file.

    Line 's <STATUS> <double_count> <total_nodes>' followed, when an order is
    available, by 'o <v_0> ... <v_{n-1}>' and 'd <y_0> ... <y_{n-1}>'.
    """
    if status not in STATUSES:
        raise ValueError(f"unknown status {status!r}")
    if (order is None) != (report is None):
        raise ValueError("order and report must be given together")
    if report is None:
        lines = [f"s {status} - -"]
    else:
        lines = [f"s {status} {report.double_count} {report.total_nodes}"]
        lines.append("o " + " ".join(str(v) for v in order.perm))
        lines.append("d " + " ".join(str(b) for b in report.doubles))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[str, Optional[VertexOrder], Optional[DoublePattern]]:
    """Inverse of format_solution; validates internal consistency."""
    status = None
    order = None
    pattern = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "s":
            if status is not None:
                raise ValueError("duplicate status line")
            if len(fields) != 4 or fields[1] not in STATUSES:
                raise ValueError(f"malformed status line {line!r}")
            status = fields[1]
        elif fields[0] == "o":
            order = VertexOrder(tuple(int(f) for f in fields[1:]))
        elif fields[0] == "d":
            pattern = DoublePattern(tuple(int(f) for f in fields[1:]))
        else:
            raise ValueError(f"unknown record {fields[0]!r}")
    if status is None:
        raise ValueError("missing status line")
    if (order is None) != (pattern is None):
        raise ValueError("order and double lines must appear together")
    if order is not None and len(pattern) != order.n:
        raise ValueError("double pattern length does not match order")
    return status, order, pattern
