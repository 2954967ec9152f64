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

Greedy search completes one order per initial (K+1)-clique; root_bound
gives each such root a lower bound on the doubles past rank K of every
order that starts with it, and bound_reaches tests whether the same
lookahead, recursed to depth MAX_DEPTH, lifts that bound to a threshold;
both scan their branches with _branches_reach.  All keep each vertex's
count of placed neighbors, so one completion or one relaxation pass
costs O(n + m).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from .graph import Clique, Instance, iter_cliques
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


def _placed_counts(inst: Instance, members) -> tuple[list[bool], list[int]]:
    """Placed flags for `members`, and every vertex's count of placed neighbors."""
    placed = [False] * inst.n
    count = [0] * inst.n
    for v in members:
        placed[v] = True
        for u in inst.neighbors[v]:
            count[u] += 1
    return placed, count


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
    placed, count = _placed_counts(inst, perm)
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


class _Relaxed:
    """The placed set of root_bound's relaxation, with incremental counts.

    count[u] is u's number of placed neighbors.  ready lists unplaced
    vertices with more than K of them (the closure's work list); level
    holds the unplaced ones with exactly K.  A placement updates the
    counts of its neighbors only, so each vertex is placed once and one
    pass over the whole graph costs O(n + m).
    """

    __slots__ = ("inst", "placed", "count", "left", "ready", "level")

    def __init__(self, inst: Instance, members) -> None:
        K = inst.K
        self.inst = inst
        self.placed, self.count = _placed_counts(inst, members)
        self.left = inst.n - len(members)
        unplaced = [v for v in range(inst.n) if not self.placed[v]]
        self.ready = [v for v in unplaced if self.count[v] > K]
        self.level = {v for v in unplaced if self.count[v] == K}

    def copy(self) -> _Relaxed:
        other = object.__new__(_Relaxed)
        other.inst = self.inst
        other.placed = self.placed[:]
        other.count = self.count[:]
        other.left = self.left
        other.ready = self.ready[:]
        other.level = set(self.level)
        return other

    def place(self, vertices) -> None:
        """Place `vertices` together, then update their neighbors' counts."""
        K, placed, count = self.inst.K, self.placed, self.count
        neighbors, level, ready = self.inst.neighbors, self.level, self.ready
        for v in vertices:
            placed[v] = True
        self.left -= len(vertices)
        for v in vertices:
            for u in neighbors[v]:
                if not placed[u]:
                    c = count[u] + 1
                    count[u] = c
                    if c == K:
                        level.add(u)
                    elif c == K + 1:
                        level.discard(u)
                        ready.append(u)

    def close(self) -> None:
        """Place every vertex with more than K placed neighbors, until none is left."""
        ready, placed = self.ready, self.placed
        while ready:
            v = ready.pop()
            if not placed[v]:
                self.place((v,))

    def stalls(self, limit: float = inf) -> float:
        """Close, then stall (place all of level at once, counting 1), until done.

        Infinite when a stall has nothing to place.  The pass ends early
        once the count reaches `limit`, and then returns `limit`.
        """
        count = 0
        while True:
            self.close()
            if not self.left:
                return count
            if not self.level:
                return inf
            count += 1
            if count >= limit:
                return limit
            batch, self.level = self.level, set()
            self.place(batch)


def root_bound(
    inst: Instance, clique: Clique, deadline: Deadline = Deadline(None)
) -> float:
    """Lower bound on the doubles past rank K of any valid order from `clique`.

    A relaxation of the order with one step of lookahead.  stalls(C)
    alternates two steps from C until every vertex is placed: a closure
    places every vertex with more than K placed neighbors, and a stall
    places every vertex with exactly K and counts 1.  Both steps are
    monotone in the placed set, so by induction, after j stalls the set
    holds the prefix of any valid order from C that ends before its
    (j+1)-th double past rank K: stalls(C) is at most that order's count
    of such doubles (Lavor, Lee, Lee-St. John, Liberti, Mucherino and
    Sviridenko, Optim. Lett. 2012, in counting form).  When a stall has
    nothing to place, C cannot be completed and the bound is infinite.

    The lookahead is bound_reaches' at depth 1, whose docstring holds
    its proof: with R the closure of C, the bound is 0 when R is every
    vertex, and otherwise stalls(R) or 1 + stalls(R), the latter exactly
    when bound_reaches(clique, 1 + stalls(R), 1) says yes: when every
    branch close(R + v) still stalls stalls(R) times.

    Each pass costs O(n + m).  The deadline (by default none) is polled
    before every pass; TimeoutError is raised when it has expired.
    """
    if deadline.expired():
        raise TimeoutError
    closed = _Relaxed(inst, clique.members)
    closed.close()
    if not closed.left:
        return 0
    plain = closed.copy().stalls()
    if plain == inf:
        return inf  # every lookahead term is infinite too, by monotonicity
    return plain + _branches_reach(closed, plain + 1, 1, deadline)


MAX_DEPTH = 3  # the deepest lookahead bound_reaches is asked at


def bound_reaches(
    inst: Instance,
    clique: Clique,
    t: float,
    depth: int = MAX_DEPTH,
    deadline: Deadline = Deadline(None),
) -> bool:
    """Whether the depth-`depth` lookahead bound of `clique` reaches `t`.

    root_bound's relaxation, recursed and asked as a threshold test.  At
    a closed relaxed state R, bound_d(R) is 0 when R holds every vertex;
    otherwise it is the least of 1 + stalls(R) and, for each v with
    exactly K neighbors in R, 1 + bound_{d-1}(close(R + v)); bound_0 is
    stalls(R).  bound_1 of the root's closure is root_bound.

    Soundness extends root_bound's stall count one double further at
    each level.  Let R be closed and hold an order's prefix before its
    i-th double past rank K.  If R is not every vertex, that double
    exists.  Either it lies inside R, and then so does the prefix before
    the next double, since R is closed, so the order has at least
    1 + stalls(R) doubles from the i-th on; or it is a vertex v with
    exactly K neighbors in R (more would put it in R), close(R + v)
    holds the prefix before the next double, and by induction the order
    has at least 1 + bound_{d-1}(close(R + v)) of them.  From the root's
    closure (i = 1) that bounds every order from `clique`.

    By monotonicity stalls(R) - 1 <= stalls(close(R + v)) <= stalls(R),
    so bound_d(R) is stalls(R) or 1 + stalls(R), and a yes at depth d
    stays a yes at depth d + 1.  So the test needs one capped pass per
    state: plain = stalls(R) up to t decides alone unless plain is
    t - 1, and then the answer is yes only if every v reaches t - 1 at
    depth d - 1, which stops at the first no.  A state answers from its
    own pass whenever that pass reaches its threshold, whatever its
    depth, so a shallower ask that says yes makes exactly the passes of
    the MAX_DEPTH ask (the default): one MAX_DEPTH ask answers for every
    depth, in no more passes than asking them in turn.  There is no
    memo.  Each depth multiplies a root's work by at most its exactly-K
    level's size, over the O(n + m) pass.  The deadline (by default
    none) is polled before every pass; TimeoutError is raised when it has
    expired.
    """
    return _reaches(_Relaxed(inst, clique.members), t, depth, deadline)


def _reaches(state: _Relaxed, t: float, depth: int, deadline: Deadline) -> bool:
    """bound_reaches on `state`, which it closes first (and may consume)."""
    if deadline.expired():
        raise TimeoutError
    state.close()
    if not state.left:
        return t <= 0
    plain = (state if depth == 0 else state.copy()).stalls(t)
    if plain >= t:
        return True
    if depth == 0 or 1 + plain < t:
        return False
    return _branches_reach(state, t, depth, deadline)


def _branches_reach(
    state: _Relaxed, t: float, depth: int, deadline: Deadline
) -> bool:
    """Whether close(state + v) reaches t - 1 at depth - 1 for every level v.

    `state` is closed and is left as it was.  Stops at the first no.
    """
    for v in sorted(state.level):
        branch = state.copy()
        branch.level.discard(v)
        branch.place((v,))
        if not _reaches(branch, t - 1, depth - 1, deadline):
            return False
    return True


def greedy_roots(
    inst: Instance, deadline: Deadline = Deadline(None)
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
    deadline (by default none) is polled after each completion; once it
    has expired, the best completion so far is returned.  A pass cut by
    the deadline with no completion does not prove infeasibility, so the
    caller must poll the deadline itself before reading None that way.
    """
    best: Optional[tuple[VertexOrder, OrderReport]] = None
    scored = []
    for clique in iter_cliques(inst, inst.K + 1):
        got = greedy_from_clique(inst, clique)
        scored.append((got[1].double_count if got else inst.n + 1, clique))
        if got is not None and (best is None or got[1].double_count < best[1].double_count):
            best = got
            if best[1].double_count == 1:
                break
        if deadline.expired():
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
    lower_bound: Optional[int] = None,
) -> str:
    """Render a solution file.

    Line 's <STATUS> <double_count> <total_nodes>' followed, when an order is
    available, by 'o <v_0> ... <v_{n-1}>' and 'd <y_0> ... <y_{n-1}>', and,
    when a lower bound is given, by the comment line 'c lower_bound <b>'.
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
    if lower_bound is not None:
        lines.append(f"c lower_bound {lower_bound}")
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
