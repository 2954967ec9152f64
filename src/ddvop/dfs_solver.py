"""Exact closure search over vertex orders, for either objective.

Roots are the (K+1)-cliques; their rank-K vertex is the first double.
After each placement the set is closed: every unplaced vertex with more
than K placed neighbors is placed, until none is left.  Such a vertex
is never a double.  From a closed set every placeable vertex has exactly
K placed neighbors, so the only branch is which one is the next double.
The cost to finish depends on the closed mask alone and is memoized.
min-double: a branch costs 1 + rest, a root 1 + rest.  min-nodes, in
units of the current width w: the double and the g vertices its closure
adds sit at width 2w, so a branch costs 2(1 + g + rest) and a root
K + 2(1 + g + rest).

Proof that closing loses nothing (the feasibility step of Cassioli,
Gunluk, Lavor and Liberti, DAM 2015, carried to both objectives).  In
an optimal order let prefix P hold at least K+1 vertices and let u, at
rank q > |P|, have more than K neighbors in P.  Move u to rank |P|,
where it is no double.  Each vertex it jumps over gains at most a
predecessor, so the order stays valid and no double bit rises; later
vertices keep theirs.  So doubles cannot grow, nor can any width from
rank q on.  A jumped vertex sits at most at its old width, and u at
w(|P|-1) <= w(q), the width of the rank it left: nodes cannot grow.
Repeating for |P| = K+1, K+2, ... gives an optimal order whose every
run of non-doubles is the closure of the set before it; that order is
in the search, and every order the search builds is valid.

The root loop stops at the floor every order pays: rank K is always a
double and every width from rank K on is at least 2, so no order has
fewer than 1 double or fewer than K + 2(n - K) nodes, and a root that
reaches that value is optimal.  stats.cliques_considered counts the
roots searched.

On TIMEOUT the incumbent is the best order over the roots whose search
finished, or none, and lower_bound is that floor.
"""

from __future__ import annotations

import time
from math import inf

from .graph import Instance, iter_cliques
from .order import VertexOrder, check_order
from .solution import OBJECTIVES, Deadline, Solution, SolveStats


def solve(
    inst: Instance, objective: str = "min-double", time_limit: float | None = None
) -> Solution:
    """Exact closure search for either objective."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    stats = SolveStats()
    t0 = time.monotonic()
    try:
        return _closure_search(inst, objective, Deadline(time_limit), stats)
    finally:
        stats.time_ms = (time.monotonic() - t0) * 1000.0


def _close(adj: tuple[int, ...], K: int, mask: int) -> tuple[int, list[int], list[int]]:
    """The closure of mask, the vertices it added in order, and its next doubles."""
    added: list[int] = []
    while True:
        grown = mask
        doubles = []
        for v, nbrs in enumerate(adj):
            if not mask >> v & 1:
                placed = (nbrs & grown).bit_count()
                if placed > K:
                    grown |= 1 << v
                    added.append(v)
                elif placed == K:
                    doubles.append(v)
        if grown == mask:
            return mask, added, doubles
        mask = grown


def _closure_search(
    inst: Instance, objective: str, deadline: Deadline, stats: SolveStats
) -> Solution:
    adj, K = inst.adj_bits, inst.K
    full = (1 << inst.n) - 1
    minimize_nodes = objective == "min-nodes"
    # Closed mask -> (cost to finish, next double); the cost is inf when stuck.
    memo: dict[int, tuple[float, int]] = {full: (0, -1)}

    def branch(mask: int) -> float:
        """Cost of closing mask, whose newest vertex is a double, and finishing."""
        if deadline.expired():
            raise TimeoutError
        stats.choice_points += 1
        nxt, added, doubles = _close(adj, K, mask)
        if nxt not in memo:
            pick = (inf, -1)
            for v in doubles:  # a loop, not a generator: one frame per double
                pick = min(pick, (branch(nxt | 1 << v), v))
            memo[nxt] = pick
        rest = memo[nxt][0]
        return 2 * (1 + len(added) + rest) if minimize_nodes else 1 + rest

    floor = K + 2 * (inst.n - K) if minimize_nodes else 1
    best, root, status = inf, 0, "OPTIMAL"
    try:
        for clique in iter_cliques(inst, K + 1):
            stats.cliques_considered += 1
            mask = sum(1 << v for v in clique.members)
            value = branch(mask) + (K if minimize_nodes else 0)
            if value < best:
                best, root = value, mask
            if best == floor:
                break
    except TimeoutError:
        status = "TIMEOUT"
    if best == inf:
        if status == "OPTIMAL":
            return Solution("INFEASIBLE", None, None, None, stats)
        return Solution(status, None, None, None, stats, floor)
    perm = [v for v in range(inst.n) if root >> v & 1]
    mask, added, _ = _close(adj, K, root)
    perm += added
    while mask != full:
        v = memo[mask][1]
        mask, added, _ = _close(adj, K, mask | 1 << v)
        perm += [v] + added
    order = VertexOrder(tuple(perm))
    report = check_order(inst, order)
    assert report.is_dvop
    assert int(best) == (report.total_nodes if minimize_nodes else report.double_count)
    lower = int(best) if status == "OPTIMAL" else floor
    return Solution(status, int(best), order, report.doubles, stats, lower)
