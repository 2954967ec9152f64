"""Pattern-first decomposition for the minimum-double objective.

A master problem picks a double pattern over ranks (minimizing the
number of doubles, lexicographically smallest among optima) and a
subproblem searches for an order realizing it: the rank-r vertex needs
at least K adjacent predecessors where the pattern allows a double and
at least K+1 where it does not.  When the subproblem fails, a deletion
filter extracts a minimal set of strict ranks that cannot all stay
double-free, and the resulting cover cut is returned to the master;
every cut the master sees is such a cover.  The failed subproblem names
the strict ranks that blocked it, which already form a cover, so the
filter scans only those (logic-based Benders: the proof of
infeasibility gives the cut).
The master starts from the base fixings alone (no double below rank K,
one at rank K).  Once the first subproblem fails, the least root bound
over the initial cliques starts the master's deepening: no pattern with
fewer free doubles can be realized.  That is root_bound's one-step least
(the least of the bounds `ddvop presolve` prints), raised by one when
the depth-3 lookahead (order.bound_reaches) lifts every root at it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf
from typing import Sequence

from .graph import Instance, iter_cliques
from .order import (
    DoublePattern,
    VertexOrder,
    bound_reaches,
    check_order,
    greedy_roots,
    root_bound,
)
from .solution import Deadline, Solution, SolveStats


@dataclass(frozen=True)
class BendersCut:
    """Cover cut: at least one rank in `ranks` must hold a double."""

    ranks: frozenset[int]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("cover cut over an empty rank set")

    def satisfied_by(self, bits: Sequence[int]) -> bool:
        return any(bits[r] for r in self.ranks)


def mp1_solve(
    n: int,
    K: int,
    cuts: Sequence[BendersCut],
    deadline: Deadline = Deadline(None),
    start: int = 0,
) -> DoublePattern | None:
    """Minimum-cardinality pattern honoring the base fixings and the cuts.

    Ranks below K are never doubles and rank K always is one; ranks
    K+1..n-1 are free.  Iterative deepening over the number of free
    doubles, from `start` (a count every pattern is known to need) up,
    scanning ranks in ascending order and trying 0 before 1, returns the
    lexicographically smallest optimum.  Absent when no pattern
    satisfies every cut.
    """
    bits = [0] * n
    bits[K] = 1
    covers = [c.ranks for c in cuts]
    free = range(K + 1, n)
    if any(max(c) < K for c in covers):
        return None  # every rank of the cover is fixed to 0
    covers_by_last = {}
    for c in covers:
        covers_by_last.setdefault(max(c), []).append(c)

    def dfs(idx: int, remaining: int) -> tuple[int, ...] | None:
        if deadline.expired():
            raise TimeoutError
        if remaining > len(free) - idx:
            return None  # too few ranks left to place them
        if idx == len(free):
            if remaining != 0:
                return None
            return tuple(bits)
        r = free[idx]
        for value in (0, 1):
            if value == 1 and remaining == 0:
                continue
            bits[r] = value
            if not any(
                all(bits[q] == 0 for q in c) for c in covers_by_last.get(r, ())
            ):
                got = dfs(idx + 1, remaining - value)
                if got is not None:
                    bits[r] = 0
                    return got
            bits[r] = 0
        return None

    for extra in range(start, len(free) + 1):
        got = dfs(0, extra)
        if got is not None:
            return DoublePattern(got)
    return None


def sp1_solve(
    inst: Instance,
    pattern: DoublePattern,
    deadline: Deadline = Deadline(None),
    stats: SolveStats | None = None,
    dead: list[set[int]] | None = None,
    blocked: set[int] | None = None,
) -> VertexOrder | None:
    """Find an order whose rank-r vertex meets the pattern's threshold.

    Ranks below K demand adjacency to everything placed; rank r >= K
    demands at least K adjacent predecessors when pattern[r] = 1 and at
    least K+1 otherwise.  The initial clique is kept ascending to break
    its symmetry (thresholds are invariant under permuting it).

    `dead[p]` holds placed masks of popcount p known to admit no
    completion.  The search state is the mask alone: the next rank is
    its popcount p, every later threshold comes from pattern[p..n-1],
    and the symmetry break reads the last vertex placed, which up to
    rank K is the mask's highest.  So a mask's verdict depends only on
    the ranks from p up, and a dead mask stays dead under any pattern at
    least as strict there.  A caller may pass `dead` (one set per rank
    0..n-1) to carry verdicts between calls; otherwise the call keeps
    its own.  A node walks the unplaced vertices as the bits of the
    free mask and tries them by most adjacent predecessors, then lowest
    vertex; `stats.choice_points` gains one per placement, on a TIMEOUT
    too.

    `blocked`, if given, gains every strict rank r > K at which a node
    was proved dead while some unplaced vertex had exactly K placed
    neighbours.  Relaxing any other strict rank adds no candidate at any
    node of the search, so when the call fails and every memo hit came
    from the call itself (`dead` not given), the pattern strict only on
    `blocked` fails the same way: the set is a cover.
    """
    n, K = inst.n, inst.K
    adj = inst.adj_bits
    bits = pattern.bits
    if len(bits) != n:
        raise ValueError("pattern length must equal n")
    if bits[K] != 1:
        # Rank K always has exactly K adjacent predecessors, so the
        # double-free threshold K+1 can never be met there.
        return None
    if dead is None:
        dead = [set() for _ in range(n)]
    need = [r if r <= K else K + 1 - bits[r] for r in range(n)]
    full = (1 << n) - 1
    expired = deadline.expired
    perm: list[int] = []
    nodes = 0

    def rec(mask: int) -> bool:
        nonlocal nodes
        if expired():
            raise TimeoutError
        r = len(perm)
        if r == n:
            return True
        if mask in dead[r]:
            return False
        # Up to rank K no vertex has more than r placed neighbours, so
        # need[r] asks a clique; only vertices past the last one are tried.
        rest = ~mask & (full if r == 0 or r > K else full & -(2 << perm[-1]))
        least = need[r]
        cands: list[tuple[int, int]] = []
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            pred = (adj[v] & mask).bit_count()
            if pred >= least:
                cands.append((-pred, v))
        cands.sort()
        for _, v in cands:
            nodes += 1
            perm.append(v)
            if rec(mask | 1 << v):
                return True
            perm.pop()
        dead[r].add(mask)
        if blocked is not None and least > K and r not in blocked:
            rest = ~mask & full
            while rest:
                low = rest & -rest
                rest ^= low
                if (adj[low.bit_length() - 1] & mask).bit_count() == K:
                    blocked.add(r)
                    break
        return False

    try:
        found = rec(0)
    finally:
        if stats is not None:
            stats.choice_points += nodes
    return VertexOrder(tuple(perm)) if found else None


def find_iis(
    inst: Instance,
    pattern: DoublePattern,
    deadline: Deadline = Deadline(None),
    stats: SolveStats | None = None,
    cover: set[int] | None = None,
) -> BendersCut | None:
    """Minimal strict-rank set whose thresholds cannot all hold.

    `cover` is a set of the pattern's strict ranks above K whose
    thresholds alone cannot all hold, such as the `blocked` set of a
    failed sp1_solve call on the pattern; when absent, the pattern's own
    test records it, and a feasible pattern raises ValueError.
    Deletion filter: scan the cover's ranks in decreasing order,
    tentatively relaxing each to the double threshold; ranks whose
    relaxation leaves the subproblem infeasible are discarded.  Every
    survivor is necessary, so at least one of them must be a double in
    any feasible pattern.  When none survives, the all-double pattern is
    infeasible: the instance has no valid order at all, no cut exists,
    and None is returned; an empty cover says so before any test.

    The scan's tests share one memo (see `sp1_solve`).  A mask's verdict
    depends only on the ranks from its popcount up, and once rank r has
    been tested every rank >= r is final or, when r survives, stricter
    than in that test.  So the buckets of popcount >= r stay sound for
    the rest of the scan, and those below r are cleared, since later
    tests may relax their ranks.
    """
    n, K = inst.n, inst.K
    bits = pattern.bits
    if any(bits[r] for r in range(K)) or bits[K] != 1:
        raise ValueError("pattern must respect the base fixings")
    if cover is None:
        cover = set()
        if sp1_solve(inst, pattern, deadline, stats, blocked=cover) is not None:
            raise ValueError("pattern is feasible; no infeasible subsystem exists")
    survivors = set(cover)
    dead: list[set[int]] = [set() for _ in range(n)]
    for r in sorted(cover, reverse=True):
        strict = survivors - {r}
        test = tuple(0 if (q < K or q in strict) else 1 for q in range(n))
        if sp1_solve(inst, DoublePattern(test), deadline, stats, dead) is None:
            survivors.discard(r)
        for p in range(r):
            dead[p].clear()
    return BendersCut(frozenset(survivors)) if survivors else None


@dataclass
class NaiveTrace:
    """Optional audit log: every cut paired with the pattern that spawned it."""

    cuts: list[tuple[BendersCut, DoublePattern]] = field(default_factory=list)


def deepening_start(inst: Instance, deadline: Deadline = Deadline(None)) -> int:
    """The least lifted root bound over the initial cliques, for mp1_solve.

    Read once the pattern with no free double has failed: then no root
    has bound 0, since its closure would be an order meeting that
    pattern, and the first cut already makes every pattern take a free
    double.  Each root_bound is lifted to 2, so a root left at 1 by the
    depth-MAX_DEPTH lookahead ends the scan: no other root can beat it.
    After the scan, the roots at the least bound are asked whether the
    same lookahead (order.bound_reaches) lifts them to one more; the
    least rises only when every one of them is lifted.  Every valid
    order starts with some root, so the least bound is a count of free
    doubles every order needs.
    With no completable root it is 0: infeasibility stays for the master
    and the IIS filter to prove.  Both bounds poll the deadline.
    """
    least, ties = inf, []
    for clique in iter_cliques(inst, inst.K + 1):
        bound = root_bound(inst, clique, deadline, lift_to=2)
        if bound == 1:
            return 1
        if bound < least:
            least, ties = bound, []
        if bound == least:
            ties.append(clique)
    if least == inf:
        return 0
    if all(
        bound_reaches(inst, clique, least + 1, deadline=deadline) for clique in ties
    ):
        return least + 1
    return least


def solve_naive(
    inst: Instance,
    time_limit: float | None = None,
    trace: NaiveTrace | None = None,
) -> Solution:
    """Master-subproblem loop for the minimum-double objective.

    After the first subproblem fails, deepening_start gives the master
    a count of free doubles to start its deepening at, from the roots'
    one-step bounds and, at the least of them, the deeper test.
    lower_bound is the larger of the last master pattern's double count
    (every cut and the start hold for every valid order) and one more
    than the start.
    Each iteration's subproblem runs on a fresh memo and records the
    strict ranks that blocked it; when it fails, find_iis scans only
    those, without searching the pattern again.
    """
    stats = SolveStats()
    t0 = time.monotonic()
    deadline = Deadline(time_limit)
    lower = 1
    try:
        cuts: list[BendersCut] = []
        start = 0
        while True:
            pattern = mp1_solve(inst.n, inst.K, cuts, deadline, start)
            stats.iterations += 1
            if pattern is None:
                return Solution("INFEASIBLE", None, None, None, stats)
            lower = max(lower, pattern.count())
            blocked: set[int] = set()
            order = sp1_solve(inst, pattern, deadline, stats, blocked=blocked)
            if order is not None:
                report = check_order(inst, order)
                assert report.is_dvop
                assert report.double_count == pattern.count()
                return Solution(
                    "OPTIMAL", pattern.count(), order, report.doubles, stats, lower
                )
            if stats.iterations == 1:
                start = deepening_start(inst, deadline)
                lower = max(lower, 1 + start)
            t_iis = time.monotonic()
            try:
                cut = find_iis(inst, pattern, deadline, stats, blocked)
            finally:
                stats.iis_time_ms += (time.monotonic() - t_iis) * 1000.0
            if cut is None:
                return Solution("INFEASIBLE", None, None, None, stats)
            cuts.append(cut)
            if trace is not None:
                trace.cuts.append((cuts[-1], pattern))
            stats.cuts += 1
    except TimeoutError:
        # The greedy order is the incumbent; it is built only here, since
        # on dense graphs one greedy pass can cost more than a whole solve.
        # It polls a deadline of its own, half the limit, so the TIMEOUT
        # returns within about 1.5 times the limit.
        warm, _ = greedy_roots(inst, Deadline(time_limit / 2))
        if warm is None:
            return Solution("TIMEOUT", None, None, None, stats, lower)
        order, report = warm
        return Solution(
            "TIMEOUT", report.double_count, order, report.doubles, stats, lower
        )
    finally:
        stats.time_ms = (time.monotonic() - t0) * 1000.0
