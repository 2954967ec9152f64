"""Witness-based decomposition for the minimum-double objective.

The master picks an initial clique and, for every other vertex, a
witness set: K+1 adjacent predecessors-to-be for a regular vertex, K
for a double.  Clique vertices are witnessed exactly by the rest of the
clique, every neighbor of a clique vertex must use it as a witness, and
the number of doubles is the number of K-sized witness sets (plus the
one double the clique itself always forces).  The subproblem orders the
witness digraph topologically.  A directed cycle among non-clique
vertices would refute the assignment; its cycle-breaking inequality
counts only arcs whose tail is outside the clique, so it needs no lift
(CycleCut gives the three cases).  Master and subproblem run as one
branch-and-check search (Thorsteinsson, CP 2001), and the master
enforces the cycle-breaking inequalities lazily, at the node where one
binds: a witness set whose arcs would close a cycle is refused when it
is chosen, so every complete leaf is acyclic and the subproblem only
orders it.  The extended validator checks an accepted (clique,
witnesses, doubles, order) against the full one-shot constraint set.
One greedy pass decides feasibility and gives the master its strict
cutoff and its ranked roots; a greedy order with the 1 double every
order has needs no master at all.  Before the master, every root gets
its root_bound (the value `ddvop presolve` prints), each root one below
the cutoff is asked whether the depth-3 lookahead (order.bound_reaches)
reaches it, and the master skips a root whose bound reaches the cutoff:
no order from it can beat the incumbent.  The 2-cycle inequalities (two
neighbors witness each other only inside the clique) act as a domain
filter: a vertex draws its witnesses only from its free neighbors,
those not already using it, so every refused cycle has three or more
vertices.  The master branches on the unassigned vertex with the fewest
free neighbors.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graph import Clique, Instance
from .order import VertexOrder, bound_reaches, check_order, greedy_roots, root_bound
from .solution import Deadline, Solution, SolveStats

Arc = tuple[int, int]


@dataclass(frozen=True)
class WitnessState:
    """A master solution: clique membership, witness arcs, double bits.

    An arc (v, u) means u witnesses v (u will precede v in any order
    realizing the state).  doubles is indexed by vertex.
    """

    clique: frozenset[int]
    witness_arcs: frozenset[Arc]
    doubles: tuple[int, ...]

    @property
    def y_sum(self) -> int:
        return sum(self.doubles)


@dataclass(frozen=True)
class CycleCut:
    """Cycle-breaking inequality over the witness arcs of a simple cycle.

    A state satisfies it when at most |cycle| - 1 of the cycle's arcs it
    holds have their tail (the witnessed vertex) outside its clique.  No
    lift is needed.  A cycle inside the clique, where witnesses are
    mutual by design, counts no arc.  One that meets the clique and
    leaves it has an arc with a clique tail, which the master never
    chooses, so it counts at most |cycle| - 1.  Only a cycle that avoids
    the clique can bind, and no valid order holds all its arcs.
    """

    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        arcs = tuple(self.arcs)
        object.__setattr__(self, "arcs", arcs)
        succ = dict(arcs)
        if not arcs or len(succ) != len(arcs):
            raise ValueError("not a simple cycle")
        v = arcs[0][0]
        for _ in arcs:
            if v not in succ:
                raise ValueError("arcs do not close a single cycle")
            v = succ.pop(v)
        if v != arcs[0][0]:
            raise ValueError("arcs do not close a single cycle")

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.arcs)

    def satisfied_by(self, state: WitnessState) -> bool:
        lhs = sum(
            1 for a in self.arcs if a in state.witness_arcs and a[0] not in state.clique
        )
        return lhs <= len(self.arcs) - 1


def state_violations(inst: Instance, state: WitnessState) -> list[str]:
    """All invariant violations of a witness state (empty list = valid)."""
    n, K = inst.n, inst.K
    out: list[str] = []
    if len(state.doubles) != n:
        return [f"doubles length {len(state.doubles)} != n"]
    if any(b not in (0, 1) for b in state.doubles):
        out.append("doubles not binary")
    if len(state.clique) != K + 1:
        out.append(f"clique size {len(state.clique)} != K+1")
    for u, v in itertools.combinations(sorted(state.clique), 2):
        if (u, v) not in inst.edges:
            out.append(f"clique pair {u},{v} not adjacent")
    for v, u in state.witness_arcs:
        if tuple(sorted((v, u))) not in inst.edges:
            out.append(f"witness arc ({v},{u}) not an edge")
    for v in sorted(state.clique):
        for u in sorted(inst.neighbors[v]):
            if (u, v) not in state.witness_arcs:
                out.append(f"neighbor {u} of clique vertex {v} does not use it")
    outdeg = [0] * n
    for v, _ in state.witness_arcs:
        outdeg[v] += 1
    for v in range(n):
        kappa = 1 if v in state.clique else 0
        want = (K + 1) * (1 - kappa) - state.doubles[v] + K * kappa
        if outdeg[v] != want:
            out.append(f"vertex {v} has {outdeg[v]} witnesses, wants {want}")
    for v in sorted(state.clique):
        if state.doubles[v] != 0:
            out.append(f"clique vertex {v} marked double")
    return out


def _witness_succ(inst: Instance, state: WitnessState) -> dict[int, list[int]]:
    """Witness digraph restricted to non-clique vertices, arcs v -> u."""
    succ: dict[int, list[int]] = {
        v: [] for v in range(inst.n) if v not in state.clique
    }
    for v, u in sorted(state.witness_arcs):
        if v not in state.clique and u not in state.clique:
            succ[v].append(u)
    return succ


def sp2_check(inst: Instance, state: WitnessState) -> Optional[VertexOrder]:
    """Topologically order the witness digraph; None when it has a cycle.

    Witness arcs demand the witness first, but only between non-clique
    pairs; the clique occupies the first K+1 ranks (sorted by index) and
    the rest follow in topological order with ties broken by index.  The
    state itself is not checked: the master builds only valid, acyclic
    states, and ef_validate is the full check of an accepted one.
    """
    succ_w = _witness_succ(inst, state)
    # Precedence arcs run opposite to witness arcs: u before v when v uses u.
    indeg = {v: len(succ_w[v]) for v in succ_w}
    users: dict[int, list[int]] = {v: [] for v in succ_w}
    for v, targets in succ_w.items():
        for u in targets:
            users[u].append(v)
    heap = [v for v in succ_w if indeg[v] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        topo.append(u)
        for v in users[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(topo) < len(succ_w):
        return None
    return VertexOrder(tuple(sorted(state.clique)) + tuple(topo))


@dataclass
class WitnessTrace:
    """Optional audit log of the master search.

    cuts: every cycle the master refused, as a CycleCut with the partial
    state that would have held it.
    accepted: the one (state, order) the solve returns as OPTIMAL.
    """

    cuts: list[tuple[CycleCut, WitnessState]] = field(default_factory=list)
    accepted: list[tuple[WitnessState, VertexOrder]] = field(default_factory=list)


def mp2_solve(
    inst: Instance,
    roots: Sequence[Clique],
    cutoff: int,
    stats: Optional[SolveStats] = None,
    deadline: Deadline = Deadline(None),
    trace: Optional[WitnessTrace] = None,
    bounds: Optional[Sequence[float]] = None,
) -> Optional[tuple[WitnessState, VertexOrder]]:
    """Best acyclic witness state below `cutoff` doubles, with its order.

    One branch-and-check search.  Outer enumeration of the initial
    cliques `roots`, in the order given (solve_witness ranks them with
    greedy_roots), inner DFS over witness sets per non-clique vertex.
    The next vertex to branch on is the unassigned one with the fewest
    free neighbors (ties: lowest index).  A vertex's free neighbors are
    its clique neighbors, which it must use, and its non-clique
    neighbors not already using it as a witness; its witness set is
    drawn from them only, so no 2-cycle among non-clique vertices can
    form.  Non-double choices (K+1-sets) come before double ones
    (K-sets), each lexicographically.  `cutoff` counts y only, not the
    +1 constant, and is strict.

    A choice that closes a cycle is refused before it is made: the
    chosen witness arcs are walked breadth first from v's new non-clique
    witnesses, and reaching v means the set would complete a cycle of
    three or more arcs, all with tails outside the clique.  That is the
    cycle-breaking inequality (CycleCut) enforced at the node where its
    last arc is chosen, so every leaf is acyclic and sp2_check only
    orders it; the leaf becomes the incumbent and lowers the cutoff to
    its count.  Each refusal counts in stats.cuts; with a trace it is
    logged in trace.cuts as a CycleCut (a shortest closing cycle) with
    the partial state that would have held it (the arcs chosen so far
    and the closing set).

    A root is skipped when its `bounds` entry (a lower bound on its
    doubles past rank K, aligned with `roots`; None: no root bound)
    reaches the cutoff.  Branches are pruned by the forced-double bound:
    an unassigned vertex with exactly K free neighbors must be a double,
    and one with fewer can take no witness set.  The deadline is polled
    at every root and every node.  Absent when every state is pruned.
    """
    n, K = inst.n, inst.K
    best: Optional[tuple[WitnessState, VertexOrder]] = None
    adj = [sorted(inst.neighbors[v]) for v in range(n)]

    for i, cl in enumerate(roots):
        if deadline.expired():
            raise TimeoutError
        if stats is not None:
            stats.cliques_considered += 1
        if bounds is not None and bounds[i] >= cutoff:
            continue
        members = frozenset(cl.members)
        clique_arcs = [
            (v, u) for v in cl.members for u in cl.members if u != v
        ]
        rest = [v for v in range(n) if v not in members]
        # free[w]: neighbors of w not using w as a witness; forced and
        # dead count the unassigned vertices with free == K and < K.
        free = [len(adj[v]) for v in range(n)]
        forced = sum(1 for v in rest if free[v] == K)
        dead = sum(1 for v in rest if free[v] < K)
        if dead or forced >= cutoff:
            continue
        unassigned = [v not in members for v in range(n)]
        # wit[v], ys[v]: the witness set and double bit v took; clique
        # vertices keep (), so the walk stops at them.
        wit: list[tuple[int, ...]] = [()] * n
        ys = [0] * n

        def state() -> WitnessState:
            arcs = list(clique_arcs)
            for v in rest:
                arcs.extend((v, u) for u in wit[v])
            return WitnessState(members, frozenset(arcs), tuple(ys))

        def closing(v: int, extra: tuple[int, ...]) -> Optional[list[int]]:
            """The cycle v, u, ..., x that witnessing v by extra closes."""
            # parent[u]: the vertex whose witness u was first reached as.
            parent = dict.fromkeys(extra, v)
            queue = list(extra)
            for x in queue:  # the list grows as it is read
                for u in wit[x]:
                    if u == v:
                        cycle = [x]
                        while parent[cycle[-1]] != v:
                            cycle.append(parent[cycle[-1]])
                        cycle.append(v)
                        return cycle[::-1]
                    if u not in parent:
                        parent[u] = x
                        queue.append(u)
            return None

        def rec(depth: int, ycount: int) -> None:
            nonlocal forced, dead, best, cutoff
            if deadline.expired():
                raise TimeoutError
            if ycount + forced >= cutoff:
                return
            if depth == len(rest):
                leaf = state()
                order = sp2_check(inst, leaf)
                assert order is not None, "a cycle closed unrefused"
                best, cutoff = (leaf, order), ycount
                return
            # Every unassigned vertex has free >= K here (dead == 0), so
            # the first one with exactly K ends the scan.
            v, least = -1, n
            for w in rest:
                if unassigned[w] and free[w] < least:
                    v, least = w, free[w]
                    if least == K:
                        break
            # v leaves the unassigned vertices while it takes a set.
            unassigned[v] = False
            own = least == K
            forced -= own
            must = tuple(u for u in adj[v] if u in members)
            pool = [u for u in adj[v] if u not in members and v not in wit[u]]
            for y in (0, 1):
                need = K + 1 - y - len(must)
                if need < 0:
                    continue
                for extra in itertools.combinations(pool, need):
                    if ycount + y + forced >= cutoff:
                        break
                    if stats is not None:
                        stats.choice_points += 1
                    wset = must + extra
                    cycle = closing(v, extra)
                    if cycle is not None:
                        if stats is not None:
                            stats.cuts += 1
                        if trace is not None:
                            wit[v], ys[v] = wset, y
                            cut = CycleCut(tuple(zip(cycle, cycle[1:] + cycle[:1])))
                            trace.cuts.append((cut, state()))
                            wit[v], ys[v] = (), 0
                        continue
                    for u in wset:
                        if unassigned[u]:
                            free[u] -= 1
                            if free[u] == K:
                                forced += 1
                            elif free[u] == K - 1:
                                forced -= 1
                                dead += 1
                    if not dead:
                        wit[v], ys[v] = wset, y
                        rec(depth + 1, ycount + y)
                        wit[v], ys[v] = (), 0
                    for u in wset:
                        if unassigned[u]:
                            free[u] += 1
                            if free[u] == K + 1:
                                forced -= 1
                            elif free[u] == K:
                                forced += 1
                                dead -= 1
            unassigned[v] = True
            forced += own

        rec(0, 0)
    return best


def solve_witness(
    inst: Instance,
    time_limit: float | None = None,
    trace: WitnessTrace | None = None,
) -> Solution:
    """Greedy warm start, then one branch-and-check master search.

    The greedy warm start decides feasibility, so an infeasible instance
    returns INFEASIBLE with no master search (iterations 0).  A greedy
    order with 1 double is optimal, since every order has its rank-K
    double; it returns OPTIMAL with no master search either (iterations
    0): a master with cutoff 0 can find nothing.  Otherwise mp2_solve
    looks for a state with fewer doubles than the greedy order;
    stats.cuts counts the cycles it refused.  When it finds none, the
    greedy order is optimal and its induced state is the accepted one.
    ef_validate checks the accepted state in full.  A completed
    search sets iterations to 1, even when the root bounds skip every
    root.  The root bounds are root_bound's one-step values; a root one
    below the cutoff gets the cutoff itself when the depth-3 lookahead
    reaches it (order.bound_reaches).  No other root can be lifted to
    the cutoff, and the master reads no bound above it.  The greedy pass
    polls the deadline after each root, and both bound passes before
    each relaxation pass; on TIMEOUT the incumbent is the best greedy
    order, or none, and lower_bound is 1 + the least root bound known
    when the deadline expired (the roots lifted so far count), or 1 when
    it expired before the one-step pass ended.
    """
    stats = SolveStats()
    t0 = time.monotonic()
    deadline = Deadline(time_limit)
    lower = 1
    try:
        # One greedy pass gives the warm start and the order of the roots.
        # Greedy completes some root exactly when a valid order exists.
        # A pass cut short by the deadline proves nothing; mp2_solve polls
        # the deadline before its first root, so it never reads the rest.
        warm, roots = greedy_roots(inst, deadline)
        if warm is None:
            if deadline.expired():
                return Solution("TIMEOUT", None, None, None, stats, lower)
            return Solution("INFEASIBLE", None, None, None, stats)
        found = None
        if warm[1].double_count > 1:
            cutoff = warm[1].double_count - 1
            bounds = [root_bound(inst, cl, deadline) for cl in roots]
            try:
                for i, clique in enumerate(roots):
                    if bounds[i] == cutoff - 1 and bound_reaches(
                        inst, clique, cutoff, deadline=deadline
                    ):
                        bounds[i] = cutoff
            finally:
                lower = 1 + min(bounds)
            found = mp2_solve(inst, roots, cutoff, stats, deadline, trace, bounds)
            stats.iterations = 1
        if found is None:
            found = (induce_witness_state(inst, warm[0]), warm[0])
        state, got = found
        report = check_order(inst, got)
        assert report.is_dvop
        objective = state.y_sum + 1
        assert report.double_count == objective
        assert ef_validate(inst, state, got)
        if trace is not None:
            trace.accepted.append((state, got))
        return Solution("OPTIMAL", objective, got, report.doubles, stats, objective)
    except TimeoutError:
        return Solution(
            "TIMEOUT", warm[1].double_count, warm[0], warm[1].doubles, stats, lower
        )
    finally:
        stats.time_ms = (time.monotonic() - t0) * 1000.0


def ef_validate(inst: Instance, state: WitnessState, order: VertexOrder) -> bool:
    """Check a (state, order) pair against the one-shot constraint set.

    Clique size and adjacency, witness forcing at clique vertices, the
    witness-count linking equation, clique ranks at the front, and
    witness-before-witnessed precedence between non-clique pairs.
    """
    n, K = inst.n, inst.K
    if len(state.doubles) != n or order.n != n:
        raise ValueError("state and order must match the instance size")
    if state_violations(inst, state):
        return False
    ranks = order.inverse
    for v in state.clique:
        if ranks[v] > K:
            return False
    for v, u in state.witness_arcs:
        if v not in state.clique and u not in state.clique:
            if ranks[u] >= ranks[v]:
                return False
    return True


def induce_witness_state(inst: Instance, order: VertexOrder) -> WitnessState:
    """The witness state a valid order implies.

    Clique = first K+1 vertices; every later vertex is witnessed by its
    first K (if a double) or K+1 (otherwise) adjacent predecessors in
    rank order.  Clique members are witnessed by the rest of the clique.
    """
    report = check_order(inst, order)
    if not report.is_dvop:
        raise ValueError("order is not valid for this instance")
    n, K = inst.n, inst.K
    clique = frozenset(order.perm[: K + 1])
    arcs: list[Arc] = [
        (v, u) for v in clique for u in clique if u != v
    ]
    doubles = [0] * n
    for r in range(K + 1, n):
        v = order.perm[r]
        y = report.doubles.bits[r]
        doubles[v] = y
        need = K + 1 - y
        got = 0
        for j in range(r):
            u = order.perm[j]
            if u in inst.neighbors[v]:
                arcs.append((v, u))
                got += 1
                if got == need:
                    break
        assert got == need
    return WitnessState(
        clique=clique, witness_arcs=frozenset(arcs), doubles=tuple(doubles)
    )
