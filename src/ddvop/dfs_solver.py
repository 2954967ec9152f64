"""Branch and bound over vertex orders, one rank at a time.

The search extends a partial order rank by rank.  Ranks up to K admit
only vertices adjacent to everything placed so far, with the initial
clique kept in increasing vertex order to break its permutation
symmetry; later ranks admit any vertex with at least K placed
neighbors.  A vertex placed with exactly K placed neighbors is a
double, which drives both objective bounds.  Presolve fixings and
cover inequalities prune ranks where the double bit is forced.

The shared result types live in `solution`; this module also holds the
formulation validator used by the property tests: given an order and a
double pattern, check them against each of the four static formulations
of the problem (rank-assignment integer program, rank-variable
constraint model, vertex-variable constraint model, and the combined
channeled model).
"""

from __future__ import annotations

import time

from .graph import Instance
from .order import DoublePattern, VertexOrder, check_order, greedy_dvop
from .presolve import PresolveResult, full_presolve
from .solution import OBJECTIVES, Deadline, Solution, SolveOptions, SolveStats

MODELS = ("IP", "CP-RANK", "CP-VERTEX", "CP-COMBINED")


def solve(
    inst: Instance, objective: str = "min-double", opts: SolveOptions | None = None
) -> Solution:
    """Exact branch and bound for either objective."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    stats = SolveStats()
    t0 = time.monotonic()
    try:
        return _branch_and_bound(inst, objective, opts or SolveOptions(), stats)
    finally:
        stats.time_ms = (time.monotonic() - t0) * 1000.0


def _branch_and_bound(
    inst: Instance, objective: str, opts: SolveOptions, stats: SolveStats
) -> Solution:
    deadline = Deadline(opts.time_limit)
    pres: PresolveResult | None = full_presolve(inst) if opts.use_presolve else None
    if pres is not None and pres.infeasible:
        return Solution("INFEASIBLE", None, None, None, stats)
    fixed_zero = pres.fixed_zero if pres else frozenset()
    fixed_one = pres.fixed_one if pres else frozenset()
    covers_by_last: dict[int, list[frozenset[int]]] = {}
    if pres:
        for cover in pres.cover_inequalities:
            covers_by_last.setdefault(max(cover), []).append(cover)

    n, K = inst.n, inst.K
    adj = inst.adj_bits
    minimize_nodes = objective == "min-nodes"

    best_value: int | None = None
    best_order: VertexOrder | None = None
    warm = greedy_dvop(inst)
    if warm is not None:
        w_order, w_report = warm
        best_value = w_report.total_nodes if minimize_nodes else w_report.double_count
        best_order = w_order

    perm: list[int] = []
    bits: list[int] = []

    def rec(mask: int, dcount: int, nodes_sum: int, level: int) -> None:
        nonlocal best_value, best_order
        if deadline.expired():
            raise TimeoutError
        p = len(perm)
        if p == n:
            value = nodes_sum if minimize_nodes else dcount
            if best_value is None or value < best_value:
                best_value = value
                best_order = VertexOrder(tuple(perm))
            return
        if best_value is not None:
            bound = nodes_sum + (n - p) * level if minimize_nodes else dcount
            if bound >= best_value:
                return
        r = p
        cands: list[tuple[int, int]] = []
        for v in range(n):
            if mask >> v & 1:
                continue
            pred = (adj[v] & mask).bit_count()
            if r <= K:
                # Clique prefix: adjacent to every placed vertex, ascending.
                if pred == r and (r == 0 or v > perm[r - 1]):
                    cands.append((pred, v))
            elif pred >= K:
                cands.append((pred, v))
        cands.sort(key=lambda t: (-t[0], t[1]))
        for pred, v in cands:
            bit = 1 if (r >= K and pred == K) else 0
            if bit and r in fixed_zero:
                continue
            if not bit and r in fixed_one:
                continue
            if not bit and any(
                all(bits[q] == 0 for q in cover if q < r)
                for cover in covers_by_last.get(r, ())
            ):
                continue
            new_level = level * (bit + 1) if r >= K else 1
            stats.choice_points += 1
            perm.append(v)
            bits.append(bit)
            rec(mask | (1 << v), dcount + bit, nodes_sum + new_level, new_level)
            perm.pop()
            bits.pop()

    try:
        rec(0, 0, 0, 1)
        status = "INFEASIBLE" if best_order is None else "OPTIMAL"
    except TimeoutError:
        status = "TIMEOUT"
    if best_order is None:
        return Solution(status, None, None, None, stats)
    report = check_order(inst, best_order)
    assert report.is_dvop
    return Solution(status, best_value, best_order, report.doubles, stats)


def _prefix_neighbor_count(inst: Instance, perm: tuple[int, ...], v: int, r: int) -> int:
    """Neighbors of v among the first r vertices of the order."""
    return sum(1 for j in range(r) if perm[j] in inst.neighbors[v])


def _ip_ok(inst: Instance, perm: tuple[int, ...], bits: list[int]) -> bool:
    n, K = inst.n, inst.K
    if any(bits[r] != 0 for r in range(K)) or bits[K] != 1:
        return False
    for v in range(n):
        for r in range(1, n):
            lhs = _prefix_neighbor_count(inst, perm, v, r)
            x_vr = 1 if perm[r] == v else 0
            need = r if r <= K else K
            if lhs < need * x_vr:
                return False
            if r >= K:
                z_vr = 1 if (x_vr and not bits[r]) else 0
                if lhs < (K + 1) * z_vr:
                    return False
                if x_vr - bits[r] > z_vr:
                    return False
    return True


def _cp_rank_ok(inst: Instance, perm: tuple[int, ...], bits: list[int]) -> bool:
    n, K = inst.n, inst.K
    ranks = VertexOrder(perm).inverse
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in inst.edges and ranks[i] <= K and ranks[j] <= K:
                return False
    for v in range(n):
        if ranks[v] >= K + 1:
            preds = sum(1 for u in inst.neighbors[v] if ranks[u] < ranks[v])
            if preds < K + (1 - bits[ranks[v]]):
                return False
    return True


def _cp_vertex_ok(inst: Instance, perm: tuple[int, ...], bits: list[int]) -> bool:
    n, K = inst.n, inst.K
    if any(bits[r] != 0 for r in range(K)) or bits[K] != 1:
        return False
    for i in range(K):
        for j in range(i + 1, K + 1):
            if tuple(sorted((perm[i], perm[j]))) not in inst.edges:
                return False
    for r in range(K + 1, n):
        if _prefix_neighbor_count(inst, perm, perm[r], r) < K + (1 - bits[r]):
            return False
    return True


def _cp_combined_ok(inst: Instance, perm: tuple[int, ...], bits: list[int]) -> bool:
    n, K = inst.n, inst.K
    ranks = VertexOrder(perm).inverse
    if any(bits[r] != 0 for r in range(K)) or bits[K] != 1:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in inst.edges and ranks[i] <= K and ranks[j] <= K:
                return False
    for i in range(K):
        for j in range(i + 1, K + 1):
            if tuple(sorted((perm[i], perm[j]))) not in inst.edges:
                return False
    # Rank view stays y-free; the double bit only constrains the vertex view.
    for v in range(n):
        if ranks[v] >= K + 1:
            preds = sum(1 for u in inst.neighbors[v] if ranks[u] < ranks[v])
            if preds < K:
                return False
    for r in range(K + 1, n):
        if _prefix_neighbor_count(inst, perm, perm[r], r) < K + (1 - bits[r]):
            return False
    return True


def validate_formulation(
    inst: Instance, order: VertexOrder, doubles: DoublePattern, model: str
) -> bool:
    """Check an (order, pattern) assignment against one formulation.

    The pattern is taken as given, not recomputed, so deliberately
    tampered bits exercise exactly the constraints that should catch
    them.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    perm = order.perm
    bits = list(doubles.bits)
    if len(perm) != inst.n or len(bits) != inst.n:
        raise ValueError("order and pattern must match the instance size")
    if model == "IP":
        return _ip_ok(inst, perm, bits)
    if model == "CP-RANK":
        return _cp_rank_ok(inst, perm, bits)
    if model == "CP-VERTEX":
        return _cp_vertex_ok(inst, perm, bits)
    return _cp_combined_ok(inst, perm, bits)
