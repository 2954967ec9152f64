"""Exhaustive ground-truth solvers for small instances.

Two independent routes over the same search space:

* a lexicographic depth-first enumeration of all valid orders (prefix
  feasibility is monotone, so pruning invalid prefixes is exact), and
* a dynamic program over placed-vertex subsets, using the fact that both
  admissibility and the remaining cost depend only on the set of placed
  vertices: with c(S,v) the double indicator for appending v to S, the
  minimum remaining doubles satisfy h(S) = min_v c(S,v) + h(S+v) and the
  minimum remaining tree size scales as g(S) = min_v 2^c(S,v) * (1 + g(S+v)),
  because one extra double so far doubles every later level width.

The subset DP also yields exact order counts, the full image of
(total_nodes, double_count) over valid orders, and the Pareto front of the
two objectives.  Everything is capped at a configurable vertex count
(DEFAULT_CAP), and no cap, however large, admits more than MAX_CAP vertices:
the subset tables hold all 2^n masks, so the refusal comes before any of
them is allocated.  These routines are ground truth for the real solvers,
not solvers themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

from .graph import Instance
from .order import OrderReport, VertexOrder, check_order

DEFAULT_CAP = 12

# Hard ceiling on any cap: 2^20 masks per subset table.
MAX_CAP = 20


class CapExceededError(ValueError):
    """Instance too large for exhaustive solving."""


def _check_cap(inst: Instance, cap: int) -> None:
    limit = min(cap, MAX_CAP)
    if inst.n > limit:
        raise CapExceededError(f"oracle capped at n <= {limit}, got n = {inst.n}")


def _sweep(n: int) -> list[int]:
    """Every mask but the full one, in decreasing popcount order.

    Each mask comes after all of its one-vertex extensions, so a subset DP
    filled in this order finds its successors done.
    """
    return sorted(range((1 << n) - 1), key=int.bit_count, reverse=True)


def _admissible(inst: Instance, mask: int, count: int, v: int) -> bool:
    # count <= K means v sits at rank <= K and must extend the initial clique.
    if count <= inst.K:
        return inst.adj_bits[v] & mask == mask
    return (inst.adj_bits[v] & mask).bit_count() >= inst.K


def _cost(inst: Instance, mask: int, count: int, v: int) -> int:
    if count < inst.K:
        return 0
    return 1 if (inst.adj_bits[v] & mask).bit_count() == inst.K else 0


def enumerate_valid_orders(
    inst: Instance, cap: int = DEFAULT_CAP
) -> tuple[int, Iterator[VertexOrder]]:
    """Exact count (via the subset DP) plus a lazy lexicographic iterator."""
    _check_cap(inst, cap)
    full = (1 << inst.n) - 1

    @lru_cache(maxsize=None)
    def ways(mask: int) -> int:
        if mask == full:
            return 1
        count = mask.bit_count()
        return sum(
            ways(mask | (1 << v))
            for v in range(inst.n)
            if not mask >> v & 1 and _admissible(inst, mask, count, v)
        )

    total = ways(0)

    def walk() -> Iterator[VertexOrder]:
        prefix: list[int] = []

        def rec(mask: int) -> Iterator[VertexOrder]:
            if mask == full:
                yield VertexOrder(tuple(prefix))
                return
            count = mask.bit_count()
            for v in range(inst.n):
                if not mask >> v & 1 and _admissible(inst, mask, count, v):
                    prefix.append(v)
                    yield from rec(mask | (1 << v))
                    prefix.pop()

        yield from rec(0)

    return total, walk()


@dataclass(frozen=True)
class OracleResult:
    value: int
    order: VertexOrder
    report: OrderReport


def _dp_table(inst: Instance, step: Callable[[int, float], float]) -> list[float]:
    """Remaining-cost table over placed-vertex masks.

    step(c, future) combines one placement of double-cost c with the optimal
    remaining cost; infeasible masks get math.inf.
    """
    full = (1 << inst.n) - 1
    table = [math.inf] * (full + 1)
    table[full] = 0.0
    # Only reachable masks matter, but filling all of them is cheap at
    # oracle sizes.
    for mask in _sweep(inst.n):
        count = mask.bit_count()
        best = math.inf
        for v in range(inst.n):
            if mask >> v & 1 or not _admissible(inst, mask, count, v):
                continue
            future = table[mask | (1 << v)]
            if future == math.inf:
                continue
            cand = step(_cost(inst, mask, count, v), future)
            if cand < best:
                best = cand
        table[mask] = best
    return table


def _walk_optimal(
    inst: Instance, table: list[float], step: Callable[[int, float], float]
) -> VertexOrder:
    """Lexicographically first order attaining table[0]."""
    full = (1 << inst.n) - 1
    mask = 0
    perm: list[int] = []
    while mask != full:
        count = mask.bit_count()
        for v in range(inst.n):
            if mask >> v & 1 or not _admissible(inst, mask, count, v):
                continue
            future = table[mask | (1 << v)]
            if future < math.inf and step(_cost(inst, mask, count, v), future) == table[mask]:
                perm.append(v)
                mask |= 1 << v
                break
        else:
            raise AssertionError("optimal walk lost the table value")
    return VertexOrder(tuple(perm))


def _step_for(objective: str) -> Callable[[int, float], float]:
    if objective == "min-double":
        return lambda c, future: c + future
    if objective == "min-nodes":
        return lambda c, future: (2 ** c) * (1 + future)
    raise ValueError(f"unknown objective {objective!r}")


def brute_optimum(
    inst: Instance, objective: str = "min-double", cap: int = DEFAULT_CAP
) -> Optional[OracleResult]:
    """Exact optimum and a lexicographically first optimal order, or None."""
    _check_cap(inst, cap)
    step = _step_for(objective)
    table = _dp_table(inst, step)
    if table[0] == math.inf:
        return None
    order = _walk_optimal(inst, table, step)
    report = check_order(inst, order)
    assert report.is_dvop
    value = int(table[0])
    attained = report.double_count if objective == "min-double" else report.total_nodes
    assert attained == value
    return OracleResult(value=value, order=order, report=report)


@dataclass(frozen=True, order=True)
class ParetoPoint:
    nodes_obj: int
    doubles_obj: int


def objective_image(inst: Instance, cap: int = DEFAULT_CAP) -> set[ParetoPoint]:
    """All (total_nodes, double_count) pairs attained by valid orders.

    Pair sets propagate through the subset DP with the same 2^c scaling as
    the min-nodes recursion.
    """
    _check_cap(inst, cap)
    full = (1 << inst.n) - 1
    pairs: dict[int, frozenset[tuple[int, int]]] = {full: frozenset({(0, 0)})}
    for mask in _sweep(inst.n):
        count = mask.bit_count()
        acc: set[tuple[int, int]] = set()
        for v in range(inst.n):
            if mask >> v & 1 or not _admissible(inst, mask, count, v):
                continue
            succ = pairs.get(mask | (1 << v))
            if not succ:
                continue
            c = _cost(inst, mask, count, v)
            acc.update(((2 ** c) * (1 + t), c + d) for t, d in succ)
        pairs[mask] = frozenset(acc)
    return {ParetoPoint(t, d) for t, d in pairs[0]}


def pareto_front(image: set[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated points (both objectives minimized), sorted by nodes."""
    front = [
        p
        for p in image
        if not any(
            (q.nodes_obj <= p.nodes_obj and q.doubles_obj <= p.doubles_obj and q != p)
            for q in image
        )
    ]
    return sorted(front)


def objective_image_and_pareto(
    inst: Instance, cap: int = DEFAULT_CAP
) -> tuple[set[ParetoPoint], set[ParetoPoint]]:
    image = objective_image(inst, cap)
    return image, set(pareto_front(image))


def simultaneous_optimum_probe(inst: Instance, cap: int = DEFAULT_CAP) -> dict:
    """Do the two objectives share an optimal order?  Reported, not asserted.

    A singleton Pareto front means one order attains both optima at once.
    """
    image = objective_image(inst, cap)
    if not image:
        return {"feasible": False}
    front = pareto_front(image)
    min_nodes = min(p.nodes_obj for p in image)
    min_double = min(p.doubles_obj for p in image)
    return {
        "feasible": True,
        "min_nodes": min_nodes,
        "min_double": min_double,
        "pareto": [(p.nodes_obj, p.doubles_obj) for p in front],
        "simultaneous": len(front) == 1,
    }
