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

The DP visits only valid prefix sets: the empty set, then layer by layer
each extension by an admissible vertex, so its tables hold one entry per
set that some valid order places first, never all 2^n masks.  It also
yields exact order counts, the full image of (total_nodes, double_count)
over valid orders, and the Pareto front of the two objectives.  These
routines are ground truth for the real solvers, not solvers themselves.

The only limit is a fixed budget on the DP's own work.  Building layer
r+1 tests every free vertex of every set in layer r, so the admissibility
tests add up to the sum over r of |layer_r| * (n - r), and each layer's
share is known before the layer is scanned.  _layers raises
CapExceededError before the layer that would take that total past
MAX_PREFIX_TESTS.  On a complete graph every subset is a valid prefix
set, so K_n needs n * 2^(n-1) tests, and no n-vertex instance needs
more.  The budget is that work at n = 20, so every instance with n <= 20
is admitted; a larger one is refused once its layers have cost at most
the budget, before the next layer is built.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .graph import Instance
from .order import OrderReport, VertexOrder, check_order

# Admissibility tests _layers may make: n * 2^(n-1) at n = 20, the work
# of the complete graph K_20 and so of any instance with n <= 20.
MAX_PREFIX_TESTS = 20 * 2**19


class CapExceededError(ValueError):
    """Instance too large for exhaustive solving."""


def _admissible(inst: Instance, mask: int, count: int, v: int) -> bool:
    # count <= K means v sits at rank <= K and must extend the initial clique.
    if count <= inst.K:
        return inst.adj_bits[v] & mask == mask
    return (inst.adj_bits[v] & mask).bit_count() >= inst.K


def _cost(inst: Instance, mask: int, count: int, v: int) -> int:
    if count < inst.K:
        return 0
    return 1 if (inst.adj_bits[v] & mask).bit_count() == inst.K else 0


def _extensions(inst: Instance, mask: int, count: int) -> Iterator[int]:
    """Admissible unplaced vertices of a placed set, in increasing order."""
    free = ~mask & ((1 << inst.n) - 1)
    while free:
        low = free & -free
        v = low.bit_length() - 1
        if _admissible(inst, mask, count, v):
            yield v
        free ^= low


def _layers(inst: Instance) -> list[list[int]]:
    """Valid prefix sets by size, each layer sorted.

    layers[r] holds every r-vertex set that some valid order places first,
    dead ends included; layers[n] is [full] exactly when a valid order exists.
    Raises CapExceededError before a layer whose scan would take the
    admissibility tests past MAX_PREFIX_TESTS.
    """
    layers = [[0]]
    tests = 0
    for count in range(inst.n):
        tests += len(layers[-1]) * (inst.n - count)
        if tests > MAX_PREFIX_TESTS:
            raise CapExceededError(
                f"oracle work budget exceeded: layer {count} of n = {inst.n} "
                f"would take the admissibility tests to {tests} > {MAX_PREFIX_TESTS}"
            )
        layers.append(sorted({
            mask | 1 << v for mask in layers[-1] for v in _extensions(inst, mask, count)
        }))
    return layers


def _backward(
    inst: Instance, layers: list[list[int]], leaf: object, node: Callable
) -> Iterator[list]:
    """Values per layer, parallel to layers, yielded from the full set back to {}.

    node receives a set's extensions as (double cost, successor value) pairs
    and folds them into the set's own value; a dead end gets node([]).  Each
    layer is built from the one yielded before it, which the generator then
    drops, so a caller that keeps no layer holds two at most.  The last
    layer yielded holds {}'s value alone.
    """
    vals = [leaf] * len(layers[inst.n])
    yield vals
    for count in range(inst.n - 1, -1, -1):
        succ = layers[count + 1]
        vals = [
            node([
                (_cost(inst, mask, count, v), vals[bisect_left(succ, mask | 1 << v)])
                for v in _extensions(inst, mask, count)
            ])
            for mask in layers[count]
        ]
        yield vals


def _root_value(inst: Instance, leaf: object, node: Callable) -> object:
    """The empty set's value under _backward, keeping no layer behind it."""
    for vals in _backward(inst, _layers(inst), leaf, node):
        pass
    return vals[0]


def enumerate_valid_orders(inst: Instance) -> tuple[int, Iterator[VertexOrder]]:
    """Exact order count over the prefix layers plus a lazy lexicographic iterator."""
    total = _root_value(inst, 1, lambda ext: sum(w for _, w in ext))

    def walk() -> Iterator[VertexOrder]:
        prefix: list[int] = []

        def rec(mask: int) -> Iterator[VertexOrder]:
            if len(prefix) == inst.n:
                yield VertexOrder(tuple(prefix))
                return
            for v in _extensions(inst, mask, len(prefix)):
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


def _walk_optimal(
    inst: Instance,
    layers: list[list[int]],
    values: list[list[float]],
    step: Callable[[int, float], float],
) -> VertexOrder:
    """Lexicographically first order attaining the empty set's value."""
    mask, target = 0, values[0][0]
    perm: list[int] = []
    for count in range(inst.n):
        succ, vals = layers[count + 1], values[count + 1]
        for v in _extensions(inst, mask, count):
            future = vals[bisect_left(succ, mask | 1 << v)]
            if step(_cost(inst, mask, count, v), future) == target:
                perm.append(v)
                mask, target = mask | 1 << v, future
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
    inst: Instance, objective: str = "min-double"
) -> Optional[OracleResult]:
    """Exact optimum and a lexicographically first optimal order, or None."""
    step = _step_for(objective)

    def best(ext: list[tuple[int, float]]) -> float:
        # A dead end gets math.inf, which every step keeps infinite.
        return min((step(c, f) for c, f in ext), default=math.inf)

    layers = _layers(inst)
    values = list(_backward(inst, layers, 0.0, best))[::-1]
    if values[0][0] == math.inf:
        return None
    order = _walk_optimal(inst, layers, values, step)
    report = check_order(inst, order)
    assert report.is_dvop
    value = int(values[0][0])
    attained = report.double_count if objective == "min-double" else report.total_nodes
    assert attained == value
    return OracleResult(value=value, order=order, report=report)


@dataclass(frozen=True, order=True)
class ParetoPoint:
    nodes_obj: int
    doubles_obj: int


def objective_image(inst: Instance) -> set[ParetoPoint]:
    """All (total_nodes, double_count) pairs attained by valid orders.

    Pair sets propagate back over the prefix layers with the same 2^c
    scaling as the min-nodes recursion.  Only the layer being built and its
    successor are held at once.
    """
    pairs = _root_value(
        inst,
        frozenset({(0, 0)}),
        lambda ext: frozenset(
            {((2 ** c) * (1 + t), c + d) for c, succ in ext for t, d in succ}
        ),
    )
    return {ParetoPoint(t, d) for t, d in pairs}


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
    inst: Instance,
) -> tuple[set[ParetoPoint], set[ParetoPoint]]:
    image = objective_image(inst)
    return image, set(pareto_front(image))


def simultaneous_optimum_probe(inst: Instance) -> dict:
    """Do the two objectives share an optimal order?  Reported, not asserted.

    A singleton Pareto front means one order attains both optima at once.
    """
    image = objective_image(inst)
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
