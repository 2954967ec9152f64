"""Workload recipes: which instances each workload generates and which ops it runs.

A workload is a generator recipe plus a per-instance op list.  Every op
is one timed call into the package's public front door:

* ``solve``  -- ``harness.solve_with_method(inst, route, objective, limit)``
* ``pareto`` -- ``oracle.objective_image`` followed by ``oracle.pareto_front``
* ``export`` -- ``modelgen.export`` of all six LP models, each followed by
  ``modelgen.verify_counts``

Every corpus is a fixed recipe; the benchmark's ``--seed`` sets the order
in which a pass runs the ops.  Corpora drawn from the seed were tried
first: solve times are so heavy-tailed across instances that the route
sums moved by more than half their median from one seed to the next
(dense-random dfs_s 1.9-4.1 s and naive_s 0.15-1.0 s over four seeds), so
no bound a regression check can use would hold.

Generators are reached through the module passed in, so the traced run
sees the calls.  ``planted`` is the planted double count read from
``gen_synthetic_detailed``'s marks; random instances have none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

MIN_DOUBLE = "min-double"
MIN_NODES = "min-nodes"


@dataclass(frozen=True)
class Generated:
    inst: object  # ddvop.graph.Instance, as generated (before render/parse)
    planted: Optional[int]
    comments: tuple[str, ...]


@dataclass(frozen=True)
class Op:
    kind: str  # "solve", "pareto" or "export"
    item: int  # index into the parsed instance list
    route: str  # solve method; "oracle" for pareto; "lp" for export
    objective: str  # solve objective; "" for pareto and export


@dataclass(frozen=True)
class Item:
    inst: object  # the parsed ddvop.graph.Instance the program sees
    planted: Optional[int]


@dataclass
class Outcome:
    """One executed op: its status, wall time and what the gate found."""

    op: Op
    seconds: float
    status: str  # solver status, "OK" for pareto/export, or "ERROR"
    result: object = None
    value: Optional[int] = None  # a solve's reported objective
    error: str = ""
    wrong: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status in ("TIMEOUT", "ERROR") or bool(self.wrong)


@dataclass(frozen=True)
class Workload:
    name: str
    time_limit: float  # seconds per solve, the same for every route
    solves: tuple[tuple[str, str], ...]  # (route, objective) per instance
    extra_ops: tuple[str, ...]  # "pareto" / "export" per instance
    recipe: str
    generate: Callable[[object], list[Generated]]

    def ops(self, n_items: int, seed: int) -> list[Op]:
        """The op list of one pass, in a seed-determined order."""
        ops = []
        for i in range(n_items):
            ops += [Op("solve", i, r, o) for r, o in self.solves]
            ops += [Op(k, i, "oracle" if k == "pareto" else "lp", "") for k in self.extra_ops]
        random.Random(seed).shuffle(ops)
        return ops


# --- acceptance: the paper's 70-instance validation corpus -------------------

ACCEPTANCE_GRID = [(n, d) for n in (8, 10, 12) for d in (0.3, 0.4, 0.5)]


def _acceptance(instgen) -> list[Generated]:
    # The same 50 random + 20 planted instances as the acceptance tests build.
    out: list[Generated] = []
    s, i = 100, 0
    while len(out) < 50:
        n, d = ACCEPTANCE_GRID[i % len(ACCEPTANCE_GRID)]
        try:
            inst = instgen.gen_random(n, d, 3, s)
            out.append(Generated(inst, None, ("generator random", f"seed {s}")))
        except instgen.GenerationError:
            pass
        i += 1
        s += 1
    s = 0
    while len(out) < 70:
        n = 8 + s % 5
        K = 1 + s % 3
        nd = 1 + s % (n - K - 1)
        noise = (s % 3) * 0.05
        out += _planted(instgen, K, nd, noise, n, s)
        s += 1
    return out


def _planted(instgen, K, nd, noise, n, s) -> list[Generated]:
    try:
        inst, marks, _, _ = instgen.gen_synthetic_detailed(K, nd, noise, n, s)
    except instgen.GenerationError:
        return []
    comments = ("generator synthetic", f"seed {s}", "marks " + "".join(map(str, marks)))
    return [Generated(inst, sum(marks), comments)]


# --- dense-random: feasible, clique-rich random graphs -----------------------

DENSE_GRID = [(n, d) for n in (16, 20, 24) for d in (0.5, 0.6, 0.7)] + [(28, 0.5), (28, 0.6)]
DENSE_COUNT = 25


def _dense(instgen) -> list[Generated]:
    out: list[Generated] = []
    s, i = 1, 0
    while len(out) < DENSE_COUNT:
        n, d = DENSE_GRID[i % len(DENSE_GRID)]
        try:
            inst = instgen.gen_random(n, d, 3, s)
            out.append(Generated(inst, None, ("generator random", f"seed {s}")))
        except instgen.GenerationError:
            pass
        i += 1
        s += 1
    return out


# --- planted-ladder: sparse planted instances above the oracle cap ----------

LADDER_GRID = [(n, K) for n in (14, 16, 18, 22, 26, 32, 40) for K in (2, 3, 4)]
LADDER_COUNT = 25


def _ladder(instgen) -> list[Generated]:
    out: list[Generated] = []
    s, i = 0, 0
    while len(out) < LADDER_COUNT:
        n, K = LADDER_GRID[i % len(LADDER_GRID)]
        out += _planted(instgen, K, max(1, round(n / 6)), 0.1, n, s)
        i += 1
        s += 1
    return out


_SEARCH_SOLVES = (
    ("dfs", MIN_DOUBLE),
    ("naive", MIN_DOUBLE),
    ("witness", MIN_DOUBLE),
    ("dfs", MIN_NODES),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="acceptance",
            time_limit=0.6,
            solves=(
                ("oracle", MIN_DOUBLE),
                ("dfs", MIN_DOUBLE),
                ("naive", MIN_DOUBLE),
                ("witness", MIN_DOUBLE),
                ("oracle", MIN_NODES),
                ("dfs", MIN_NODES),
            ),
            extra_ops=("pareto", "export"),
            recipe=(
                "gen_random n in {8,10,12} x d in {0.3,0.4,0.5}, K=3, 50 instances, "
                "seeds from 100; gen_synthetic n=8+s%5, K=1+s%3, doubles=1+s%(n-K-1), "
                "noise=(s%3)*0.05, 20 instances, seeds from 0"
            ),
            generate=_acceptance,
        ),
        Workload(
            name="dense-random",
            time_limit=0.4,
            solves=_SEARCH_SOLVES,
            extra_ops=(),
            recipe=(
                f"gen_random (n, d) cycling {DENSE_GRID}, K=3, {DENSE_COUNT} instances, "
                "seeds from 1"
            ),
            generate=_dense,
        ),
        Workload(
            name="planted-ladder",
            time_limit=0.28,
            solves=_SEARCH_SOLVES,
            extra_ops=(),
            recipe=(
                f"gen_synthetic (n, K) cycling {LADDER_GRID}, doubles=round(n/6), "
                f"noise=0.1, {LADDER_COUNT} instances, seeds from 0"
            ),
            generate=_ladder,
        ),
    )
}
