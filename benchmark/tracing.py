"""Outside-in spans around the package's public module-level functions.

``Tracer.install`` replaces each traced function by a wrapper in every
``ddvop`` module namespace that holds it, so calls between modules of the
package go through the wrapper too.  A span records calls, total time and
self time, where self time is total time minus the time of traced calls
made inside it.  Spans are aggregated per op in memory and written as JSON
lines when the run ends; hot inner calls would otherwise produce millions
of records.

``Deadline.expired`` is called once per search node, so it is only counted,
not timed: its time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every timed span, named "<module>.<attribute>".
TIMED = (
    ("graph", "parse_instance"),
    ("graph", "enumerate_cliques"),
    ("order", "greedy_dvop"),
    ("order", "greedy_from_clique"),
    ("order", "check_order"),
    ("presolve", "full_presolve"),
    ("oracle", "brute_optimum"),
    ("oracle", "objective_image"),
    ("oracle", "pareto_front"),
    ("dfs_solver", "solve"),
    ("naive_decomp", "solve_naive"),
    ("naive_decomp", "mp1_solve"),
    ("naive_decomp", "sp1_solve"),
    ("naive_decomp", "find_iis"),
    ("witness_decomp", "solve_witness"),
    ("witness_decomp", "mp2_solve"),
    ("witness_decomp", "sp2_check"),
    ("modelgen", "export"),
    ("modelgen", "verify_counts"),
    ("instgen", "gen_random"),
    ("instgen", "gen_synthetic_detailed"),
    ("harness", "solve_with_method"),
)

EXPIRED = "dfs_solver.Deadline.expired"


class Tracer:
    """Span aggregates plus result counters, for one traced pass."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s], over the whole pass
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.op_spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.op_flags: set[str] = set()
        self.records: list[dict] = []
        self._counts: dict[str, list[int]] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            m
            for name, m in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".") and m is not None
        ]
        for mod_name, attr in TIMED:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(home, attr)
            wrapper = self._timed(f"{mod_name}.{attr}", original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        deadline = sys.modules[f"{package.__name__}.dfs_solver"].Deadline
        self._patch(deadline, "expired", self._counted(EXPIRED, deadline.expired))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        for name, (count,) in self._counts.items():
            self.counters[name] += count
        self._counts.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        stack = self._stack
        on_result = _RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                for agg in (tracer.spans[name], tracer.op_spans[name]):
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - child
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name: str, method):
        # Called once per search node: keep the wrapper as thin as possible.
        count = self._counts.setdefault(name, [0])

        @functools.wraps(method)
        def wrapper(deadline):
            count[0] += 1
            return method(deadline)

        return wrapper

    # --- per-op records -----------------------------------------------------

    def begin_op(self) -> None:
        self.op_spans.clear()
        self.op_flags.clear()

    def end_op(self, record: dict) -> None:
        record["spans"] = {
            name: {"calls": c, "total_ms": t * 1e3, "self_ms": s * 1e3}
            for name, (c, t, s) in sorted(self.op_spans.items())
        }
        self.records.append(record)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _on_cliques(tracer: Tracer, args, result) -> None:
    tracer.counters["graph.cliques_out"] += len(result)


def _on_presolve(tracer: Tracer, args, result) -> None:
    if result.infeasible:
        tracer.op_flags.add("presolve_infeasible")


def _on_masks(tracer: Tracer, args, result) -> None:
    # Computed, not measured: the subset DP allocates all 2^n masks.
    tracer.counters["oracle.masks"] += 2 ** args[0].n


def _on_sp1(tracer: Tracer, args, result) -> None:
    tracer.counters["naive_decomp.sp1_feasible"] += result is not None


def _on_sp2(tracer: Tracer, args, result) -> None:
    tracer.counters["witness_decomp.sp2_accepted"] += not isinstance(result, tuple)


def _on_export(tracer: Tracer, args, result) -> None:
    tracer.counters["modelgen.lp_bytes"] += len(result[0])


_RESULT_HOOKS = {
    "graph.enumerate_cliques": _on_cliques,
    "presolve.full_presolve": _on_presolve,
    "oracle.brute_optimum": _on_masks,
    "oracle.objective_image": _on_masks,
    "naive_decomp.sp1_solve": _on_sp1,
    "witness_decomp.sp2_check": _on_sp2,
    "modelgen.export": _on_export,
}
