"""Correctness gate: every answer is re-checked outside the timed region.

Per call:
* a returned order is re-checked with ``order.check_order``: it must be a
  valid order, and its double or node count must equal the reported
  objective (and its double pattern the reported one);
* OPTIMAL carries an order, INFEASIBLE carries none;
* every export passes ``modelgen.verify_counts``;
* a Pareto front holds exactly the non-dominated points of its image;
* a repeated call gives the same certified answer as the op's first call.

Per instance and objective, across the routes of the first pass:
* every certified answer equals the oracle's where the oracle ran, and
  certified routes agree with each other everywhere else;
* no certified optimum is worse than a validated order of another route;
* INFEASIBLE agrees with ``order.greedy_dvop`` returning None;
* a certified min-double never exceeds the planted double count;
* the Pareto image's minima equal the oracle's optima.

The checkers are imported here, before any tracing is installed, so the
gate's own calls never show up in the per-layer spans.
"""

from __future__ import annotations

from ddvop.order import check_order, greedy_dvop
from workloads import MIN_DOUBLE, MIN_NODES, Item, Outcome

CERTIFIED = ("OPTIMAL", "INFEASIBLE")


def check_solution(inst, objective: str, sol) -> list[str]:
    """Problems with one Solution on its own (empty list = consistent)."""
    problems: list[str] = []
    if sol.status not in ("OPTIMAL", "INFEASIBLE", "TIMEOUT"):
        return [f"unknown status {sol.status!r}"]
    if sol.status == "OPTIMAL" and (sol.order is None or sol.objective is None):
        problems.append("OPTIMAL without an order")
    if sol.status == "INFEASIBLE" and (sol.order is not None or sol.objective is not None):
        problems.append("INFEASIBLE with an order")
    if sol.order is not None:
        if sol.order.n != inst.n:
            return problems + [f"order over {sol.order.n} vertices, instance has {inst.n}"]
        report = check_order(inst, sol.order)
        if not report.is_dvop:
            problems.append("returned order is not a valid discretization order")
        value = report.double_count if objective == MIN_DOUBLE else report.total_nodes
        if value != sol.objective:
            problems.append(f"reported objective {sol.objective}, order gives {value}")
        if sol.doubles is not None and tuple(sol.doubles.bits) != report.doubles.bits:
            problems.append("reported double pattern differs from the order's")
    return problems


def check_pareto(result) -> list[str]:
    image, front = result
    problems = []
    expected = sorted(
        p
        for p in image
        if not any(q != p and q.nodes_obj <= p.nodes_obj and q.doubles_obj <= p.doubles_obj for q in image)
    )
    if list(front) != expected:
        problems.append(f"Pareto front {list(front)} is not the non-dominated set {expected}")
    return problems


def check_export(result) -> list[str]:
    return [f"verify_counts rejected the {model} export" for model, _, ok in result if not ok]


def check_op(item: Item, out: Outcome) -> None:
    """Per-op checks; appends to out.wrong."""
    if out.status == "ERROR":
        return
    if out.op.kind == "solve":
        out.wrong += check_solution(item.inst, out.op.objective, out.result)
    elif out.op.kind == "pareto":
        out.wrong += check_pareto(out.result)
    else:
        out.wrong += check_export(out.result)


def _verdict(o: Outcome):
    return o.value if o.status == "OPTIMAL" else "INFEASIBLE"


class Gate:
    """Checks the outcomes of one pass; greedy feasibility is cached per instance."""

    def __init__(self, items: list[Item]):
        self.items = items
        self._greedy_feasible: dict[int, bool] = {}

    def greedy_feasible(self, i: int) -> bool:
        if i not in self._greedy_feasible:
            self._greedy_feasible[i] = greedy_dvop(self.items[i].inst) is not None
        return self._greedy_feasible[i]

    def check_repeat(self, first: Outcome, call: Outcome) -> None:
        """Checks a repeated call of an op on its own and against its first call.

        The call's result is dropped afterwards; status, value and findings stay.
        """
        check_op(self.items[call.op.item], call)
        if first.status in CERTIFIED and call.status in CERTIFIED and _verdict(first) != _verdict(call):
            call.wrong.append(f"answer {_verdict(call)} differs from this op's first answer {_verdict(first)}")
        call.result = None

    def check_pass(self, outcomes: list[Outcome]) -> None:
        by_item: dict[int, list[Outcome]] = {}
        for out in outcomes:
            check_op(self.items[out.op.item], out)
            by_item.setdefault(out.op.item, []).append(out)
        for i, group in by_item.items():
            self._cross_check(i, group)

    def _cross_check(self, i: int, group: list[Outcome]) -> None:
        item = self.items[i]
        oracle_value: dict[str, object] = {}
        for objective in (MIN_DOUBLE, MIN_NODES):
            solves = [
                o for o in group
                if o.op.kind == "solve" and o.op.objective == objective and o.status != "ERROR" and not o.wrong
            ]
            if not solves:
                continue
            certified = [(o, _verdict(o)) for o in solves if o.status in CERTIFIED]
            oracle = [v for o, v in certified if o.op.route == "oracle"]
            if oracle:
                oracle_value[objective] = oracle[0]
                for o, v in certified:
                    if v != oracle[0]:
                        o.wrong.append(f"answer {v} differs from the oracle's {oracle[0]}")
            elif len({v for _, v in certified}) > 1:
                summary = ", ".join(f"{o.op.route}={v}" for o, v in certified)
                for o, _ in certified:
                    o.wrong.append(f"certified routes disagree: {summary}")
            # A validated order of any route bounds every certified optimum.
            best = min((o.value for o in solves if o.result.order is not None), default=None)
            for o, v in certified:
                if best is not None and v == "INFEASIBLE":
                    o.wrong.append(f"INFEASIBLE, but another route returned a valid order of value {best}")
                elif best is not None and v > best:
                    o.wrong.append(f"optimum {v} exceeds a valid order of value {best}")
                if v == "INFEASIBLE" and self.greedy_feasible(i):
                    o.wrong.append("INFEASIBLE, but greedy_dvop completes an order")
                if objective == MIN_DOUBLE and item.planted is not None and v != "INFEASIBLE" and v > item.planted:
                    o.wrong.append(f"min-double {v} exceeds the planted count {item.planted}")
        for o in group:
            if o.op.kind == "pareto" and o.status == "OK" and not o.wrong:
                self._check_image(o, oracle_value)

    @staticmethod
    def _check_image(o: Outcome, oracle_value: dict) -> None:
        image = o.result[0]
        minima = {
            MIN_DOUBLE: min((p.doubles_obj for p in image), default="INFEASIBLE"),
            MIN_NODES: min((p.nodes_obj for p in image), default="INFEASIBLE"),
        }
        for objective, ref in oracle_value.items():
            if minima[objective] != ref:
                o.wrong.append(f"image {objective} minimum {minima[objective]} differs from the oracle's {ref}")
