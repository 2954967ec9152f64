"""The repository benchmark: fixed corpora timed through the solver front door.

    python3 benchmark/run.py --workload acceptance --seed 0 --seconds 40 --trace 0

Generates the workload's corpus, renders and parses each instance back
(the program sees only parsed instances), and runs the op list in the
order the seed gives.  Every op is one timed call, in one process and one
thread; only the import part of ``setup_s`` is timed in child
interpreters, one after the other.

``--trace 0`` makes one full pass, then repeat rounds of every op that did
not fail in it, while ``--seconds`` allows.  An op's time is the median of
its calls; a TIMEOUT is measured once, because its time is the limit.  It
prints the end-to-end metrics and writes every call under ``.bench_out/``.

``--trace 1`` makes one untraced and one traced full pass, prints the
per-layer metrics and writes the spans under ``.bench_out/``.

Every call goes through the correctness gate.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed`` counts the calls that raised or
gave a wrong answer.  A TIMEOUT is an answer the gate checks (its
incumbent order too), so it is not counted there; it is a failed op in
``failed_frac`` and is listed by (instance, route, objective).  The exit
status is 0 when every answer is correct, 1 when the gate found a wrong
answer, and 2 when the benchmark cannot run (for instance, the package is
missing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Item, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t0 = time.perf_counter(); import ddvop; print(time.perf_counter() - t0)"
)
MAX_ROUNDS = 20
ROUTES = ("oracle", "dfs", "naive", "witness")


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package():
    """Import ddvop from the checkout's src/; returns (package, modules)."""
    sys.path.insert(0, str(ROOT / "src"))
    pkg = importlib.import_module("ddvop")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"ddvop resolved to {pkg.__file__}, not to this checkout")
    mods = {
        name: importlib.import_module(f"ddvop.{name}")
        for name in ("graph", "harness", "instgen", "modelgen", "oracle")
    }
    return pkg, mods


def import_seconds() -> float:
    """Median time of ``import ddvop``, each in a fresh interpreter.

    One in-process import is a single cold measurement and spread by up to
    a fifth between runs; the median of several fresh ones is steady.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def build_items(mods, workload, limit: int | None):
    """Generate, render and parse the corpus; returns (items, problems)."""
    graph = mods["graph"]
    items, problems = [], []
    for g in workload.generate(mods["instgen"])[:limit]:
        text = graph.render_instance(g.inst, g.comments)
        inst = graph.parse_instance(text, name=g.inst.name)
        if inst != g.inst:
            problems.append(f"{g.inst.name}: parse(render(instance)) differs from the instance")
        items.append(Item(inst, g.planted))
    return items, problems


def run_op(mods, items, op, time_limit: float) -> Outcome:
    inst = items[op.item].inst
    t0 = time.perf_counter()
    try:
        if op.kind == "solve":
            sol = mods["harness"].solve_with_method(inst, op.route, op.objective, time_limit)
            seconds = time.perf_counter() - t0
            return Outcome(op, seconds, sol.status, sol, sol.objective)
        if op.kind == "pareto":
            image = mods["oracle"].objective_image(inst)
            result = (image, mods["oracle"].pareto_front(image))
        else:
            modelgen = mods["modelgen"]
            result = []
            for model in modelgen.MODELS:
                text, summary = modelgen.export(inst, model)
                result.append((model, len(text), modelgen.verify_counts(summary, inst)))
        return Outcome(op, time.perf_counter() - t0, "OK", result)
    except Exception as exc:  # a crashing call is an ERROR op, never a crashed run
        return Outcome(op, time.perf_counter() - t0, "ERROR", error=f"{type(exc).__name__}: {exc}")


def run_pass(mods, items, ops, time_limit: float, tracer=None):
    outcomes = []
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        out = run_op(mods, items, op, time_limit)
        if tracer is not None:
            tracer.end_op(op_record(items, out, tracer))
        outcomes.append(out)
    return time.perf_counter() - t0, outcomes


def repeat_rounds(mods, items, gate, first, time_limit: float, deadline: float) -> list[list]:
    """Calls of each op after the first pass, while the deadline allows.

    Only ops that neither timed out nor failed in the first pass are
    repeated.  Each repeat is checked at once and its result dropped, so
    repeats do not add to the memory the run reports.
    """
    again = [i for i, o in enumerate(first) if o.status not in ("TIMEOUT", "ERROR")]
    repeats: list[list[Outcome]] = [[] for _ in first]
    round_s = sum(first[i].seconds for i in again)
    for _ in range(MAX_ROUNDS):
        if not again or time.perf_counter() + round_s > deadline:
            break
        t0 = time.perf_counter()
        for i in again:
            call = run_op(mods, items, first[i].op, time_limit)
            gate.check_repeat(first[i], call)
            repeats[i].append(call)
        round_s = time.perf_counter() - t0
    return repeats


def call_record(items, o) -> dict:
    """One call as a JSON-ready record."""
    return {
        "instance": items[o.op.item].inst.name,
        "kind": o.op.kind,
        "route": o.op.route,
        "objective": o.op.objective,
        "status": o.status,
        "value": o.value,
        "wall_ms": o.seconds * 1e3,
    }


def op_record(items, out, tracer) -> dict:
    return call_record(items, out) | {"presolve_infeasible": "presolve_infeasible" in tracer.op_flags}


# --- metrics ------------------------------------------------------------------


def route_totals(ops, seconds) -> dict[str, float]:
    """Seconds per route (solves) and per op kind (pareto, export)."""
    totals: dict[str, float] = {}
    for op, sec in zip(ops, seconds):
        key = f"{op.route}_s" if op.kind == "solve" else f"{op.kind}_s"
        totals[key] = totals.get(key, 0.0) + sec
    return totals


def end_to_end(setup_s: float, first, calls) -> dict[str, tuple[float, str]]:
    """Metrics of one pass, each op timed by the median of its calls."""
    ops = [o.op for o in first]
    op_s = [statistics.median(c.seconds for c in op_calls) for op_calls in calls]
    solve_ms = [sec * 1e3 for op, sec in zip(ops, op_s) if op.kind == "solve"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sum(op_s), "s"),
        "solve_p50_ms": (statistics.median(solve_ms), "ms"),
        "solve_p90_ms": (statistics.quantiles(solve_ms, n=10)[-1], "ms"),
        "failed_frac": (sum(o.failed for o in first) / len(first), "ratio"),
    }
    totals = route_totals(ops, op_s)
    for key in ("oracle_s", "dfs_s", "naive_s", "witness_s", "pareto_s", "export_s"):
        if key in totals:
            metrics[key] = (totals[key], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer, traced, untraced_sweep: float, traced_sweep: float, untraced) -> dict:
    spans, counters = tracer.spans, tracer.counters

    def calls(name):
        return (spans[name][0], "count")

    def self_ms(name):
        return (spans[name][2] * 1e3, "ms")

    def total_ms(name):
        return (spans[name][1] * 1e3, "ms")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    solves = [o for o in traced if o.op.kind == "solve" and o.status != "ERROR"]
    by_route = {r: [o for o in solves if o.op.route == r] for r in ROUTES}

    def certified_sum(route, field):
        return sum(getattr(o.result.stats, field) for o in by_route[route] if o.status != "TIMEOUT")

    def nodes_per_s(route):
        nodes = sum(o.result.stats.choice_points for o in by_route[route])
        secs = sum(o.seconds for o in by_route[route])
        return (nodes / secs if secs else 0.0, "1/s")

    searched = [o for o in tracer.records if o["kind"] == "solve" and o["route"] != "oracle"]
    all_nodes = sum(o.result.stats.choice_points for o in solves)
    m = {
        "graph.parse_ms": total_ms("graph.parse_instance"),
        "graph.enumerate_cliques.calls": calls("graph.enumerate_cliques"),
        "graph.enumerate_cliques.self_ms": self_ms("graph.enumerate_cliques"),
        "graph.cliques_out": (counters["graph.cliques_out"], "count"),
    }
    for name in ("greedy_dvop", "greedy_from_clique", "check_order"):
        m[f"order.{name}.calls"] = calls(f"order.{name}")
        m[f"order.{name}.self_ms"] = self_ms(f"order.{name}")
    m["presolve.full_presolve.calls"] = calls("presolve.full_presolve")
    m["presolve.full_presolve.self_ms"] = self_ms("presolve.full_presolve")
    m["presolve.infeasible_frac"] = ratio(sum(o["presolve_infeasible"] for o in searched), len(searched))
    for name in ("brute_optimum", "objective_image"):
        m[f"oracle.{name}.calls"] = calls(f"oracle.{name}")
        m[f"oracle.{name}.self_ms"] = self_ms(f"oracle.{name}")
    m["oracle.pareto_front.self_ms"] = self_ms("oracle.pareto_front")
    m["oracle.masks"] = (counters["oracle.masks"], "count")
    m["dfs_solver.solve.self_ms"] = self_ms("dfs_solver.solve")
    m["dfs_solver.choice_points"] = (certified_sum("dfs", "choice_points"), "count")
    m["dfs_solver.nodes_per_s"] = nodes_per_s("dfs")
    m["dfs_solver.Deadline.expired.calls"] = (counters["dfs_solver.Deadline.expired"], "count")
    m["dfs_solver.Deadline.expired.per_choice_point"] = ratio(counters["dfs_solver.Deadline.expired"], all_nodes)
    m["naive_decomp.solve_naive.self_ms"] = self_ms("naive_decomp.solve_naive")
    for name in ("mp1_solve", "sp1_solve", "find_iis"):
        m[f"naive_decomp.{name}.calls"] = calls(f"naive_decomp.{name}")
        m[f"naive_decomp.{name}.self_ms"] = self_ms(f"naive_decomp.{name}")
    m["naive_decomp.sp1_feasible_ratio"] = ratio(
        counters["naive_decomp.sp1_feasible"], spans["naive_decomp.sp1_solve"][0]
    )
    m["naive_decomp.cuts"] = (certified_sum("naive", "cuts"), "count")
    m["naive_decomp.nodes_per_s"] = nodes_per_s("naive")
    m["witness_decomp.solve_witness.self_ms"] = self_ms("witness_decomp.solve_witness")
    for name in ("mp2_solve", "sp2_check"):
        m[f"witness_decomp.{name}.calls"] = calls(f"witness_decomp.{name}")
        m[f"witness_decomp.{name}.self_ms"] = self_ms(f"witness_decomp.{name}")
    m["witness_decomp.mp2_solve.per_solve"] = ratio(spans["witness_decomp.mp2_solve"][0], len(by_route["witness"]))
    m["witness_decomp.accept_ratio"] = ratio(
        counters["witness_decomp.sp2_accepted"], spans["witness_decomp.sp2_check"][0]
    )
    m["witness_decomp.cuts"] = (certified_sum("witness", "cuts"), "count")
    m["witness_decomp.cliques_considered"] = (certified_sum("witness", "cliques_considered"), "count")
    m["witness_decomp.nodes_per_s"] = nodes_per_s("witness")
    m["modelgen.export.calls"] = calls("modelgen.export")
    m["modelgen.export.self_ms"] = self_ms("modelgen.export")
    m["modelgen.verify_counts.self_ms"] = self_ms("modelgen.verify_counts")
    m["modelgen.lp_bytes"] = (counters["modelgen.lp_bytes"], "bytes")
    m["instgen.gen_ms"] = (
        (spans["instgen.gen_random"][1] + spans["instgen.gen_synthetic_detailed"][1]) * 1e3,
        "ms",
    )
    m["harness.solve_with_method.self_ms"] = self_ms("harness.solve_with_method")
    m["trace.sweep_s"] = (traced_sweep, "s")
    m["trace.overhead_s"] = (traced_sweep - untraced_sweep, "s")
    totals = route_totals([o.op for o in untraced], [o.seconds for o in untraced])
    for key in ("oracle_s", "pareto_s", "export_s"):
        m[f"untraced.{key}"] = (totals.get(key, 0.0), "s")
    return m


# --- report -------------------------------------------------------------------


def write_calls(path, items, calls) -> None:
    """Every call of every op, one JSON line each."""
    with open(path, "w") as fh:
        for op_calls in calls:
            for k, o in enumerate(op_calls, 1):
                fh.write(json.dumps({"call": k} | call_record(items, o), sort_keys=True) + "\n")


def describe(items, o) -> str:
    what = o.op.objective or o.op.kind
    return f"({items[o.op.item].inst.name}, {o.op.route}, {what})"


def report(items, calls, traced, metrics, notes, limit: float) -> None:
    """Human-readable part of the output; traced is [] or the traced pass."""
    first = [op_calls[0] for op_calls in calls]
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6f} {unit:<6} {notes.get(name, '')}")
    failed = [o for o in first if o.status in ("TIMEOUT", "ERROR")]
    print(f"TIMEOUT/ERROR ops in the first pass: {len(failed)}")
    for o in failed:
        extra = f" {o.error}" if o.error else ""
        print(f"  {o.status:<8} {describe(items, o)} {o.seconds * 1e3:.1f} ms{extra}")
    near = [o for o in first if o.status in ("OPTIMAL", "INFEASIBLE") and o.seconds > 0.75 * limit]
    print(f"certified ops within 25% of the {limit} s limit in the first pass: {len(near)}")
    for o in near:
        print(f"  {o.status:<8} {describe(items, o)} {o.seconds * 1e3:.1f} ms")
    compared = [("status flips between untraced calls", [(c[0], b) for c in calls for b in c[1:]])]
    if traced:
        compared.append(("status changes under tracing", list(zip(first, traced))))
    for label, pairs in compared:
        flips = [(a, b) for a, b in pairs if a.status != b.status]
        print(f"{label}: {len(flips)}")
        for a, b in flips:
            print(f"  {describe(items, a)} {a.status} ({a.seconds * 1e3:.1f} ms) -> {b.status} ({b.seconds * 1e3:.1f} ms)")
    wrong = [o for o in [c for op_calls in calls for c in op_calls] + traced if o.wrong]
    print(f"wrong answers: {len(wrong)}")
    for o in wrong:
        print(f"  {describe(items, o)} {o.status}: {'; '.join(o.wrong)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--limit-instances", type=int, default=None, metavar="N",
        help="use only the first N instances (self-test sizes)",
    )
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        pkg, mods = import_package()
    except ImportError as exc:
        print(f"cannot import ddvop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from gate import Gate
    from tracing import Tracer

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items, setup_problems = build_items(mods, workload, args.limit_instances)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_seconds() + statistics.median(setup_times)
    ops = workload.ops(len(items), args.seed)
    gate = Gate(items)

    sweep, first = run_pass(mods, items, ops, workload.time_limit)
    gate.check_pass(first)
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install(pkg)
        try:
            build_items(mods, workload, args.limit_instances)  # traced set-up, for gen/parse spans
            traced_sweep, traced = run_pass(mods, items, ops, workload.time_limit, tracer)
        finally:
            tracer.uninstall()
        gate.check_pass(traced)
        repeats = [[] for _ in first]
    else:
        repeats = repeat_rounds(mods, items, gate, first, workload.time_limit, started + args.seconds)
    calls = [[o] + more for o, more in zip(first, repeats)]

    print(f"workload: {workload.name}")
    print(f"recipe: {workload.recipe}")
    print(
        f"provenance: seed={args.seed} time_limit_s={workload.time_limit} instances={len(items)} "
        f"ops_per_pass={len(ops)} solves_per_pass={sum(op.kind == 'solve' for op in ops)} "
        f"repeat_rounds={max(map(len, repeats))} traced={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} commit={git_commit(ROOT)}"
    )
    print(f"first pass wall time: {sweep:.6f} s")
    for problem in setup_problems:
        print(f"setup: {problem}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics = per_layer(tracer, traced, sweep, traced_sweep, first)
        notes = {}
        path = out_dir / f"spans_{workload.name}_s{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans: {path.relative_to(ROOT)} (one line per op)")
    else:
        metrics = end_to_end(setup_s, first, calls)
        n_solves = sum(op.kind == "solve" for op in ops)
        per_op = "each op the median of its calls"
        notes = {
            "setup_s": f"(median of {SETUP_REPEATS} fresh imports + median of {SETUP_REPEATS} generate/render/parse)",
            "sweep_s": f"(sum over the {len(ops)} ops, {per_op})",
            "solve_p50_ms": f"(n={n_solves} solves, {per_op})",
            "solve_p90_ms": f"(n={n_solves} solves, {n_solves - int(0.9 * n_solves)} beyond, {per_op})",
            "failed_frac": f"(of the {len(ops)} ops of the first pass)",
        }
        for key in ("oracle_s", "dfs_s", "naive_s", "witness_s", "pareto_s", "export_s"):
            notes[key] = f"({per_op})"
        path = out_dir / f"calls_{workload.name}_s{args.seed}.jsonl"
        write_calls(path, items, calls)
        print(f"calls: {path.relative_to(ROOT)} (one line per call)")
    report(items, calls, traced, metrics, notes, workload.time_limit)

    everything = [c for op_calls in calls for c in op_calls] + traced
    correct = not setup_problems and not any(o.wrong for o in everything)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]} for d in declared}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(everything),
                "failed": sum(o.status == "ERROR" or bool(o.wrong) for o in everything),
                "metrics": result,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
