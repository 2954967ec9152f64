"""Self-test of the benchmark: python3 -m pytest benchmark -q

Runs every workload at a tiny size in both modes and checks that each
declared metric is printed with its unit, feeds corrupted solutions
straight to the correctness gate, and checks that the benchmark refuses
to run without the package.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from ddvop import harness, instgen  # noqa: E402
from ddvop.order import VertexOrder  # noqa: E402
from gate import Gate, check_solution  # noqa: E402
from workloads import MIN_DOUBLE, WORKLOADS, Item, Op, Outcome  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--limit-instances", "2",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    text = "\n".join(lines[:-1])
    for d in declared:
        got = result["metrics"][d["name"]]
        assert got["unit"] == d["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{d['name']} " in text and f" {d['unit']} " in text, d["name"]
    assert "provenance: seed=3 " in text and "time_limit_s=" in text and "commit=" in text


def test_seed_orders_the_ops_of_a_fixed_corpus():
    dense = WORKLOADS["dense-random"]
    assert [g.inst for g in dense.generate(instgen)] == [g.inst for g in dense.generate(instgen)]
    assert dense.ops(25, 0) == dense.ops(25, 0)
    assert dense.ops(25, 0) != dense.ops(25, 1)
    assert sorted(dense.ops(25, 0), key=repr) == sorted(dense.ops(25, 1), key=repr)


def test_default_acceptance_corpus_is_the_test_recipe():
    gen = WORKLOADS["acceptance"].generate(instgen)
    assert len(gen) == 70
    assert gen[0].inst.name == "random_n8_d0.3_K3_s100"
    assert sum(g.planted is not None for g in gen) == 20
    assert gen[50].inst.name.startswith("synthetic_") and gen[50].inst.name.endswith("_s0")


def _solved(inst, route="dfs"):
    op = Op("solve", 0, route, MIN_DOUBLE)
    return op, harness.solve_with_method(inst, route, MIN_DOUBLE, 5.0)


def test_gate_reports_corrupted_solutions_as_wrong():
    inst = instgen.gen_random(8, 0.6, 2, 7)
    op, sol = _solved(inst)
    assert sol.status == "OPTIMAL"
    assert check_solution(inst, MIN_DOUBLE, sol) == []

    off_by_one = dataclasses.replace(sol, objective=sol.objective + 1)
    assert any("reported objective" in p for p in check_solution(inst, MIN_DOUBLE, off_by_one))

    bad_order = dataclasses.replace(sol, order=VertexOrder(tuple(reversed(sol.order.perm))))
    problems = check_solution(inst, MIN_DOUBLE, bad_order)
    assert problems, "a reversed order must not pass unnoticed"

    no_order = dataclasses.replace(sol, order=None, doubles=None)
    assert check_solution(inst, MIN_DOUBLE, no_order) == ["OPTIMAL without an order"]


def test_gate_cross_checks_mark_the_wrong_route():
    inst = instgen.gen_random(8, 0.6, 2, 7)
    oracle_op, oracle_sol = _solved(inst, "oracle")
    dfs_op, dfs_sol = _solved(inst, "dfs")
    # A claimed infeasibility on a feasible instance contradicts the oracle,
    # the other route's valid order, and greedy_dvop.
    lying = dataclasses.replace(dfs_sol, status="INFEASIBLE", objective=None, order=None, doubles=None)
    outs = [
        Outcome(oracle_op, 0.0, oracle_sol.status, oracle_sol, oracle_sol.objective),
        Outcome(dfs_op, 0.0, "INFEASIBLE", lying),
    ]
    Gate([Item(inst, None)]).check_pass(outs)
    assert not outs[0].wrong
    assert outs[1].failed and len(outs[1].wrong) == 3, outs[1].wrong


def test_gate_flags_a_repeat_that_changes_the_answer():
    inst = instgen.gen_random(8, 0.6, 2, 7)
    op, sol = _solved(inst)
    first = Outcome(op, 0.0, sol.status, sol, sol.objective)
    again = Outcome(op, 0.0, sol.status, dataclasses.replace(sol, objective=sol.objective + 1), sol.objective + 1)
    Gate([Item(inst, None)]).check_repeat(first, again)
    assert any("differs from this op's first answer" in w for w in again.wrong)
    assert again.result is None


def test_gate_checks_planted_count():
    inst, marks, _, _ = instgen.gen_synthetic_detailed(2, 2, 0.0, 9, 1)
    op, sol = _solved(inst)
    assert sol.status == "OPTIMAL"
    out = Outcome(op, 0.0, sol.status, sol, sol.objective)
    Gate([Item(inst, sol.objective - 1)]).check_pass([out])
    assert any("planted" in w for w in out.wrong)


def test_without_the_package_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in DECLARED["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "acceptance", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmark" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unknown_workload_is_refused():
    proc = run_bench("--workload", "nope", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2 and proc.stdout == ""
