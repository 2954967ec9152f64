"""Exact solvers for minimum-double discretization vertex orders.

A discretization vertex order (DVOP solution) starts with a (K+1)-clique
and gives every later vertex at least K earlier neighbors; vertices with
exactly K earlier neighbors are doubles and each one doubles the size of
the downstream search tree.  This package finds orders minimizing either
the number of doubles or the implied tree node count, via a brute-force
oracle, an exact closure search, and two master/subproblem
decompositions, plus a per-root bound table (presolve), LP model
export, a checker of an order against the paper's IP and CP
formulations, instance generators, and a benchmark harness.  Every
solver route takes a time limit and nothing else to tune (the oracle
bounds its own work by a fixed budget), and returns a Solution with its
SolveStats; those shared types live in `solution`.  `ddvop presolve`
prints the root bounds that witness and naive compute for themselves.
"""

from .dfs_solver import solve
from .graph import (
    DisconnectedGraphError,
    Instance,
    ParseError,
    parse_instance,
    render_instance,
)
from .harness import (
    BenchRow,
    UsageError,
    bench_csv,
    perf_profile,
    profile_csv,
    run_bench,
    solve_with_method,
)
from .instgen import GenerationError, Rng, gen_random, gen_synthetic
from .modelgen import (
    ModelSummary,
    export,
    formulation_sizes,
    validate_formulation,
    verify_counts,
)
from .naive_decomp import solve_naive
from .oracle import (
    OracleResult,
    ParetoPoint,
    brute_optimum,
    enumerate_valid_orders,
    objective_image,
    pareto_front,
)
from .order import (
    DoublePattern,
    OrderReport,
    VertexOrder,
    check_order,
    format_solution,
    greedy_dvop,
    parse_solution,
)
from .presolve import PresolveResult, full_presolve
from .solution import Solution, SolveStats
from .witness_decomp import (
    WitnessState,
    ef_validate,
    induce_witness_state,
    solve_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "DisconnectedGraphError",
    "DoublePattern",
    "GenerationError",
    "Instance",
    "ModelSummary",
    "OracleResult",
    "OrderReport",
    "ParetoPoint",
    "ParseError",
    "PresolveResult",
    "Rng",
    "Solution",
    "SolveStats",
    "UsageError",
    "VertexOrder",
    "WitnessState",
    "bench_csv",
    "brute_optimum",
    "check_order",
    "ef_validate",
    "enumerate_valid_orders",
    "export",
    "format_solution",
    "full_presolve",
    "gen_random",
    "gen_synthetic",
    "greedy_dvop",
    "induce_witness_state",
    "objective_image",
    "parse_instance",
    "parse_solution",
    "pareto_front",
    "perf_profile",
    "profile_csv",
    "render_instance",
    "run_bench",
    "solve",
    "solve_naive",
    "solve_with_method",
    "solve_witness",
    "formulation_sizes",
    "validate_formulation",
    "verify_counts",
    "__version__",
]
