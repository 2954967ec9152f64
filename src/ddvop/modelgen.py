"""LP-format exports of the integer programming formulations.

Writes the rank-indexed IP for minimum doubles, its node-count
extension, the two linear-ordering formulations (full cycle breaking
and rank-linked), the cycle-constraint-generation master with 2- and
3-cycle seeds, and the witness master, all as deterministic CPLEX-style
LP text for external MIP solvers.  A small parser and evaluator allow
substituting a known order into an exported file to confirm every
constraint and the objective value.

Summaries carry two counts per variable or constraint family: the raw
number of names or rows emitted, and the table count.  formulation_sizes
is the one home of the table convention: a family takes its value from
the model's row there, or its raw count when the row lacks it.
verify_counts checks the raw counts against closed forms.

validate_formulation checks an order and a double pattern against the
paper's IP (through its export) and its three CP formulations.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Instance, enumerate_cliques, extendable_k_cliques
from .order import DoublePattern, VertexOrder, check_order
from .witness_decomp import induce_witness_state

MODELS = ("ip", "minnodes", "cycles", "ranks", "mp2", "ccg")
CLIQUE_MODELS = ("cycles", "ranks", "ccg")  # the models that read unordered_cliques

# Measured, `export --model ip` on gen_random(n, 0.5, 3, 1) (Python 3.11,
# 20 MB rss before the export): n = 30 wrote 0.39 M coefficients and
# peaked at 37 MB rss, n = 38 0.99 M at 65 MB, n = 40 (ceiling lifted)
# 1.2 M at 75 MB.  So ip stops between n = 38 and 39.  A refused export
# peaks at 35 MB rss for n <= 100 and builds more the larger n is: a
# 707-vertex path peaks at 88 MB.  From n = 708 the 2n^2 assign
# coefficients alone pass the ceiling, and ip refuses before building
# anything.  cycles, ranks and ccg refuse before building their clique
# labelings when the labelings alone pass it.
MAX_NONZEROS = 1_000_000

Term = tuple[int, str]


class ModelTooLargeError(ValueError):
    """An export would write more than MAX_NONZEROS constraint coefficients."""


def _refuse_past_ceiling(nonzeros: int) -> None:
    if nonzeros > MAX_NONZEROS:
        raise ModelTooLargeError(
            f"the model passes the export ceiling of {MAX_NONZEROS} nonzeros"
        )


class _Lp:
    """Accumulates one LP model and renders deterministic text.

    Every variable and constraint is added under a family name, and the
    per-family tallies are the raw counts a ModelSummary reports.  Rows,
    the objective and the variable lists wrap at 78 columns: a line takes
    its first part whatever its length, then every next part that fits,
    and continuation lines are indented six spaces.
    """

    def __init__(self, comments: Sequence[str]):
        self.comments = list(comments)
        self.obj_terms: list[Term] = []
        self.obj_const = 0
        self.cons: list[tuple[str, list[Term], str, int]] = []
        self.bounds: list[tuple[int, str, int]] = []
        self.binaries: list[str] = []
        self.generals: list[str] = []
        self.var_counts: Counter[str] = Counter()
        self.con_counts: Counter[str] = Counter()
        self.nonzeros = 0
        self.warning = ""

    def constraint(
        self, family: str, name: str, terms: list[Term], sense: str, rhs: int
    ) -> None:
        """Store a row.  terms is kept, not copied: callers never change it after."""
        assert sense in ("<=", ">=", "=")
        self.nonzeros += len(terms)
        _refuse_past_ceiling(self.nonzeros)
        self.cons.append((name, terms, sense, rhs))
        self.con_counts[family] += 1

    def declare(self, family: str, names: Sequence[str], general: bool = False) -> None:
        """Declare a family of binary (or general integer) variables."""
        (self.generals if general else self.binaries).extend(names)
        self.var_counts[family] += len(names)

    @staticmethod
    def _expr(terms: Sequence[Term], const: int = 0) -> list[str]:
        parts = [
            "+ " + var if coef == 1
            else "- " + var if coef == -1
            else f"{'+' if coef > 0 else '-'} {abs(coef)} {var}"
            for coef, var in terms
            if coef
        ]
        if parts and parts[0][0] == "+":
            parts[0] = parts[0][2:]
        if not parts:
            parts.append(str(const))
        elif const:
            parts.append(("+ " if const > 0 else "- ") + str(abs(const)))
        return parts

    @staticmethod
    def _wrap(head: str, parts: list[str], tail: str = "") -> list[str]:
        # Parts are joined with NUL, which no part contains, so each break is
        # one rfind for the last separator within the line's budget.
        text = "\0".join(parts)
        lines: list[str] = []
        lead, start, budget = head, 0, 77 - len(head)
        while len(text) - start > budget:
            cut = text.rfind("\0", start, start + budget + 1)
            if cut < 0:
                cut = text.find("\0", start)
                if cut < 0:
                    break
            lines.append(f"{lead} {text[start:cut]}".replace("\0", " "))
            lead, start, budget = "     ", cut + 1, 72
        last = f"{lead} {text[start:]}".replace("\0", " ") if parts else head
        lines.append(f"{last} {tail}" if tail else last)
        return lines

    def render(self) -> str:
        out: list[str] = [f"\\ {c}" for c in self.comments]
        out.append("Minimize")
        out.extend(self._wrap(" obj:", self._expr(self.obj_terms, self.obj_const)))
        out.append("Subject To")
        for name, terms, sense, rhs in self.cons:
            out.extend(self._wrap(f" {name}:", self._expr(terms), f"{sense} {rhs}"))
        if self.bounds:
            out.append("Bounds")
            for lo, var, hi in self.bounds:
                out.append(f" {lo} <= {var} <= {hi}")
        if self.binaries:
            out.append("Binaries")
            out.extend(self._wrap("", self.binaries))
        if self.generals:
            out.append("Generals")
            out.extend(self._wrap("", self.generals))
        out.append("End")
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ModelSummary:
    """Per-family (raw emitted, table convention) counts for one export."""

    model: str
    n: int
    m: int
    K: int
    variables: dict[str, tuple[int, int]]
    constraints: dict[str, tuple[int, int]]
    unordered_cliques: bool = False
    warning: str = ""


def summary_csv(summary: ModelSummary) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["model", "section", "family", "count", "table_count"])
    for fam, (raw, table) in summary.variables.items():
        w.writerow([summary.model, "variables", fam, raw, table])
    for fam, (raw, table) in summary.constraints.items():
        w.writerow([summary.model, "constraints", fam, raw, table])
    if summary.warning:
        w.writerow([summary.model, "warning", summary.warning, "", ""])
    return buf.getvalue()


def ordered_extendable_cliques(
    inst: Instance, unordered: bool = False
) -> list[tuple[int, ...]]:
    """Initial-clique candidates: extendable K-cliques with rank labelings.

    The linking coefficient depends on each member's rank inside the
    clique, so every labeling is a distinct candidate; the unordered
    variant keeps only the sorted labeling as a size-saving
    approximation.  The pick_clique row holds one coefficient per
    labeling, so ModelTooLargeError refuses the labelings before they are
    built when that row alone passes MAX_NONZEROS.
    """
    roots = extendable_k_cliques(inst)
    if unordered:
        return [cl.members for cl in roots]
    _refuse_past_ceiling(len(roots) * math.factorial(inst.K))
    return [p for cl in roots for p in itertools.permutations(cl.members)]


def _kappa_name(c: tuple[int, ...]) -> str:
    return "kappa_" + "_".join(str(v) for v in c)


_NO_CLIQUE = "no extendable K-clique; emitted trivially infeasible model"


def _trivial_model(lp: _Lp) -> None:
    lp.comments.append(f"warning: {_NO_CLIQUE}")
    lp.warning = _NO_CLIQUE
    lp.obj_terms = [(1, "infeasible_dummy")]
    lp.constraint("infeasible", "force_one", [(1, "infeasible_dummy")], ">=", 1)
    lp.constraint("infeasible", "force_zero", [(1, "infeasible_dummy")], "<=", 0)
    lp.declare("dummy", ["infeasible_dummy"])


def _header(inst: Instance, model: str) -> list[str]:
    name = inst.name or "instance"
    return [
        f"model {model} for {name} (n={inst.n}, m={len(inst.edges)}, K={inst.K})"
    ]


def _export_ip(inst: Instance, with_nodes: bool) -> _Lp:
    n, K = inst.n, inst.K
    # The 2n assign rows alone hold 2n^2 coefficients: refuse before the
    # n^2 x-terms are built when they pass the ceiling.
    _refuse_past_ceiling(2 * n * n)
    lp = _Lp(_header(inst, "minnodes" if with_nodes else "ip"))
    if with_nodes:
        lp.obj_terms = [(1, f"m_{r}") for r in range(n)]
    else:
        lp.obj_terms = [(1, f"y_{r}") for r in range(n)]
    # xt[v][r] is the one (1, "x_v_r") term every row shares.
    xt = [[(1, f"x_{v}_{r}") for r in range(n)] for v in range(n)]
    for v in range(n):
        lp.constraint("1-1 assignment", f"assign_v{v}", xt[v], "=", 1)
    for r in range(n):
        col = [xt[v][r] for v in range(n)]
        lp.constraint("1-1 assignment", f"assign_r{r}", col, "=", 1)
    # earlier[v, r]: the x-terms of v's neighbours at ranks below r, built
    # for the pred row of (v, r) and kept for its wit row.
    earlier: dict[tuple[int, int], list[Term]] = {}
    for v in range(n):
        nbrs = sorted(inst.neighbors[v])
        for r in range(1, n):
            # Rank r needs r adjacent predecessors inside the clique
            # prefix, K afterwards.
            need = r if r <= K else K
            earlier[v, r] = xs = []
            for u in nbrs:
                xs += xt[u][:r]
            terms = xs + [(-need, xt[v][r][1])]
            lp.constraint("clique", f"pred_v{v}_r{r}", terms, ">=", 0)
    for r in range(K):
        lp.constraint("fixing", f"fix_y{r}", [(1, f"y_{r}")], "=", 0)
    lp.constraint("fixing", f"fix_y{K}", [(1, f"y_{K}")], "=", 1)
    for v in range(n):
        for r in range(K, n):
            z = f"z_{v}_{r}"
            terms = earlier[v, r]
            terms.append((-(K + 1), z))
            lp.constraint("linking", f"wit_v{v}_r{r}", terms, ">=", 0)
            terms = [xt[v][r], (-1, f"y_{r}"), (-1, z)]
            lp.constraint("linking", f"dbl_v{v}_r{r}", terms, "<=", 0)
    lp.declare("x", [x for row in xt for _, x in row])
    lp.declare("y", [f"y_{r}" for r in range(n)])
    lp.declare("z", [f"z_{v}_{r}" for v in range(n) for r in range(K, n)])
    if with_nodes:
        for r in range(K):
            lp.constraint("node fixing", f"mfix_r{r}", [(1, f"m_{r}")], "=", 1)
        for r in range(K, n):
            terms = [(1, f"m_{r}"), (-1, f"m_{r - 1}")]
            lp.constraint("node monotone", f"mmono_r{r}", terms, ">=", 0)
            # m_r - 2 m_{r-1} >= -2^{r-K} (1 - y_{r-1}), the big-M wide
            # enough for the all-doubles worst case.
            big = 2 ** (r - K)
            terms = [(1, f"m_{r}"), (-2, f"m_{r - 1}"), (-big, f"y_{r - 1}")]
            lp.constraint("node doubling", f"mdbl_r{r}", terms, ">=", -big)
        lp.declare("m", [f"m_{r}" for r in range(n)], general=True)
    return lp


def _linking_rows(
    lp: _Lp, inst: Instance, cliques: list[tuple[int, ...]], pt: list[list[Term]]
) -> None:
    """Adjacent-predecessor requirement with the clique-rank correction.

    A vertex inside the chosen initial clique at clique rank R only has
    R-1 predecessors, so its kappa carries coefficient K-R+1; everyone
    ends up needing K predecessors when a double, K+1 otherwise, which
    forces y to 1 across the chosen clique.
    """
    n, K = inst.n, inst.K
    kappas: list[list[Term]] = [[] for _ in range(n)]
    for c in cliques:
        name = _kappa_name(c)
        for rank, v in enumerate(c):
            kappas[v].append((K - rank, name))
    for i in range(n):
        terms = [pt[j][i] for j in sorted(inst.neighbors[i])] + kappas[i]
        terms.append((1, f"y_{i}"))
        lp.constraint("linking", f"link_v{i}", terms, ">=", K + 1)


def _export_ordering(inst: Instance, model: str, unordered: bool) -> _Lp:
    n, K = inst.n, inst.K
    lp = _Lp(_header(inst, model))
    cliques = ordered_extendable_cliques(inst, unordered)
    if not cliques:
        _trivial_model(lp)
        return lp
    lp.obj_terms = [(1, f"y_{v}") for v in range(n)]
    lp.obj_const = -K
    edge_pairs = inst.sorted_edges()
    # pt[i][j] is the one (1, "p_i_j") term every row shares.
    pt = [[(1, f"p_{i}_{j}") for j in range(n)] for i in range(n)]
    family = "linear ordering"
    if model == "cycles":
        p_names = [pt[i][j][1] for i in range(n) for j in range(n) if i != j]
        for i, j in itertools.combinations(range(n), 2):
            lp.constraint(family, f"pair_{i}_{j}", [pt[i][j], pt[j][i]], "=", 1)
        for i, j in edge_pairs:
            for k in range(n):
                if k == i or k == j:
                    continue
                for a, b in ((i, j), (j, i)):
                    terms = [pt[a][b], pt[b][k], pt[k][a]]
                    lp.constraint(family, f"tri_{a}_{b}_{k}", terms, "<=", 2)
    else:
        p_names = [f"p_{i}_{j}" for i, j in edge_pairs] + [
            f"p_{j}_{i}" for i, j in edge_pairs
        ]
        p_names.sort()
        if model == "ranks":
            for i, j in edge_pairs:
                for a, b in ((i, j), (j, i)):
                    terms = [(n, f"p_{a}_{b}"), (1, f"r_{a}"), (-1, f"r_{b}")]
                    lp.constraint(family, f"mtz_{a}_{b}", terms, "<=", n - 1)
        else:  # ccg master with 2- and 3-cycle seeds
            triangles = enumerate_cliques(inst, 3)
            family = "cycle breaking cuts"
            for i, j in edge_pairs:
                lp.constraint(family, f"cyc2_{i}_{j}", [pt[i][j], pt[j][i]], "<=", 1)
            for t in triangles:
                a, b, c = t.members
                for x, y in ((b, c), (c, b)):
                    terms = [pt[a][x], pt[x][y], pt[y][a]]
                    lp.constraint(family, f"cyc3_{a}_{x}_{y}", terms, "<=", 2)
    terms = [(1, _kappa_name(c)) for c in cliques]
    lp.constraint("clique selection", "pick_clique", terms, "=", 1)
    _linking_rows(lp, inst, cliques, pt)
    lp.declare("y", [f"y_{v}" for v in range(n)])
    lp.declare("kappa", [_kappa_name(c) for c in cliques])
    lp.declare("p", p_names)
    if model == "ranks":
        lp.declare("r", [f"r_{v}" for v in range(n)], general=True)
        lp.bounds = [(0, f"r_{v}", n - 1) for v in range(n)]
    return lp


def _export_mp2(inst: Instance) -> _Lp:
    n, K = inst.n, inst.K
    lp = _Lp(_header(inst, "mp2"))
    lp.obj_terms = [(1, f"y_{v}") for v in range(n)]
    lp.obj_const = 1
    terms = [(1, f"kappa_{v}") for v in range(n)]
    lp.constraint("clique selection", "pick_clique", terms, "=", K + 1)
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in inst.edges:
            terms = [(1, f"kappa_{u}"), (1, f"kappa_{v}")]
            lp.constraint("clique witness", f"nonadj_{u}_{v}", terms, "<=", 1)
    for v in range(n):
        for u in sorted(inst.neighbors[v]):
            terms = [(1, f"w_{u}_{v}"), (-1, f"kappa_{v}")]
            lp.constraint("clique witness", f"cw_v{v}_u{u}", terms, ">=", 0)
    for v in range(n):
        terms = [(1, f"w_{v}_{u}") for u in sorted(inst.neighbors[v])]
        terms.append((1, f"kappa_{v}"))
        terms.append((1, f"y_{v}"))
        lp.constraint("witness", f"wit_v{v}", terms, "=", K + 1)
    lp.declare("y", [f"y_{v}" for v in range(n)])
    lp.declare("kappa", [f"kappa_{v}" for v in range(n)])
    lp.declare(
        "w", sorted(f"w_{a}_{b}" for u, v in inst.edges for a, b in ((u, v), (v, u)))
    )
    return lp


# The formulation_sizes row of an export's table counts, where it is not
# the row of the same name.
_TABLE_ROW = {"minnodes": "ip", "mp2": "witness"}


def _with_table(
    inst: Instance, model: str, variables: dict[str, int], constraints: dict[str, int]
) -> tuple[dict[str, tuple[int, int]], dict[str, tuple[int, int]]]:
    """Pair each family's raw count with its table count.

    A family the model's formulation_sizes row lists takes that value and
    keeps the row's order; any other family takes its raw count and
    follows in emission order.
    """
    row = formulation_sizes(inst)[_TABLE_ROW.get(model, model)]

    def pair(raw: dict[str, int], table: dict[str, int]) -> dict[str, tuple[int, int]]:
        order = [f for f in table if f in raw] + [f for f in raw if f not in table]
        return {f: (raw[f], table.get(f, raw[f])) for f in order}

    return pair(variables, row["variables"]), pair(constraints, row["constraints"])


def export(
    inst: Instance, model: str, unordered_cliques: bool = False
) -> tuple[str, ModelSummary]:
    """Render one formulation as LP text plus its family counts."""
    model = model.lower()
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if unordered_cliques and model not in CLIQUE_MODELS:
        raise ValueError(f"unordered cliques apply only to {', '.join(CLIQUE_MODELS)}")
    if model in ("ip", "minnodes"):
        lp = _export_ip(inst, model == "minnodes")
    elif model == "mp2":
        lp = _export_mp2(inst)
    else:
        lp = _export_ordering(inst, model, unordered_cliques)
    variables, constraints = _with_table(inst, model, lp.var_counts, lp.con_counts)
    summary = ModelSummary(
        model=model,
        n=inst.n,
        m=len(inst.edges),
        K=inst.K,
        variables=variables,
        constraints=constraints,
        unordered_cliques=unordered_cliques,
        warning=lp.warning,
    )
    return lp.render(), summary


def _expected_summary(
    inst: Instance, model: str, unordered: bool
) -> tuple[dict[str, int], dict[str, int], str]:
    """Closed-form raw family counts and warning, from n, |E|, K."""
    n, K = inst.n, inst.K
    m = len(inst.edges)
    if model in ("ip", "minnodes"):
        variables = {"y": n, "x": n * n, "z": n * (n - K)}
        constraints = {
            "1-1 assignment": 2 * n,
            "clique": n * (n - 1),
            "fixing": K + 1,
            "linking": 2 * n * (n - K),
        }
        if model == "minnodes":
            variables["m"] = n
            constraints["node fixing"] = K
            constraints["node monotone"] = n - K
            constraints["node doubling"] = n - K
        return variables, constraints, ""
    if model == "mp2":
        variables = {"y": n, "kappa": n, "w": 2 * m}
        constraints = {
            "clique selection": 1,
            "clique witness": n * (n - 1) // 2 + m,
            "witness": n,
        }
        return variables, constraints, ""
    base = len(extendable_k_cliques(inst))
    if base == 0:
        return {"dummy": 1}, {"infeasible": 2}, _NO_CLIQUE
    nkappa = base if unordered else base * math.factorial(K)
    variables = {"y": n, "kappa": nkappa, "p": 2 * m}
    constraints = {"clique selection": 1, "linking": n}
    if model == "cycles":
        variables["p"] = n * (n - 1)
        constraints["linear ordering"] = n * (n - 1) // 2 + 2 * m * (n - 2)
    elif model == "ranks":
        variables["r"] = n
        constraints["linear ordering"] = 2 * m
    else:
        assert model == "ccg"
        constraints["cycle breaking cuts"] = m + 2 * len(enumerate_cliques(inst, 3))
    return variables, constraints, ""


def verify_counts(summary: ModelSummary, inst: Instance) -> bool:
    """True iff the summary's raw counts and warning match the closed forms
    for inst, and its table counts follow formulation_sizes."""
    if (summary.n, summary.m, summary.K) != (inst.n, len(inst.edges), inst.K):
        return False
    variables, constraints, warning = _expected_summary(
        inst, summary.model, summary.unordered_cliques
    )
    expected = _with_table(inst, summary.model, variables, constraints)
    return summary.warning == warning and (
        summary.variables, summary.constraints
    ) == expected


def formulation_sizes(inst: Instance) -> dict[str, dict[str, dict[str, int]]]:
    """Closed-form variable and constraint counts, one row per approach.

    Includes the CP and decomposition rows that are implemented natively
    rather than exported, so sizes are comparable across the board.
    """
    n, K = inst.n, inst.K
    m = len(inst.edges)
    return {
        "cycles": {
            "variables": {"y": n, "kappa": n, "p": n * n},
            "constraints": {
                "clique selection": 1,
                "linking": n,
                "linear ordering": n * n + n * n * m,
            },
        },
        "ranks": {
            "variables": {"y": n, "kappa": n, "p": 2 * m, "r": n},
            "constraints": {
                "clique selection": 1,
                "linking": n,
                "linear ordering": m,
            },
        },
        "ccg": {
            "variables": {"y": n, "kappa": n, "p": 2 * m},
            "constraints": {"clique selection": 1, "linking": n},
        },
        "ip": {
            "variables": {"y": n, "x": n * n},
            "constraints": {
                "1-1 assignment": 2 * n,
                "clique": n * n,
                "fixing": K + 1,
                "linking": 2 * (n * n - K - 1),
            },
        },
        "cp-rank": {
            "variables": {"y": n, "r": n},
            "constraints": {
                "AllDifferent": 1,
                "clique": n * (n - 1) // 2 - m,
                "logical": n,
            },
        },
        "cp-vertex": {
            "variables": {"y": n, "v": n},
            "constraints": {
                "AllDifferent": 1,
                "clique": K * (K + 1) // 2,
                "fixing": K + 1,
                "logical": n - K - 1,
            },
        },
        "cp-combined": {
            "variables": {"y": n, "r": n, "v": n},
            "constraints": {
                "inverse": 1,
                "clique": (n * (n - 1) + K * (K + 1)) // 2 - m,
                "logical": n + n - K - 1,
                "fixing": K + 1,
            },
        },
        "naive": {
            "variables": {"y": n, "v": n},
            "constraints": {
                "fixing": K + 1,
                "AllDifferent": 1,
                "clique": K * (K + 1) // 2,
                "fixing and logical": n,
            },
        },
        "witness": {
            "variables": {"y": n, "kappa": n, "w": 2 * m, "r": n},
            "constraints": {
                "clique selection": 1,
                "clique witness": n * (n - 1) // 2 + m,
                "witness": n,
                "AllDifferent": 1,
                "rank": n + 2 * m,
            },
        },
    }


# --- parsing and evaluation of exported text ---


@dataclass
class LpConstraint:
    name: str
    terms: list[Term]
    sense: str
    rhs: int


@dataclass
class LpProgram:
    obj_terms: list[Term]
    obj_const: int
    constraints: list[LpConstraint]
    binaries: list[str]
    generals: list[str]
    bounds: dict[str, tuple[int, int]]

    def variables(self) -> set[str]:
        seen = {v for _, v in self.obj_terms}
        for c in self.constraints:
            seen.update(v for _, v in c.terms)
        return seen


_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _parse_terms(text: str) -> tuple[list[Term], int]:
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    terms: list[Term] = []
    const = 0
    sign = 1
    coef: Optional[int] = None

    def flush_const() -> None:
        nonlocal const, coef
        if coef is not None:
            const += sign * coef
            coef = None

    for tok in tokens:
        if tok == "+":
            flush_const()
            sign = 1
        elif tok == "-":
            flush_const()
            sign = -1
        elif tok.isdigit():
            coef = int(tok)
        elif _NAME.match(tok):
            terms.append((sign * (coef if coef is not None else 1), tok))
            sign, coef = 1, None
        else:
            raise ValueError(f"bad token {tok!r}")
    flush_const()
    return terms, const


def parse_lp(text: str) -> LpProgram:
    """Parse the subset of LP syntax this module writes."""
    section = ""
    chunks: list[str] = []
    prog = LpProgram([], 0, [], [], [], {})

    def close_chunk() -> None:
        if not chunks:
            return
        body = " ".join(chunks)
        chunks.clear()
        name, _, rest = body.partition(":")
        if section == "objective":
            terms, const = _parse_terms(rest)
            prog.obj_terms, prog.obj_const = terms, const
            return
        m = re.search(r"(<=|>=|=)", rest)
        assert m is not None, body
        lhs, sense, rhs = rest[: m.start()], m.group(1), rest[m.end():]
        terms, const = _parse_terms(lhs)
        prog.constraints.append(
            LpConstraint(name.strip(), terms, sense, int(rhs) - const)
        )

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("\\"):
            continue
        low = line.strip().lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "generals", "end"):
            close_chunk()
            section = "objective" if low == "minimize" else low
            continue
        if section == "objective" or section == "subject to":
            if ":" in line:
                close_chunk()
            chunks.append(line.strip())
        elif section == "bounds":
            lo, _, var, _, hi = line.split()
            prog.bounds[var] = (int(lo), int(hi))
        elif section == "binaries":
            prog.binaries.extend(line.split())
        elif section == "generals":
            prog.generals.extend(line.split())
    close_chunk()
    return prog


def evaluate(
    prog: LpProgram, assignment: dict[str, int]
) -> tuple[bool, int, list[str]]:
    """Check an assignment: (all satisfied, objective value, violations)."""
    violations: list[str] = []
    for var in prog.binaries:
        if assignment.get(var, 0) not in (0, 1):
            violations.append(f"binary {var}={assignment[var]}")
    for var, (lo, hi) in prog.bounds.items():
        val = assignment.get(var, 0)
        if not lo <= val <= hi:
            violations.append(f"bound {var}={val}")
    for con in prog.constraints:
        lhs = sum(c * assignment.get(v, 0) for c, v in con.terms)
        ok = (
            lhs <= con.rhs
            if con.sense == "<="
            else lhs >= con.rhs if con.sense == ">=" else lhs == con.rhs
        )
        if not ok:
            violations.append(f"{con.name}: {lhs} {con.sense} {con.rhs}")
    obj = prog.obj_const + sum(c * assignment.get(v, 0) for c, v in prog.obj_terms)
    return (not violations, obj, violations)


# --- mechanical assignments from a known order ---


def minnodes_level_counts(K: int, bits: Sequence[int]) -> tuple[int, ...]:
    """Level sizes under the LP's convention: a double grows the next level."""
    out = [1] * K
    for r in range(K, len(bits)):
        out.append(out[-1] * (2 if bits[r - 1] else 1))
    return tuple(out)


def _ip_assignment(
    inst: Instance, perm: Sequence[int], bits: Sequence[int]
) -> dict[str, int]:
    """IP values of an order and a pattern: x from the order, y = the
    pattern bits, and z_{v,r} = 1 when v sits at rank r >= K with at least
    K + 1 earlier neighbors.  z comes from the order, not from the bits,
    so the dbl rows refuse a pattern that hides a double."""
    out: dict[str, int] = {}
    for r, v in enumerate(perm):
        out[f"x_{v}_{r}"] = 1
        out[f"y_{r}"] = bits[r]
        if r >= inst.K and len(inst.neighbors[v].intersection(perm[:r])) > inst.K:
            out[f"z_{v}_{r}"] = 1
    return out


def assignment_from_order(
    inst: Instance,
    order: VertexOrder,
    model: str,
    unordered_cliques: bool = False,
) -> dict[str, int]:
    """Variable values an order implies for one exported model."""
    model = model.lower()
    report = check_order(inst, order)
    if not report.is_dvop:
        raise ValueError("order is not valid for this instance")
    n, K = inst.n, inst.K
    ranks = order.inverse
    bits = report.doubles.bits
    out: dict[str, int] = {}
    if model in ("ip", "minnodes"):
        out = _ip_assignment(inst, order.perm, bits)
        if model == "minnodes":
            for r, cnt in enumerate(minnodes_level_counts(K, bits)):
                out[f"m_{r}"] = cnt
        return out
    if model == "mp2":
        state = induce_witness_state(inst, order)
        for v in range(n):
            out[f"y_{v}"] = state.doubles[v]
            out[f"kappa_{v}"] = 1 if v in state.clique else 0
        for v, u in state.witness_arcs:
            out[f"w_{v}_{u}"] = 1
        return out
    assert model in CLIQUE_MODELS
    for v in range(n):
        out[f"y_{v}"] = 1 if (ranks[v] < K or bits[ranks[v]]) else 0
    if model == "cycles":
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        pairs = [
            (a, b) for u, v in inst.sorted_edges() for a, b in ((u, v), (v, u))
        ]
    for i, j in pairs:
        out[f"p_{i}_{j}"] = 1 if ranks[i] < ranks[j] else 0
    prefix = tuple(order.perm[:K])
    chosen = tuple(sorted(prefix)) if unordered_cliques else prefix
    out[_kappa_name(chosen)] = 1
    if model == "ranks":
        for v in range(n):
            out[f"r_{v}"] = ranks[v]
    return out


# --- the paper's four formulations, checked on a given order and pattern ---

FORMULATIONS = ("IP", "CP-RANK", "CP-VERTEX", "CP-COMBINED")


def _cp_rank_ok(inst: Instance, perm: tuple[int, ...], bits: list[int]) -> bool:
    # Rank variables: the vertices ranked K or lower are pairwise adjacent,
    # and a vertex ranked above K has K + 1 - y earlier neighbors.
    K = inst.K
    ranks = VertexOrder(perm).inverse
    head = [v for v in range(inst.n) if ranks[v] <= K]
    if any(p not in inst.edges for p in itertools.combinations(head, 2)):
        return False
    return all(
        sum(ranks[u] < ranks[v] for u in inst.neighbors[v]) >= K + 1 - bits[ranks[v]]
        for v in range(inst.n)
        if ranks[v] > K
    )


def _cp_vertex_ok(inst: Instance, perm: tuple[int, ...], bits: list[int]) -> bool:
    # Vertex variables: y is 0 below rank K and 1 at K, the first K+1
    # vertices are pairwise adjacent, and the vertex at rank r > K has
    # K + 1 - y neighbors among the first r.
    K = inst.K
    if any(bits[:K]) or bits[K] != 1:
        return False
    if any(not inst.has_edge(u, v) for u, v in itertools.combinations(perm[: K + 1], 2)):
        return False
    return all(
        len(inst.neighbors[perm[r]].intersection(perm[:r])) >= K + 1 - bits[r]
        for r in range(K + 1, inst.n)
    )


def _cp_combined_ok(inst: Instance, perm: tuple[int, ...], bits: list[int]) -> bool:
    # The channeled model: the rank view stays y-free (every vertex needs
    # K predecessors), and the double bits constrain the vertex view.
    return _cp_rank_ok(inst, perm, [1] * inst.n) and _cp_vertex_ok(inst, perm, bits)


def validate_formulation(
    inst: Instance, order: VertexOrder, doubles: DoublePattern, model: str
) -> bool:
    """Check an (order, pattern) assignment against one formulation.

    The pattern is taken as given, not recomputed, so deliberately
    tampered bits exercise exactly the constraints that should catch
    them.  The IP is checked by substituting the assignment into its
    exported LP.
    """
    if model not in FORMULATIONS:
        raise ValueError(f"model must be one of {FORMULATIONS}")
    perm = order.perm
    bits = list(doubles.bits)
    if len(perm) != inst.n or len(bits) != inst.n:
        raise ValueError("order and pattern must match the instance size")
    if model == "IP":
        text, _ = export(inst, "ip")
        return evaluate(parse_lp(text), _ip_assignment(inst, perm, bits))[0]
    cp = {"CP-RANK": _cp_rank_ok, "CP-VERTEX": _cp_vertex_ok, "CP-COMBINED": _cp_combined_ok}
    return cp[model](inst, perm, bits)
