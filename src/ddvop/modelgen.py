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
verify_counts checks the raw counts against closed forms.  An export
whose constraint coefficients, also counted in closed form, would pass
MAX_NONZEROS is refused with ModelTooLargeError before any row is built.

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
from typing import Iterable, Optional, Sequence

from .graph import Clique, Instance, enumerate_cliques, extendable_k_cliques, iter_cliques
from .order import DoublePattern, VertexOrder, check_order
from .witness_decomp import induce_witness_state

MODELS = ("ip", "minnodes", "cycles", "ranks", "mp2", "ccg")
CLIQUE_MODELS = ("cycles", "ranks", "ccg")  # the models that read unordered_cliques

# Measured, `export --model ip` on gen_random(n, 0.5, 3, 1) (Python 3.11,
# 20 MB rss before the export): n = 30 writes 0.39 M coefficients and
# peaks at 32 MB rss, n = 38 0.99 M at 52 MB, n = 40 (ceiling lifted)
# 1.2 M at 60 MB.  So ip stops between n = 38 and 39.  The count is a
# closed form (_nonzeros), so a refused export builds no row: ip,
# minnodes and mp2 build nothing at all.  cycles, ranks and ccg refuse
# from their one-labeling count after a lazy probe finds a (K+1)-clique,
# and otherwise enumerate the extendable K-cliques their count reads
# (complete K_150 with K = 3 is refused at once, not after 1.8 s of
# K-cliques at 114 MB rss).
MAX_NONZEROS = 1_000_000


class ModelTooLargeError(ValueError):
    """An export would write more than MAX_NONZEROS constraint coefficients."""


def _refuse_past_ceiling(nonzeros: int) -> None:
    if nonzeros > MAX_NONZEROS:
        raise ModelTooLargeError(
            f"the model passes the export ceiling of {MAX_NONZEROS} nonzeros"
        )


def _term(coef: int, var: str) -> str:
    """One nonzero term as its LP part: "+ x_3_5", "- 4 z_3_5"."""
    if coef == 1:
        return "+ " + var
    if coef == -1:
        return "- " + var
    return f"{'+' if coef > 0 else '-'} {abs(coef)} {var}"


class _Lp:
    """Builds one LP model as deterministic text, row by row.

    A term is passed around as its part string (_term), so a term that many
    rows share is formatted once, and each row is joined and wrapped into
    its lines as soon as it is added.  Every variable and constraint is
    added under a family name, and the per-family tallies are the raw
    counts a ModelSummary reports.  Rows, the objective and the variable
    lists wrap at 78 columns: a line takes its first part whatever its
    length, then every next part that fits, and continuation lines are
    indented six spaces.
    """

    def __init__(self, comments: Sequence[str]):
        self.comments = list(comments)
        self.objective: list[str] = []
        self.obj_const = 0
        self.rows: list[str] = []
        self.bounds: list[tuple[int, str, int]] = []
        self.binaries: list[str] = []
        self.generals: list[str] = []
        self.var_counts: Counter[str] = Counter()
        self.con_counts: Counter[str] = Counter()
        self.warning = ""

    def constraint(
        self, family: str, name: str, parts: Sequence[str], sense: str, rhs: int
    ) -> None:
        """Render a row now.  A part may itself be several parts joined
        with NUL."""
        self.rows.append(self._wrap(f" {name}:", self._join(parts), f"{sense} {rhs}"))
        self.con_counts[family] += 1

    def declare(self, family: str, names: Sequence[str], general: bool = False) -> None:
        """Declare a family of binary (or general integer) variables."""
        (self.generals if general else self.binaries).extend(names)
        self.var_counts[family] += len(names)

    @staticmethod
    def _join(parts: Sequence[str], const: int = 0) -> str:
        """An expression's parts joined with NUL, which no part contains, the
        leading "+ " dropped and a nonzero constant appended."""
        text = "\0".join(parts)
        if text.startswith("+"):
            text = text[2:]
        if not text:
            return str(const)
        if const:
            text += ("\0+ " if const > 0 else "\0- ") + str(abs(const))
        return text

    @staticmethod
    def _wrap(head: str, text: str, tail: str = "") -> str:
        """The lines of head, the NUL-joined parts in text, and tail.

        NUL is in no part, so each break is one rfind for the last
        separator within the line's budget."""
        lines: list[str] = []
        lead, start, budget = head, 0, 77 - len(head)
        while len(text) - start > budget:
            cut = text.rfind("\0", start, start + budget + 1)
            if cut < 0:
                cut = text.find("\0", start)
                if cut < 0:
                    break
            lines.append(f"{lead} {text[start:cut]}")
            lead, start, budget = "     ", cut + 1, 72
        lines.append(f"{lead} {text[start:]}" if text else head)
        if tail:
            lines[-1] += " " + tail
        return "\n".join(lines).replace("\0", " ")

    def render(self) -> str:
        out: list[str] = [f"\\ {c}" for c in self.comments]
        out.append("Minimize")
        out.append(self._wrap(" obj:", self._join(self.objective, self.obj_const)))
        out.append("Subject To")
        out += self.rows
        if self.bounds:
            out.append("Bounds")
            for lo, var, hi in self.bounds:
                out.append(f" {lo} <= {var} <= {hi}")
        if self.binaries:
            out.append("Binaries")
            out.append(self._wrap("", "\0".join(self.binaries)))
        if self.generals:
            out.append("Generals")
            out.append(self._wrap("", "\0".join(self.generals)))
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
    approximation.
    """
    return list(_labelings(extendable_k_cliques(inst), unordered))


def _labelings(roots: Sequence[Clique], unordered: bool) -> Iterable[tuple[int, ...]]:
    if unordered:
        return (cl.members for cl in roots)
    return (p for cl in roots for p in itertools.permutations(cl.members))


def _kappa_name(c: tuple[int, ...]) -> str:
    return "kappa_" + "_".join(map(str, c))


_NO_CLIQUE = "no extendable K-clique; emitted trivially infeasible model"


def _trivial_model(lp: _Lp) -> None:
    lp.comments.append(f"warning: {_NO_CLIQUE}")
    lp.warning = _NO_CLIQUE
    lp.objective = ["+ infeasible_dummy"]
    lp.constraint("infeasible", "force_one", ["+ infeasible_dummy"], ">=", 1)
    lp.constraint("infeasible", "force_zero", ["+ infeasible_dummy"], "<=", 0)
    lp.declare("dummy", ["infeasible_dummy"])


def _header(inst: Instance, model: str) -> list[str]:
    name = inst.name or "instance"
    return [
        f"model {model} for {name} (n={inst.n}, m={len(inst.edges)}, K={inst.K})"
    ]


def _export_ip(inst: Instance, model: str) -> _Lp:
    n, K = inst.n, inst.K
    _refuse_past_ceiling(_nonzeros(inst, model))
    with_nodes = model == "minnodes"
    lp = _Lp(_header(inst, model))
    lp.objective = [f"+ {'m' if with_nodes else 'y'}_{r}" for r in range(n)]
    # x[v][r] names a variable, xt[v][r] is its "+ x_v_r" part every row
    # shares, and below[v][r] joins v's parts at ranks below r once.
    x = [[f"x_{v}_{r}" for r in range(n)] for v in range(n)]
    xt = [["+ " + name for name in row] for row in x]
    below = [["\0".join(row[:r]) for r in range(n)] for row in xt]
    for v in range(n):
        lp.constraint("1-1 assignment", f"assign_v{v}", xt[v], "=", 1)
    for r in range(n):
        lp.constraint("1-1 assignment", f"assign_r{r}", [row[r] for row in xt], "=", 1)
    # earlier[v][r]: the x-parts of v's neighbours at ranks below r (r >= 1),
    # joined for the pred row of (v, r) and kept for its wit row.
    earlier: list[list[str]] = []
    for v in range(n):
        nbrs = sorted(inst.neighbors[v])
        earlier.append([""] + ["\0".join([below[u][r] for u in nbrs]) for r in range(1, n)])
        for r in range(1, n):
            # Rank r needs r adjacent predecessors inside the clique
            # prefix, K afterwards.
            need = _term(-min(r, K), x[v][r])
            lp.constraint("clique", f"pred_v{v}_r{r}", [earlier[v][r], need], ">=", 0)
    for r in range(K):
        lp.constraint("fixing", f"fix_y{r}", [f"+ y_{r}"], "=", 0)
    lp.constraint("fixing", f"fix_y{K}", [f"+ y_{K}"], "=", 1)
    wit = _term(-(K + 1), "")
    for v in range(n):
        for r in range(K, n):
            z = f"z_{v}_{r}"
            parts = [earlier[v][r], wit + z]
            lp.constraint("linking", f"wit_v{v}_r{r}", parts, ">=", 0)
            parts = [xt[v][r], f"- y_{r}", "- " + z]
            lp.constraint("linking", f"dbl_v{v}_r{r}", parts, "<=", 0)
    lp.declare("x", [name for row in x for name in row])
    lp.declare("y", [f"y_{r}" for r in range(n)])
    lp.declare("z", [f"z_{v}_{r}" for v in range(n) for r in range(K, n)])
    if with_nodes:
        for r in range(K):
            lp.constraint("node fixing", f"mfix_r{r}", [f"+ m_{r}"], "=", 1)
        for r in range(K, n):
            parts = [f"+ m_{r}", f"- m_{r - 1}"]
            lp.constraint("node monotone", f"mmono_r{r}", parts, ">=", 0)
            # m_r - 2 m_{r-1} >= -2^{r-K} (1 - y_{r-1}), the big-M wide
            # enough for the all-doubles worst case.
            big = 2 ** (r - K)
            parts = [f"+ m_{r}", f"- 2 m_{r - 1}", _term(-big, f"y_{r - 1}")]
            lp.constraint("node doubling", f"mdbl_r{r}", parts, ">=", -big)
        lp.declare("m", [f"m_{r}" for r in range(n)], general=True)
    return lp


def _export_ordering(inst: Instance, model: str, unordered: bool) -> _Lp:
    n, K = inst.n, inst.K
    # A (K+1)-clique makes each of its K-subsets extendable, and the count
    # only grows with labelings and triangles, so its one-labeling value
    # refuses before any K-clique is enumerated.
    least = _nonzeros(inst, model, 1, 0)
    if least > MAX_NONZEROS and K < n:
        if next(iter_cliques(inst, K + 1), None) is not None:
            _refuse_past_ceiling(least)
    roots = extendable_k_cliques(inst)
    triangles = enumerate_cliques(inst, 3) if model == "ccg" else []
    kappas = len(roots) * (1 if unordered else math.factorial(K))
    _refuse_past_ceiling(_nonzeros(inst, model, kappas, len(triangles)))
    lp = _Lp(_header(inst, model))
    if not roots:
        _trivial_model(lp)
        return lp
    lp.objective = [f"+ y_{v}" for v in range(n)]
    lp.obj_const = -K
    edge_pairs = inst.sorted_edges()
    # pt[i][j] is the one "+ p_i_j" part every row shares.
    pt = [[f"+ p_{i}_{j}" for j in range(n)] for i in range(n)]
    family = "linear ordering"
    if model == "cycles":
        p_names = [pt[i][j][2:] for i in range(n) for j in range(n) if i != j]
        for i, j in itertools.combinations(range(n), 2):
            lp.constraint(family, f"pair_{i}_{j}", [pt[i][j], pt[j][i]], "=", 1)
        for i, j in edge_pairs:
            for k in range(n):
                if k == i or k == j:
                    continue
                for a, b in ((i, j), (j, i)):
                    parts = [pt[a][b], pt[b][k], pt[k][a]]
                    lp.constraint(family, f"tri_{a}_{b}_{k}", parts, "<=", 2)
    else:
        p_names = [f"p_{i}_{j}" for i, j in edge_pairs] + [
            f"p_{j}_{i}" for i, j in edge_pairs
        ]
        p_names.sort()
        if model == "ranks":
            for i, j in edge_pairs:
                for a, b in ((i, j), (j, i)):
                    parts = [f"+ {n} p_{a}_{b}", f"+ r_{a}", f"- r_{b}"]
                    lp.constraint(family, f"mtz_{a}_{b}", parts, "<=", n - 1)
        else:  # ccg master with 2- and 3-cycle seeds
            family = "cycle breaking cuts"
            for i, j in edge_pairs:
                lp.constraint(family, f"cyc2_{i}_{j}", [pt[i][j], pt[j][i]], "<=", 1)
            for t in triangles:
                a, b, c = t.members
                for x, y in ((b, c), (c, b)):
                    parts = [pt[a][x], pt[x][y], pt[y][a]]
                    lp.constraint(family, f"cyc3_{a}_{x}_{y}", parts, "<=", 2)
    # Each labeling's kappa is named once.  A vertex inside the chosen
    # initial clique at clique rank R only has R-1 predecessors, so its
    # kappa carries coefficient K-R+1 in its linking row; everyone ends up
    # needing K predecessors when a double, K+1 otherwise, which forces y
    # to 1 across the chosen clique.
    lead = [_term(K - rank, "") for rank in range(K)]
    names: list[str] = []
    kappa_parts: list[list[str]] = [[] for _ in range(n)]
    for c in _labelings(roots, unordered):
        name = _kappa_name(c)
        names.append(name)
        for rank, v in enumerate(c):
            kappa_parts[v].append(lead[rank] + name)
    lp.constraint("clique selection", "pick_clique", ["+ " + k for k in names], "=", 1)
    for i in range(n):
        parts = [pt[j][i] for j in sorted(inst.neighbors[i])] + kappa_parts[i]
        parts.append(f"+ y_{i}")
        lp.constraint("linking", f"link_v{i}", parts, ">=", K + 1)
    lp.declare("y", [f"y_{v}" for v in range(n)])
    lp.declare("kappa", names)
    lp.declare("p", p_names)
    if model == "ranks":
        lp.declare("r", [f"r_{v}" for v in range(n)], general=True)
        lp.bounds = [(0, f"r_{v}", n - 1) for v in range(n)]
    return lp


def _export_mp2(inst: Instance) -> _Lp:
    n, K = inst.n, inst.K
    _refuse_past_ceiling(_nonzeros(inst, "mp2"))
    lp = _Lp(_header(inst, "mp2"))
    lp.objective = [f"+ y_{v}" for v in range(n)]
    lp.obj_const = 1
    kt = [f"+ kappa_{v}" for v in range(n)]
    lp.constraint("clique selection", "pick_clique", kt, "=", K + 1)
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in inst.edges:
            lp.constraint("clique witness", f"nonadj_{u}_{v}", [kt[u], kt[v]], "<=", 1)
    for v in range(n):
        for u in sorted(inst.neighbors[v]):
            parts = [f"+ w_{u}_{v}", f"- kappa_{v}"]
            lp.constraint("clique witness", f"cw_v{v}_u{u}", parts, ">=", 0)
    for v in range(n):
        parts = [f"+ w_{v}_{u}" for u in sorted(inst.neighbors[v])]
        parts += (kt[v], f"+ y_{v}")
        lp.constraint("witness", f"wit_v{v}", parts, "=", K + 1)
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
        lp = _export_ip(inst, model)
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


def _nonzeros(inst: Instance, model: str, kappas: int = 0, triangles: int = 0) -> int:
    """Closed-form count of the constraint coefficients an export writes.

    kappas is the number of clique labelings and triangles the number of
    3-cliques, which only the ordering models read; with no labelings
    they write the trivial model's two one-term rows.
    """
    n, K = inst.n, inst.K
    m = len(inst.edges)
    if model in ("ip", "minnodes"):
        # assign: n per row.  pred (rank r >= 1) and wit (rank r >= K): one
        # x-term per neighbour and lower rank, plus one.  fix: 1.  dbl: 3.
        total = 2 * n * n + (m + 1) * n * (n - 1) + K + 1
        total += m * (n * (n - 1) - K * (K - 1)) + 4 * n * (n - K)
        if model == "minnodes":  # mfix 1, mmono 2, mdbl 3
            total += K + 5 * (n - K)
        return total
    if model == "mp2":
        # pick_clique n, nonadj 2 per non-edge, cw 2 per arc, wit 2 + degree
        return n * (n - 1) + 4 * m + 3 * n
    if not kappas:
        return 2
    # The model's own rows, then pick_clique (one per labeling) and the
    # link rows (one per arc, K per labeling, and y).
    own = {
        "cycles": n * (n - 1) + 6 * m * (n - 2),  # pair 2, tri 3
        "ranks": 6 * m,  # mtz 3 per arc
        "ccg": 2 * m + 6 * triangles,  # cyc2 2 per edge, cyc3 3 per cycle
    }
    return own[model] + kappas * (K + 1) + 2 * m + n


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

Term = tuple[int, str]


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
