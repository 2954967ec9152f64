"""LP model exports: sizes, round trips, and substitution checks.

Every model is exercised two ways: its reported variable/constraint
counts must match both the closed-form tables and the parsed text, and
substituting an oracle-optimal order must satisfy every constraint with
the expected objective value.
"""

import dataclasses
import hashlib
import itertools
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import ddvop.modelgen as modelgen
from conftest import complete_edges, path_edges, small_instances
from ddvop.graph import Instance, extendable_k_cliques
from ddvop.instgen import acceptance_corpus
from ddvop.modelgen import (
    CLIQUE_MODELS,
    MODELS,
    assignment_from_order,
    evaluate,
    export,
    minnodes_level_counts,
    ordered_extendable_cliques,
    parse_lp,
    summary_csv,
    formulation_sizes,
    verify_counts,
)
from ddvop.oracle import brute_optimum, enumerate_valid_orders
from ddvop.order import VertexOrder, check_order


def test_frozen_counts_g6a(g6a):
    _, s = export(g6a, "ranks")
    assert s.variables["p"] == (22, 22)
    assert s.constraints["linear ordering"] == (22, 11)
    _, s = export(g6a, "cycles")
    assert s.variables["p"] == (30, 36)
    assert s.constraints["linear ordering"] == (15 + 2 * 11 * 4, 36 + 36 * 11)
    _, s = export(g6a, "ip")
    assert s.constraints["clique"] == (30, 36)
    assert s.constraints["1-1 assignment"] == (12, 12)
    assert s.constraints["linking"] == (2 * 6 * 4, 2 * (36 - 3))
    _, s = export(g6a, "mp2")
    assert s.variables["w"] == (22, 22)
    assert s.constraints["clique witness"] == (15 - 11 + 22, 15 + 11)


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "p5_k2"])
@pytest.mark.parametrize("model", MODELS)
def test_verify_counts(fixture, model, request):
    inst = request.getfixturevalue(fixture)
    text, summary = export(inst, model)
    assert verify_counts(summary, inst)
    text2, summary2 = export(inst, model)
    assert text == text2 and summary == summary2
    assert summary_csv(summary).startswith("model,section")


@pytest.mark.parametrize("model", ["cycles", "ranks", "ccg"])
def test_unordered_clique_variant(g6a, model):
    _, summary = export(g6a, model, unordered_cliques=True)
    assert verify_counts(summary, g6a)
    assert summary.variables["kappa"][0] == len(extendable_k_cliques(g6a))


@pytest.mark.parametrize("model", MODELS)
def test_verify_counts_sees_a_dropped_row(g6a, model, monkeypatch):
    # The raw counts are tallied from the rows export writes, so an
    # export that loses one constraint row fails the check.
    real = modelgen._Lp.constraint
    calls = []

    def drop_first(self, *args):
        calls.append(args)
        if len(calls) > 1:
            real(self, *args)

    monkeypatch.setattr(modelgen._Lp, "constraint", drop_first)
    assert not verify_counts(export(g6a, model)[1], g6a)


def test_verify_counts_wrong_instance(g6a, g6b):
    assert not verify_counts(export(g6a, "ip")[1], g6b)


def test_verify_counts_sees_a_wrong_table_count(g6a):
    _, s = export(g6a, "ranks")
    raw, table = s.constraints["linear ordering"]
    wrong = {**s.constraints, "linear ordering": (raw, table + 1)}
    assert not verify_counts(dataclasses.replace(s, constraints=wrong), g6a)


@pytest.mark.parametrize("model", ["cycles", "ranks", "ccg"])
def test_trivial_fallback_without_cliques(p5_k2, model, monkeypatch):
    # The ordering models hang everything off extendable cliques; with
    # none present they degrade to an explicitly infeasible program.
    text, summary = export(p5_k2, model)
    assert summary.warning
    assert "infeasible" in text
    prog = parse_lp(text)
    for val in (0, 1):
        ok, _, _ = evaluate(prog, {"infeasible_dummy": val})
        assert not ok
    # One labeling's count passes a ceiling of 2, but the path has no
    # 3-clique, so no labeling: the two-row model is still written.
    monkeypatch.setattr(modelgen, "MAX_NONZEROS", 2)
    assert export(p5_k2, model) == (text, summary)


def test_ip_needs_no_cliques(p5_k2):
    _, summary = export(p5_k2, "ip")
    assert not summary.warning


def test_bad_model_name(g6a):
    with pytest.raises(ValueError):
        export(g6a, "lp")


@pytest.mark.parametrize("model", sorted(set(MODELS) - set(CLIQUE_MODELS)))
def test_unordered_cliques_refused_where_unread(g6a, model):
    # ip, minnodes and mp2 have no per-labeling kappa, so the flag would
    # change nothing; it is refused rather than ignored.
    with pytest.raises(ValueError, match="cycles, ranks, ccg"):
        export(g6a, model, unordered_cliques=True)


@pytest.mark.parametrize("fixture", ["g6a", "g6b"])
@pytest.mark.parametrize("model", MODELS)
def test_parse_round_trip(fixture, model, request):
    inst = request.getfixturevalue(fixture)
    text, summary = export(inst, model)
    prog = parse_lp(text)
    want_cons = sum(raw for raw, _ in summary.constraints.values())
    assert len(prog.constraints) == want_cons
    want_vars = sum(raw for raw, _ in summary.variables.values())
    assert len(prog.binaries) + len(prog.generals) == want_vars
    assert prog.variables() <= set(prog.binaries) | set(prog.generals)


@pytest.mark.parametrize("fixture", ["g6a", "g6b"])
@pytest.mark.parametrize("model", MODELS)
def test_optimal_order_satisfies_export(fixture, model, request):
    inst = request.getfixturevalue(fixture)
    res = brute_optimum(inst, "min-double")
    text, summary = export(inst, model)
    prog = parse_lp(text)
    assign = assignment_from_order(inst, res.order, model)
    ok, obj, violations = evaluate(prog, assign)
    assert ok, violations[:5]
    if model == "minnodes":
        assert obj == sum(minnodes_level_counts(inst.K, res.report.doubles.bits))
    else:
        assert obj == res.value


def test_minnodes_level_convention(g6a):
    # The level-count model holds branching off by one rank: the level
    # after a double rank is the one that widens.
    ident = VertexOrder(tuple(range(6)))
    report = check_order(g6a, ident)
    assert report.is_dvop
    levels = minnodes_level_counts(2, report.doubles.bits)
    assert levels == (1, 1, 1, 2, 4, 8)
    assert sum(levels) == 17
    assert report.total_nodes == 24
    text, _ = export(g6a, "minnodes")
    assign = assignment_from_order(g6a, ident, "minnodes")
    ok, obj, _ = evaluate(parse_lp(text), assign)
    assert ok and obj == 17


def test_ip_hidden_double_breaks_its_dbl_row(g6a):
    # z comes from the order, so a pattern that clears a true double past
    # rank K violates that vertex's dbl row and no other row.
    perm = brute_optimum(g6a, "min-double").order.perm
    bits = list(check_order(g6a, VertexOrder(perm)).doubles.bits)
    r = bits.index(1, g6a.K + 1)
    bits[r] = 0
    ok, _, violations = evaluate(
        parse_lp(export(g6a, "ip")[0]), modelgen._ip_assignment(g6a, perm, bits)
    )
    assert violations == [f"dbl_v{perm[r]}_r{r}: 1 <= 0"]


@pytest.mark.parametrize("model", ["ip", "cycles", "ranks", "mp2"])
def test_negative_control_flipped_double(g6a, model):
    text, _ = export(g6a, model)
    prog = parse_lp(text)
    res = brute_optimum(g6a, "min-double")
    assign = assignment_from_order(g6a, res.order, model)
    yvars = sorted(v for v in assign if v.startswith("y_") and assign[v] == 1)
    broken = dict(assign)
    broken[yvars[-1]] = 0
    ok, _, violations = evaluate(prog, broken)
    assert not ok and violations


def test_formulation_sizes_g6a(g6a):
    t = formulation_sizes(g6a)
    non_edges = [
        p for p in itertools.combinations(range(6), 2) if not g6a.has_edge(*p)
    ]
    assert len(non_edges) == 4
    assert t["cp-rank"]["constraints"]["clique"] == 4
    assert t["cp-vertex"]["constraints"]["clique"] == 3
    assert t["cp-combined"]["constraints"]["clique"] == (30 + 6) // 2 - 11
    assert t["ip"]["constraints"]["clique"] == 36
    assert t["ranks"]["constraints"]["linear ordering"] == 11
    assert t["ccg"]["variables"]["p"] == 22
    assert t["witness"]["constraints"]["clique witness"] == 26
    assert t["witness"]["constraints"]["rank"] == 28
    assert t["naive"]["constraints"]["fixing and logical"] == 6


def test_ordered_clique_enumeration(g6a):
    ordered = ordered_extendable_cliques(g6a)
    unordered = ordered_extendable_cliques(g6a, unordered=True)
    assert len(ordered) == 2 * len(unordered)
    assert all(tuple(sorted(c)) in unordered for c in ordered)


@settings(deadline=None, max_examples=25)
@given(small_instances(max_n=7), st.sampled_from(MODELS))
def test_export_counts_and_substitution(inst, model):
    text, summary = export(inst, model)
    assert verify_counts(summary, inst)
    assert export(inst, model)[0] == text
    res = brute_optimum(inst, "min-double")
    if res is None or summary.warning:
        return
    prog = parse_lp(text)
    assign = assignment_from_order(inst, res.order, model)
    ok, obj, violations = evaluate(prog, assign)
    assert ok, violations[:5]
    if model != "minnodes":
        assert obj == res.value


class ReferenceLp:
    """A parsed program rendered through per-part expression and wrap
    loops, independent of the writer's joined-text rows."""

    @staticmethod
    def _expr(terms, const=0):
        parts = []
        for coef, var in terms:
            if coef == 0:
                continue
            mag = abs(coef)
            body = var if mag == 1 else f"{mag} {var}"
            if not parts and coef > 0:
                parts.append(body)
            else:
                parts.append(("+ " if coef > 0 else "- ") + body)
        if const != 0 or not parts:
            mag = abs(const)
            if not parts:
                parts.append(str(const))
            else:
                parts.append(("+ " if const >= 0 else "- ") + str(mag))
        return parts

    @staticmethod
    def _wrap(head, parts, tail=""):
        lines = []
        cur = head
        for p in parts:
            if len(cur) + len(p) + 1 > 78 and cur != head:
                lines.append(cur)
                cur = "      " + p
            else:
                cur = cur + " " + p
        if tail:
            cur = cur + " " + tail
        lines.append(cur)
        return lines

    @classmethod
    def render(cls, prog, comments):
        out = [f"\\ {c}" for c in comments]
        out.append("Minimize")
        out.extend(cls._wrap(" obj:", cls._expr(prog.obj_terms, prog.obj_const)))
        out.append("Subject To")
        for con in prog.constraints:
            tail = f"{con.sense} {con.rhs}"
            out.extend(cls._wrap(f" {con.name}:", cls._expr(con.terms), tail))
        if prog.bounds:
            out.append("Bounds")
            out.extend(f" {lo} <= {var} <= {hi}" for var, (lo, hi) in prog.bounds.items())
        for section, names in (("Binaries", prog.binaries), ("Generals", prog.generals)):
            if names:
                out.append(section)
                out.extend(cls._wrap("", names))
        out.append("End")
        return "\n".join(out) + "\n"


@settings(deadline=None, max_examples=60)
@given(small_instances(), st.sampled_from(MODELS), st.booleans())
def test_render_matches_reference(inst, model, unordered):
    text, _ = export(inst, model, unordered and model in CLIQUE_MODELS)
    comments = [line[2:] for line in text.splitlines() if line.startswith("\\ ")]
    assert text == ReferenceLp.render(parse_lp(text), comments)


# Lengths drawn uniformly, so parts longer than a line's budget are common.
_NAMES = st.integers(1, 88).flatmap(lambda k: st.text("xyz_0123", min_size=k, max_size=k))


@settings(deadline=None, max_examples=300)
@given(
    st.text("abc_: 0123456789", max_size=40),
    st.lists(
        st.one_of(_NAMES, _NAMES.map("+ ".__add__), _NAMES.map("- ".__add__)),
        max_size=30,
    ),
    st.sampled_from(["", "= 1", "<= 2", ">= -16"]),
)
def test_wrap_matches_reference(head, parts, tail):
    # Parts up to 90 characters, so one can pass a line's whole budget.
    lines = modelgen._Lp._wrap(head, "\0".join(parts), tail).split("\n")
    assert lines == ReferenceLp._wrap(head, parts, tail)


@given(
    st.lists(st.tuples(st.integers(-40, 40), st.sampled_from(["x_0_1", "y_2"]))),
    st.integers(-40, 40),
)
def test_expr_matches_reference(terms, const):
    # The writer formats only nonzero terms; the reference drops the rest.
    parts = [modelgen._term(coef, var) for coef, var in terms if coef]
    joined = modelgen._Lp._join(parts, const)
    assert joined.split("\0") == ReferenceLp._expr(terms, const)


@settings(deadline=None, max_examples=60)
@given(small_instances(), st.sampled_from(MODELS), st.booleans())
def test_closed_form_nonzeros_are_exact(inst, model, unordered):
    # export refuses past MAX_NONZEROS by its closed-form count, so that
    # count equals the parsed text's exactly when the export is written at
    # the parsed total and refused one below it.
    unordered = unordered and model in CLIQUE_MODELS
    text, summary = export(inst, model, unordered)
    total = sum(len(c.terms) for c in parse_lp(text).constraints)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelgen, "MAX_NONZEROS", total)
        assert export(inst, model, unordered) == (text, summary)
        mp.setattr(modelgen, "MAX_NONZEROS", total - 1)
        with pytest.raises(modelgen.ModelTooLargeError):
            export(inst, model, unordered)


# sha256 over every export of acceptance_corpus(), computed before rows
# were rendered as they are added.  A change that moves one exported byte
# fails here.
ACCEPTANCE_EXPORTS_SHA256 = "cf66cced4e15edf1b62529b24443854ac5db256f63d62760fbec5bcd07954e1a"


def test_acceptance_exports_are_pinned():
    # Text and summary of each model and flag, or the refusal, byte for byte.
    digest = hashlib.sha256()
    for inst in acceptance_corpus():
        for model in MODELS:
            for unordered in ((False, True) if model in CLIQUE_MODELS else (False,)):
                try:
                    text, summary = export(inst, model, unordered)
                    digest.update(text.encode())
                    digest.update(repr(summary).encode())
                except modelgen.ModelTooLargeError as exc:
                    digest.update(str(exc).encode())
    assert digest.hexdigest() == ACCEPTANCE_EXPORTS_SHA256


def _holds(con, ones):
    lhs = sum(c for c, v in con.terms if v in ones)
    if con.sense == "<=":
        return lhs <= con.rhs
    return lhs >= con.rhs if con.sense == ">=" else lhs == con.rhs


def _least_ip_values(inst, prog):
    """Over every permutation, assert that the assign and pred rows, which
    read only x, hold exactly for the valid orders; yield each valid
    order's report with the set of variables at 1: its x, then the least
    z and y satisfying every other row that reads them."""
    x_rows = [c for c in prog.constraints if c.name.startswith(("assign_", "pred_"))]
    wit_rows = [c for c in prog.constraints if c.name.startswith("wit_")]
    y_rows = {}
    for con in prog.constraints:
        ys = [v for _, v in con.terms if v.startswith("y_")]
        assert len(ys) <= 1
        if ys:
            y_rows.setdefault(ys[0], []).append(con)
    assert set(y_rows) == {f"y_{r}" for r in range(inst.n)}
    valid = 0
    for perm in itertools.permutations(range(inst.n)):
        ones = {f"x_{v}_{r}" for r, v in enumerate(perm)}
        report = check_order(inst, VertexOrder(perm))
        assert all(_holds(c, ones) for c in x_rows) == report.is_dvop
        if not report.is_dvop:
            continue
        valid += 1
        # z only loosens dbl rows, so each z is 1 whenever its wit row allows.
        for con in wit_rows:
            z = con.terms[-1][1]
            if _holds(con, ones | {z}):
                ones.add(z)
        for y, rows in y_rows.items():
            if not all(_holds(c, ones) for c in rows):
                ones.add(y)
        yield report, ones
    assert valid == enumerate_valid_orders(inst)[0]


@pytest.mark.parametrize("fixture", ["g6a", "g6b", "g6a_k3"])
def test_ip_export_admits_exactly_the_valid_orders(fixture, request):
    # The least y cost each valid order its doubles, so the ip optimum is
    # the min-double optimum, with no MIP solver.
    inst = request.getfixturevalue(fixture)
    prog = parse_lp(export(inst, "ip")[0])
    for report, ones in _least_ip_values(inst, prog):
        ok, obj, violations = evaluate(prog, dict.fromkeys(ones, 1))
        assert ok, violations[:5]
        assert obj == report.double_count


def _least_lead(con, values):
    """The least value of a row's first variable, of coefficient 1, that
    the row allows given the values of the others."""
    (coef, _), *rest = con.terms
    assert coef == 1 and con.sense in (">=", "=")
    return con.rhs - sum(c * values.get(v, 0) for c, v in rest)


@pytest.mark.parametrize("fixture", ["g6a", "g6b"])
def test_minnodes_least_levels_cost_the_level_counts(fixture, request):
    # On top of the least x, y, z of each valid order, every m_r at the
    # least value its mfix, mmono and mdbl rows allow sums to the order's
    # level counts, so the minnodes optimum is the least level-count total.
    inst = request.getfixturevalue(fixture)
    prog = parse_lp(export(inst, "minnodes")[0])
    m_rows = {}
    for con in prog.constraints:
        if con.name.startswith(("mfix_", "mmono_", "mdbl_")):
            m_rows.setdefault(con.terms[0][1], []).append(con)
    assert list(m_rows) == [f"m_{r}" for r in range(inst.n)]
    for report, ones in _least_ip_values(inst, prog):
        values = dict.fromkeys(ones, 1)
        for m, rows in m_rows.items():  # rank order, so m_{r-1} is set
            values[m] = max(_least_lead(con, values) for con in rows)
        ok, obj, violations = evaluate(prog, values)
        assert ok, violations[:5]
        assert obj == sum(minnodes_level_counts(inst.K, report.doubles.bits))


@pytest.mark.parametrize(
    "model,n,K,edges",
    [
        # K_8 has 28 extendable 6-cliques, 6! labelings each: 20 160.
        ("cycles", 8, 6, complete_edges(8)),
        # 2 * 101^2 = 20 402 assign coefficients.
        ("ip", 101, 1, path_edges(101)),
        # K_20 has 6 840 labelings of its 3-cliques, but 6 * 190 * 18 =
        # 20 520 coefficients in its tri rows.
        ("cycles", 20, 3, complete_edges(20)),
    ],
    ids=["labelings", "assign", "later-row"],
)
def test_export_refused_before_building(model, n, K, edges, monkeypatch):
    # With the ceiling at 20 000 the closed-form count refuses each export
    # before it builds a row, whichever row would pass the ceiling.
    inst = Instance.build(n, K, edges)
    monkeypatch.setattr(modelgen, "MAX_NONZEROS", 20_000)
    tracemalloc.start()
    try:
        with pytest.raises(modelgen.ModelTooLargeError):
            export(inst, model)
        assert tracemalloc.get_traced_memory()[1] < 1 << 18
    finally:
        tracemalloc.stop()


def test_export_refused_before_enumerating_cliques(monkeypatch):
    # Complete K_150 with K = 3 has 551 300 extendable K-cliques.  One
    # labeling already puts its cycles rows past the ceiling, and a lazy
    # probe finds a 4-clique, so none of them is enumerated.
    inst = Instance.build(150, 3, complete_edges(150))

    def refuse(inst):
        raise AssertionError("extendable K-cliques enumerated")

    monkeypatch.setattr(modelgen, "extendable_k_cliques", refuse)
    with pytest.raises(modelgen.ModelTooLargeError):
        export(inst, "cycles")
