"""Command line battery: every subcommand runs in-process via main(argv)."""

from dataclasses import fields

import pytest

from conftest import G6A_EDGES, complete_edges, path_edges
from ddvop import modelgen
from ddvop.cli import SOLVE_STATS_HEADER, _solve_stats_csv, main
from ddvop.graph import Instance, parse_instance, render_instance
from ddvop.harness import (
    BENCH_HEADER,
    MAX_N,
    _row_from_solution,
    bench_csv,
    parse_bench_csv,
)
from ddvop.order import parse_solution
from ddvop.solution import Solution, SolveStats


@pytest.fixture
def g6a_file(tmp_path):
    inst = Instance.build(6, 2, G6A_EDGES, name="g6a")
    path = tmp_path / "g6a.dvop"
    path.write_text(render_instance(inst))
    return str(path)


@pytest.fixture
def p5_k2_file(tmp_path):
    inst = Instance.build(5, 2, [(i, i + 1) for i in range(4)], name="p5")
    path = tmp_path / "p5.dvop"
    path.write_text(render_instance(inst))
    return str(path)


@pytest.mark.parametrize("method", ["oracle", "dfs", "naive", "witness"])
def test_solve_methods(method, g6a_file, capsys):
    assert main(["solve", g6a_file, "--method", method]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "s OPTIMAL 2 12"
    status, order, pattern = parse_solution(out)
    assert status == "OPTIMAL" and order is not None
    assert err.splitlines()[0] == SOLVE_STATS_HEADER
    assert err.splitlines()[1].startswith(f"{method},OPTIMAL,2,")


@pytest.mark.parametrize(
    "argv,last",
    [
        (["--method", "witness"], "c lower_bound 2"),
        (["--method", "naive", "--time-limit", "0"], "c lower_bound 1"),
        (["--objective", "nodes"], "c lower_bound 12"),
        (["--objective", "nodes", "--time-limit", "0"], "c lower_bound 10"),
    ],
)
def test_solve_prints_lower_bound(argv, last, g6a_file, capsys):
    # The last line is a comment, so the solution parses as before.
    assert main(["solve", g6a_file, *argv]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[-1] == last
    assert parse_solution(out) == parse_solution(out[: out.rindex("c ")])


def test_solve_min_nodes(g6a_file, capsys):
    assert main(["solve", g6a_file, "--objective", "nodes"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "s OPTIMAL 2 12"


def test_solve_flags(g6a_file, capsys):
    argv = ["solve", g6a_file, "--method", "witness", "--time-limit", "30"]
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "s OPTIMAL 2 12"
    # Solvers take no tuning flag beyond --time-limit, pareto and presolve
    # none.
    for argv in (
        ["solve", g6a_file, "--no-presolve"],
        ["solve", g6a_file, "--pre-break"],
        ["solve", g6a_file, "--method", "naive", "--nogood"],
        ["solve", g6a_file, "--method", "oracle", "--cap", "12"],
        ["pareto", g6a_file, "--cap", "12"],
        ["presolve", g6a_file, "--no-head"],
        ["presolve", g6a_file, "--clique-budget", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_solve_output_file(g6a_file, tmp_path, capsys):
    dest = tmp_path / "sol.txt"
    assert main(["solve", g6a_file, "-o", str(dest)]) == 0
    out, err = capsys.readouterr()
    # With -o the stats CSV moves to stdout and stderr stays clean.
    assert out.splitlines()[0] == SOLVE_STATS_HEADER
    assert err == ""
    assert dest.read_text().splitlines()[0] == "s OPTIMAL 2 12"


@pytest.mark.parametrize(
    "argv",
    [
        ["pareto", "{g6a}", "--time-limit", "5"],
        ["export", "{g6a}", "--model", "ip", "--time-limit", "-5"],
        ["solve", "{g6a}", "--seed", "3"],
        ["--time-limit", "30", "solve", "{g6a}"],
    ],
)
def test_flag_refused_where_unread(argv, g6a_file):
    # Each subcommand takes only the flags it reads; argparse exits 2.
    argv = [a.format(g6a=g6a_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_solve_infeasible(p5_k2_file, capsys):
    assert main(["solve", p5_k2_file]) == 0
    out, _ = capsys.readouterr()
    assert out == "s INFEASIBLE - -\n"


def test_solve_stdin(g6a_file, capsys, monkeypatch):
    import io

    text = open(g6a_file).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["solve", "-"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "s OPTIMAL 2 12"


def test_pareto(g6a_file, capsys):
    assert main(["pareto", g6a_file]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "nodes,doubles,dominated",
        "12,2,0",
        "14,2,1",
        "16,2,1",
        "20,3,1",
        "24,3,1",
    ]
    assert err == ""


def test_pareto_infeasible(p5_k2_file, capsys):
    assert main(["pareto", p5_k2_file]) == 0
    out, err = capsys.readouterr()
    assert out == "nodes,doubles,dominated\n"
    assert "infeasible" in err


def test_presolve(g6a_file, capsys):
    assert main(["presolve", g6a_file]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines() == [
        "root 0 1 2 bound 1",
        "root 0 1 5 bound 1",
        "root 0 2 5 bound 1",
        "root 1 2 3 bound 1",
        "root 1 2 5 bound 1",
        "root 1 3 5 bound 1",
        "root 2 3 4 bound 1",
        "root 2 3 5 bound 1",
        "lower_bound 2",
    ]


def test_gen_random_round_trip(tmp_path, capsys):
    dest = tmp_path / "r.dvop"
    argv = ["gen", "random", "--n", "10", "--density", "0.4", "--k", "3",
            "--seed", "5", "-o", str(dest)]
    assert main(argv) == 0
    first = dest.read_text()
    inst = parse_instance(first)
    assert inst.n == 10 and inst.K == 3
    assert main(argv) == 0
    assert dest.read_text() == first
    assert main(["gen", "random", "--n", "10", "--density", "0.4",
                 "--k", "3", "--seed", "5"]) == 0
    out, _ = capsys.readouterr()
    assert out == first


def test_gen_synthetic(tmp_path, capsys):
    argv = ["gen", "synthetic", "--k", "3", "--doubles", "2", "--noise", "0.1",
            "--n", "10", "--seed", "7"]
    assert main(argv) == 0
    first, _ = capsys.readouterr()
    inst = parse_instance(first)
    assert inst.n == 10 and inst.K == 3
    assert main(argv) == 0
    again, _ = capsys.readouterr()
    assert again == first


def test_export(g6a_file, tmp_path, capsys):
    dest = tmp_path / "g6a.lp"
    assert main(["export", g6a_file, "--model", "ip", "-o", str(dest)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("model,section,family,count,table_count")
    assert err == ""
    text = dest.read_text()
    assert "Minimize" in text and "Binaries" in text


def test_export_warning(p5_k2_file, capsys):
    assert main(["export", p5_k2_file, "--model", "cycles"]) == 0
    out, err = capsys.readouterr()
    assert "infeasible" in out
    assert err.startswith("warning:")


def test_export_unordered_cliques_exit_2(g6a_file, tmp_path, capsys):
    dest = tmp_path / "g6a.lp"
    argv = ["export", g6a_file, "--model", "ip", "--unordered-cliques", "-o", str(dest)]
    assert main(argv) == 2
    _, err = capsys.readouterr()
    assert "cycles, ranks, ccg" in err
    assert not dest.exists()


@pytest.mark.parametrize("model", modelgen.MODELS)
def test_export_ceiling_exit_2(model, g6a_file, tmp_path, monkeypatch, capsys):
    # With the ceiling set to g6a's own size for the model the export is
    # written; one coefficient less and it is refused before anything is
    # written.
    text, _ = modelgen.export(Instance.build(6, 2, G6A_EDGES), model)
    nonzeros = sum(len(c.terms) for c in modelgen.parse_lp(text).constraints)
    monkeypatch.setattr(modelgen, "MAX_NONZEROS", nonzeros)
    written = tmp_path / "at.lp"
    assert main(["export", g6a_file, "--model", model, "-o", str(written)]) == 0
    assert written.read_text().endswith("End\n")
    monkeypatch.setattr(modelgen, "MAX_NONZEROS", nonzeros - 1)
    refused = tmp_path / "above.lp"
    assert main(["export", g6a_file, "--model", model, "-o", str(refused)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith(f"error: the model passes the export ceiling of {nonzeros - 1}")
    assert not refused.exists()


def test_solve_and_bench_share_stats_columns():
    # One record, two writers: the same stats cells in SolveStats order.
    inst = Instance.build(6, 2, G6A_EDGES, name="g6a")
    stats = SolveStats(
        time_ms=1.5, choice_points=7, cuts=3, cliques_considered=4,
        iterations=5, iis_time_ms=0.25,
    )
    sol = Solution("OPTIMAL", 2, None, None, stats)
    names = tuple(f.name for f in fields(SolveStats))
    solve_header, solve_row = _solve_stats_csv("naive", sol).splitlines()
    bench_text = bench_csv([_row_from_solution(inst, "naive", sol)])
    bench_header, bench_row = bench_text.splitlines()
    assert tuple(solve_header.split(",")[3:]) == names
    assert tuple(bench_header.split(",")[7:]) == names
    assert solve_row.split(",")[3:] == bench_row.split(",")[7:]
    assert solve_row.split(",")[3:] == ["1.500", "7", "3", "4", "5", "0.250"]
    (parsed,) = parse_bench_csv(bench_text)
    assert parsed.stats == stats


def test_bench_and_profile(g6a_file, p5_k2_file, tmp_path, capsys):
    dest = tmp_path / "bench.csv"
    argv = ["bench", g6a_file, p5_k2_file, "--methods", "oracle,dfs",
            "--workers", "2", "-o", str(dest)]
    assert main(argv) == 0
    text = dest.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(BENCH_HEADER)
    assert len(lines) == 5
    assert lines[1].startswith("g6a,6,")
    assert ",OPTIMAL,2," in lines[1]
    assert ",INFEASIBLE,," in lines[3]
    assert main(["profile", str(dest)]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "method,tau,fraction"
    assert any(line.startswith("oracle,") for line in out.splitlines()[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "/nonexistent/file.dvop"],
        ["solve", "{g6a}", "--method", "naive", "--objective", "nodes"],
        ["bench", "{g6a}", "--methods", ""],
        ["bench", "{g6a}", "--methods", "simplex"],
        ["gen", "random", "--n", "10", "--density", "0.0", "--k", "2"],
        ["gen", "synthetic", "--k", "2", "--doubles", "9", "--n", "8"],
        ["solve", "{g6a}", "--time-limit", "nan"],
        ["solve", "{g6a}", "--time-limit", "-1"],
        ["bench", "{g6a}", "--time-limit", "nan"],
        ["gen", "random", "--n", "501", "--density", "0.5", "--k", "2"],
        ["gen", "synthetic", "--k", "2", "--doubles", "1", "--n", "501"],
        ["gen", "synthetic", "--k", "2", "--doubles", "1", "--n", "8", "--noise", "inf"],
        ["gen", "synthetic", "--k", "2", "--doubles", "1", "--n", "8", "--noise", "nan"],
        ["solve", "{g6a}", "--method", "witness", "--objective", "nodes"],
        ["bench", "{g6a}", "--methods", "dfs,naive", "--objective", "nodes"],
        ["bench", "{g6a}", "--workers", "0"],
        ["bench", "{g6a}", "--time-limit", "-1"],
        ["pareto", "/nonexistent/file.dvop"],
        ["profile", "/nonexistent/bench.csv"],
        ["presolve", "{k100}"],
        ["presolve", "{p501}"],
        ["solve", "{dir}"],
    ],
)
def test_usage_errors_exit_2(argv, g6a_file, tmp_path, capsys):
    # K_100 has past presolve.MAX_ROOTS initial cliques; a 501-path is
    # past harness.MAX_N; {dir} is a directory, not an instance file.
    builds = {
        "{k100}": lambda: Instance.build(100, 3, complete_edges(100)),
        "{p501}": lambda: Instance.build(MAX_N + 1, 1, path_edges(MAX_N + 1)),
    }
    for i, a in enumerate(argv):
        if a in builds:
            path = tmp_path / "inst.dvop"
            path.write_text(render_instance(builds[a]()))
            argv[i] = str(path)
    argv = [a.format(g6a=g6a_file, dir=tmp_path) for a in argv]
    assert main(argv) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error:")


def test_oracle_cap_above_ceiling_exit_2(tmp_path, capsys):
    # K_100 is past the oracle's work budget; both of its readers refuse it.
    path = tmp_path / "k100.dvop"
    path.write_text(render_instance(Instance.build(100, 3, complete_edges(100))))
    for argv in (["solve", str(path), "--method", "oracle"], ["pareto", str(path)]):
        assert main(argv) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: oracle work budget exceeded: layer 3 ")


def test_solver_ceiling_exit_2(tmp_path, capsys):
    # Without the ceiling the search died in a RecursionError, exit 1.
    n = MAX_N + 1
    path = tmp_path / "path.dvop"
    path.write_text(render_instance(Instance.build(n, 1, path_edges(n))))
    argv = ["solve", str(path), "--method", "naive", "--time-limit", "5"]
    assert main(argv) == 2
    _, err = capsys.readouterr()
    assert err.startswith(f"error: n = {n} exceeds the solver ceiling of {MAX_N}")


def test_malformed_instance_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.dvop"
    bad.write_text("p dvop 4 1 2\ne 0 1\ne 2 3\n")
    assert main(["solve", str(bad)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error:")
