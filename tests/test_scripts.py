"""The scripts under scripts/, each loaded by path and run through main()."""

import csv
import importlib.util
from pathlib import Path

from ddvop.harness import BENCH_HEADER, PROFILE_HEADER
from ddvop.instgen import gen_random
from ddvop.modelgen import formulation_sizes

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_formulation_sizes(capsys):
    assert load("formulation_sizes").main([]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    inst = gen_random(20, 0.4, 3, 0)
    assert head == f"{inst.name}: n=20 m={len(inst.edges)} K=3"
    sizes = formulation_sizes(inst)
    assert len(rows) == len(sizes)
    for row, (name, groups) in zip(rows, sizes.items()):
        assert row.split()[0] == name
        assert f"variables={sum(groups['variables'].values())} " in row


def test_pareto_survey(tmp_path, capsys):
    out = tmp_path / "pareto.csv"
    survey = load("pareto_survey")
    assert survey.main(["--count", "3", "--out", str(out)]) == 0
    header, *rows = list(csv.reader(out.read_text().splitlines()))
    assert tuple(header) == survey.HEADER
    assert len(rows) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("3 instances, ")
    assert lines[-1] == f"wrote {out}"


def test_run_benchmarks(tmp_path, capsys):
    argv = ["--count", "2", "--methods", "dfs,oracle", "--time-limit", "5",
            "--out", str(tmp_path)]
    assert load("run_benchmarks").main(argv) == 0
    header, *rows = list(csv.reader((tmp_path / "bench.csv").read_text().splitlines()))
    assert tuple(header) == BENCH_HEADER
    assert [row[4] for row in rows] == ["dfs", "oracle", "dfs", "oracle"]
    profile = (tmp_path / "profile.csv").read_text().splitlines()
    assert tuple(profile[0].split(",")) == PROFILE_HEADER
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("2 instances, 4 rows: ")
    assert lines[-1].startswith("wrote ")
