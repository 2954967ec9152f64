"""Instance generators: deterministic RNG, random and planted families."""

import importlib.util
import math
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ddvop import instgen
from ddvop.graph import parse_instance
from ddvop.instgen import (
    GenerationError,
    Rng,
    acceptance_corpus,
    gen_random,
    gen_random_detailed,
    gen_synthetic,
    gen_synthetic_detailed,
    random_instance_text,
    synthetic_instance_text,
)
from ddvop.oracle import brute_optimum
from ddvop.order import VertexOrder, check_order

MUL = 6364136223846793005
INC = 1442695040888963407


def test_rng_recurrence():
    r = Rng(1)
    assert r._next() == (MUL + INC) & ((1 << 64) - 1)
    assert Rng(1).uniform_int(100) == (MUL + INC) % 100


def test_rng_determinism():
    assert [Rng(42).uniform_int(10)] == [Rng(42).uniform_int(10)]
    seq = Rng(9)
    a = [seq.uniform_int(1000) for _ in range(20)]
    seq2 = Rng(9)
    assert a == [seq2.uniform_int(1000) for _ in range(20)]


def test_rng_bernoulli_bounds():
    r = Rng(5)
    draws = [r.bernoulli(0.3) for _ in range(200)]
    assert set(draws) <= {True, False}
    assert 20 <= sum(draws) <= 100


def test_rng_subset():
    s = Rng(7).subset(10, 4)
    assert len(s) == 4 and len(set(s)) == 4
    assert all(0 <= x < 10 for x in s)
    assert Rng(7).subset(10, 4) == s
    assert sorted(Rng(3).subset(5, 5)) == [0, 1, 2, 3, 4]


def test_gen_random_deterministic():
    a = gen_random(20, 0.5, 3, 1)
    assert gen_random(20, 0.5, 3, 1) == a
    assert a.n == 20 and a.K == 3
    assert 0.3 <= a.density() <= 0.7


def test_gen_random_density_band():
    densities = [
        gen_random(16, 0.4, 3, seed * 131 + 5).density() for seed in range(40)
    ]
    assert min(densities) >= 0.2 and max(densities) <= 0.6


def test_gen_random_near_complete():
    inst = gen_random(5, 0.999, 2, 7)
    assert len(inst.edges) >= 9


def test_gen_random_retries():
    # Sparse draws disconnect often; the generator reseeds and retries.
    inst, retries = gen_random_detailed(12, 0.12, 2, 11)
    assert inst.n == 12 and retries >= 0


def test_gen_random_retry_exhaustion():
    with pytest.raises(GenerationError, match="attempts"):
        gen_random_detailed(50, 0.001, 2, 3)


@pytest.mark.parametrize(
    "args",
    [(10, 0.0, 2, 1), (10, 1.0, 2, 1), (10, 0.5, 10, 1), (10, 0.5, 0, 1)],
)
def test_gen_random_rejects_bad_args(args):
    with pytest.raises(GenerationError):
        gen_random(*args)


def test_random_instance_text():
    a = gen_random(20, 0.5, 3, 1)
    text = random_instance_text(20, 0.5, 3, 1)
    assert text.splitlines()[0] == "c generator random"
    assert "c seed 1" in text and "c retries" in text
    assert parse_instance(text) == a
    assert random_instance_text(20, 0.5, 3, 1) == text


# Seeds whose noise target ceil(noise*n) = 2 exceeds the free unmarked
# pairs (1 at seed 14, 0 at seed 35): the generator must refuse them.
NOISE_REFUSED_SEEDS = {14, 35}


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_gen_synthetic_construction(seed):
    n = 8 + (seed % 5)
    K = 1 + (seed % 3)
    nd = 1 + (seed % (n - K - 1))
    noise = (seed % 4) * 0.05
    if seed in NOISE_REFUSED_SEEDS:
        with pytest.raises(GenerationError, match="need 2 noise edges"):
            gen_synthetic_detailed(K, nd, noise, n, seed)
        return
    inst, marks, base, added = gen_synthetic_detailed(K, nd, noise, n, seed)
    assert sum(marks) == nd
    assert marks[K] == 1
    assert all(marks[r] == 0 for r in range(K))
    want_base = K * (K + 1) // 2 + sum(
        K if marks[v] else K + 1 for v in range(K + 1, n)
    )
    assert base == want_base
    assert added == math.ceil(noise * n)
    assert len(inst.edges) == base + added
    report = check_order(inst, VertexOrder(tuple(range(n))))
    assert report.is_dvop
    assert report.double_count == nd
    assert report.doubles.bits == marks
    assert gen_synthetic(K, nd, noise, n, seed) == inst


def test_gen_synthetic_noise_loop_regression():
    # Few unmarked vertices leave few noise slots; this seed once drove
    # the pair sampler into a cycle that never hit a free slot.
    inst, marks, base, added = gen_synthetic_detailed(3, 2, 0.15, 9, 11)
    assert len(inst.edges) == base + added
    assert check_order(inst, VertexOrder(tuple(range(9)))).is_dvop


@pytest.mark.parametrize("seed", [3, 10, 27])
def test_gen_synthetic_oracle_bound(seed):
    inst = gen_synthetic(3, 2, 0.1, 10, seed)
    res = brute_optimum(inst, "min-double")
    assert res is not None
    assert 1 <= res.value <= 2


def test_synthetic_instance_text():
    one = gen_synthetic(3, 2, 0.1, 10, 3)
    text = synthetic_instance_text(3, 2, 0.1, 10, 3)
    assert text == synthetic_instance_text(3, 2, 0.1, 10, 3)
    assert parse_instance(text) == one
    assert "c generator synthetic" in text and "c marks" in text


def test_gen_synthetic_unplaceable_noise():
    with pytest.raises(GenerationError, match="noise"):
        gen_synthetic_detailed(2, 2, 0.5, 5, 1)


@pytest.mark.parametrize(
    "args",
    [
        (3, 0, 0.1, 10, 1),
        (3, 7, 0.1, 10, 1),
        (9, 1, 0.1, 5, 1),
        (3, 2, -0.1, 10, 1),
    ],
)
def test_gen_synthetic_rejects_bad_args(args):
    with pytest.raises(GenerationError):
        gen_synthetic(*args)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(6, 12),
    st.sampled_from([0.3, 0.4, 0.5, 0.6]),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_gen_random_contract(n, density, K, seed):
    # The density band is a concentration statement, pinned separately
    # on fixed seeds at n=16; tiny n fluctuates past any fixed margin.
    try:
        inst = gen_random(n, density, K, seed)
    except GenerationError:
        return
    assert inst.n == n and inst.K == K
    assert 0.0 < inst.density() <= 1.0
    assert gen_random(n, density, K, seed) == inst


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(8, 12), st.integers(0, 10_000))
def test_gen_synthetic_contract(K, nd, n, seed):
    if nd > n - K - 1:
        return
    try:
        inst = gen_synthetic(K, nd, 0.1, n, seed)
    except GenerationError:
        return
    report = check_order(inst, VertexOrder(tuple(range(n))))
    assert report.is_dvop
    assert report.double_count == nd


def test_acceptance_corpus_matches_benchmark(monkeypatch):
    # The benchmark keeps its own copy of the recipe; both must build the
    # same 70 instances.  Its file is only read, never changed.
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    bench = [g.inst for g in workloads.WORKLOADS["acceptance"].generate(instgen)]
    ours = acceptance_corpus()
    assert len(ours) == len(bench) == 70
    for a, b in zip(ours, bench):
        assert (a.name, a.n, a.K, a.edges) == (b.name, b.n, b.K, b.edges)
