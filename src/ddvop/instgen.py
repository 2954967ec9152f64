"""Seeded instance generators: random-density graphs and synthetic ones.

Random instances draw every vertex pair independently at a target
density and retry with incremented sub-seeds until connected.
Synthetic instances are built backwards from a planted order: a
(K+1)-clique, a mark vector choosing which later ranks are doubles,
exactly K or K+1 edges from each later vertex into its predecessors,
then a few noise edges between unmarked non-clique vertices, so the
identity order is valid by construction and its double pattern equals
the mark vector.

All randomness flows through a fixed 64-bit linear-congruential
recurrence so instances reproduce bit-for-bit across runs and
implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import DisconnectedGraphError, Instance, render_instance

_MASK64 = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407

MAX_CONNECT_RETRIES = 64


class GenerationError(ValueError):
    pass


@dataclass
class Rng:
    """Deterministic 64-bit LCG shared by every generator."""

    state: int

    def __post_init__(self) -> None:
        self.state &= _MASK64

    def _next(self) -> int:
        self.state = (self.state * _MUL + _INC) & _MASK64
        return self.state

    def uniform_int(self, t: int) -> int:
        """Uniform draw from [0, t); modulo bias accepted at this scale."""
        assert t > 0
        return self._next() % t

    def bernoulli(self, p: float) -> bool:
        return ((self._next() >> 11) / float(1 << 53)) < p

    def subset(self, pool: int, k: int) -> list[int]:
        """k distinct values from [0, pool) via partial Fisher-Yates."""
        assert 0 <= k <= pool
        arr = list(range(pool))
        for i in range(k):
            j = i + self.uniform_int(pool - i)
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]


def gen_random_detailed(
    n: int, density: float, K: int, seed: int
) -> tuple[Instance, int]:
    """Random instance plus the number of connectivity retries used."""
    if not 0 < density < 1:
        raise GenerationError(f"density must be in (0, 1), got {density}")
    if not 0 < K < n:
        raise GenerationError(f"need 0 < K < n, got K={K}, n={n}")
    for attempt in range(MAX_CONNECT_RETRIES):
        rng = Rng(seed + attempt)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.bernoulli(density)
        ]
        try:
            inst = Instance.build(
                n, K, edges, name=f"random_n{n}_d{density:g}_K{K}_s{seed}"
            )
            return inst, attempt
        except DisconnectedGraphError:
            continue
    raise GenerationError(
        f"no connected draw in {MAX_CONNECT_RETRIES} attempts "
        f"(n={n}, density={density}, seed={seed})"
    )


def gen_random(n: int, density: float, K: int, seed: int) -> Instance:
    return gen_random_detailed(n, density, K, seed)[0]


def gen_synthetic_detailed(
    K: int, num_doubles: int, noise: float, n: int, seed: int
) -> tuple[Instance, tuple[int, ...], int, int]:
    """Synthetic instance plus (marks, base edge count, noise edge count).

    The mark vector includes the forced double at rank K, so
    num_doubles counts it too.
    """
    if K + 1 > n:
        raise GenerationError(f"need K+1 <= n, got K={K}, n={n}")
    if not 1 <= num_doubles <= n - K - 1:
        raise GenerationError(
            f"need 1 <= num_doubles <= n-K-1 = {n - K - 1}, got {num_doubles}"
        )
    if not 0 <= noise < math.inf:  # also refuses nan
        raise GenerationError(f"noise must be finite and nonnegative, got {noise}")
    rng = Rng(seed)
    marks = [0] * n
    marks[K] = 1
    while sum(marks) < num_doubles:
        r = K + 1 + rng.uniform_int(n - 1 - K)
        if marks[r] == 0:
            marks[r] = 1
    edges: set[tuple[int, int]] = set()
    for i in range(K + 1):
        for j in range(i + 1, K + 1):
            edges.add((i, j))
    for v in range(K + 1, n):
        size = K if marks[v] else K + 1
        for u in rng.subset(v, size):
            edges.add((u, v))
    base_edges = len(edges)
    target = math.ceil(noise * n)
    unmarked = [v for v in range(K + 1, n) if marks[v] == 0]
    placeable = sum(
        1
        for a in range(len(unmarked))
        for b in range(a + 1, len(unmarked))
        if (unmarked[a], unmarked[b]) not in edges
    )
    if placeable < target:
        raise GenerationError(
            f"need {target} noise edges but only {placeable} unmarked "
            f"non-clique pairs are free (n={n}, K={K}, doubles={num_doubles})"
        )
    # Draw one unordered pair index per iteration. Two consecutive
    # uniform_int(len) draws are correlated in their low bits (the next
    # state's residue mod 2**k is a fixed function of the current one),
    # which can lock the loop onto a handful of pairs and never hit a
    # free one. A single draw cycles through every residue class.
    total_pairs = len(unmarked) * (len(unmarked) - 1) // 2
    noise_count = 0
    while noise_count < target:
        t = rng.uniform_int(total_pairs)
        a = 0
        row = len(unmarked) - 1
        while t >= row:
            t -= row
            a += 1
            row -= 1
        key = (unmarked[a], unmarked[a + 1 + t])
        if key not in edges:
            edges.add(key)
            noise_count += 1
    inst = Instance.build(
        n,
        K,
        sorted(edges),
        name=f"synthetic_n{n}_K{K}_d{num_doubles}_e{noise:g}_s{seed}",
    )
    return inst, tuple(marks), base_edges, noise_count


def gen_synthetic(
    K: int, num_doubles: int, noise: float, n: int, seed: int
) -> Instance:
    return gen_synthetic_detailed(K, num_doubles, noise, n, seed)[0]


def random_grid(
    grid: list[tuple[int, float]], K: int, count: int, seed: int
) -> list[Instance]:
    """count random instances, cycling (n, density) through grid.  Draw i
    uses seed + i; a draw the generator refuses is skipped, not retried."""
    out: list[Instance] = []
    i = 0
    while len(out) < count:
        n, density = grid[i % len(grid)]
        try:
            out.append(gen_random(n, density, K, seed + i))
        except GenerationError:
            pass
        i += 1
    return out


def acceptance_corpus() -> list[Instance]:
    """The 70-instance validation corpus: 50 random, then 20 planted.

    Random: K = 3, n in (8, 10, 12) x density in (0.3, 0.4, 0.5), seeds
    from 100.  Planted: seed s from 0 gives n = 8 + s % 5, K = 1 + s % 3,
    1 + s % (n - K - 1) doubles and noise (s % 3) * 0.05; refused seeds
    are skipped.
    """
    grid = [(n, d) for n in (8, 10, 12) for d in (0.3, 0.4, 0.5)]
    out = random_grid(grid, 3, 50, 100)
    seed = 0
    while len(out) < 70:
        n, K = 8 + seed % 5, 1 + seed % 3
        try:
            out.append(
                gen_synthetic(K, 1 + seed % (n - K - 1), (seed % 3) * 0.05, n, seed)
            )
        except GenerationError:
            pass
        seed += 1
    return out


def random_instance_text(n: int, density: float, K: int, seed: int) -> str:
    inst, retries = gen_random_detailed(n, density, K, seed)
    return render_instance(
        inst,
        comments=[
            "generator random",
            f"seed {seed}",
            f"retries {retries}",
            f"density {density:g}",
        ],
    )


def synthetic_instance_text(
    K: int, num_doubles: int, noise: float, n: int, seed: int
) -> str:
    inst, marks, base, added = gen_synthetic_detailed(K, num_doubles, noise, n, seed)
    return render_instance(
        inst,
        comments=[
            "generator synthetic",
            f"seed {seed}",
            f"doubles {num_doubles}",
            f"noise {noise:g}",
            f"marks {''.join(str(b) for b in marks)}",
            f"base-edges {base} noise-edges {added}",
        ],
    )
