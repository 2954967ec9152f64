"""Presolve for the rank-indexed double pattern.

Three sound deductions shrink the pattern search space before any solver
runs: base fixings forced by the initial clique, a tail of zero fixings
from the minimum degree, and a head analysis of how the first few ranks
past the clique can be filled by overlapping cliques.  Every output
speaks about ranks, not vertices: either fix y[r] to a constant, or
require at least one double among a small set of ranks (a cover
inequality).  Deductions whose ranks fall outside [0, n-1] are dropped
rather than reinterpreted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graph import Clique, Instance, enumerate_cliques, iter_cliques, min_degree

DEFAULT_CLIQUE_BUDGET = 100_000


@dataclass(frozen=True)
class HeadAnalysis:
    """Raw output of the head analysis, before merging with other fixings."""

    fixed_one: frozenset[int]
    cover_inequalities: tuple[frozenset[int], ...]
    skipped: bool = False
    infeasible: bool = False


@dataclass(frozen=True)
class PresolveResult:
    """Combined fixings and cover inequalities for an instance.

    fixed_zero / fixed_one hold ranks whose double bit is forced.  Each
    cover inequality S means sum(y[r] for r in S) >= 1.  skipped is set
    when the head analysis was abandoned for exceeding the clique budget;
    infeasible is set when the deductions contradict each other or no
    initial clique exists at all (then the fixings are meaningless and
    the instance has no valid order).
    """

    n: int
    K: int
    fixed_zero: frozenset[int]
    fixed_one: frozenset[int]
    cover_inequalities: tuple[frozenset[int], ...]
    skipped: bool = False
    infeasible: bool = False

    def satisfied_by(self, bits: Sequence[int]) -> bool:
        """Does a full double pattern respect every fixing and cover?"""
        if self.infeasible:
            return False
        if any(bits[r] != 0 for r in self.fixed_zero):
            return False
        if any(bits[r] != 1 for r in self.fixed_one):
            return False
        return all(any(bits[r] for r in cover) for cover in self.cover_inequalities)

    def as_lines(self) -> list[str]:
        """Deterministic text rendering, one deduction per line."""
        lines = [f"fix y[{r}]=0" for r in sorted(self.fixed_zero)]
        lines += [f"fix y[{r}]=1" for r in sorted(self.fixed_one)]
        for cover in sorted(self.cover_inequalities, key=sorted):
            terms = "+".join(f"y[{r}]" for r in sorted(cover))
            lines.append(f"cut {terms}>=1")
        if self.skipped:
            lines.append("head analysis skipped (clique budget)")
        if self.infeasible:
            lines.append("infeasible")
        return lines


def base_fixings(inst: Instance) -> tuple[frozenset[int], frozenset[int]]:
    """Ranks below K can never be doubles; rank K always is one."""
    return frozenset(range(inst.K)), frozenset({inst.K})


def tail_fixings(inst: Instance) -> frozenset[int]:
    """Zero fixings at the last ranks, from the minimum degree.

    A vertex at rank r has at most n-1-r successors, hence at least
    deg - (n-1-r) adjacent predecessors.  With m the minimum degree,
    ranks r >= n - (m-K) leave every vertex with more than K adjacent
    predecessors, so no double can sit there.
    """
    m = min_degree(inst)
    if m <= inst.K:
        return frozenset()
    return frozenset(inst.n - i for i in range(1, m - inst.K + 1))


def _clique_pair_unions(cliques: Sequence[Clique]) -> list[frozenset[int]]:
    """Unions of two cliques (equal size k) sharing exactly k-1 vertices.

    Two distinct size-k cliques share at most k-1 vertices, and when they
    share exactly k-1 the intersection is the unique common (k-1)-subset,
    so bucketing by (k-1)-subsets visits each qualifying pair once.
    """
    buckets: dict[tuple[int, ...], list[frozenset[int]]] = {}
    for c in cliques:
        members = frozenset(c.members)
        for sub in itertools.combinations(c.members, len(c.members) - 1):
            buckets.setdefault(sub, []).append(members)
    unions: set[frozenset[int]] = set()
    for group in buckets.values():
        for a, b in itertools.combinations(group, 2):
            unions.add(a | b)
    return sorted(unions, key=sorted)


def _extenders(inst: Instance, base: frozenset[int]) -> list[int]:
    """Vertices outside base adjacent to at least K+1 of its members."""
    out = []
    for v in range(inst.n):
        if v in base:
            continue
        if len(inst.neighbors[v] & base) >= inst.K + 1:
            out.append(v)
    return out


def head_analysis(
    inst: Instance, clique_budget: int = DEFAULT_CLIQUE_BUDGET
) -> HeadAnalysis:
    """Deductions about ranks K+1..K+3 from clique coverage of the prefix.

    The first K+2 vertices of any valid order are either a (K+2)-clique
    or the union of two (K+1)-cliques sharing K vertices.  Whether such a
    prefix can be extended by one vertex with K+1 neighbors inside it
    (a candidate), and extended twice, bounds where the next doubles can
    appear.  Candidates are pooled across all prefixes before anything is
    emitted, so one global conclusion is drawn per branch.
    """
    K, n = inst.K, inst.n
    # One clique past the budget is enough to know it is exceeded.
    init_cliques = list(
        itertools.islice(iter_cliques(inst, K + 1), max(clique_budget, 0) + 1)
    )
    if not init_cliques:
        return HeadAnalysis(frozenset(), (), infeasible=True)
    if len(init_cliques) > clique_budget:
        return HeadAnalysis(frozenset(), (), skipped=True)

    fixed_one: set[int] = set()
    covers: list[frozenset[int]] = []

    def fix(rank: int) -> None:
        if rank < n:
            fixed_one.add(rank)

    def cut(ranks: Iterable[int]) -> None:
        cover = frozenset(ranks)
        if all(r < n for r in cover):
            covers.append(cover)

    bigger = enumerate_cliques(inst, K + 2)
    if not bigger:
        bases = _clique_pair_unions(init_cliques)
    else:
        bases = [frozenset(c.members) for c in bigger]
    candidates = [(base, v) for base in bases for v in _extenders(inst, base)]
    twice = any(_extenders(inst, base | {v}) for base, v in candidates)

    if not bigger:
        # Prefix cannot be a (K+2)-clique, so rank K+1 is forced.
        fix(K + 1)
        if not candidates:
            fix(K + 2)
        elif not twice:
            cut({K + 2, K + 3})
    else:
        if not candidates:
            cut({K + 1, K + 2})
        elif not twice:
            cut({K + 1, K + 2, K + 3})

    return HeadAnalysis(frozenset(fixed_one), tuple(covers))


def full_presolve(
    inst: Instance,
    use_head: bool = True,
    clique_budget: int = DEFAULT_CLIQUE_BUDGET,
) -> PresolveResult:
    """Combine base, tail, and head deductions into one result.

    Cover inequalities already satisfied by a one fixing are dropped.
    Contradictory fixings, or a cover with every rank fixed to zero,
    mark the result infeasible.
    """
    zero, one = base_fixings(inst)
    fixed_zero = set(zero) | set(tail_fixings(inst))
    fixed_one = set(one)
    covers: list[frozenset[int]] = []
    skipped = False
    infeasible = False

    if use_head:
        head = head_analysis(inst, clique_budget)
        skipped = head.skipped
        infeasible = head.infeasible
        fixed_one |= set(head.fixed_one)
        covers = [c for c in head.cover_inequalities]

    if fixed_zero & fixed_one:
        infeasible = True
    kept: list[frozenset[int]] = []
    for cover in covers:
        if cover & fixed_one:
            continue
        if cover <= fixed_zero:
            infeasible = True
        kept.append(cover)

    return PresolveResult(
        n=inst.n,
        K=inst.K,
        fixed_zero=frozenset(fixed_zero),
        fixed_one=frozenset(fixed_one),
        cover_inequalities=tuple(sorted(kept, key=sorted)),
        skipped=skipped,
        infeasible=infeasible,
    )
