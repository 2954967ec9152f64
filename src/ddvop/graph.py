"""Undirected-graph instances: parsing, rendering, cliques, and degree queries.

An instance is a simple connected undirected graph together with a positive
dimension K.  Vertices are dense 0-based integers.  The instance file format
is line oriented:

    c <comment>            ignored; generators record seed/provenance here
    p dvop <n> <m> <K>     exactly one, first non-comment line
    e <u> <v>              m lines, 0-based endpoints, u < v, no duplicates
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Base class for instance-file rejections."""


class MalformedHeaderError(ParseError):
    pass


class VertexRangeError(ParseError):
    pass


class DuplicateEdgeError(ParseError):
    pass


class SelfLoopError(ParseError):
    pass


class DisconnectedGraphError(ParseError):
    pass


class BadDimensionError(ParseError):
    pass


@dataclass(frozen=True)
class Instance:
    """A DVOP instance: connected graph plus dimension K.

    Immutable after construction; safe to share across workers.
    """

    n: int
    K: int
    edges: frozenset[tuple[int, int]]
    # The name is a provenance label; two instances with the same graph
    # and K compare equal regardless of where they came from.
    name: str = field(default="", compare=False)
    neighbors: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    adj_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise BadDimensionError(f"need at least 2 vertices, got n={self.n}")
        if not 0 < self.K < self.n:
            raise BadDimensionError(f"dimension must satisfy 0 < K < n, got K={self.K}, n={self.n}")
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise VertexRangeError(f"edge ({u},{v}) outside 0..{self.n - 1}")
            if u > v:
                raise VertexRangeError(f"edge ({u},{v}) not normalized as u < v")
            nbrs[u].add(v)
            nbrs[v].add(u)
        object.__setattr__(self, "neighbors", tuple(frozenset(s) for s in nbrs))
        bits = tuple(sum(1 << u for u in s) for s in self.neighbors)
        object.__setattr__(self, "adj_bits", bits)
        if not _connected(self.n, self.neighbors):
            raise DisconnectedGraphError("graph is not connected")

    @staticmethod
    def build(n: int, K: int, edges: Iterable[Sequence[int]], name: str = "") -> "Instance":
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return Instance(n=n, K=K, edges=norm, name=name)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def density(self) -> float:
        return 2.0 * self.m / (self.n * (self.n - 1))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _connected(n: int, neighbors: Sequence[frozenset[int]]) -> bool:
    seen = [False] * n
    queue = deque([0])
    seen[0] = True
    count = 1
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse the instance file format, establishing all Instance invariants."""
    n = m = K = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise MalformedHeaderError(f"line {lineno}: duplicate problem line")
            if len(fields) != 5 or fields[1] != "dvop":
                raise MalformedHeaderError(f"line {lineno}: expected 'p dvop <n> <m> <K>'")
            try:
                n, m, K = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError as exc:
                raise MalformedHeaderError(f"line {lineno}: non-integer header field") from exc
            header = lineno
            if n < 2 or m < 0:
                raise MalformedHeaderError(f"line {lineno}: need n >= 2 and m >= 0")
            if not 0 < K < n:
                raise BadDimensionError(f"line {lineno}: dimension must satisfy 0 < K < n")
        elif fields[0] == "e":
            if n is None:
                raise MalformedHeaderError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise MalformedHeaderError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise MalformedHeaderError(f"line {lineno}: non-integer endpoint") from exc
            if u == v:
                raise SelfLoopError(f"line {lineno}: self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"line {lineno}: endpoint outside 0..{n - 1}")
            if u > v:
                raise VertexRangeError(f"line {lineno}: endpoints must satisfy u < v")
            if (u, v) in edges:
                raise DuplicateEdgeError(f"line {lineno}: duplicate edge ({u},{v})")
            edges.add((u, v))
        else:
            raise MalformedHeaderError(f"line {lineno}: unknown record '{fields[0]}'")
    if n is None:
        raise MalformedHeaderError("missing problem line")
    # Checked before Instance allocates n neighbor sets, so a header with a
    # huge n and few edges costs no memory; after the edge lines, so a bad
    # edge is still reported at its own line.
    if m < n - 1:
        raise DisconnectedGraphError(
            f"line {header}: {m} edges cannot connect {n} vertices"
        )
    if len(edges) != m:
        raise MalformedHeaderError(f"header declares {m} edges, found {len(edges)}")
    return Instance(n=n, K=K, edges=frozenset(edges), name=name)


def render_instance(inst: Instance, comments: Sequence[str] = ()) -> str:
    """Write an instance in the file format; parse(render(inst)) == inst."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p dvop {inst.n} {inst.m} {inst.K}")
    lines.extend(f"e {u} {v}" for u, v in inst.sorted_edges())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, order=True)
class Clique:
    """A set of pairwise-adjacent vertices, stored sorted."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("clique members must be sorted and distinct")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def iter_cliques(inst: Instance, size: int) -> Iterator[Clique]:
    """Cliques of exactly the given cardinality, lazily, in lexicographic order.

    Ordered extension with candidate-count pruning, on an explicit stack:
    each clique is grown in increasing vertex order, so every clique is
    produced exactly once, and a caller may stop after the first few.
    """
    if not 1 <= size <= inst.n:
        raise ValueError(f"clique size must be in 1..{inst.n}")
    adj = inst.adj_bits
    members: list[int] = []
    # stack[d]: candidates not yet tried at depth d, all above members[-1]
    stack = [(1 << inst.n) - 1]
    while stack:
        cand = stack[-1]
        need = size - len(members)
        if cand.bit_count() < need:
            stack.pop()
            if members:
                members.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        stack[-1] = cand
        if need == 1:
            yield Clique((*members, v))
        else:
            members.append(v)
            stack.append(cand & adj[v])


def enumerate_cliques(inst: Instance, size: int) -> list[Clique]:
    """All cliques of exactly the given cardinality, in lexicographic order."""
    return list(iter_cliques(inst, size))


def extendable_k_cliques(inst: Instance) -> list[Clique]:
    """K-cliques having a common neighbor outside the clique.

    These are the candidate initial K-cliques (those extendable to a
    (K+1)-clique) used by the clique-selection formulations.
    """
    full = (1 << inst.n) - 1
    out = []
    for c in enumerate_cliques(inst, inst.K):
        common = full
        for v in c:
            common &= inst.adj_bits[v]
        if common:
            out.append(c)
    return out
