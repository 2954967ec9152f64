"""The per-root bound table that `ddvop presolve` prints.

One line per initial (K+1)-clique, in lexicographic order: the clique
and its order.root_bound, the one-step lower bound on the doubles past
rank K of every valid order that starts with it.  Witness and naive
lift some of these bounds by the depth-3 lookahead, so the least bound
plus one is at most the lower_bound a solve proves before any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import inf

from .graph import Clique, Instance, iter_cliques
from .order import root_bound

# The most initial cliques a presolve enumerates before it refuses the
# instance; a bound costs O(n + m) per pass, so more would run for long.
MAX_ROOTS = 100_000


@dataclass(frozen=True)
class PresolveResult:
    """Every initial clique with its root bound (inf: it cannot be completed).

    infeasible is exact: it holds iff there is no initial clique or every
    bound is inf, and that is iff no valid order exists.  A finite bound
    means the relaxation placed every vertex, and its closure steps and
    stall batches, placed one vertex at a time in sequence, form a valid
    order from that clique; an inf bound is sound (see order.root_bound).
    """

    n: int
    K: int
    bounds: tuple[tuple[Clique, float], ...]
    infeasible: bool

    def as_lines(self) -> list[str]:
        """`root <members> bound <b>` per clique, then the least bound + 1."""
        lines = [
            f"root {' '.join(map(str, c.members))} bound {b}" for c, b in self.bounds
        ]
        if self.infeasible:
            lines.append("infeasible")
        else:
            lines.append(f"lower_bound {1 + min(b for _, b in self.bounds)}")
        return lines


def full_presolve(inst: Instance) -> PresolveResult:
    """The root bound of every initial clique; ValueError past MAX_ROOTS."""
    roots = list(islice(iter_cliques(inst, inst.K + 1), MAX_ROOTS + 1))
    if len(roots) > MAX_ROOTS:
        raise ValueError(
            f"more than {MAX_ROOTS} initial {inst.K + 1}-cliques; "
            "presolve refuses the instance"
        )
    bounds = tuple((c, root_bound(inst, c)) for c in roots)
    return PresolveResult(
        inst.n, inst.K, bounds, all(b == inf for _, b in bounds)
    )
