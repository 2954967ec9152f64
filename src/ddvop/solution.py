"""Result types and run controls shared by every solver route.

Each route takes a time limit and nothing else to tune, counts its work
in one SolveStats, and returns a Solution.  A search polls its Deadline
once per node and raises TimeoutError when it has expired; the route
catches it and reports TIMEOUT with whatever incumbent it holds.  With no time limit the
deadline never expires, so a search never has to test for its absence.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # order imports Deadline from this module
    from .order import DoublePattern, VertexOrder

OBJECTIVES = ("min-double", "min-nodes")


class Deadline:
    """Cooperative wall-clock budget; expired() is safe to call anywhere."""

    def __init__(self, seconds: float | None):
        self._end = None if seconds is None else time.monotonic() + seconds

    def expired(self) -> bool:
        return self._end is not None and time.monotonic() >= self._end


@dataclass
class SolveStats:
    """Work counters of one solve; the field order is the CSV column order.

    Every stats CSV (the solve side channel and the bench) takes its
    columns from these fields, so a new counter is one line here.
    """

    time_ms: float = 0.0
    choice_points: int = 0
    cuts: int = 0
    cliques_considered: int = 0
    iterations: int = 0
    iis_time_ms: float = 0.0

    def csv_fields(self) -> list[str]:
        """Field values as CSV text, in STATS_COLUMNS order."""
        return [f"{v:.3f}" if isinstance(v, float) else str(v) for v in astuple(self)]

    @classmethod
    def from_csv_fields(cls, values: Sequence[str]) -> SolveStats:
        """Inverse of csv_fields; each field parses as its default's type."""
        pairs = zip(fields(cls), values, strict=True)
        return cls(*(type(f.default)(v) for f, v in pairs))


STATS_COLUMNS = tuple(f.name for f in fields(SolveStats))


@dataclass(frozen=True)
class Solution:
    """Outcome of one solver run.

    status is OPTIMAL, INFEASIBLE, or TIMEOUT (ERROR only in bench rows).
    On TIMEOUT the incumbent fields carry the best known order, or None
    when none was found; on INFEASIBLE they are all None.  lower_bound is
    a proven lower bound on the optimum: the objective when OPTIMAL, at
    most the incumbent on TIMEOUT, and None on INFEASIBLE (or where a
    route proves none).
    """

    status: str
    objective: int | None
    order: VertexOrder | None
    doubles: DoublePattern | None
    stats: SolveStats = field(default_factory=SolveStats)
    lower_bound: int | None = None
