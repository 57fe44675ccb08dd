"""Pareto-frontier extraction and best-per-metric selection over sweep rows.

The sweep engine produces lists of flat result rows (dicts of scalars);
this module answers the co-design study's core question: which design
points are *not dominated* on the efficiency axes the paper compares
(GFLOPS, GFLOPS/W, GFLOPS/mm^2), and which single point wins each metric.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Sequence, Tuple

#: The three headline metrics of the study's frontier comparisons.
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("gflops", "gflops_per_w", "gflops_per_mm2")

Row = Mapping[str, object]


def _objective_value(row: Row, objective: str) -> float:
    try:
        value = row[objective]
    except KeyError:
        raise KeyError(f"row is missing objective '{objective}'; "
                       f"available columns: {sorted(row)}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"objective '{objective}' must be numeric, got {value!r}")
    return float(value)


def _oriented(row: Row, objectives: Sequence[str], minimize: Collection[str]) -> List[float]:
    """Objective vector with minimised axes negated, so bigger is better."""
    return [-_objective_value(row, o) if o in minimize else _objective_value(row, o)
            for o in objectives]


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether oriented vector ``a`` strictly dominates ``b``."""
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


class IncrementalPareto:
    """Streaming Pareto frontier: fold rows in one at a time.

    Maintains the non-dominated subset of the rows seen so far, in arrival
    order, at O(frontier) per row -- built for consuming
    :meth:`repro.engine.executor.SweepExecutor.stream` while the sweep is
    still running; :func:`pareto_frontier` is the same fold over a list.

    The members equal the pairwise definition (a row survives unless some
    other row strictly dominates it) because strict dominance is
    transitive: a new row is rejected only when some current member
    dominates it, and if that member is later evicted by a better row, the
    better row dominates the rejected one too (so it stays correctly
    rejected); conversely every evicted member is dominated by a row that
    remains.  Survivors are appended in arrival order (evictions never
    reorder), so the order is the input order.  Rows with equal objective
    vectors all survive, which keeps equally-good design alternatives
    visible.
    """

    def __init__(self, objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                 minimize: Collection[str] = ()) -> None:
        if not objectives:
            raise ValueError("at least one objective is required")
        self.objectives: Tuple[str, ...] = tuple(objectives)
        self.minimize = frozenset(minimize)
        self.seen = 0
        self._rows: List[Row] = []
        self._vectors: List[List[float]] = []

    def add(self, row: Row) -> bool:
        """Fold one row in; returns whether it joined the frontier."""
        vec = _oriented(row, self.objectives, self.minimize)
        self.seen += 1
        if any(_dominates(other, vec) for other in self._vectors):
            return False
        keep = [(member, other) for member, other in zip(self._rows, self._vectors)
                if not _dominates(vec, other)]
        self._rows = [member for member, _ in keep] + [row]
        self._vectors = [other for _, other in keep] + [vec]
        return True

    def frontier(self) -> List[Row]:
        """Current frontier members, in arrival order."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def pareto_frontier(rows: Sequence[Row], objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                    minimize: Collection[str] = ()) -> List[Row]:
    """The non-dominated subset of ``rows``, preserving input order.

    Folds the rows through :class:`IncrementalPareto`.  Duplicate objective
    vectors all survive (none strictly dominates the other).
    """
    frontier = IncrementalPareto(objectives, minimize)
    for row in rows:
        frontier.add(row)
    return frontier.frontier()


def best_per_metric(rows: Sequence[Row], metrics: Sequence[str] = DEFAULT_OBJECTIVES,
                    minimize: Collection[str] = ()) -> Dict[str, Row]:
    """The winning row for each metric (first wins ties, so results are
    deterministic for a deterministically-ordered sweep)."""
    if not rows:
        return {}
    winners: Dict[str, Row] = {}
    for metric in metrics:
        sense = -1.0 if metric in minimize else 1.0
        winners[metric] = max(rows, key=lambda row: sense * _objective_value(row, metric))
    return winners


def frontier_report(rows: Sequence[Row], objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                    minimize: Collection[str] = ()) -> Dict[str, object]:
    """Frontier plus per-metric winners, packaged for rendering / export."""
    frontier = pareto_frontier(rows, objectives, minimize)
    return {
        "objectives": list(objectives),
        "minimize": sorted(minimize),
        "num_rows": len(rows),
        "frontier": [dict(row) for row in frontier],
        "best": {metric: dict(row)
                 for metric, row in best_per_metric(rows, objectives, minimize).items()},
    }
