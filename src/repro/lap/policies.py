"""Scheduling policies for the LAP: the single scheduling code path.

The runtime's event-driven loop (:meth:`repro.lap.runtime.LAPRuntime.execute`)
keeps a heap of *ready* tasks and a per-core availability clock; the policy
decides two things: the heap priority of a ready task and the core a popped
task runs on.  A policy is one of the five names in :data:`POLICIES`, and
the loop implements each inline, branching on the name's index there; an
unknown name raises ``ValueError``.

``greedy``
    the original earliest-core list scheduler: tasks are ordered by the
    completion time of their latest dependency (ties by task id) and a
    popped task goes to the earliest-available core.  With functional
    timing this reproduces the pre-refactor monolithic scheduler exactly.
``critical_path``
    tasks with the longest downstream dependency chain are popped first
    (classic HEFT-style upward rank with unit weights, from
    :meth:`~repro.lap.taskgraph.TaskGraph.critical_path_lengths`): heap key
    ``(-rank, ready_time)``; core selection is the same earliest-available
    rule.
``locality``
    greedy ordering, but a task prefers the core that last wrote its output
    tile (the tile is already resident in that core's local store), falling
    back to the earliest-starting core when the owner would delay the start.
``memory_aware``
    generalises ``locality`` to the chip-level working set: ready tasks are
    scored by how many bytes of their tile footprint are *not* resident in
    on-chip memory (fewest missing bytes first, i.e. maximal reuse of what
    is already on chip), with the locality core preference on top.  When the
    two-level hierarchy is enabled the key is ``(missing_bytes,
    local_missing_bytes, ready_time)``, where the second term counts the
    bytes the *assigned* core's local store would have to fill (the core
    the locality rule prefers: the last writer of the output tile, core 0
    before anyone wrote it).  Off-chip avoidance stays lexicographically
    first because a DRAM round trip costs an order of magnitude more than an
    on-chip transfer.  The loop re-validates heap priorities lazily when the
    residency state moved on, so the ordering tracks the simulated working
    set instead of a stale snapshot.
``affinity``
    the two-level counterpart of ``locality``: ready ordering is inherited
    from ``memory_aware``, and a popped task prefers the core whose local
    store already holds the largest fraction of the task's footprint
    (falling back to the output-tile owner, then the earliest-available
    core).  A core that holds the data wins even when a data-less core is
    free earlier: re-fetching through the shared level usually costs more
    than waiting.  Without local stores it degrades to greedy core
    selection.

The *static* panel pre-scheduler of the monolithic GEMM path
(:class:`GEMMScheduler` / :class:`PanelAssignment`) also lives here, so all
scheduling code shares one module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

#: The scheduling policy names, in the order of the codes the scheduler
#: loop branches on (a policy's code is its index here).
POLICIES = ("greedy", "critical_path", "locality", "memory_aware", "affinity")


def policy_names() -> List[str]:
    """Names accepted by ``LAPRuntime(policy=...)`` and the sweep CLI."""
    return sorted(POLICIES)


def get_policy(policy: str) -> str:
    """Check a policy name; returns it, or raises ``ValueError``."""
    if policy not in POLICIES:
        raise ValueError(f"unknown scheduling policy '{policy}'; known "
                         f"policies: {', '.join(policy_names())}")
    return policy


# --------------------------------------------------------------------------
# Static panel pre-scheduler (Figure 4.1), so that one module owns all
# scheduling code.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class PanelAssignment:
    """Assignment of one ``mc``-row panel of C (and A) to one core."""

    core_index: int
    row_start: int
    row_end: int            #: exclusive
    panel_index: int        #: global index of the row panel

    @property
    def rows(self) -> int:
        """Number of matrix rows in the panel."""
        return self.row_end - self.row_start


class GEMMScheduler:
    """Distributes the row panels of C over the cores of a LAP.

    Figure 4.1 of the dissertation describes how a large ``C += A B`` is
    split across cores: the on-chip memory holds an ``n x n`` block of C
    plus the current ``kc x n`` row panel of B; each core is assigned a
    distinct set of ``mc``-row panels of C (and the matching row panels of
    A), while every core shares the same panel of B.  This is the *static*
    counterpart of the task-graph policies above: it produces an up-front
    panel assignment for the monolithic GEMM path instead of scheduling a
    dependency graph event by event.

    Parameters
    ----------
    num_cores:
        Number of cores (``S``).
    nr:
        Core dimension; panel heights must be multiples of ``nr``.
    """

    def __init__(self, num_cores: int, nr: int = 4):
        if num_cores < 1:
            raise ValueError("the LAP needs at least one core")
        if nr < 2:
            raise ValueError("core dimension must be >= 2")
        self.num_cores = num_cores
        self.nr = nr

    def assign_panels(self, n: int, mc: int) -> List[PanelAssignment]:
        """Round-robin assignment of ``mc``-row panels of C to cores.

        The final panel may be shorter when ``n`` is not a multiple of ``mc``;
        it is still a multiple of ``nr`` because callers validate ``n``.
        """
        if n <= 0 or mc <= 0:
            raise ValueError("problem size and panel height must be positive")
        if n % self.nr != 0 or mc % self.nr != 0:
            raise ValueError("n and mc must be multiples of the core size nr")
        assignments: List[PanelAssignment] = []
        panel_index = 0
        for row_start in range(0, n, mc):
            row_end = min(row_start + mc, n)
            assignments.append(PanelAssignment(
                core_index=panel_index % self.num_cores,
                row_start=row_start,
                row_end=row_end,
                panel_index=panel_index,
            ))
            panel_index += 1
        return assignments

    def per_core_work(self, assignments: Sequence[PanelAssignment]) -> Dict[int, List[PanelAssignment]]:
        """Group the panel assignments by core index."""
        out: Dict[int, List[PanelAssignment]] = {i: [] for i in range(self.num_cores)}
        for a in assignments:
            out[a.core_index].append(a)
        return out

    def load_balance(self, assignments: Sequence[PanelAssignment]) -> float:
        """Ratio of the lightest to the heaviest per-core row count (1.0 = perfect)."""
        work = self.per_core_work(assignments)
        rows = [sum(a.rows for a in panels) for panels in work.values()]
        busiest = max(rows) if rows else 0
        if busiest == 0:
            return 1.0
        return min(rows) / busiest
