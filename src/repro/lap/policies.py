"""Scheduling policies for the LAP: the single scheduling code path.

The runtime's event-driven loop (:meth:`repro.lap.runtime.LAPRuntime.execute`)
keeps a heap of *ready* tasks and a per-core availability clock; the policy
decides two things: the heap priority of a ready task and the core a popped
task runs on.  The loop implements both decisions inline for the five stock
policies below, so a policy object names the rule and holds per-graph state
(:meth:`SchedulerPolicy.prepare`); custom policy classes are rejected.

``greedy``
    the original earliest-core list scheduler: tasks are ordered by the
    completion time of their latest dependency (ties by task id) and a
    popped task goes to the earliest-available core.  With functional
    timing this reproduces the pre-refactor monolithic scheduler exactly.
``critical_path``
    tasks with the longest downstream dependency chain are popped first
    (classic HEFT-style upward rank with unit weights); core selection is
    the same earliest-available rule.
``locality``
    greedy ordering, but a task prefers the core that last wrote its output
    tile (the tile is already resident in that core's local store), falling
    back to the earliest-starting core when the owner would delay the start.
``memory_aware``
    generalises ``locality`` to the chip-level working set: ready tasks are
    scored by how many bytes of their tile footprint are *not* resident in
    on-chip memory (fewest missing bytes first, i.e. maximal reuse of what
    is already on chip), with the locality core preference on top.  When the
    two-level hierarchy is enabled the score additionally counts the bytes
    the *assigned* core's local store would have to fill (the assigned core
    is the one the locality rule prefers: the owner of the output tile), so
    the ordering favours work whose data already sits next to its core.
    The loop re-validates heap priorities lazily when the residency state
    moved on, so the ordering tracks the simulated working set instead of a
    stale snapshot.
``affinity``
    the two-level counterpart of ``locality``: ready ordering is inherited
    from ``memory_aware``, and a popped task prefers the core whose local
    store already holds the largest fraction of the task's footprint
    (falling back to the output-tile owner, then the earliest-available
    core).  Without local stores it degrades to greedy core selection.

Policies are stateless between :meth:`SchedulerPolicy.prepare` calls, so one
instance can schedule many graphs.

The *static* panel pre-scheduler of the monolithic GEMM path
(:class:`GEMMScheduler` / :class:`PanelAssignment`) also lives here, so all
scheduling code shares one module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

from repro.lap.taskgraph import TaskGraph


class SchedulerPolicy:
    """Base policy: greedy ready ordering + earliest-available core."""

    #: Registry name (subclasses override).
    name = "greedy"

    def prepare(self, graph: TaskGraph) -> None:
        """Precompute per-graph state (e.g. priorities) before scheduling."""


class GreedyEarliestCore(SchedulerPolicy):
    """The original list scheduler: earliest-ready task, earliest-free core."""

    name = "greedy"


class CriticalPathPriority(SchedulerPolicy):
    """Prioritise tasks with the longest downstream dependency chain.

    Heap key ``(-rank, ready_time)``: longest chain first, and among equal
    ranks the greedy order.
    """

    name = "critical_path"

    def __init__(self) -> None:
        self._rank: Dict[int, float] = {}

    def prepare(self, graph: TaskGraph) -> None:
        self._rank = graph.critical_path_lengths()

    @property
    def ranks(self) -> Dict[int, float]:
        """Critical-path rank per task id (filled by :meth:`prepare`)."""
        return self._rank

    def negated_rank_array(self, task_ids: Sequence[int]):
        """Vectorized ``-rank`` per task id, for the scheduler loop.

        One ``np.fromiter`` pass over the prepared rank dict; missing ids
        score 0.0, and negating after the gather produces the same floats
        as negating each lookup.
        """
        import numpy as np

        get = self._rank.get
        arr = np.fromiter((get(tid, 0.0) for tid in task_ids),
                          dtype=np.float64, count=len(task_ids))
        return np.negative(arr)


class LocalityAware(SchedulerPolicy):
    """Prefer the core already holding a task's output tile.

    Among the cores that can start the task earliest, the one that last
    wrote the task's output tile wins (its local store already holds the
    tile, so the host avoids a spill/reload through on-chip memory); a
    slower owner never delays the start.
    """

    name = "locality"


class MemoryAware(LocalityAware):
    """Score ready tasks by resident-tile reuse over the on-chip working set.

    Priority key: ``(missing_bytes, local_missing_bytes, ready_time)`` --
    among ready tasks the one whose tile footprint needs the fewest
    off-chip fetches right now runs first, so the schedule works resident
    data to completion before streaming new tiles in.  With per-core local
    stores enabled, ties on off-chip bytes break by the fill bytes of the
    *assigned* core's local store -- the core the inherited locality rule
    prefers (the last writer of the output tile, core 0 before anyone wrote
    it).  Off-chip avoidance stays lexicographically first because a DRAM
    round trip costs an order of magnitude more than an on-chip transfer;
    the local term only refines the order within equal off-chip cost.
    Without local stores the key is ``(missing_bytes, ready_time)``; with
    data-movement accounting disabled the policy degrades to greedy
    ordering.
    """

    name = "memory_aware"

    def bulk_priorities(self, arrays, memory, indices: Sequence[int],
                        ready_times: Sequence):
        """Priority keys of many candidate tasks at once.

        ``arrays`` is the graph's :class:`repro.lap.taskgraph.GraphArrays`,
        ``memory`` the schedule's :class:`repro.lap.memory.MemoryHierarchy`,
        ``indices`` graph positions (not task ids) and ``ready_times`` the
        per-candidate ready times (entering the key tuples unchanged).  The
        two-level tie-break term reads core 0's local store: every output
        tile's owner before any task wrote it, which is when the scheduler
        loop scores its initial ready set.  Footprints are gathered into one
        flat CSR batch and scored by the residency levels' batch kernel; the
        keys are plain Python ints, equal to the per-task keys the scheduler
        loop computes.
        """
        if not indices:
            return []
        import numpy as np

        idx = np.asarray(indices, dtype=np.int64)
        indptr = arrays.foot_indptr
        counts = indptr[idx + 1] - indptr[idx]
        sub_indptr = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(counts, out=sub_indptr[1:])
        total = int(sub_indptr[-1])
        # Gather each candidate's footprint slice: position arithmetic in
        # numpy, then one fancy index for the payload.
        offsets = (np.arange(total, dtype=np.int64)
                   - np.repeat(sub_indptr[:-1], counts)
                   + np.repeat(indptr[idx], counts))
        flat = arrays.foot_indices[offsets]
        missing = memory.residency.missing_bytes_batch(sub_indptr, flat)
        stores = memory.local_stores
        if stores is None:
            return [(int(m), r) for m, r in zip(missing, ready_times)]
        local = stores[0].missing_bytes_batch(sub_indptr, flat)
        return [(int(m), int(lo), r)
                for m, lo, r in zip(missing, local, ready_times)]


class AffinityScheduler(MemoryAware):
    """Send a task to the core whose local store holds the most of its data.

    Ready ordering is inherited from ``memory_aware``; core selection ranks
    the cores by the footprint bytes their local stores already hold (most
    resident bytes first), breaking ties by output-tile ownership, earliest
    availability and index.  A core that holds the data is preferred even
    when a data-less core is free earlier: re-fetching through the shared
    level usually costs more than waiting.  Without local stores (or with
    data-movement accounting disabled) no residency signal exists and the
    policy falls back to the earliest-available core.
    """

    name = "affinity"


#: Registry of scheduling policies by CLI/runner name.
POLICIES: Dict[str, type] = {
    GreedyEarliestCore.name: GreedyEarliestCore,
    CriticalPathPriority.name: CriticalPathPriority,
    LocalityAware.name: LocalityAware,
    MemoryAware.name: MemoryAware,
    AffinityScheduler.name: AffinityScheduler,
}


def policy_names() -> List[str]:
    """Names accepted by ``LAPRuntime(policy=...)`` and the sweep CLI."""
    return sorted(POLICIES)


def get_policy(policy: Union[str, SchedulerPolicy, None]) -> SchedulerPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if policy is None:
        return GreedyEarliestCore()
    if isinstance(policy, SchedulerPolicy):
        return policy
    try:
        return POLICIES[str(policy)]()
    except KeyError:
        raise ValueError(f"unknown scheduling policy '{policy}'; known "
                         f"policies: {', '.join(policy_names())}") from None


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

    def choose_mc(self, n: int, onchip_capacity_words: float, kc: int) -> int:
        """Pick the largest panel height whose A blocks fit next to C on chip.

        The on-chip memory must hold ``n^2`` words of C, ``S * mc * kc`` words
        of A blocks and ``2 * kc * n`` words of B panels; mc is rounded down
        to a multiple of ``nr`` and at least ``nr``.
        """
        if n <= 0 or kc <= 0:
            raise ValueError("problem dimensions must be positive")
        if onchip_capacity_words <= 0:
            raise ValueError("on-chip capacity must be positive")
        available = onchip_capacity_words - float(n) * n - 2.0 * kc * n
        if available <= 0:
            return self.nr
        mc = int(available / (self.num_cores * kc))
        mc = max(self.nr, (mc // self.nr) * self.nr)
        # A panel taller than the share of the problem assigned to one core is
        # pointless.
        per_core_rows = max(self.nr, (n // (self.num_cores * self.nr)) * self.nr)
        return min(mc, per_core_rows) if per_core_rows >= self.nr else self.nr

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
