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
"""

from __future__ import annotations

from typing import List

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
