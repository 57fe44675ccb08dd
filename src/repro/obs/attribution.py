"""Cycle attribution: where did every simulated core-cycle go?

A schedule on ``P`` cores with makespan ``M`` spans exactly ``P x M``
core-cycles.  This module splits that rectangle into four provably
conservative components, per core and in total:

``compute``
    cycles a core spent executing task kernels (heterogeneous-core
    durations already scaled to the reference clock),
``spill_stall``
    the *visible* part of the off-chip spill-refill stalls (what remains
    after ``stall_overlap`` hides a fraction under compute),
``transfer``
    the visible part of the shared-to-local / core-to-core transfer cycles
    of the two-level hierarchy (also subject to ``stall_overlap``),
``idle``
    scheduler gaps: a core waiting for dependences or work.

``compute + spill_stall + transfer + idle == cores x makespan`` holds by
construction (idle is the complement), and :meth:`CycleAttribution.check`
additionally verifies the *bottom-up* identity -- the summed per-task span
durations plus the measured gaps tile each core's timeline exactly -- so a
runtime change that double-books a core or drops a stall term fails loudly.

The module takes plain ``(core, start, end[, stall, transfer])`` tuples,
one per task execution (the runtime yields them from its loop's rows), and
deliberately imports nothing from :mod:`repro.lap`, so it can attribute any
execution timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["CoreAttribution", "CycleAttribution", "idle_gaps"]

#: Components every attribution reports, in presentation order.
COMPONENTS = ("compute", "spill_stall", "transfer", "idle")


def idle_gaps(executions: Iterable[Sequence], num_cores: int,
              makespan: float) -> List[Tuple[int, float, float]]:
    """Scheduler-idle intervals ``(core, start, end)`` of a schedule.

    A gap is any part of ``[0, makespan]`` on a core not covered by one of
    its task executions, given as ``(core, start, end, ...)`` tuples
    (leading waits, dependence stalls between tasks and the tail after a
    core runs out of work).  Degenerate zero-length gaps are dropped.
    """
    if num_cores < 1:
        raise ValueError("need at least one core")
    if makespan < 0:
        raise ValueError("makespan must be non-negative")
    per_core: Dict[int, List[Tuple[float, float]]] = {c: [] for c in range(num_cores)}
    for execution in executions:
        per_core[execution[0]].append((execution[1], execution[2]))
    gaps: List[Tuple[int, float, float]] = []
    for core in range(num_cores):
        cursor = 0.0
        for start, end in sorted(per_core[core]):
            if start > cursor:
                gaps.append((core, cursor, start))
            cursor = max(cursor, end)
        if makespan > cursor:
            gaps.append((core, cursor, makespan))
    return gaps


@dataclass
class CoreAttribution:
    """Cycle decomposition of one core's ``[0, makespan]`` timeline."""

    core_index: int
    compute: float = 0.0
    spill_stall: float = 0.0
    transfer: float = 0.0
    idle: float = 0.0
    tasks: int = 0

    @property
    def total(self) -> float:
        return self.compute + self.spill_stall + self.transfer + self.idle


@dataclass
class CycleAttribution:
    """Whole-schedule cycle decomposition summing to ``cores x makespan``."""

    num_cores: int
    makespan_cycles: float
    stall_overlap: float
    per_core: List[CoreAttribution] = field(default_factory=list)

    @classmethod
    def from_executions(cls, executions: Iterable[Sequence], num_cores: int,
                        makespan: float,
                        stall_overlap: float = 0.0) -> "CycleAttribution":
        """Attribute a schedule from one pass over its per-task
        ``(core, start, end[, stall, transfer])`` execution tuples.

        Each execution's duration splits into the visible data-movement
        cycles (``(stall + transfer) * (1 - stall_overlap)``, the split of
        :func:`repro.lap.timing.decompose_task_cycles`) and compute (the
        remainder); idle is each core's uncovered time.
        """
        if not (0.0 <= stall_overlap <= 1.0):
            raise ValueError("stall_overlap must lie in [0, 1]")
        cores = [CoreAttribution(core_index=c) for c in range(num_cores)]
        visible = 1.0 - stall_overlap

        def charged():
            # Charge each execution to its core as idle_gaps pulls it.
            for core_index, start, end, *moved in executions:
                stall, transfer = [cycles * visible for cycles in moved] or (0.0, 0.0)
                core = cores[core_index]
                core.compute += end - start - stall - transfer
                core.spill_stall += stall
                core.transfer += transfer
                core.tasks += 1
                yield core_index, start, end

        for core, start, end in idle_gaps(charged(), num_cores, makespan):
            cores[core].idle += end - start
        return cls(num_cores=num_cores, makespan_cycles=float(makespan),
                   stall_overlap=float(stall_overlap), per_core=cores)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CycleAttribution":
        """Rebuild an attribution from its :meth:`as_dict` form.

        ``repro report`` uses this to render the table from a stored
        ``.trace.json`` without re-running the schedule.
        """
        cores = [CoreAttribution(core_index=int(entry["core"]),
                                 compute=float(entry["compute"]),
                                 spill_stall=float(entry["spill_stall"]),
                                 transfer=float(entry["transfer"]),
                                 idle=float(entry["idle"]),
                                 tasks=int(entry.get("tasks", 0)))
                 for entry in payload["per_core"]]
        return cls(num_cores=int(payload["num_cores"]),
                   makespan_cycles=float(payload["makespan_cycles"]),
                   stall_overlap=float(payload.get("stall_overlap", 0.0)),
                   per_core=cores)

    # -------------------------------------------------------------- totals
    @property
    def total_cycles(self) -> float:
        """The attributed rectangle: ``cores x makespan``."""
        return self.num_cores * self.makespan_cycles

    def totals(self) -> Dict[str, float]:
        """Whole-schedule component totals (keys: :data:`COMPONENTS`)."""
        return {component: sum(getattr(core, component) for core in self.per_core)
                for component in COMPONENTS}

    def check(self, rel_tol: float = 1e-6) -> None:
        """Verify conservation: components tile ``cores x makespan`` exactly.

        Checks that the makespan and every core's total are finite (a NaN
        passes every comparison below), every core's decomposition against
        the makespan and the grand total against the rectangle, within
        ``rel_tol`` relative (floating-point accumulation) tolerance.
        Raises ``ValueError`` with the offending core on failure.
        """
        if not math.isfinite(self.makespan_cycles):
            raise ValueError(f"attribution makespan {self.makespan_cycles} "
                             f"is not finite")
        scale = max(abs(self.total_cycles), 1.0)
        for core in self.per_core:
            if not math.isfinite(core.total):
                raise ValueError(f"core {core.core_index} attribution is not "
                                 f"finite: {core}")
            if abs(core.total - self.makespan_cycles) > rel_tol * max(
                    abs(self.makespan_cycles), 1.0):
                raise ValueError(
                    f"core {core.core_index} attribution does not conserve: "
                    f"{core.total} != makespan {self.makespan_cycles}")
        grand = sum(self.totals().values())
        if abs(grand - self.total_cycles) > rel_tol * scale:
            raise ValueError(f"attribution total {grand} != cores x makespan "
                             f"{self.total_cycles}")

    # ----------------------------------------------------------- reporting
    def table_rows(self) -> List[Dict[str, object]]:
        """Per-core rows plus a TOTAL row for the attribution table.

        Columns: core, tasks, the four components, their shares of the
        core's timeline in percent, and the row total.
        """
        rows: List[Dict[str, object]] = []
        denominator = max(self.makespan_cycles, 1e-300)
        for core in self.per_core:
            rows.append({
                "core": core.core_index,
                "tasks": core.tasks,
                "compute_cycles": core.compute,
                "spill_stall_cycles": core.spill_stall,
                "transfer_cycles": core.transfer,
                "idle_cycles": core.idle,
                "compute_pct": 100.0 * core.compute / denominator,
                "stall_pct": 100.0 * core.spill_stall / denominator,
                "transfer_pct": 100.0 * core.transfer / denominator,
                "idle_pct": 100.0 * core.idle / denominator,
            })
        totals = self.totals()
        rect = max(self.total_cycles, 1e-300)
        rows.append({
            "core": "TOTAL",
            "tasks": sum(core.tasks for core in self.per_core),
            "compute_cycles": totals["compute"],
            "spill_stall_cycles": totals["spill_stall"],
            "transfer_cycles": totals["transfer"],
            "idle_cycles": totals["idle"],
            "compute_pct": 100.0 * totals["compute"] / rect,
            "stall_pct": 100.0 * totals["spill_stall"] / rect,
            "transfer_pct": 100.0 * totals["transfer"] / rect,
            "idle_pct": 100.0 * totals["idle"] / rect,
        })
        return rows

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (embedded into trace metadata / manifests)."""
        return {
            "num_cores": self.num_cores,
            "makespan_cycles": self.makespan_cycles,
            "stall_overlap": self.stall_overlap,
            "total_cycles": self.total_cycles,
            "totals": self.totals(),
            "per_core": [{
                "core": core.core_index,
                "tasks": core.tasks,
                "compute": core.compute,
                "spill_stall": core.spill_stall,
                "transfer": core.transfer,
                "idle": core.idle,
            } for core in self.per_core],
        }
