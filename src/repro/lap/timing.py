"""Timing: how a scheduled task obtains its cycle count.

The LAC runs its kernels in lock step, so on dense operands the cycle count
of a tile task is a function of its memoization group -- kind, unit alpha
and transpose (:attr:`repro.lap.taskgraph.TaskGraph.group_keys`) -- the
tile size, the precision and the core's configuration, not of the tile
*values*.  Tiled QR is the known exception:
:func:`repro.kernels.qr.lac_householder_vector` skips a sub-column that is
all zero (its reflector gets ``tau = inf``, which the reflector
applications skip as well).  GEQRT of a tile whose sub-columns are zero
takes 12 cycles at tile 8 on a default ``nr=4`` core, against 870 for
dense data.  Warm-ups must therefore run on a real operand, never on a
stand-in.  :meth:`repro.lap.runtime.LAPRuntime.execute` offers two timings:

``functional``
    every task is executed on the cycle-level simulator of its core; the
    cycle count is the simulator's counter delta and the tile data is
    always exact.
``memoized``
    the first task of each group runs on the simulator (its *warm-up*,
    :meth:`MemoizedTiming.task_cycles`) and every task of the group is
    charged that count from one per-group table, without touching the
    simulator.  Large graphs (e.g. a 4096^2 Cholesky at tile 128) then
    schedule in seconds instead of hours.  ``verify=True`` only adds the
    NumPy update of each charged task's tiles, so the factors stay
    numerically exact and residuals are available; with ``verify=False``
    the tile data goes stale.

Warm-up counts go into one process-wide table keyed by the running core's
full :class:`~repro.lac.core.LACConfig` plus the group signature, so a
sweep pays each warm-up once per process rather than once per point.
Sharing is all-or-nothing per ``execute()``: with ``verify=False``, a graph
whose signatures are all in the table is charged entirely from it (no
warm-up).  If the table lacks one of its groups, a workload graph (one an
``AlgorithmsByBlocks`` builder made) first warms every group on a real
operand of the same workload at 3 x 3 tiles (``LAPRuntime._warm_up``),
which holds every group a larger graph has (it raises if that instance
lacks one), and is then charged from the table: the counts it enters never
come from the caller's tiles.  Every other execute (``verify=True``, or a
hand-built graph) warms each group exactly as in a fresh process and checks
each count against the table, raising on a mismatch.  So no row depends on
which executes ran earlier in the process.

A memoized ``verify=False`` point of ``LAPRuntime.run_blocked_*`` never
builds its ``n x n`` operand: it runs on one stand-in tile.  A
``verify=True`` point still warms on its own operand, so it cross-checks
every count the small instance entered.  :func:`clear_timing_cache`
empties the table.

The model object also records warm-up wall time per signature, which lets a
benchmark compare a memoized schedule against a (measured, per-signature)
estimate of the full functional path without paying for it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Memoization signature of one group: (kind, tile, precision, unit alpha,
#: transpose) -- everything that selects a kernel code path and its size.
TaskSignature = Tuple


def group_signatures(group_keys: Sequence[Tuple], tile: int,
                     precision: str) -> List[TaskSignature]:
    """Signatures of a graph's memoization groups
    (:attr:`~repro.lap.taskgraph.TaskGraph.group_keys`) at one tile size
    and precision; no tile is read."""
    return [(kind.value, tile, precision, unit_alpha, transpose)
            for kind, unit_alpha, transpose in group_keys]


#: Process-wide warm-up counts: ``(core key, signature) -> cycles``, where
#: the core key is :func:`core_config_key` of the core that ran the warm-up.
_CYCLE_TABLE: Dict[Tuple, int] = {}


def clear_timing_cache() -> None:
    """Forget every warm-up count (the next executes warm up again)."""
    _CYCLE_TABLE.clear()


def core_config_key(config) -> Tuple:
    """Hashable form of a core's full :class:`~repro.lac.core.LACConfig`."""
    return dataclasses.astuple(config)


def table_cycles(core_key: Tuple,
                 signatures: Sequence[TaskSignature]) -> Optional[List[int]]:
    """Table counts of ``signatures`` on one core config, or ``None``
    unless every one of them is known."""
    counts = []
    for signature in signatures:
        cycles = _CYCLE_TABLE.get((core_key, signature))
        if cycles is None:
            return None
        counts.append(cycles)
    return counts


def decompose_task_cycles(compute_cycles: float, stall_cycles: float,
                          overlap_fraction: float = 0.0,
                          local_transfer_cycles: float = 0.0) -> Dict[str, float]:
    """Split one task's duration into its attributable cycle components.

    ``stall_cycles`` is the off-chip transfer time of the spill refills the
    task caused (their bytes over the bytes per cycle of
    :attr:`repro.lap.memory.MemoryHierarchy.interface`); compulsory
    streaming is assumed fully overlapped by the LAP's double buffering and
    never appears here.  ``local_transfer_cycles`` is the shared-to-local
    movement of the two-level hierarchy (local-store fills through the
    on-chip bandwidth).  ``overlap_fraction`` models partial prefetching of
    both terms under compute (0 = fully serialised, 1 = fully hidden), so
    the scheduler loop lasts a task ``total = compute + (stall + transfer)
    x (1 - overlap_fraction)`` cycles.  The returned
    ``compute`` / ``spill_stall`` / ``transfer`` components sum to that
    ``total`` (``spill_stall`` and ``transfer`` are the *visible* parts
    after prefetching hides their complement under compute), and ``hidden``
    reports the movement cycles prefetching absorbed.  Every task span of
    :meth:`repro.lap.runtime.LAPRuntime.trace_events` carries this split,
    so traces and :class:`repro.obs.attribution.CycleAttribution` agree by
    construction.
    """
    visible = 1.0 - overlap_fraction
    spill_stall = stall_cycles * visible
    transfer = local_transfer_cycles * visible
    total = compute_cycles + (stall_cycles + local_transfer_cycles) * visible
    return {
        "compute": compute_cycles,
        "spill_stall": spill_stall,
        "transfer": transfer,
        "hidden": (stall_cycles + local_transfer_cycles) - spill_stall - transfer,
        "total": total,
    }


class FunctionalTiming:
    """Run every task on the simulator of its core."""

    name = "functional"


class MemoizedTiming:
    """Charge each group the count of one functional run.

    Holds statistics only: counts live in the execute's per-group table and
    in the process-wide table (see the module docstring).
    """

    name = "memoized"

    def __init__(self) -> None:
        #: Wall-clock seconds of this model's warm-up run per signature.
        self.warm_seconds_by_signature: Dict[TaskSignature, float] = {}
        #: Tasks charged per signature since construction.
        self.task_counts: Dict[TaskSignature, int] = {}
        self.warm_runs = 0
        self.hits = 0

    def bulk_charge(self, signature: TaskSignature, tasks: int,
                    hits: int) -> None:
        """Count ``tasks`` scheduled tasks of one signature, ``hits`` of them
        charged without a warm-up (one call per group after an execute)."""
        self.task_counts[signature] = self.task_counts.get(signature, 0) + tasks
        self.hits += hits

    def estimated_functional_seconds(self) -> float:
        """Measured-cost estimate of running every charged task functionally.

        Sums, over every task this model has scheduled, the wall time of the
        functional warm-up run of that task's signature -- i.e. what the
        ``functional`` timing model would have cost, estimated from real
        measurements instead of being paid.  Only this model's own warm-ups
        are measured: signatures charged from the process table add nothing
        (call :func:`clear_timing_cache` first for a complete estimate).
        """
        return sum(count * self.warm_seconds_by_signature.get(sig, 0.0)
                   for sig, count in self.task_counts.items())

    def task_cycles(self, signature: TaskSignature, core_key: Tuple,
                    simulate: Callable[[], int]) -> int:
        """Warm ``signature`` up on the core configuration ``core_key``.

        ``simulate()`` runs the group's first task on its core's simulator,
        updating its tiles, and returns the cycles.  The count enters the
        process table; raises ``RuntimeError`` if the table already holds a
        different count for the same key.
        """
        started = time.perf_counter()
        cycles = simulate()
        self.warm_seconds_by_signature[signature] = time.perf_counter() - started
        self.warm_runs += 1
        known = _CYCLE_TABLE.setdefault((core_key, signature), cycles)
        if known != cycles:
            raise RuntimeError(
                f"memoized timing: signature {signature} took {cycles} "
                f"cycles, but {known} earlier in this process on the same "
                f"core configuration; the memoized cycle count of a "
                f"signature must not depend on the tile values (see "
                f"repro.lap.timing)")
        return cycles


#: Registry of timing models by CLI/runner name.
TIMING_MODELS: Dict[str, type] = {
    FunctionalTiming.name: FunctionalTiming,
    MemoizedTiming.name: MemoizedTiming,
}


def timing_names() -> List[str]:
    """Names accepted by ``LAPRuntime(timing=...)`` and the sweep CLI."""
    return sorted(TIMING_MODELS)


def get_timing_model(timing: str) -> Union[FunctionalTiming, MemoizedTiming]:
    """A fresh timing model of the given name; raises ``ValueError`` for an
    unknown one."""
    try:
        return TIMING_MODELS[timing]()
    except KeyError:
        raise ValueError(f"unknown timing model '{timing}'; known models: "
                         f"{', '.join(timing_names())}") from None
