"""Chip-level Linear Algebra Processor (LAP): multiple LACs plus memory.

The LAP surrounds ``S`` Linear Algebra Cores with a shared on-chip memory
(banked SRAM, one bank coupled to each core plus shared banks) and an
off-chip memory interface.  This subpackage provides:

* :mod:`repro.lap.chip` -- the chip object tying cores, on-chip memory and
  the off-chip interface together (its area and power design point is
  :class:`repro.arch.lap_design.LAPDesignPoint`);
* :mod:`repro.lap.policies` -- the names of the task-graph policies
  (greedy / critical_path / locality / memory_aware / affinity) the
  scheduler loop implements;
* :mod:`repro.lap.taskgraph` -- the task-graph IR, the algorithms-by-blocks
  decompositions and the dense graph arrays the scheduler loop runs on;
* :mod:`repro.lap.memory` -- the unified memory-hierarchy layer: one
  point's constants (the capacities in tiles of the shared on-chip level
  and of the per-core local stores, the off-chip interface and clock the
  loop converts spill bytes into stall cycles with, the per-task energy
  constants) and one schedule's traffic totals;
* :mod:`repro.lap.timing` -- the functional and memoized timings (one
  memoized path: a per-group cycle table fed by warm-ups);
* :mod:`repro.lap.runtime` -- :class:`LAPRuntime`, whose ``execute`` is the
  one event-driven scheduler loop over all of the above, and the only
  implementation of the residency and priority decisions, over residency
  state it allocates per schedule;
* :mod:`repro.lap.replay` -- schedule replay: the recorded
  :class:`~repro.lap.replay.ScheduleTrace` and the decision that re-keys a
  recorded row for a delta sweep point instead of re-simulating it;
* :mod:`repro.lap.offchip` -- the closed-form off-chip traffic of a
  streamed GEMM, including the extra blocking layer used when C does not
  fit on chip.
"""

from repro.lap.chip import LinearAlgebraProcessor, LAPConfig
from repro.lap.offchip import OffChipTrafficModel
from repro.lap.taskgraph import (AlgorithmsByBlocks, TaskDescriptor, TaskGraph,
                                 TaskKind)
from repro.lap.policies import POLICIES, get_policy, policy_names
from repro.lap.memory import MemoryHierarchy, TaskEnergyModel
from repro.lap.timing import (TIMING_MODELS, FunctionalTiming, MemoizedTiming,
                              get_timing_model, timing_names)
from repro.lap.runtime import LAPRuntime, TaskExecution

__all__ = [
    "LinearAlgebraProcessor",
    "LAPConfig",
    "OffChipTrafficModel",
    "MemoryHierarchy",
    "TaskEnergyModel",
    "AlgorithmsByBlocks",
    "LAPRuntime",
    "TaskDescriptor",
    "TaskExecution",
    "TaskGraph",
    "TaskKind",
    "POLICIES",
    "get_policy",
    "policy_names",
    "FunctionalTiming",
    "MemoizedTiming",
    "TIMING_MODELS",
    "get_timing_model",
    "timing_names",
]
