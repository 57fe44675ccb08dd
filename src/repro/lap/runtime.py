"""Host-side programming model for the LAP: the layered task-graph runtime.

The dissertation's programming environment (Figure 1.2) layers a standard
linear-algebra library on top of the accelerator: the host library breaks a
large routine into *atomic* block operations (e.g. 128 x 128 GEMM, TRSM,
SYRK, Cholesky tiles), passes each to the LAP through a thin device-driver
interface (operation code + operand locations), and the LAP raises an
interrupt when the result block is ready.  Invocation is coarse-grained and
asynchronous so that the host stays busy.

The runtime is layered (TaskGraph -> Scheduler -> timing -> LAP):

* :mod:`repro.lap.taskgraph` -- the IR: :class:`TaskKind`,
  :class:`TaskDescriptor`, :class:`TaskGraph` and the
  :class:`AlgorithmsByBlocks` decompositions (GEMM, Cholesky, LU, tiled QR);
* :mod:`repro.lap.policies` -- the names of the scheduling policies
  (greedy earliest-core, critical-path priority, locality-aware,
  memory-aware, affinity) the scheduler loop implements;
* :mod:`repro.lap.timing` -- the two timings: ``functional`` executes
  every task on the cycle-level simulator, ``memoized`` charges each
  memoization group (kind, unit alpha, transpose at one tile size and
  precision) the cycle count of one functional run, shared process-wide
  per core configuration, so that large graphs and whole sweeps schedule
  in seconds;
* :mod:`repro.lap.memory` -- the unified memory-hierarchy layer: one
  point's memory constants (the capacities of the shared on-chip level and
  of the optional per-core local stores, ``local_store_kb``, in tiles; the
  off-chip interface through which the loop turns spill refills into
  stall cycles; the per-task energy constants, pJ/flop + pJ/byte) and one
  schedule's totals: every schedule reports off-chip traffic, stalls and
  GFLOPS/W alongside the makespan, and the two-level model splits on-chip
  movement into local-hit / core-to-core / shared-to-local traffic;
* :class:`LAPRuntime` (this module) -- the driver/dispatcher that binds the
  four to the cores of a :class:`repro.lap.chip.LinearAlgebraProcessor`,
  optionally with heterogeneous per-core clock frequencies.  Its
  :meth:`LAPRuntime.execute` is the one scheduler loop: an event-driven
  ready heap over the per-position arrays of the
  :class:`~repro.lap.taskgraph.TaskGraph`, with every policy / timing /
  memory decision inlined; the LRU residency levels are its own
  structure-of-arrays state, allocated per schedule.  Only simulated tasks
  and verify updates read a task's
  :class:`~repro.lap.taskgraph.TaskDescriptor`.

Each task kind's tile update is written once, in :func:`_update_tiles`,
over a kernel set: the LAC kernels on a core (:func:`_simulate_task`:
functional runs and memoized warm-ups) or their NumPy formulas (the other
memoized tasks under ``verify``, and the other tasks of the small instance
a cold shape-only point warms on).
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.blocked_factorizations import lac_lu_blocked, lac_qr_blocked
from repro.kernels.cholesky import lac_cholesky
from repro.kernels.gemm import lac_gemm
from repro.kernels.qr import lac_apply_reflectors
from repro.kernels.syrk import lac_syrk
from repro.kernels.trsm import lac_trsm
from repro.lap.chip import LinearAlgebraProcessor
from repro.lap.memory import MemoryHierarchy, offchip_interface
from repro.lap.policies import POLICIES, get_policy
from repro.lap.replay import ScheduleTrace
from repro.lap.taskgraph import (_TASK_FLOPS, AlgorithmsByBlocks,
                                 TaskDescriptor, TaskGraph, TaskKind)
from repro.lap.timing import (MemoizedTiming, core_config_key,
                              decompose_task_cycles, get_timing_model,
                              group_signatures, table_cycles)
from repro.obs.attribution import CycleAttribution, idle_gaps
from repro.reference.factorizations import (ref_apply_reflectors,
                                            ref_householder_qr_factored,
                                            ref_lu_nopivot)

__all__ = ["LAPRuntime", "TaskExecution", "check_stall_overlap"]


@dataclass
class TaskExecution:
    """Record of one executed task (which core ran it, and when).

    Times are in cycles of the reference clock (the chip frequency); with
    homogeneous cores and no bandwidth stalls they are exact integers.
    ``stall_cycles`` / ``refill_bytes`` / ``energy_j`` carry the task's
    data-movement accounting; ``compute_cycles`` is the pre-movement
    duration (what the cycle decomposition attributes to compute),
    ``spill_bytes`` the capacity-miss part of ``refill_bytes`` and
    ``transfer_bytes`` the shared-to-local plus core-to-core movement of the
    two-level hierarchy, of which ``shared_to_local_bytes`` is the first
    part.
    """

    task_id: int
    kind: TaskKind
    core_index: int
    start_cycle: float
    end_cycle: float
    stall_cycles: float = 0.0
    refill_bytes: float = 0.0
    energy_j: float = 0.0
    local_transfer_cycles: float = 0.0
    local_hit_bytes: float = 0.0
    compute_cycles: float = 0.0
    spill_bytes: float = 0.0
    transfer_bytes: float = 0.0
    #: Dirty-eviction bytes this task's fetches forced; with
    #: ``refill_bytes`` it gives the task's off-chip bytes, the third
    #: factor of the per-task energy triple schedule replay re-keys.
    writeback_bytes: float = 0.0
    shared_to_local_bytes: float = 0.0


class _LACKernels:
    """The tile kernels on one core of the cycle-level LAC simulator.

    Each method calls its ``lac_*`` kernel through this module's globals at
    call time, so a kernel wrapped by name (``perfbench/layers.py`` counts
    kernel calls that way) is the one that runs.
    """

    def __init__(self, core):
        self.core = core

    def gemm(self, c, a, b):
        return lac_gemm(self.core, c, a, b).output

    def syrk(self, c, a):
        return lac_syrk(self.core, c, a).output

    def trsm(self, l, b):
        return lac_trsm(self.core, l, b).output

    def cholesky(self, a):
        return lac_cholesky(self.core, a).output

    def lu(self, a):
        result = lac_lu_blocked(self.core, a)
        if any(p != i for i, p in enumerate(result.extra["pivots"])):
            raise ValueError(
                "tile LU requires no pivoting across tiles; the operand "
                "must be (e.g.) diagonally dominant so that every tile "
                "pivot falls on the diagonal")
        return result.output

    def qr(self, a):
        result = lac_qr_blocked(self.core, a)
        return result.output, result.extra["tau"]

    def apply_reflectors(self, v, taus, c):
        return lac_apply_reflectors(self.core, v, taus, c).output


class _NumPyKernels:
    """The NumPy formulas of the same tile kernels (no cycles)."""

    @staticmethod
    def gemm(c, a, b):
        return c + a @ b

    @staticmethod
    def syrk(c, a):
        # Like the LAC kernel, update the lower triangle only.
        return c + np.tril(a @ a.T)

    @staticmethod
    def trsm(l, b):
        return np.linalg.solve(np.tril(l), b)

    cholesky = staticmethod(np.linalg.cholesky)
    lu = staticmethod(ref_lu_nopivot)
    qr = staticmethod(ref_householder_qr_factored)
    apply_reflectors = staticmethod(ref_apply_reflectors)


def _update_tiles(task: TaskDescriptor, tiles: Dict, k) -> None:
    """Apply one task's tile update in place through kernel set ``k``.

    ``k`` is a :class:`_LACKernels` (the simulator on the assigned core) or
    :class:`_NumPyKernels`; either way each task kind reads and writes the
    same tiles, so the two sets give the same factors.
    """
    kind = task.kind
    if kind is TaskKind.GEMM:
        c = task.output
        b_tile = tiles["B"][task.inputs[1]]
        if task.transpose_b:
            b_tile = b_tile.T
        tiles["C"][c] = k.gemm(tiles["C"][c],
                               task.alpha * tiles["A"][task.inputs[0]], b_tile)
    elif kind is TaskKind.SYRK:
        c = task.output
        a_tile = tiles["A"][task.inputs[0]]
        if task.alpha == 1.0 and not task.transpose_b:
            tiles["C"][c] = k.syrk(tiles["C"][c], a_tile)
        else:
            # Scaled (e.g. subtracting) updates run through the GEMM path so
            # the full symmetric tile stays consistent for later tasks.
            tiles["C"][c] = k.gemm(tiles["C"][c], task.alpha * a_tile, a_tile.T)
    elif kind is TaskKind.TRSM:
        b = task.output
        tiles["B"][b] = k.trsm(tiles["L"][task.inputs[0]], tiles["B"][b])
    elif kind is TaskKind.TRSM_RIGHT_T:
        # B := B L^{-T}  <=>  solve L X = B^T and transpose back.
        b = task.output
        l_tile = np.tril(tiles["L"][task.inputs[0]])
        tiles["B"][b] = k.trsm(l_tile, tiles["B"][b].T).T
    elif kind is TaskKind.TRSM_LOWER:
        # B := unit_lower(L)^{-1} B (the U panels of a tiled LU).
        b = task.output
        l_tile = tiles["L"][task.inputs[0]]
        unit_lower = np.tril(l_tile, -1) + np.eye(len(l_tile))
        tiles["B"][b] = k.trsm(unit_lower, tiles["B"][b])
    elif kind is TaskKind.TRSM_UPPER_RIGHT:
        # B := B U^{-1}  <=>  solve U^T X^T = B^T (U^T is lower triangular).
        b = task.output
        upper = np.triu(tiles["L"][task.inputs[0]])
        tiles["B"][b] = k.trsm(upper.T, tiles["B"][b].T).T
    elif kind is TaskKind.CHOLESKY:
        a = task.output
        tiles["A"][a] = k.cholesky(tiles["A"][a])
    elif kind is TaskKind.LU:
        a = task.output
        tiles["A"][a] = k.lu(tiles["A"][a])
    elif kind is TaskKind.GEQRT:
        a = task.output
        factored, taus = k.qr(tiles["A"][a])
        tiles["A"][a] = factored
        tiles.setdefault("TAU", {})[a] = taus
    elif kind is TaskKind.TSQRT:
        # QR of [triu(R_jj); A_ij]: the top half's sub-diagonal stays
        # exactly zero, so the reflectors live entirely in tile (i, j) and
        # the GEQRT reflectors packed below the diagonal of (j, j) survive.
        jj, ij = task.inputs[0], task.output
        top = tiles["A"][jj]
        t = len(top)
        factored, taus = k.qr(np.vstack([np.triu(top), tiles["A"][ij]]))
        tiles["A"][jj] = np.triu(factored[:t]) + np.tril(top, -1)
        tiles["A"][ij] = factored[t:]
        tiles.setdefault("TAU", {})[ij] = taus
    elif kind is TaskKind.UNMQR:
        jj, jk = task.inputs[0], task.output
        tiles["A"][jk] = k.apply_reflectors(tiles["A"][jj], tiles["TAU"][jj],
                                            tiles["A"][jk])
    elif kind is TaskKind.TSMQR:
        # Apply the TSQRT reflectors to the block-row pair [C_jk; C_ik];
        # their top halves are unit vectors, so the packed form is a zero
        # block stacked on the reflector tile.
        ij, jk, ik = task.inputs
        v_tile = tiles["A"][ij]
        t = len(tiles["A"][jk])
        updated = k.apply_reflectors(
            np.vstack([np.zeros_like(v_tile), v_tile]), tiles["TAU"][ij],
            np.vstack([tiles["A"][jk], tiles["A"][ik]]))
        tiles["A"][jk] = updated[:t]
        tiles["A"][ik] = updated[t:]
    else:  # pragma: no cover - enum exhaustive
        raise ValueError(f"unknown task kind {kind}")


def _simulate_task(task: TaskDescriptor, tiles: Dict, core) -> int:
    """Run one task on ``core``'s simulator, updating ``tiles``; returns the
    cycles it took."""
    before = core.counters.cycles
    _update_tiles(task, tiles, _LACKernels(core))
    return core.counters.cycles - before


def _check_tile_shapes(tiles: Dict, t: int) -> None:
    """Raise ``ValueError`` unless every operand tile is a ``t x t`` array.

    Both the per-group cycle table and the memory model's ``t x t``-tile
    byte counts rest on it.  Operand dictionaries may alias (a
    factorization binds A/B/C/L to one dict); the ``TAU`` side store holds
    1-D reflector scalars and is not checked.
    """
    seen = set()
    for name in ("A", "B", "C", "L"):
        mapping = tiles.get(name)
        if mapping is None or id(mapping) in seen:
            continue
        seen.add(id(mapping))
        for coord, arr in mapping.items():
            shape = getattr(arr, "shape", None)
            if shape != (t, t):
                raise ValueError(f"operand {name} tile {coord} has shape "
                                 f"{shape}; every operand tile must be "
                                 f"{t} x {t}")


def check_stall_overlap(stall_overlap: float) -> float:
    """The prefetch-overlap fraction as a float; raises ``ValueError``
    unless it lies in [0, 1]."""
    if not (0.0 <= stall_overlap <= 1.0):
        raise ValueError("stall_overlap must lie in [0, 1]")
    return float(stall_overlap)


#: Tiles per side of the instance that warms a cold shape-only point
#: (:meth:`LAPRuntime._warm_up`): a 3 x 3-tile graph of each workload holds
#: every memoization group of a larger one.
WARM_TILES = 3


class LAPRuntime:
    """Dispatches tile tasks onto the cores of a LAP.

    Parameters
    ----------
    lap:
        The chip the task graphs run on.
    tile:
        Edge length of one square tile (a multiple of the core dimension).
    policy:
        Scheduling policy name, one of :data:`repro.lap.policies.POLICIES`;
        an unknown name raises ``ValueError``.
    timing:
        Timing name, ``"functional"`` or ``"memoized"`` (see
        :mod:`repro.lap.timing`); :attr:`timing` holds the model object,
        and a memoized one its warm-up and hit counters.
    core_frequencies_ghz:
        Optional per-core clock frequencies for heterogeneous-tile studies;
        defaults to the homogeneous chip frequency.  Scheduling then happens
        in reference-clock cycles (task cycles are scaled by
        ``f_ref / f_core``), where the reference clock is the chip frequency.
        Each must be a positive finite number.
    on_chip_kb:
        Override of the shared level's capacity in KiB (defaults to the
        chip's physical on-chip memory) -- the axis capacity sweeps shrink;
        a positive finite number, checked at :meth:`execute`.
    bandwidth_gbs:
        Override of the sustained off-chip bandwidth in GB/s (defaults to
        the chip's off-chip interface; a positive finite number).
    offchip_pj_per_byte:
        Override of the off-chip interface's access energy in pJ/byte (a
        DRAM-technology sweep axis; defaults to the chip interface's
        constant; a non-negative finite number).  Only the
        energy/GFLOPS-per-W columns depend on it, so sweeps across it replay
        recorded schedules exactly.  Both overrides are checked by
        :func:`repro.lap.memory.offchip_interface` on construction, which
        builds :attr:`interface`.
    local_store_kb:
        Per-core local-store budget in KiB (a positive finite number,
        checked at :meth:`execute`); enables the two-level hierarchy (a
        per-core LRU store above the shared level).  ``None`` (default)
        keeps the single-level model, whose schedules and traffic are
        byte-identical to the pre-local-store runtime.
    stall_overlap:
        Fraction of the data-movement cycles (spill-refill stalls and
        shared-to-local transfers) hidden under compute by prefetching, in
        [0, 1]: a task lasts its compute cycles plus ``(stall + transfer) x
        (1 - stall_overlap)`` (see
        :func:`repro.lap.timing.decompose_task_cycles`); 0 (default) fully
        serialises them, 1 hides them entirely.

    After :meth:`execute`, :attr:`executions`, :meth:`attribution`,
    :meth:`trace_events` and :meth:`schedule_trace` are views over the rows
    its loop recorded, so none of them changes the schedule.
    """

    def __init__(self, lap: LinearAlgebraProcessor, tile: int,
                 policy: str = "greedy",
                 timing: str = "functional",
                 core_frequencies_ghz: Optional[Sequence[float]] = None,
                 on_chip_kb: Optional[float] = None,
                 bandwidth_gbs: Optional[float] = None,
                 local_store_kb: Optional[float] = None,
                 stall_overlap: float = 0.0,
                 offchip_pj_per_byte: Optional[float] = None):
        self.lap = lap
        self.tile = tile
        self.library = AlgorithmsByBlocks(tile, nr=lap.config.nr)
        self.policy = get_policy(policy)
        self.timing = get_timing_model(timing)
        #: Process-table key of the cores: a LAP builds every core from one
        #: configuration.
        self._core_key = core_config_key(lap.cores[0].config)
        self._precision = lap.config.precision.value
        self.on_chip_kb = on_chip_kb
        self.local_store_kb = (None if local_store_kb is None
                               else float(local_store_kb))
        #: The point's off-chip interface: the chip's with the bandwidth and
        #: access-energy overrides (unusable overrides raise here, not at
        #: the first execute).
        self.interface = offchip_interface(lap.offchip, bandwidth_gbs,
                                           offchip_pj_per_byte)
        self.stall_overlap = check_stall_overlap(stall_overlap)
        #: Memory hierarchy of the most recent ``execute()`` call (``None``
        #: before the first).
        self.last_memory: Optional[MemoryHierarchy] = None
        #: Makespan of the most recent ``execute()`` call, in reference
        #: cycles (what :meth:`attribution` decomposes against).
        self.last_makespan: float = 0.0
        reference = lap.config.frequency_ghz
        if core_frequencies_ghz is None:
            frequencies = [reference] * len(lap.cores)
        else:
            frequencies = [float(f) for f in core_frequencies_ghz]
            if len(frequencies) != len(lap.cores):
                raise ValueError(f"core_frequencies_ghz has {len(frequencies)} "
                                 f"entries for {len(lap.cores)} cores")
            for f in frequencies:
                if not (math.isfinite(f) and f > 0):
                    raise ValueError(f"core frequencies must be positive "
                                     f"finite numbers, got {f}")
        self.core_frequencies_ghz = frequencies
        self._homogeneous = all(f == reference for f in frequencies)
        self._executions: Optional[List[TaskExecution]] = []
        self._exec_rows: Optional[List[Tuple]] = None
        #: Graph of the most recent ``execute()`` call (schedule_trace derives
        #: per-task energy triples from it and the execution rows).
        self._last_graph: Optional[TaskGraph] = None

    @property
    def executions(self) -> List[TaskExecution]:
        """Per-task records of the most recent ``execute()`` call.

        The loop records plain field tuples and this property materialises
        the :class:`TaskExecution` rows on first access, so a schedule that
        is only reduced to stats never pays for a million dataclass
        constructions.
        """
        if self._executions is None:
            self._executions = [TaskExecution(*row) for row in self._exec_rows]
        return self._executions

    # ------------------------------------------------------------ execution
    def execute(self, tasks: Sequence[TaskDescriptor], tiles: Dict,
                verify: bool = True) -> Dict[str, object]:
        """Run a task graph to completion; returns makespan and per-core stats.

        ``tasks`` is a :class:`TaskGraph` or any sequence of descriptors
        (wrapped in one, which rejects duplicate and unknown task ids with
        ``ValueError``).  ``tiles`` maps operand names ("A", "B", "C", "L")
        to dictionaries of ``tile x tile`` arrays keyed by block
        coordinates (any other shape raises ``ValueError`` naming the
        operand tile); tasks update them in place (tiled QR additionally
        keeps its 1-D ``tau`` scalars under ``"TAU"``).  Memoized timing
        charges every task its group's count from one per-group table (see
        :mod:`repro.lap.timing`); ``verify`` only adds each charged task's
        NumPy tile update, so the tile data stays numerically exact and
        residual checks remain possible.  With ``verify`` off, a graph
        whose signatures are all in the process-wide table is charged from
        it without reading a tile.  If the table lacks one, an
        :class:`~repro.lap.taskgraph.AlgorithmsByBlocks` graph (its
        ``workload`` set) first warms its groups on a small seeded instance
        of that workload (:meth:`_warm_up`), never on ``tiles``, which may
        be stand-ins; a hand-built graph warms each group's first task on
        ``tiles``, and so does every memoized execute with ``verify``, as in
        a fresh process.

        The loop is event driven: a heap of ready tasks ordered by the
        scheduling policy and a single accumulation pass over per-core busy
        time -- O(V log V + E) for the static policies.  Every policy, timing
        and memory decision is inlined over the graph's per-position arrays
        (no per-task method dispatch), branching on the policy name's index
        in :data:`~repro.lap.policies.POLICIES`; a core pick compares
        scalars and builds nothing per core.  Every dispatched task also
        updates the tile-residency model (in dispatch order, the
        serialisation the shared on-chip memory sees); spill refills stall
        the task through the off-chip bandwidth and the stats carry unified
        traffic / stall / energy totals.  The loop is the one implementation
        of both residency levels, and their state is its own: for every
        schedule it allocates the shared level's LRU stamps, flags and touch
        queue and, with local stores, each core's stamps and queue, one
        entry per tile id of the graph.  The point's
        :class:`~repro.lap.memory.MemoryHierarchy` gives the capacities in
        tiles and receives the totals, the peaks and the final holder
        masks.  The loop runs the shared level's LRU and the assigned core's
        store LRU, classifying each footprint tile as it is brought
        resident, and reads and writes local membership through per-tile
        holder masks (left on
        :attr:`~repro.lap.memory.MemoryHierarchy.local_holders`), so a write
        or a shared-level eviction revokes a tile on its holders alone.  The loop allocates no reference cycle, so the cyclic
        garbage collector is paused while it runs (and switched back on
        only if it was on).  The memory-keyed policies (``memory_aware``,
        ``affinity``) have stale heap keys lazily re-validated against the
        current residency state; that re-validation is bounded at one
        refresh per entry between executions, so those policies are
        worst-case O(V^2 log V) (in practice close to the static bound,
        since only entries that reach the heap top are refreshed).

        Executions are recorded as plain row tuples that :attr:`executions`
        materialises on first access and :meth:`trace_events` turns into
        Chrome trace events.  A dependency cycle ends in
        ``RuntimeError("task graph deadlock ...")``.
        """
        _check_tile_shapes(tiles, self.tile)
        graph = tasks if isinstance(tasks, TaskGraph) else TaskGraph(tasks)
        pcode = POLICIES.index(self.policy)
        self._last_graph = graph
        ga = graph.fast_arrays()
        n = len(ga)
        ids = ga.ids
        succ = ga.succ
        foot_ids = ga.foot_ids
        write_ids = ga.write_ids
        rw_len = ga.rw_len
        out_id = ga.out_id
        group = ga.group

        timing = self.timing
        memoized = type(timing) is MemoizedTiming
        t = self.tile
        cores = self.lap.cores
        num_cores = len(cores)
        reference_freq = self.lap.config.frequency_ghz
        frequencies = self.core_frequencies_ghz
        homogeneous = self._homogeneous
        visible = 1.0 - self.stall_overlap

        memory = MemoryHierarchy.for_chip(self.lap, t, self.interface,
                                          self.on_chip_kb, self.local_store_kb)
        self.last_memory = memory
        dynamic = pcode >= 3
        crit = pcode == 1

        # The schedule's residency state, all of it local to the loop.
        # Byte counts are tile counts times ``tb``, a float, so they are
        # exact integers (far below 2**53) built without a float() call.
        # Without local stores a task's second-level costs stay at these
        # zeros.
        transfer_cycles = local_hit = transfer_bytes = shared_fill = 0.0
        num_tiles = ga.num_tiles
        tile_bytes = memory.tile_bytes
        tb = float(tile_bytes)
        # The shared level: each tile id's LRU stamp from a monotonic clock
        # (-1: not resident), dirty and ever-fetched flags; the queue of
        # touched tile ids from ``res_qhead`` on, whose entry ``k`` carries
        # stamp ``res_qbase + k``; the resident and dirty counts, and the
        # membership version the memory-keyed policies re-score stale keys
        # against.
        res_capmax = memory.capacity_tiles
        res_stamp = [-1] * num_tiles
        res_dirty = [False] * num_tiles
        res_ever = [False] * num_tiles
        res_qt: List[int] = []
        res_qt_append = res_qt.append
        res_qhead = res_qbase = res_clock = res_rc = res_dc = 0
        res_version = peak_rc = 0
        # The local level: the same state per core, indexed by core, and
        # the holder masks that mirror its membership.
        holders = None
        if memory.local_capacity_tiles is not None:
            holders = [0] * num_tiles
            ls_stamp = [[-1] * num_tiles for _ in range(num_cores)]
            ls_qt: List[List[int]] = [[] for _ in range(num_cores)]
            ls_qhead = [0] * num_cores
            ls_qbase = [0] * num_cores
            ls_clock = [0] * num_cores
            ls_rc = [0] * num_cores
            ls_peak = [0] * num_cores
            ls_capmax = memory.local_capacity_tiles

            def revoke(tid, mask):
                # Drop tile ``tid`` from the stores of the cores in ``mask``
                # (a shared-level eviction or a sibling core's write).
                holders[tid] ^= mask
                while mask:
                    low = mask & -mask
                    k = low.bit_length() - 1
                    ls_stamp[k][tid] = -1
                    ls_rc[k] -= 1
                    mask ^= low
        bpc_off = memory.interface.bytes_per_cycle(memory.frequency_ghz)
        obw = memory.onchip_bw_bytes_per_cycle
        epf = memory.energy.energy_per_flop_j
        epon = memory.energy.onchip_energy_per_byte_j
        epoff = memory.energy.offchip_energy_per_byte_j
        # A task's kind, and so its flops, is its memoization group's.
        group_kind = [kind for kind, _, _ in ga.group_keys]
        group_flops = [_TASK_FLOPS[kind](t) for kind in group_kind]
        # Totals accumulate in locals (one per-task add each, starting
        # from the hierarchy's 0.0, in dispatch order).
        tot_flops = tot_energy = tot_stall = tot_ltc = 0.0
        tot_lhit = tot_sfill = tot_c2c = 0.0
        tot_comp = tot_spill = tot_wb = 0.0

        warming = False
        if memoized:
            # A task's cycle count is its memoization group's: one list
            # lookup per task, with the timing model's hit counters
            # reconciled in bulk after the loop.  Without verify, a graph is
            # charged from the process table; on a miss a workload graph
            # first warms its groups on a seeded small instance, never on
            # the caller's tiles, which may be stand-ins.  Otherwise each
            # group's first task warms up on the tiles.
            core_key = self._core_key
            gsig = group_signatures(ga.group_keys, t, self._precision)
            gtable = None if verify else table_cycles(core_key, gsig)
            if gtable is None and not verify and graph.workload is not None:
                self._warm_up(graph.workload, gsig)
                gtable = table_cycles(core_key, gsig)
            warming = gtable is None
            if warming:
                gtable = [None] * len(gsig)
        # Only simulated tasks and verify updates read a task's descriptor.
        tasks = list(graph) if warming or verify or not memoized else None

        if crit:
            negrank = ga._negrank
            if negrank is None:
                # Pure graph property (unit-weight critical-path ranks), cached
                # on the graph so repeat executes skip the n-element rebuild.
                ranks = graph.critical_path_lengths()
                negrank = [-ranks[tid] for tid in ids]
                ga._negrank = negrank

        core_free: List[float] = [0] * num_cores
        busy_cycles: List[int] = [0] * num_cores
        busy_time: List[float] = [0] * num_cores
        owner = [-1] * ga.num_out_coords
        ready: List[float] = [0] * n
        indeg = list(graph.indegree)
        rows: List[Tuple] = []
        rows_append = rows.append
        heappush = heapq.heappush
        heappop = heapq.heappop

        # -- memory-keyed priority (dynamic policies only; static keys are
        # built flat at the push sites) -----------------------------------------
        if dynamic and holders is None:
            def prio(i, r):
                miss = 0
                for tid in foot_ids[i]:
                    if res_stamp[tid] < 0:
                        miss += 1
                return (miss * tile_bytes, r)
        elif dynamic:
            def prio(i, r):
                ow = owner[out_id[i]]
                bit = 1 << (ow if ow >= 0 else 0)
                miss = lmiss = 0
                for tid in foot_ids[i]:
                    if res_stamp[tid] < 0:
                        miss += 1
                    if not holders[tid] & bit:
                        lmiss += 1
                return (miss * tile_bytes, lmiss * tile_bytes, r)

        # Heap entries are flat tuples for the static policies -- ``(r, id,
        # i)`` or ``(negrank, r, id, i)`` -- and ``(key, id, version, i)`` for
        # the dynamic ones, whose version stamp lets a popped entry detect a
        # key computed against a residency state that has since moved on.
        # The unique task id decides every tie before the trailing fields.
        local_version = 0
        cur_version = res_version + local_version
        heap: List[Tuple] = []
        if dynamic:
            # ``(key, task_id)`` is unique per entry, so heapify produces
            # the same pop sequence as repeated pushes.
            heap = [(prio(i, 0), ids[i], cur_version, i)
                    for i in range(n) if indeg[i] == 0]
            heapq.heapify(heap)
        else:
            for i in range(n):
                if indeg[i] == 0:
                    if crit:
                        heappush(heap, (negrank[i], 0, ids[i], i))
                    else:
                        heappush(heap, (0, ids[i], i))

        affinity_cores = pcode == 4 and holders is not None
        owner_cores = pcode in (2, 3)
        need_owner = pcode >= 2    # greedy/critical-path never read the owner map

        # The loop allocates no reference cycle, so the cyclic collector's
        # passes over its growing rows are paused until it is done.
        collecting = gc.isenabled()
        gc.disable()
        try:
            while heap:
                if dynamic:
                    key, task_id, stamp, i = heappop(heap)
                    rtime = ready[i]
                    if stamp != cur_version:
                        # Lazy re-validation: recompute the stale key; if the
                        # task no longer leads the heap, push it back and look
                        # again.  The version only advances when a task
                        # executes, so every entry is refreshed at most once
                        # between executions (bounded work).
                        key = prio(i, rtime)
                        if heap and (key, task_id) > (heap[0][0], heap[0][1]):
                            heappush(heap, (key, task_id, cur_version, i))
                            continue
                else:
                    i = heappop(heap)[-1]
                    rtime = ready[i]

                # -- core selection: a task starts at max(free, ready) -------
                foot = foot_ids[i]
                if affinity_cores:
                    # The cores holding the most footprint tiles in their
                    # local store (counted from the holder masks); among
                    # them the output tile's owner, whatever its start,
                    # else the earliest start, first index on ties.
                    held = [0] * num_cores
                    for tid in foot:
                        hm = holders[tid]
                        while hm:
                            low = hm & -hm
                            held[low.bit_length() - 1] += 1
                            hm ^= low
                    most = max(held)
                    c = owner[out_id[i]]
                    if c >= 0 and held[c] == most:
                        f = core_free[c]
                        start = f if f > rtime else rtime
                    else:
                        c = -1
                        for ci in range(num_cores):
                            if held[ci] == most:
                                f = core_free[ci]
                                s = f if f > rtime else rtime
                                if c < 0 or s < start:
                                    c = ci
                                    start = s
                elif owner_cores:
                    # The earliest start: the output tile's owner if it
                    # can start then, else the first core that can.
                    start = min(core_free)
                    if start > rtime:
                        c = core_free.index(start)
                    else:
                        start = rtime
                        c = 0
                        while core_free[c] > rtime:
                            c += 1
                    ow = owner[out_id[i]]
                    if ow > c and core_free[ow] <= start:
                        c = ow
                else:
                    start = min(core_free)
                    c = core_free.index(start)
                    if rtime > start:
                        start = rtime

                # -- timing --------------------------------------------------
                g = group[i]
                if memoized:
                    cycles = gtable[g]
                    if cycles is None:
                        cycles = gtable[g] = timing.task_cycles(
                            gsig[g], core_key, functools.partial(
                                _simulate_task, tasks[i], tiles, cores[c]))
                    elif verify:
                        _update_tiles(tasks[i], tiles, _NumPyKernels)
                else:
                    cycles = _simulate_task(tasks[i], tiles, cores[c])
                if homogeneous:
                    duration = cycles
                else:
                    duration = cycles * reference_freq / frequencies[c]
                compute_duration = duration

                # -- data movement: the shared-level LRU ---------------------
                pin_floor = res_clock
                nmiss = nspill = 0
                for tid in foot:
                    if res_stamp[tid] < 0:
                        nmiss += 1
                        if res_ever[tid]:
                            nspill += 1
                        else:
                            res_ever[tid] = True
                        res_rc += 1
                    res_stamp[tid] = res_clock
                    res_qt_append(tid)
                    res_clock += 1
                wids = write_ids[i]
                for tid in wids:
                    if not res_dirty[tid]:
                        res_dirty[tid] = True
                        res_dc += 1
                wb = 0
                nvict = 0
                if res_rc > res_capmax:
                    qn = len(res_qt)
                    while res_rc > res_capmax and res_qhead < qn:
                        vid = res_qt[res_qhead]
                        st = res_qbase + res_qhead
                        if res_stamp[vid] != st:
                            res_qhead += 1      # stale entry: tile was re-stamped
                            continue
                        if st >= pin_floor:
                            break               # only the pinned footprint remains
                        res_qhead += 1
                        res_stamp[vid] = -1
                        res_rc -= 1
                        nvict += 1
                        if res_dirty[vid]:
                            res_dirty[vid] = False
                            res_dc -= 1
                            wb += 1
                        # Inclusion: the victim leaves the local stores that
                        # hold it.
                        if holders is not None and holders[vid]:
                            revoke(vid, holders[vid])
                    if res_qhead > 262144 and res_qhead * 2 > qn:
                        del res_qt[:res_qhead]
                        res_qbase += res_qhead
                        res_qhead = 0
                if res_rc > peak_rc:
                    peak_rc = res_rc
                if nmiss or nvict:
                    res_version += 1
                refill_b = nmiss * tb
                spill_b = nspill * tb
                if spill_b > 0:
                    stall = spill_b / bpc_off
                else:
                    stall = 0.0
                flops = group_flops[g]
                onchip_bytes = rw_len[i] * tb
                if holders is not None:
                    # -- the local level: core c's store LRU ---------------
                    # Classify each footprint tile by its holder mask (local
                    # hit / sibling copy / shared fill) as it is brought
                    # resident; a shared eviction never takes a pinned tile,
                    # so the masks read here are the task's own.  Then evict
                    # the store's LRU tiles outside the pinned footprint, and
                    # revoke the other holders' copies of the written tiles
                    # (write-through).
                    bit = 1 << c
                    lstamp = ls_stamp[c]
                    lqt = ls_qt[c]
                    lclock = ls_clock[c]
                    lpin = lclock
                    lrc = ls_rc[c]
                    lhit = ncc = nsf = 0
                    for tid in foot:
                        hm = holders[tid]
                        if hm & bit:
                            lhit += 1
                        else:
                            if hm:
                                ncc += 1
                            else:
                                nsf += 1
                            holders[tid] = hm | bit
                            lrc += 1
                        lstamp[tid] = lclock
                        lqt.append(tid)
                        lclock += 1
                    ls_clock[c] = lclock
                    if lrc > ls_capmax:
                        lhead = ls_qhead[c]
                        lqbase = ls_qbase[c]
                        qn = len(lqt)
                        while lrc > ls_capmax and lhead < qn:
                            vid = lqt[lhead]
                            st = lqbase + lhead
                            if lstamp[vid] != st:
                                lhead += 1      # stale entry
                                continue
                            if st >= lpin:
                                break           # only the pinned footprint remains
                            lhead += 1
                            lstamp[vid] = -1
                            holders[vid] ^= bit
                            lrc -= 1
                        if lhead > 65536 and lhead * 2 > qn:
                            del lqt[:lhead]
                            ls_qbase[c] = lqbase + lhead
                            lhead = 0
                        ls_qhead[c] = lhead
                    ls_rc[c] = lrc
                    if lrc > ls_peak[c]:
                        ls_peak[c] = lrc
                    for tid in wids:
                        if holders[tid] != bit:
                            revoke(tid, holders[tid] ^ bit)
                    local_version += 1
                    local_hit = lhit * tb
                    shared_fill = nsf * tb
                    c2c = ncc * tb
                    transfer_bytes = shared_fill + c2c
                    transfer_cycles = (transfer_bytes / obw
                                       if transfer_bytes > 0 and obw > 0
                                       else 0.0)
                    onchip_bytes = onchip_bytes + transfer_bytes
                    tot_lhit += local_hit
                    tot_sfill += shared_fill
                    tot_c2c += c2c
                    tot_ltc += transfer_cycles
                wb_b = wb * tb
                energy = (flops * epf + onchip_bytes * epon
                          + (refill_b + wb_b) * epoff)
                tot_flops += flops
                tot_energy += energy
                tot_stall += stall
                tot_comp += refill_b - spill_b
                tot_spill += spill_b
                tot_wb += wb_b
                # The visible part of the data movement extends the task.
                duration = duration + (stall + transfer_cycles) * visible
                if dynamic:
                    cur_version = res_version + local_version

                end = start + duration
                core_free[c] = end
                busy_cycles[c] += cycles
                # Efficiency counts compute only: a stalled core is occupied
                # but not doing useful work, so memory pressure must *lower*
                # the reported parallel efficiency, never pad it.
                if not homogeneous:
                    busy_time[c] += compute_duration
                if need_owner:
                    owner[out_id[i]] = c
                rows_append((ids[i], group_kind[g], c, start, end, stall,
                             refill_b, energy, transfer_cycles, local_hit,
                             compute_duration, spill_b, transfer_bytes,
                             wb_b, shared_fill))

                for j in succ[i]:
                    rj = ready[j]
                    if end > rj:
                        ready[j] = end
                        rj = end
                    d = indeg[j] - 1
                    indeg[j] = d
                    if d == 0:
                        if dynamic:
                            heappush(heap, (prio(j, rj), ids[j], cur_version, j))
                        elif crit:
                            heappush(heap, (negrank[j], rj, ids[j], j))
                        else:
                            heappush(heap, (rj, ids[j], j))
        finally:
            if collecting:
                gc.enable()

        if len(rows) != n:
            raise RuntimeError("task graph deadlock: circular dependencies")

        if memoized:
            # Every task ran; a warming execute charged one warm-up per
            # group in the loop, and every other task is a hit.
            for signature, count in zip(gsig, ga.group_counts):
                timing.bulk_charge(signature, count, count - warming)

        memory.peak_resident_bytes = peak_rc * tile_bytes
        if holders is not None:
            memory.peak_local_resident_bytes = max(ls_peak) * tile_bytes
            memory.local_holders = holders
        memory.total_flops += tot_flops
        memory.total_energy_j += tot_energy
        memory.total_stall_cycles += tot_stall
        memory.compulsory_bytes += tot_comp
        memory.spill_bytes += tot_spill
        memory.writeback_bytes += tot_wb
        memory.local_hit_bytes += tot_lhit
        memory.shared_to_local_bytes += tot_sfill
        memory.c2c_bytes += tot_c2c
        memory.local_transfer_cycles += tot_ltc
        self._exec_rows = rows
        self._executions = None
        makespan = max(core_free) if core_free else 0
        self.last_makespan = float(makespan)
        stats: Dict[str, object] = {
            "makespan_cycles": makespan,
            "per_core_busy_cycles": busy_cycles,
            "parallel_efficiency": (sum(busy_cycles if homogeneous else busy_time)
                                    / (makespan * num_cores))
            if makespan else 0.0,
            "tasks_executed": len(rows),
            "policy": self.policy,
            "timing": timing.name,
            "makespan_ns": makespan / reference_freq,
            "data_valid": bool(verify) or not memoized,
        }
        memory.finish(res_dc)
        stats.update(memory.summary())
        stats["graph"] = graph.summary()
        return stats

    def trace_events(self, process_name: str) -> Iterator[dict]:
        """Chrome trace events of the most recent ``execute()`` call.

        A generator over the loop's execution rows, built one event at a
        time for :func:`repro.obs.chrome.write_chrome_trace`: the process
        name, one ``"core <i>"`` thread name per core track, one ``task``
        span per row in dispatch order (its args carry the cycle
        decomposition of :func:`~repro.lap.timing.decompose_task_cycles`
        and the task's non-zero data-movement bytes), the scheduler-idle
        gaps as ``idle`` spans, then the cumulative ``offchip_spill_bytes``
        and ``stall_cycles`` counter series.  Times are reference-clock
        cycles; each core's task spans, and its gaps, come in start order.
        """
        rows = self._exec_rows
        gaps = idle_gaps(self._spans(), len(self.lap.cores), self.last_makespan)
        yield {"name": "process_name", "ph": "M", "ts": 0, "pid": 0,
               "args": {"name": process_name}}
        for core in sorted({row[2] for row in rows} | {gap[0] for gap in gaps}):
            yield {"name": "thread_name", "ph": "M", "ts": 0, "pid": 0,
                   "tid": core, "args": {"name": f"core {core}"}}
        for (task_id, kind, core, start, end, stall, refill, energy,
             transfer_cycles, local_hit, compute, spill, transfer, writeback,
             shared_fill) in rows:
            parts = decompose_task_cycles(compute, stall, self.stall_overlap,
                                          transfer_cycles)
            args = {"task_id": task_id, "kind": kind.value,
                    "compute_cycles": parts["compute"],
                    "spill_stall_cycles": parts["spill_stall"],
                    "transfer_cycles": parts["transfer"],
                    "hidden_cycles": parts["hidden"]}
            moved = (("refill_bytes", refill),
                     ("compulsory_bytes", refill - spill),
                     ("spill_refill_bytes", spill),
                     ("writeback_bytes", writeback),
                     ("energy_j", energy),
                     ("flops", _TASK_FLOPS[kind](self.tile)),
                     ("local_hit_bytes", local_hit),
                     ("shared_to_local_bytes", shared_fill),
                     ("c2c_bytes", transfer - shared_fill))
            args.update((name, value) for name, value in moved if value)
            start, end = float(start), float(end)
            yield {"name": f"{kind.value}#{task_id}", "cat": "task", "ph": "X",
                   "ts": start, "dur": end - start, "pid": 0, "tid": core,
                   "args": args}
        for core, start, end in gaps:
            yield {"name": "idle", "cat": "idle", "ph": "X", "ts": float(start),
                   "dur": float(end) - float(start), "pid": 0, "tid": core,
                   "args": {"idle_cycles": end - start}}
        # Row fields [11] spill bytes and [5] stall cycles, stamped at [4],
        # the task's end.
        for name, field in (("offchip_spill_bytes", 11), ("stall_cycles", 5)):
            value = 0.0
            for row in rows:
                value += row[field]
                yield {"name": name, "ph": "C", "ts": row[4], "pid": 0,
                       "args": {"value": value}}

    def _spans(self) -> Iterator[Tuple]:
        """``(core, start, end, stall, transfer cycles)`` of each loop row."""
        return ((row[2], row[3], row[4], row[5], row[8]) for row in self._exec_rows)

    def attribution(self) -> CycleAttribution:
        """Cycle attribution of the most recent ``execute()`` call.

        Decomposes every core's ``[0, makespan]`` timeline into compute /
        spill-stall / transfer / idle from the loop's rows, building no
        :class:`TaskExecution`; the components sum to ``cores x makespan``
        (see :class:`repro.obs.attribution.CycleAttribution`).
        """
        return CycleAttribution.from_executions(
            self._spans(), len(self.lap.cores), self.last_makespan,
            stall_overlap=self.stall_overlap)

    def schedule_trace(self) -> ScheduleTrace:
        """Replayable record of the most recent ``execute()`` call.

        Captures the movement totals, clock and energy constants that decide
        when a sweep point differing only in bandwidth / prefetch-overlap /
        chip-clock / off-chip-energy constants can reuse this schedule
        exactly instead of re-simulating (see :mod:`repro.lap.replay`).
        The trace also gets a callable deriving the per-task ``(flops,
        onchip_bytes, offchip_bytes)`` energy triples from the loop's raw
        execution rows and the graph's footprint arrays; recording itself
        materialises no :class:`TaskExecution` and builds no per-task list.
        """
        memory = self.last_memory
        energy = memory.energy
        rows = self._exec_rows
        ids, rw_len = self._last_graph.ids, self._last_graph.fast_arrays().rw_len
        tile = self.tile
        tile_bytes = memory.tile_bytes

        def triples():
            # Rows hold TaskExecution's fields in order: [0] task_id,
            # [1] kind, [6] refill, [12] transfer, [13] writeback bytes.
            position = {tid: i for i, tid in enumerate(ids)}
            return [(_TASK_FLOPS[row[1]](tile),
                     rw_len[position[row[0]]] * tile_bytes + row[12],
                     row[6] + row[13])
                    for row in rows]
        return ScheduleTrace(
            stall_overlap=self.stall_overlap,
            effective_bandwidth_gbs=memory.interface.bandwidth_gbytes_per_sec,
            total_spill_bytes=memory.spill_bytes,
            total_movement_cycles=(memory.total_stall_cycles
                                   + memory.local_transfer_cycles),
            makespan_cycles=self.last_makespan,
            frequency_ghz=self.lap.config.frequency_ghz,
            homogeneous_cores=self._homogeneous,
            energy_constants=(energy.energy_per_flop_j,
                              energy.onchip_energy_per_byte_j,
                              energy.offchip_energy_per_byte_j),
            flush_writeback_bytes=memory.flush_writeback_bytes,
            triples=triples)

    # ------------------------------------------------------- whole problems
    def _warm_up(self, workload: str,
                 signatures: Sequence[Tuple]) -> None:
        """Warm every one of ``signatures`` on a small real instance of
        ``workload``, as in a fresh process (a cold memoized ``verify=False``
        execute of a workload graph calls it).

        The instance is :data:`WARM_TILES` tiles per side, built on the
        runtime's own :attr:`library`.  Its tasks run in program order on a
        seeded operand: the
        first task of each signature on core 0's simulator through
        :meth:`MemoizedTiming.task_cycles` (which enters the count in the
        process table and raises on one that disagrees), every other task
        up to the last warm-up through its NumPy update, so each warm-up
        reads dense, correctly factored data.  Raises ``RuntimeError`` if
        the instance lacks a signature of the point (a :data:`WARM_TILES`
        too small for the workload).
        """
        t = self.tile
        small = self.library.build(workload, WARM_TILES * t)
        small_signatures = group_signatures(small.group_keys, t,
                                            self._precision)
        tiles, _ = _problem(workload, WARM_TILES * t, t,
                            np.random.default_rng(0))
        todo = set(signatures)
        core = self.lap.cores[0]
        for task, g in zip(small, small.group):
            signature = small_signatures[g]
            if signature not in todo:
                _update_tiles(task, tiles, _NumPyKernels)
                continue
            todo.remove(signature)
            self.timing.task_cycles(signature, self._core_key,
                                    functools.partial(_simulate_task, task,
                                                      tiles, core))
            if not todo:
                return
        raise RuntimeError(
            f"the {WARM_TILES} x {WARM_TILES}-tile {workload} graph lacks "
            f"the memoization group(s) {sorted(todo)} of the point, so it "
            f"cannot warm it")

    def _execute_shape_only(self, graph: TaskGraph, n: int,
                            verify: bool) -> Optional[Dict[str, object]]:
        """Execute a memoized ``verify=False`` ``n x n`` graph without its
        operand.

        Returns ``None`` under functional timing or ``verify``: those points
        read tile values, so they need the real operand.  Otherwise the
        point reads no tile value (:meth:`execute` warms a cold table on a
        :data:`WARM_TILES`-tile instance of the workload), so one aliased
        ``tile x tile`` array stands in for every tile and the stats carry
        ``residual=None``.
        """
        if verify or type(self.timing) is not MemoizedTiming:
            return None
        nb = n // self.tile
        block = np.zeros((self.tile, self.tile))
        blocks = {(i, j): block for i in range(nb) for j in range(nb)}
        tiles = {"A": blocks, "B": blocks, "C": blocks, "L": blocks}
        stats = self.execute(graph, tiles, verify=False)
        stats["residual"] = None
        return stats

    def _run(self, graph: TaskGraph, n: int, rng: np.random.Generator,
             verify: bool) -> Dict[str, object]:
        """Execute one ``n x n`` workload graph; the stats carry the
        ``residual`` of its seeded operand (:func:`_problem`), ``None``
        when the timing model dropped the data."""
        stats = self._execute_shape_only(graph, n, verify)
        if stats is None:
            tiles, residual = _problem(graph.workload, n, self.tile, rng)
            stats = self.execute(graph, tiles, verify=verify)
            stats["residual"] = residual() if stats["data_valid"] else None
        return stats

    def run_blocked_gemm(self, n: int, rng: np.random.Generator,
                         verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` GEMM end to end.

        Executes the task graph on the LAP cores, and the stats carry a
        ``residual`` against the NumPy product, so sweep rows can assert
        functional correctness alongside makespan and efficiency.  Only
        ``verify=True`` and functional timing build the seeded ``n x n``
        operands: a memoized ``verify=False`` point runs shape-only, with
        ``residual=None`` (:meth:`_execute_shape_only`), and so do the
        other ``run_blocked_*`` methods.
        """
        return self._run(self.library.gemm_tasks(n, n, n), n, rng, verify)

    def run_blocked_cholesky(self, n: int, rng: np.random.Generator,
                             verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` Cholesky end to end
        (``residual`` of ``L L^T - A``)."""
        return self._run(self.library.cholesky_tasks(n), n, rng, verify)

    def run_blocked_lu(self, n: int, rng: np.random.Generator,
                       verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` tiled LU end to end
        (``residual`` of ``L U - A``; no pivoting across tiles)."""
        return self._run(self.library.lu_tasks(n), n, rng, verify)

    def run_blocked_qr(self, n: int, rng: np.random.Generator,
                       verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` tiled QR end to end
        (``residual`` of ``R^T R - A^T A``, normalised)."""
        return self._run(self.library.qr_tasks(n), n, rng, verify)

    def run_workload(self, workload: str, n: int, rng: np.random.Generator,
                     verify: bool = True) -> Dict[str, object]:
        """Run one named workload (gemm / cholesky / lu / qr) end to end."""
        runners = {
            "gemm": self.run_blocked_gemm,
            "cholesky": self.run_blocked_cholesky,
            "lu": self.run_blocked_lu,
            "qr": self.run_blocked_qr,
        }
        try:
            runner = runners[workload]
        except KeyError:
            raise ValueError(f"unknown workload '{workload}' (use one of "
                             f"{', '.join(sorted(runners))})") from None
        return runner(n, rng, verify=verify)

    # ------------------------------------------------------------ helpers
    @staticmethod
    def tile_matrix(matrix: np.ndarray, tile: int) -> Dict[Tuple[int, int], np.ndarray]:
        """Split a matrix into a dictionary of tile blocks."""
        matrix = np.asarray(matrix, dtype=float)
        rows, cols = matrix.shape
        if rows % tile or cols % tile:
            raise ValueError(f"matrix dimensions {rows} x {cols} must be "
                             f"multiples of the tile size {tile}")
        return {(i // tile, j // tile): matrix[i:i + tile, j:j + tile].copy()
                for i in range(0, rows, tile) for j in range(0, cols, tile)}

    @staticmethod
    def untile_matrix(tiles: Dict[Tuple[int, int], np.ndarray], tile: int) -> np.ndarray:
        """Reassemble a matrix from its tile dictionary."""
        if not tiles:
            raise ValueError("no tiles to assemble")
        max_i = max(i for i, _ in tiles) + 1
        max_j = max(j for _, j in tiles) + 1
        out = np.zeros((max_i * tile, max_j * tile), dtype=float)
        for (i, j), block in tiles.items():
            out[i * tile:(i + 1) * tile, j * tile:(j + 1) * tile] = block
        return out


def _problem(workload: str, n: int, t: int, rng: np.random.Generator):
    """The seeded ``n x n`` operand of ``workload`` in ``t x t`` tiles, and a
    function returning the residual of those tiles once its graph ran.

    GEMM draws ``A``, ``B`` and ``C`` (residual against ``C + A B``).  The
    factorizations bind every operand name to one tile dictionary, which
    they update in place: Cholesky's ``G G^T + n I`` is symmetric positive
    definite (residual of ``L L^T - A``), LU's ``R + n I`` strictly
    diagonally dominant, so no row interchange leaves a diagonal tile
    (residual of ``L U - A``).  QR's upper triangle ends up holding ``R``
    while ``Q`` stays implicit in the packed reflectors, so its residual
    checks the normal equations, ``R^T R == A^T A``, normalised by
    ``max |A^T A|``.
    """
    if workload == "gemm":
        a, b = rng.random((n, n)), rng.random((n, n))
        c = rng.random((n, n))
        tiles = {"A": LAPRuntime.tile_matrix(a, t),
                 "B": LAPRuntime.tile_matrix(b, t),
                 "C": LAPRuntime.tile_matrix(c, t)}
    else:
        if workload == "cholesky":
            g = rng.random((n, n))
            a = g @ g.T + n * np.eye(n)
        elif workload == "lu":
            a = rng.random((n, n)) + n * np.eye(n)
        else:
            a = rng.random((n, n))
        blocks = LAPRuntime.tile_matrix(a, t)
        tiles = {"A": blocks, "B": blocks, "C": blocks, "L": blocks}

    def residual() -> float:
        # GEMM's result, or the factored operand (a factorization's C
        # aliases its A).
        out = LAPRuntime.untile_matrix(tiles["C"], t)
        if workload == "gemm":
            return float(np.max(np.abs(out - (c + a @ b))))
        if workload == "cholesky":
            lower = np.tril(out)
            return float(np.max(np.abs(lower @ lower.T - a)))
        if workload == "lu":
            lower = np.tril(out, -1) + np.eye(n)
            return float(np.max(np.abs(lower @ np.triu(out) - a)))
        r = np.triu(out)
        gram = a.T @ a
        return float(np.max(np.abs(r.T @ r - gram))
                     / max(1.0, np.max(np.abs(gram))))
    return tiles, residual
