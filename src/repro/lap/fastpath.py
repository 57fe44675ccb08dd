"""Scheduler data structures: SoA residency, graph arrays, schedule replay.

At the graph sizes where the paper's scheduling/memory results get
interesting (a 16k^2 tiled Cholesky is ~360k tasks) a per-task Python
constant of tens of microseconds dominates.  The scheduler loop
(:meth:`repro.lap.runtime.LAPRuntime.execute`) therefore runs over the
dense structures of this module:

* **Vectorized residency accounting** -- :class:`TileInterner` maps
  ``(operand, (i, j))`` tile names to dense integer ids once per graph;
  :class:`FastTileResidency` / :class:`FastLocalStore` then keep the LRU
  state as structure-of-arrays (a timestamp per tile id, clock-based LRU
  with a FIFO queue of touches whose position encodes the stamp) instead
  of per-tile dictionary nodes.  A task's whole footprint is touched in
  one call.  The hot state is deliberately plain Python lists, not numpy
  arrays: footprints are 1-4 tiles, where scalar list indexing beats any
  ufunc dispatch; numpy is used for the CSR graph exports where bulk
  arithmetic actually wins.
* **Graph arrays** -- :class:`GraphArrays` precomputes successor/indegree
  CSR arrays, per-task interned footprints and memoization groups for a
  :class:`~repro.lap.taskgraph.TaskGraph`, so the loop inlines every policy
  / timing / memory decision without per-task method dispatch.
* **Schedule-replay costing** -- :class:`ScheduleTrace` records a finished
  schedule (task -> core, start order, movement totals); when a sweep point
  differs from a recorded one only in constants that provably cannot change
  the dispatch order (off-chip bandwidth with zero spill traffic, prefetch
  overlap with zero visible movement), the ``lap_runtime`` runner replays
  the recorded costs instead of re-simulating.

The test suite keeps a clarity-first reference implementation of the
residency levels and the scheduler loop as an oracle and pins these
structures (and the loop's rows, stats, attribution and traces) against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lap.taskgraph import TaskGraph, TileAccess

__all__ = [
    "FastLocalStore", "FastTileResidency", "GraphArrays", "REPLAY_STATS",
    "ScheduleTrace", "TileInterner",
]


class TileInterner:
    """Bijection between tile names and dense integer ids.

    Shared between the graph arrays and every residency level of one
    schedule so that a tile has one id everywhere; ids are allocated in
    first-seen order and never reused.
    """

    __slots__ = ("ids", "names")

    def __init__(self) -> None:
        self.ids: Dict[TileAccess, int] = {}
        self.names: List[TileAccess] = []

    def __len__(self) -> int:
        return len(self.names)

    def intern(self, access: TileAccess) -> int:
        """Id of a tile name, allocating one on first sight."""
        tid = self.ids.get(access)
        if tid is None:
            tid = len(self.names)
            self.ids[access] = tid
            self.names.append(access)
        return tid


class FastTileResidency:
    """LRU working set of logical tiles over an on-chip capacity.

    Tiles are identified by ``(operand, (block_row, block_col))`` names
    (interned to dense ids) and all occupy ``tile_bytes``.  A touch fetches
    the missing tiles of a task's footprint -- *compulsory* on a tile's
    first-ever fetch, *spill* on a re-fetch after eviction -- marks the
    written tiles dirty, then evicts least-recently-used tiles down to the
    capacity, writing dirty victims back.  The footprint is *pinned* while
    it is brought resident, so one task's tiles never evict each other; a
    footprint larger than the capacity overflows transiently (the schedule
    then thrashes, which the spill counters make visible).

    The LRU order lives in a timestamp array (``_stamp[tile_id]``, -1 = not
    resident) driven by a monotonic clock.  Because stamps are handed out
    in strictly increasing order -- exactly one per queue append -- the
    queue entry at position ``k`` always carries stamp ``_qbase + k``, so a
    single list of tile ids plus a head index (compacted occasionally)
    stands in for an ordered dictionary: no heap, and no stored stamps.  A
    footprint access re-stamps every tile, so the victim scan skips stale
    queue entries until it finds a tile whose stamp is still current; a
    stamp at or above the footprint's first stamp means only pinned tiles
    remain and eviction stops.  The property suite pins every observable
    (traffic tuples, victims in order, membership, version, peak bytes)
    against an ``OrderedDict`` oracle on random access streams.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int,
                 interner: Optional[TileInterner] = None):
        if capacity_bytes <= 0:
            raise ValueError("on-chip capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._interner = interner if interner is not None else TileInterner()
        self._stamp: List[int] = []
        self._dirty: List[bool] = []
        self._ever: List[bool] = []
        self._qt: List[int] = []      # tile id per stamp; entry k has stamp
        self._qhead = 0               # _qbase + k, by clock monotonicity
        self._qbase = 0
        self._clock = 0
        # Largest resident tile count that does NOT overflow the capacity
        # (exact integer form of ``rc * tile_bytes > capacity_bytes``).
        cap_max = int(self.capacity_bytes // self.tile_bytes)
        while (cap_max + 1) * self.tile_bytes <= self.capacity_bytes:
            cap_max += 1
        while cap_max > 0 and cap_max * self.tile_bytes > self.capacity_bytes:
            cap_max -= 1
        self._cap_tiles = cap_max
        self._rc = 0
        self._dirty_count = 0
        self._last_evicted_ids: List[int] = []
        self.peak_resident_bytes = 0
        self.version = 0
        self._ensure(len(self._interner))

    def _ensure(self, n: int) -> None:
        grow = n - len(self._stamp)
        if grow > 0:
            self._stamp.extend([-1] * grow)
            self._dirty.extend([False] * grow)
            self._ever.extend([False] * grow)

    # ------------------------------------------------------------- queries
    @property
    def resident_bytes(self) -> int:
        return self._rc * self.tile_bytes

    @property
    def last_evicted(self) -> List[TileAccess]:
        """Tiles the most recent touch()/flush() evicted, in eviction order."""
        names = self._interner.names
        return [names[tid] for tid in self._last_evicted_ids]

    def is_resident(self, access: TileAccess) -> bool:
        tid = self._interner.ids.get(access)
        return (tid is not None and tid < len(self._stamp)
                and self._stamp[tid] >= 0)

    def missing_bytes(self, accesses) -> int:
        """Bytes a footprint would have to fetch right now (no state change)."""
        ids = self._interner.ids
        stamp = self._stamp
        n = len(stamp)
        missing = set()
        for access in accesses:
            tid = ids.get(access)
            if tid is None or tid >= n or stamp[tid] < 0:
                missing.add(access)
        return len(missing) * self.tile_bytes

    def missing_bytes_batch(self, indptr, indices) -> np.ndarray:
        """Vectorized :meth:`missing_bytes` over a CSR batch of footprints.

        ``indptr`` / ``indices`` describe ``len(indptr) - 1`` interned
        footprints (e.g. slices of :attr:`GraphArrays.foot_indptr` /
        ``foot_indices``); entry ``k`` of the returned int64 array equals
        ``missing_bytes`` of footprint ``k``.  The kernel is one fancy
        index over the stamp array plus a cumulative sum differenced at the
        row pointers (``np.add.reduceat`` mishandles empty segments).  The
        scalar form deduplicates names through a set, so the batch form is
        equivalent only on duplicate-free footprints -- which is exactly
        what the graph arrays store.
        """
        self._ensure(len(self._interner))
        stamp = np.fromiter(self._stamp, dtype=np.int64,
                            count=len(self._stamp))
        miss = np.where(stamp[indices] < 0, 1, 0)
        csum = np.zeros(len(miss) + 1, dtype=np.int64)
        np.cumsum(miss, out=csum[1:])
        return (csum[indptr[1:]] - csum[indptr[:-1]]) * self.tile_bytes

    # ------------------------------------------------------------- updates
    def touch(self, reads, writes) -> Tuple[float, float, float, float]:
        """Bring a footprint of tile names resident; see :meth:`touch_ids`.

        Read and written tiles are both fetched (every tile kernel is
        read-modify-write at the granularity of a tile).
        """
        intern = self._interner.intern
        foot: List[int] = []
        for access in list(reads) + list(writes):
            tid = intern(access)
            if tid not in foot:
                foot.append(tid)
        wids = [intern(access) for access in writes]
        self._ensure(len(self._interner))
        return self.touch_ids(foot, wids)

    def touch_ids(self, foot: Sequence[int],
                  wids: Sequence[int]) -> Tuple[float, float, float, float]:
        """Bring a deduplicated, interned footprint resident in one call.

        Returns ``(refill, compulsory, spill_refill, writeback)`` bytes.
        The caller guarantees
        ``foot`` is duplicate-free in reads+writes order and every id is
        covered by the state arrays (the interner was pre-populated).
        """
        stamp = self._stamp
        qt = self._qt
        head = self._qhead
        qbase = self._qbase
        ever = self._ever
        dirty = self._dirty
        tb = self.tile_bytes
        clock = self._clock
        pin_floor = clock
        nmiss = nspill = 0
        rc = self._rc
        for tid in foot:
            if stamp[tid] < 0:
                nmiss += 1
                if ever[tid]:
                    nspill += 1
                else:
                    ever[tid] = True
                rc += 1
            stamp[tid] = clock
            qt.append(tid)
            clock += 1
        self._clock = clock
        dc = self._dirty_count
        for tid in wids:
            if not dirty[tid]:
                dirty[tid] = True
                dc += 1
        victims: List[int] = []
        wb = 0
        if rc > self._cap_tiles:
            qn = len(qt)
            cap_tiles = self._cap_tiles
            while rc > cap_tiles and head < qn:
                vid = qt[head]
                st = qbase + head
                if stamp[vid] != st:
                    head += 1           # stale entry: the tile was re-stamped
                    continue
                if st >= pin_floor:
                    break               # only the pinned footprint remains
                head += 1
                stamp[vid] = -1
                rc -= 1
                victims.append(vid)
                if dirty[vid]:
                    dirty[vid] = False
                    dc -= 1
                    wb += 1
            if head > 65536 and head * 2 > qn:
                del qt[:head]
                qbase += head
                head = 0
                self._qbase = qbase
        self._qhead = head
        self._rc = rc
        self._dirty_count = dc
        self._last_evicted_ids = victims
        resident = rc * tb
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        if nmiss or victims:
            self.version += 1
        return (float(nmiss * tb), float((nmiss - nspill) * tb),
                float(nspill * tb), float(wb * tb))

    def flush(self) -> float:
        """Write back every remaining dirty tile; returns the bytes moved."""
        self._ensure(len(self._interner))
        stamp = self._stamp
        resident = sorted((stamp[tid], tid) for tid in range(len(stamp))
                          if stamp[tid] >= 0)
        order = [tid for _, tid in resident]
        writeback = float(self._dirty_count * self.tile_bytes)
        dirty = self._dirty
        for tid in order:
            stamp[tid] = -1
            dirty[tid] = False
        self._dirty_count = 0
        self._last_evicted_ids = order
        self._rc = 0
        self._qt = []
        self._qhead = 0
        self._qbase = self._clock
        self.version += 1
        return writeback


class FastLocalStore:
    """Per-core LRU working set of tiles over one core's local-store budget.

    The second residency level of the two-level hierarchy: the shared
    :class:`FastTileResidency` feeds one store per core.  The store is
    inclusive in the shared level and write-through (the shared level owns
    dirtiness and hence all off-chip accounting), so it uses the
    clock/stamp scheme of :class:`FastTileResidency` without the
    dirty/compulsory bookkeeping; a footprint is pinned while it is brought
    resident, so a footprint larger than the budget overflows transiently
    instead of evicting itself.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int,
                 interner: Optional[TileInterner] = None):
        if capacity_bytes <= 0:
            raise ValueError("local-store capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._interner = interner if interner is not None else TileInterner()
        self._stamp: List[int] = []
        self._qt: List[int] = []
        self._qhead = 0
        self._qbase = 0
        self._clock = 0
        self._rc = 0
        self.peak_resident_bytes = 0
        cap_max = int(self.capacity_bytes // self.tile_bytes)
        while (cap_max + 1) * self.tile_bytes <= self.capacity_bytes:
            cap_max += 1
        while cap_max > 0 and cap_max * self.tile_bytes > self.capacity_bytes:
            cap_max -= 1
        self._cap_tiles = cap_max
        self._ensure(len(self._interner))

    def _ensure(self, n: int) -> None:
        grow = n - len(self._stamp)
        if grow > 0:
            self._stamp.extend([-1] * grow)

    # ------------------------------------------------------------- queries
    @property
    def resident_bytes(self) -> int:
        return self._rc * self.tile_bytes

    def is_resident(self, access: TileAccess) -> bool:
        tid = self._interner.ids.get(access)
        return (tid is not None and tid < len(self._stamp)
                and self._stamp[tid] >= 0)

    def missing_bytes(self, accesses) -> int:
        """Bytes a footprint would have to fill right now (no state change)."""
        ids = self._interner.ids
        stamp = self._stamp
        n = len(stamp)
        missing = set()
        for access in accesses:
            tid = ids.get(access)
            if tid is None or tid >= n or stamp[tid] < 0:
                missing.add(access)
        return len(missing) * self.tile_bytes

    def resident_footprint_bytes(self, accesses) -> int:
        """Bytes of a footprint already held by this store (no state change)."""
        ids = self._interner.ids
        stamp = self._stamp
        n = len(stamp)
        held = set()
        for access in accesses:
            tid = ids.get(access)
            if tid is not None and tid < n and stamp[tid] >= 0:
                held.add(access)
        return len(held) * self.tile_bytes

    def missing_bytes_batch(self, indptr, indices) -> np.ndarray:
        """Vectorized :meth:`missing_bytes` over a CSR batch of footprints;
        same kernel and dedup caveat as
        :meth:`FastTileResidency.missing_bytes_batch`.
        """
        self._ensure(len(self._interner))
        stamp = np.fromiter(self._stamp, dtype=np.int64,
                            count=len(self._stamp))
        miss = np.where(stamp[indices] < 0, 1, 0)
        csum = np.zeros(len(miss) + 1, dtype=np.int64)
        np.cumsum(miss, out=csum[1:])
        return (csum[indptr[1:]] - csum[indptr[:-1]]) * self.tile_bytes

    def resident_footprint_bytes_batch(self, indptr, indices) -> np.ndarray:
        """Vectorized :meth:`resident_footprint_bytes` over a CSR batch."""
        self._ensure(len(self._interner))
        stamp = np.fromiter(self._stamp, dtype=np.int64,
                            count=len(self._stamp))
        held = np.where(stamp[indices] >= 0, 1, 0)
        csum = np.zeros(len(held) + 1, dtype=np.int64)
        np.cumsum(held, out=csum[1:])
        return (csum[indptr[1:]] - csum[indptr[:-1]]) * self.tile_bytes

    # ------------------------------------------------------------- updates
    def touch(self, accesses) -> float:
        """Bring tile names resident; returns the fill bytes required."""
        intern = self._interner.intern
        foot: List[int] = []
        for access in accesses:
            tid = intern(access)
            if tid not in foot:
                foot.append(tid)
        self._ensure(len(self._interner))
        return self.touch_ids(foot)

    def touch_ids(self, foot: Sequence[int]) -> float:
        """Bring a deduplicated, interned footprint resident in one call."""
        stamp = self._stamp
        qt = self._qt
        head = self._qhead
        qbase = self._qbase
        tb = self.tile_bytes
        clock = self._clock
        pin_floor = clock
        nmiss = 0
        rc = self._rc
        for tid in foot:
            if stamp[tid] < 0:
                nmiss += 1
                rc += 1
            stamp[tid] = clock
            qt.append(tid)
            clock += 1
        self._clock = clock
        if rc > self._cap_tiles:
            qn = len(qt)
            cap_tiles = self._cap_tiles
            while rc > cap_tiles and head < qn:
                vid = qt[head]
                st = qbase + head
                if stamp[vid] != st:
                    head += 1
                    continue
                if st >= pin_floor:
                    break
                head += 1
                stamp[vid] = -1
                rc -= 1
            if head > 65536 and head * 2 > qn:
                del qt[:head]
                self._qbase = qbase + head
                head = 0
        self._qhead = head
        self._rc = rc
        resident = rc * tb
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        return float(nmiss * tb)

    def invalidate(self, access: TileAccess) -> None:
        """Drop a tile (shared-level eviction or a sibling core's write)."""
        tid = self._interner.ids.get(access)
        if tid is not None and tid < len(self._stamp) and self._stamp[tid] >= 0:
            self._stamp[tid] = -1
            self._rc -= 1

    def invalidate_ids(self, tids: Sequence[int]) -> None:
        """Drop every listed tile id that is currently resident."""
        stamp = self._stamp
        rc = self._rc
        for tid in tids:
            if stamp[tid] >= 0:
                stamp[tid] = -1
                rc -= 1
        self._rc = rc


class GraphArrays:
    """Dense per-index arrays of one :class:`TaskGraph` for the scheduler loop.

    Task ids are *not* assumed 0-based or contiguous (the builders share one
    id counter across graphs), so everything is indexed by graph position
    with ``ids`` / ``id2idx`` translating.  Successor lists and indegrees
    are exported both as Python lists (what the scalar hot loop indexes) and
    as CSR numpy arrays (``succ_indptr`` / ``succ_indices``) for bulk
    dependency arithmetic.  Built once per graph and cached on it
    (:meth:`TaskGraph.fast_arrays`).
    """

    def __init__(self, graph: TaskGraph):
        tasks = list(graph)
        n = len(tasks)
        self.graph = graph
        self.tasks = tasks
        self.interner = TileInterner()
        intern = self.interner.intern
        self.ids = [task.task_id for task in tasks]
        self.id2idx = {tid: i for i, tid in enumerate(self.ids)}
        id2idx = self.id2idx
        self.indegree0 = [len(set(task.depends_on)) for task in tasks]
        succ: List[List[int]] = [[] for _ in range(n)]
        for i, task in enumerate(tasks):
            for dep in set(task.depends_on):
                succ[id2idx[dep]].append(i)
        # Successor lists are built by ascending task index, so each list is
        # already sorted; the hot loop only needs a deterministic order.
        self.succ: List[Tuple[int, ...]] = [tuple(lst) for lst in succ]
        self.succ_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(lst) for lst in succ], out=self.succ_indptr[1:])
        self.succ_indices = np.fromiter(
            (j for lst in succ for j in lst), dtype=np.int64,
            count=int(self.succ_indptr[-1]))
        # Interned footprints: foot_ids is the deduplicated reads+writes
        # order the residency model consumes; rw_len is the raw (non-dedup)
        # operand count the on-chip energy term charges.
        self.foot_ids: List[Tuple[int, ...]] = []
        self.write_ids: List[Tuple[int, ...]] = []
        self.rw_len: List[int] = []
        coords: Dict[Tuple[int, int], int] = {}
        self.out_id: List[int] = []
        self.kinds = [task.kind for task in tasks]
        # Dense kind codes: the loop resolves per-task flops by a list index
        # instead of hashing a TaskKind enum a million times.
        kind_of: Dict = {}
        self.kind_code: List[int] = []
        for k in self.kinds:
            code = kind_of.get(k)
            if code is None:
                code = len(kind_of)
                kind_of[k] = code
            self.kind_code.append(code)
        self.kind_table = list(kind_of)
        group_of: Dict[Tuple, int] = {}
        self.group: List[int] = []
        #: Position of each memoization group's first task.
        self.group_first: List[int] = []
        for i, task in enumerate(tasks):
            reads = task.read_tiles()
            writes = task.write_tiles()
            foot: List[int] = []
            for access in reads + writes:
                tid = intern(access)
                if tid not in foot:
                    foot.append(tid)
            self.foot_ids.append(tuple(foot))
            self.write_ids.append(tuple(intern(access) for access in writes))
            self.rw_len.append(len(reads) + len(writes))
            out = task.output
            oid = coords.get(out)
            if oid is None:
                oid = len(coords)
                coords[out] = oid
            self.out_id.append(oid)
            gkey = (task.kind, task.alpha == 1.0, bool(task.transpose_b))
            gid = group_of.get(gkey)
            if gid is None:
                gid = len(group_of)
                group_of[gkey] = gid
                self.group_first.append(i)
            self.group.append(gid)
        self.num_groups = len(group_of)
        self.num_out_coords = len(coords)
        # CSR form of the interned footprints, for the numpy-bulk priority
        # kernels (missing/resident bytes of many ready candidates in one
        # call -- see ``missing_bytes_batch`` on the residency classes).
        self.foot_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(foot) for foot in self.foot_ids],
                  out=self.foot_indptr[1:])
        self.foot_indices = np.fromiter(
            (tid for foot in self.foot_ids for tid in foot), dtype=np.int64,
            count=int(self.foot_indptr[-1]))
        # Tasks per memoization group: lets the loop reconcile the
        # timing model's hit counters in one bulk call per group instead of
        # incrementing a counter per task.
        self.group_counts = [0] * self.num_groups
        for gid in self.group:
            self.group_counts[gid] += 1
        # Negated critical-path ranks per graph position (a pure graph
        # property under unit weights); built lazily on the first
        # critical_path execute and reused across sweep points.
        self._negrank: Optional[List[float]] = None


#: Counters of schedule replay (reset freely in tests).
#: ``sidecar_loaded`` / ``sidecar_stored`` track the cross-process replay
#: sidecar (see :meth:`repro.engine.cache.ResultCache.sidecar`): loads seed
#: the in-process memo from disk, stores publish fresh recordings to it.
REPLAY_STATS: Dict[str, int] = {"recorded": 0, "replayed": 0, "forced": 0,
                                "sidecar_loaded": 0, "sidecar_stored": 0}


class ScheduleTrace:
    """Recorded schedule of one ``execute()`` call, for delta-sweep replay.

    Holds the dispatch outcome (task -> core, start order) plus the
    aggregate movement totals that decide when a changed constant can be
    replayed *exactly*: off-chip bandwidth only enters the schedule through
    spill stalls, and the prefetch-overlap fraction only through the
    visible part of ``stall + local transfer`` cycles, so a recorded
    schedule is provably identical to a re-simulation when the respective
    total is zero (or the constant did not change).  Two further replayable
    axes ride on the same argument: the chip clock only scales durations
    uniformly (exact when both points are homogeneous and no spill stall
    entered the cycle domain), and energy constants never feed back into
    dispatch at all -- a delta there re-keys the recorded per-task
    ``(flops, onchip_bytes, offchip_bytes)`` triples instead of
    re-simulating.  Anything else forces a re-simulation;
    :data:`REPLAY_STATS` counts both outcomes.
    """

    def __init__(self, policy: str, timing: str, stall_overlap: float,
                 effective_bandwidth_gbs: Optional[float],
                 default_bandwidth_gbs: float,
                 total_spill_bytes: float, total_movement_cycles: float,
                 task_ids: List[int], cores: List[int],
                 starts: List[float], ends: List[float],
                 num_tasks: Optional[int] = None,
                 makespan_cycles: float = 0.0,
                 frequency_ghz: Optional[float] = 1.0,
                 homogeneous_cores: bool = True,
                 energy_constants: Optional[Tuple[float, float, float]] = None,
                 default_offchip_energy_per_byte_j: float = 60e-12,
                 flush_writeback_bytes: float = 0.0,
                 energy_triples: Optional[List[Tuple[float, float,
                                                     float]]] = None,
                 energy_triples_thunk=None):
        self.policy = policy
        self.timing = timing
        self.stall_overlap = stall_overlap
        self.effective_bandwidth_gbs = effective_bandwidth_gbs
        self.default_bandwidth_gbs = default_bandwidth_gbs
        self.total_spill_bytes = total_spill_bytes
        self.total_movement_cycles = total_movement_cycles
        self.task_ids = task_ids
        self.cores = cores
        self.starts = starts
        self.ends = ends
        self._num_tasks = num_tasks
        self.makespan_cycles = makespan_cycles
        #: Chip clock the schedule was recorded at; ``None`` on headers
        #: persisted before the field existed (rejects frequency deltas).
        self.frequency_ghz = frequency_ghz
        self.homogeneous_cores = homogeneous_cores
        #: ``(energy_per_flop_j, onchip_j_per_byte, offchip_j_per_byte)``
        #: the recorded energy was computed with; ``None`` when the run had
        #: data-movement accounting off.
        self.energy_constants = energy_constants
        self.default_offchip_energy_per_byte_j = (
            default_offchip_energy_per_byte_j)
        self.flush_writeback_bytes = flush_writeback_bytes
        self._energy_triples = energy_triples
        self._triples_thunk = energy_triples_thunk

    def __len__(self) -> int:
        if self._num_tasks is not None:
            return self._num_tasks
        return len(self.task_ids)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable header for the cross-process replay sidecar.

        The exactness decision (:meth:`exact_for`) only needs the scalar
        header, so the per-task dispatch arrays are deliberately dropped:
        a sidecar record stays a few hundred bytes even for million-task
        schedules.  The task count survives as ``num_tasks``.
        """
        return {
            "policy": self.policy,
            "timing": self.timing,
            "stall_overlap": self.stall_overlap,
            "effective_bandwidth_gbs": self.effective_bandwidth_gbs,
            "default_bandwidth_gbs": self.default_bandwidth_gbs,
            "total_spill_bytes": self.total_spill_bytes,
            "total_movement_cycles": self.total_movement_cycles,
            "num_tasks": len(self),
            "makespan_cycles": self.makespan_cycles,
            "frequency_ghz": self.frequency_ghz,
            "homogeneous_cores": self.homogeneous_cores,
            "energy_constants": (None if self.energy_constants is None
                                 else list(self.energy_constants)),
            "default_offchip_energy_per_byte_j": (
                self.default_offchip_energy_per_byte_j),
            "flush_writeback_bytes": self.flush_writeback_bytes,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ScheduleTrace":
        """Rebuild a (header-only) trace persisted by :meth:`to_payload`.

        The per-task energy triples are never serialised, so a rebuilt
        trace replays makespan/clock deltas but refuses any point that
        would need an energy re-key (:meth:`exact_for` returns False and
        the point re-simulates).  Missing scalar fields take conservative
        defaults: unknown clock rejects frequency deltas outright.
        """
        constants = payload.get("energy_constants")
        return cls(
            policy=str(payload["policy"]),
            timing=str(payload["timing"]),
            stall_overlap=float(payload["stall_overlap"]),
            effective_bandwidth_gbs=(
                None if payload.get("effective_bandwidth_gbs") is None
                else float(payload["effective_bandwidth_gbs"])),
            default_bandwidth_gbs=float(payload["default_bandwidth_gbs"]),
            total_spill_bytes=float(payload["total_spill_bytes"]),
            total_movement_cycles=float(payload["total_movement_cycles"]),
            task_ids=[], cores=[], starts=[], ends=[],
            num_tasks=int(payload["num_tasks"]),
            makespan_cycles=float(payload.get("makespan_cycles", 0.0)),
            frequency_ghz=(None if payload.get("frequency_ghz") is None
                           else float(payload["frequency_ghz"])),
            homogeneous_cores=bool(payload.get("homogeneous_cores", False)),
            energy_constants=(None if constants is None
                              else tuple(float(v) for v in constants)),
            default_offchip_energy_per_byte_j=float(
                payload.get("default_offchip_energy_per_byte_j", 60e-12)),
            flush_writeback_bytes=float(
                payload.get("flush_writeback_bytes", 0.0)),
        )

    # --------------------------------------------------- energy re-keying
    @property
    def has_energy_triples(self) -> bool:
        """Whether per-task energy triples are (or can be) materialised."""
        return (self._energy_triples is not None
                or self._triples_thunk is not None)

    def energy_triples(self) -> Optional[List[Tuple[float, float, float]]]:
        """Per-task ``(flops, onchip_bytes, offchip_bytes)`` triples.

        Materialised lazily on first use (the thunk installed by
        :meth:`LAPRuntime.schedule_trace` reads the recording run's
        execution rows); ``None`` on header-only traces rebuilt from the
        sidecar, where an energy re-key forces a re-simulation instead.
        """
        if self._energy_triples is None and self._triples_thunk is not None:
            self._energy_triples = self._triples_thunk()
            self._triples_thunk = None
        return self._energy_triples

    def rekey_energy_j(self, energy_per_flop_j: float,
                       onchip_energy_per_byte_j: float,
                       offchip_energy_per_byte_j: float) -> float:
        """Total schedule energy under new constants.

        Re-accumulates the per-task energies left to right with the same
        association the simulation used (``(fl * epf + on * epon) + off *
        epoff`` per task, then the end-of-schedule flush writeback), so
        calling it with the recorded :attr:`energy_constants` reproduces
        the recorded ``energy_j`` bit for bit.
        """
        triples = self.energy_triples()
        if triples is None:
            raise ValueError(
                "per-task energy triples unavailable (header-only trace)")
        epf = energy_per_flop_j
        epon = onchip_energy_per_byte_j
        epoff = offchip_energy_per_byte_j
        total = 0.0
        for fl, on, off in triples:
            total += (fl * epf + on * epon) + off * epoff
        total += self.flush_writeback_bytes * epoff
        return total

    def exact_for(self, bandwidth_gbs: Optional[float],
                  stall_overlap: float,
                  frequency_ghz: Optional[float] = None,
                  homogeneous_cores: bool = True,
                  offchip_energy_per_byte_j: Optional[float] = None) -> bool:
        """Whether replaying at the new constants is provably exact.

        ``bandwidth_gbs`` is the *effective* bandwidth of the new point
        (the chip default when no override is given); ``None`` means the
        new point has data-movement accounting disabled, where bandwidth
        cannot matter.  ``frequency_ghz`` is the new point's chip clock
        (``None`` = don't check the axis), ``homogeneous_cores`` whether
        every core of the *new* point runs at that clock, and
        ``offchip_energy_per_byte_j`` the new point's off-chip energy
        constant (``None`` = don't check).  A frequency delta with memory
        accounting on, or an off-chip-energy delta, additionally requires
        the per-task energy triples so the energy column can be re-keyed.
        """
        if (bandwidth_gbs is not None
                and self.effective_bandwidth_gbs is not None
                and bandwidth_gbs != self.effective_bandwidth_gbs
                and self.total_spill_bytes != 0.0):
            return False
        if (stall_overlap != self.stall_overlap
                and self.total_movement_cycles != 0.0):
            return False
        needs_rekey = False
        if frequency_ghz is not None and frequency_ghz != self.frequency_ghz:
            # A chip-clock change rescales every task duration by one
            # common factor, which leaves the dispatch order (and hence the
            # cycle-domain schedule) untouched only when both points are
            # homogeneous and no spill stall entered the cycle domain
            # (stall_cycles = spill_bytes / (bandwidth / clock) moves with
            # the clock; compute cycles and on-chip transfer cycles do
            # not).  An unknown recorded clock rejects the axis outright.
            if self.frequency_ghz is None:
                return False
            if not (self.homogeneous_cores and homogeneous_cores):
                return False
            if self.total_spill_bytes != 0.0:
                return False
            if bandwidth_gbs is not None:
                # Memory accounting on: the per-flop energy constant moves
                # with the clock, so the energy column must be re-keyed.
                needs_rekey = True
        if offchip_energy_per_byte_j is not None:
            if self.energy_constants is None:
                return False
            if offchip_energy_per_byte_j != self.energy_constants[2]:
                needs_rekey = True
        if needs_rekey and not self.has_energy_triples:
            return False
        return True
