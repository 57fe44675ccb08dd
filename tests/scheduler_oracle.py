"""Reference scheduler: the clarity-first oracle the product loop is pinned to.

``LAPRuntime.execute`` runs one inlined structure-of-arrays loop.  This
module keeps a plain implementation of the same model for the tests to
compare against:

* :class:`OracleTileResidency` / :class:`OracleLocalStore` --
  ``OrderedDict`` LRUs over tile names that define the residency model
  (the product loop keeps the same state in its own locals);
* :class:`OracleHierarchy` -- a :class:`MemoryHierarchy` over those levels
  whose :meth:`OracleHierarchy.account` returns one
  :class:`TaskMemoryEvent` per dispatched task, from the oracle's own stall
  conversion, flop table (:data:`FLOPS`) and per-task energy expression
  (only the constants come from the product), and whose
  :meth:`OracleHierarchy.finish` flushes its own levels;
* :func:`priority` / :func:`choose_core` -- the five stock policies as
  scalar per-task hooks over :func:`touched_tiles`;
* :class:`OracleTiming` -- per-task cycle counts by per-task signature,
  independent of the product's per-group table;
* :func:`reference_execute` -- the event-driven ready-heap loop, which
  records a schedule's Chrome trace events inside the loop when given a
  list;
* :func:`resimulated_row` -- a ``lap_runtime`` row that replay cannot
  serve, the reference replayed rows are compared with.

:func:`reference_execute` leaves its results on the runtime it is given
(``executions`` and their raw rows, ``last_memory``, ``last_makespan``), so
``attribution()`` and ``schedule_trace()`` work on them, and it has the
signature of ``LAPRuntime.execute``, so a test can patch it in to produce
oracle rows through the ``lap_runtime`` runner.
"""

import heapq
from collections import OrderedDict
from dataclasses import astuple, dataclass
from typing import Dict, List, Tuple

from repro.lap.memory import MemoryHierarchy
from repro.lap.runtime import (TaskExecution, _NumPyKernels, _simulate_task,
                                _update_tiles)
from repro.lap.taskgraph import TaskGraph, TaskKind
from repro.lap.timing import decompose_task_cycles
from repro.obs.attribution import idle_gaps


def compose_task_cycles(compute_cycles, stall_cycles, overlap_fraction=0.0,
                        local_transfer_cycles=0.0):
    """A task's duration: its compute cycles plus the part of its
    data-movement cycles that prefetching (``overlap_fraction``) leaves
    visible."""
    if compute_cycles < 0 or stall_cycles < 0 or local_transfer_cycles < 0:
        raise ValueError("cycle counts must be non-negative")
    if not (0.0 <= overlap_fraction <= 1.0):
        raise ValueError("overlap fraction must lie in [0, 1]")
    return (compute_cycles
            + (stall_cycles + local_transfer_cycles) * (1.0 - overlap_fraction))


#: Leading-order flops of one task on ``t x t`` tiles, per task kind.
FLOPS = {
    TaskKind.GEMM: lambda t: 2 * t ** 3,
    TaskKind.SYRK: lambda t: t ** 2 * (t + 1),
    TaskKind.TRSM: lambda t: t ** 3,
    TaskKind.TRSM_RIGHT_T: lambda t: t ** 3,
    TaskKind.TRSM_LOWER: lambda t: t ** 3,
    TaskKind.TRSM_UPPER_RIGHT: lambda t: t ** 3,
    TaskKind.CHOLESKY: lambda t: t ** 3 / 3,
    TaskKind.LU: lambda t: 2 * t ** 3 / 3,
    TaskKind.GEQRT: lambda t: 4 * t ** 3 / 3,
    TaskKind.TSQRT: lambda t: 2 * t ** 3,
    TaskKind.UNMQR: lambda t: 2 * t ** 3,
    TaskKind.TSMQR: lambda t: 3 * t ** 3,
}


@dataclass
class TaskMemoryEvent:
    """Data-movement accounting of one dispatched task."""

    task_id: int
    refill_bytes: float = 0.0
    compulsory_bytes: float = 0.0
    spill_refill_bytes: float = 0.0
    writeback_bytes: float = 0.0
    stall_cycles: float = 0.0
    energy_j: float = 0.0
    flops: float = 0.0
    local_hit_bytes: float = 0.0
    shared_to_local_bytes: float = 0.0
    c2c_bytes: float = 0.0
    local_transfer_cycles: float = 0.0
    onchip_bytes: float = 0.0

    @property
    def offchip_bytes(self) -> float:
        return self.refill_bytes + self.writeback_bytes

    def as_args(self) -> Dict[str, float]:
        """The event as trace-span arguments (non-zero fields only)."""
        fields = {
            "refill_bytes": self.refill_bytes,
            "compulsory_bytes": self.compulsory_bytes,
            "spill_refill_bytes": self.spill_refill_bytes,
            "writeback_bytes": self.writeback_bytes,
            "energy_j": self.energy_j,
            "flops": self.flops,
            "local_hit_bytes": self.local_hit_bytes,
            "shared_to_local_bytes": self.shared_to_local_bytes,
            "c2c_bytes": self.c2c_bytes,
        }
        return {name: value for name, value in fields.items() if value}


class OracleTileResidency:
    """LRU working set of tile names over an on-chip capacity.

    A task's footprint is pinned while it is brought resident, so one
    task's tiles never evict each other; a footprint larger than the
    capacity overflows transiently.
    """

    def __init__(self, capacity_bytes, tile_bytes):
        if capacity_bytes <= 0:
            raise ValueError("on-chip capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._lru = OrderedDict()
        self._dirty = set()
        self._ever_loaded = set()
        self.peak_resident_bytes = 0
        #: Bumped by every touch that changes membership.
        self.version = 0
        #: Tiles the most recent touch()/flush() evicted, in eviction order.
        self.last_evicted = []

    @property
    def resident_bytes(self):
        return len(self._lru) * self.tile_bytes

    def is_resident(self, access):
        return access in self._lru

    def missing_bytes(self, accesses):
        missing = {a for a in accesses if a not in self._lru}
        return len(missing) * self.tile_bytes

    def touch(self, reads, writes):
        """Returns ``(refill, compulsory, spill_refill, writeback)`` bytes."""
        reads, writes = list(reads), list(writes)
        footprint = []
        for access in reads + writes:
            if access not in footprint:
                footprint.append(access)
        pinned = set(footprint)
        refill = compulsory = spill = 0.0
        for access in footprint:
            if access in self._lru:
                self._lru.move_to_end(access)
                continue
            refill += self.tile_bytes
            if access in self._ever_loaded:
                spill += self.tile_bytes
            else:
                compulsory += self.tile_bytes
                self._ever_loaded.add(access)
            self._lru[access] = None
        for access in writes:
            self._dirty.add(access)
        victims = []
        writeback = 0.0
        while (self.resident_bytes > self.capacity_bytes
               and any(key not in pinned for key in self._lru)):
            victim = next(key for key in self._lru if key not in pinned)
            del self._lru[victim]
            victims.append(victim)
            if victim in self._dirty:
                self._dirty.discard(victim)
                writeback += self.tile_bytes
        self.last_evicted = victims
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes)
        if refill > 0 or victims:
            self.version += 1
        return refill, compulsory, spill, writeback

    def flush(self):
        """Write back every remaining dirty tile; returns the bytes moved."""
        writeback = float(len(self._dirty) * self.tile_bytes)
        self._dirty.clear()
        self.last_evicted = list(self._lru)
        self._lru.clear()
        self.version += 1
        return writeback


class OracleLocalStore:
    """Per-core LRU of tile names (write-through, footprint pinned)."""

    def __init__(self, capacity_bytes, tile_bytes):
        if capacity_bytes <= 0:
            raise ValueError("local-store capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._lru = OrderedDict()
        self.peak_resident_bytes = 0

    @property
    def resident_bytes(self):
        return len(self._lru) * self.tile_bytes

    def is_resident(self, access):
        return access in self._lru

    def missing_bytes(self, accesses):
        missing = {a for a in accesses if a not in self._lru}
        return len(missing) * self.tile_bytes

    def resident_footprint_bytes(self, accesses):
        held = {a for a in accesses if a in self._lru}
        return len(held) * self.tile_bytes

    def touch(self, accesses):
        """Bring a footprint resident; returns the fill bytes it required."""
        footprint = []
        for access in accesses:
            if access not in footprint:
                footprint.append(access)
        pinned = set(footprint)
        fill = 0.0
        for access in footprint:
            if access in self._lru:
                self._lru.move_to_end(access)
                continue
            fill += self.tile_bytes
            self._lru[access] = None
        while (self.resident_bytes > self.capacity_bytes
               and any(key not in pinned for key in self._lru)):
            del self._lru[next(key for key in self._lru if key not in pinned)]
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes)
        return fill

    def invalidate(self, access):
        self._lru.pop(access, None)


class OracleHierarchy(MemoryHierarchy):
    """The product hierarchy's constants and totals over the ``OrderedDict``
    levels, with per-task :meth:`account` and a recorded :attr:`events`
    list."""

    @classmethod
    def for_chip(cls, lap, tile, interface=None, on_chip_kb=None,
                 local_store_kb=None):
        """The product's :meth:`MemoryHierarchy.for_chip` (behind the chip's
        own off-chip interface unless ``interface`` is given), plus the
        ``OrderedDict`` levels."""
        memory = super().for_chip(
            lap, tile, lap.offchip if interface is None else interface,
            on_chip_kb, local_store_kb)
        memory.tile = tile
        memory.num_cores = len(lap.cores)
        memory.residency = OracleTileResidency(memory.on_chip_capacity_bytes,
                                               memory.tile_bytes)
        memory.local_stores = None
        if local_store_kb is not None:
            memory.local_stores = [
                OracleLocalStore(memory.local_store_kb * 1024,
                                 memory.tile_bytes)
                for _ in range(memory.num_cores)]
        memory.events = []
        memory._local_version = 0
        memory._flushed = False
        return memory

    @property
    def version(self):
        """Membership version of both levels (stale-priority detection)."""
        return self.residency.version + self._local_version

    def _account_local(self, footprint, writes, core_index):
        """Second-level split ``(local_hit, shared_fill, c2c)`` bytes."""
        stores = self.local_stores
        for victim in self.residency.last_evicted:      # inclusion
            for store in stores:
                store.invalidate(victim)
        store = stores[core_index]
        tile_bytes = store.tile_bytes
        local_hit = shared_fill = c2c = 0.0
        for access in footprint:
            if store.is_resident(access):
                local_hit += tile_bytes
            elif any(other.is_resident(access) for other in stores
                     if other is not store):
                c2c += tile_bytes
            else:
                shared_fill += tile_bytes
        store.touch(footprint)
        for access in writes:                           # write-through
            for other in stores:
                if other is not store:
                    other.invalidate(access)
        self._local_version += 1
        return local_hit, shared_fill, c2c

    def account(self, task, core_index=0):
        """Account one dispatched task; returns its data-movement record."""
        if self._flushed:
            raise RuntimeError("memory hierarchy already flushed; build a new "
                               "one per schedule")
        if not (0 <= core_index < self.num_cores):
            raise ValueError(f"core index {core_index} out of range for "
                             f"{self.num_cores} cores")
        reads, writes = task.read_tiles(), task.write_tiles()
        refill, compulsory, spill, writeback = self.residency.touch(reads, writes)
        # Spill bytes over bytes per cycle: GB/s over GHz.
        stall = (spill / (self.interface.bandwidth_gbytes_per_sec
                          / self.frequency_ghz) if spill > 0 else 0.0)
        flops = float(FLOPS[task.kind](self.tile))
        onchip_bytes = (len(reads) + len(writes)) * self.tile_bytes
        local_hit = shared_fill = c2c = transfer_cycles = 0.0
        if self.local_stores is not None:
            local_hit, shared_fill, c2c = self._account_local(
                touched_tiles(task), writes, core_index)
            transfer_bytes = shared_fill + c2c
            if transfer_bytes > 0 and self.onchip_bw_bytes_per_cycle > 0:
                transfer_cycles = transfer_bytes / self.onchip_bw_bytes_per_cycle
            onchip_bytes += transfer_bytes
        energy = (flops * self.energy.energy_per_flop_j
                  + onchip_bytes * self.energy.onchip_energy_per_byte_j
                  + (refill + writeback) * self.energy.offchip_energy_per_byte_j)
        event = TaskMemoryEvent(
            task_id=task.task_id, refill_bytes=refill,
            compulsory_bytes=compulsory, spill_refill_bytes=spill,
            writeback_bytes=writeback, stall_cycles=stall, energy_j=energy,
            flops=flops, local_hit_bytes=local_hit,
            shared_to_local_bytes=shared_fill, c2c_bytes=c2c,
            local_transfer_cycles=transfer_cycles, onchip_bytes=onchip_bytes)
        self.events.append(event)
        self.total_flops += flops
        self.total_energy_j += energy
        self.total_stall_cycles += stall
        self.compulsory_bytes += compulsory
        self.spill_bytes += spill
        self.writeback_bytes += writeback
        self.local_hit_bytes += local_hit
        self.shared_to_local_bytes += shared_fill
        self.c2c_bytes += c2c
        self.local_transfer_cycles += transfer_cycles
        return event

    def finish(self):
        """Flush the shared level at the end of the schedule: its dirty
        tiles are written back, and the peaks are left where the product's
        loop leaves them."""
        self._flushed = True
        dirty = len(self.residency._dirty)
        self.residency.flush()
        self.peak_resident_bytes = self.residency.peak_resident_bytes
        if self.local_stores is not None:
            self.peak_local_resident_bytes = max(
                store.peak_resident_bytes for store in self.local_stores)
        super().finish(dirty)


# ------------------------------------------------------------ policy hooks
DYNAMIC_POLICIES = ("memory_aware", "affinity")


def touched_tiles(task) -> List:
    """Union of a task's read and written tiles, duplicates removed, read-order."""
    seen = []
    for access in task.read_tiles() + task.write_tiles():
        if access not in seen:
            seen.append(access)
    return seen


def priority(policy, task, ready_time, memory, owners, ranks=None) -> Tuple:
    """Heap key of a ready task (lower first; the task id breaks ties).

    ``policy`` is a policy name.  ``memory`` is an :class:`OracleHierarchy`,
    whose levels answer name-based queries; ``owners``
    maps an output tile to the core that last wrote it, and ``ranks`` holds
    the graph's critical-path lengths (``critical_path`` only).
    """
    if policy == "critical_path":
        return (-ranks.get(task.task_id, 0.0), ready_time)
    if policy in DYNAMIC_POLICIES:
        footprint = touched_tiles(task)
        missing = memory.residency.missing_bytes(footprint)
        if memory.local_stores is not None:
            store = memory.local_stores[owners.get(task.output, 0)]
            return (missing, store.missing_bytes(footprint), ready_time)
        return (missing, ready_time)
    return (ready_time,)


def choose_core(policy, task, ready_time, core_free_at, owners, memory) -> int:
    """Index of the core the popped task runs on (``policy`` is a name)."""
    cores = range(len(core_free_at))
    owner = owners.get(task.output)
    if policy in ("locality", "memory_aware"):
        return min(cores, key=lambda i: (max(core_free_at[i], ready_time),
                                         0 if i == owner else 1, i))
    if policy == "affinity" and memory.local_stores is not None:
        footprint = touched_tiles(task)
        stores = memory.local_stores
        return min(cores, key=lambda i: (
            -stores[i].resident_footprint_bytes(footprint),
            0 if i == owner else 1, max(core_free_at[i], ready_time), i))
    return min(cores, key=lambda i: (core_free_at[i], i))


# ---------------------------------------------------------- oracle timing
class OracleTiming:
    """Per-task cycle counts of one execute, the plain way.

    Functional timing simulates every task on its core.  Memoized timing
    simulates the first task of each per-task signature -- kind, read-tile
    shapes, precision, unit alpha, transpose -- and reuses its count for
    the signature's later tasks, applying their NumPy tile update under
    ``verify``.  It keeps no process-wide state.
    """

    def __init__(self, runtime, tiles, verify):
        self.memoized = runtime.timing.name == "memoized"
        self.cores = runtime.lap.cores
        self.precision = runtime.lap.config.precision.value
        self.tiles = tiles
        self.verify = verify
        self.warmed = {}

    def cycles(self, task, core_index):
        core = self.cores[core_index]
        if not self.memoized:
            return _simulate_task(task, self.tiles, core)
        shapes = tuple(self.tiles[operand][coord].shape
                       for operand, coord in task.read_tiles())
        signature = (task.kind, shapes, self.precision, task.alpha == 1.0,
                     bool(task.transpose_b))
        if signature not in self.warmed:
            self.warmed[signature] = _simulate_task(task, self.tiles, core)
        elif self.verify:
            _update_tiles(task, self.tiles, _NumPyKernels)
        return self.warmed[signature]


# ---------------------------------------------------------- reference loop
def reference_execute(runtime, tasks, tiles, verify=True, trace=None):
    """Schedule ``tasks`` with ``runtime``'s configuration, the plain way.

    With a list as ``trace``, the loop also records the schedule's Chrome
    trace events as it dispatches (process name ``"LAP"``), and they are
    appended to it in the order ``LAPRuntime.trace_events`` yields them.
    """
    graph = tasks if isinstance(tasks, TaskGraph) else TaskGraph(tasks)
    task_list = list(graph)
    by_id = {task.task_id: task for task in task_list}
    successors = {tid: [] for tid in by_id}
    indegree = {}
    for task in task_list:
        deps = set(task.depends_on)
        indegree[task.task_id] = len(deps)
        for dep in deps:
            successors[dep].append(task.task_id)

    memory = OracleHierarchy.for_chip(
        runtime.lap, runtime.tile, runtime.interface,
        on_chip_kb=runtime.on_chip_kb, local_store_kb=runtime.local_store_kb)
    spans, spill_series, stall_series = [], [], []
    spilled = stalled = 0.0
    policy = runtime.policy
    ranks = (graph.critical_path_lengths() if policy == "critical_path"
             else None)
    dynamic = policy in DYNAMIC_POLICIES
    timing = OracleTiming(runtime, tiles, verify)
    num_cores = len(runtime.lap.cores)
    reference_freq = runtime.lap.config.frequency_ghz
    core_free_at = [0] * num_cores
    busy_cycles = [0] * num_cores
    busy_time = [0] * num_cores
    tile_owner = {}
    ready_time = {}
    executions = []

    # Heap entries are (priority, task_id, residency_version); the version
    # lets dynamic policies detect keys computed against a stale state.
    version = memory.version
    heap = []
    for task in task_list:
        if indegree[task.task_id] == 0:
            ready_time[task.task_id] = 0
            heapq.heappush(heap, (priority(policy, task, 0, memory, tile_owner,
                                           ranks),
                                  task.task_id, version))

    while heap:
        key, task_id, stamp = heapq.heappop(heap)
        task = by_id[task_id]
        ready = ready_time[task_id]
        if dynamic and stamp != memory.version:
            key = priority(policy, task, ready, memory, tile_owner, ranks)
            if heap and (key, task_id) > (heap[0][0], heap[0][1]):
                heapq.heappush(heap, (key, task_id, memory.version))
                continue
        core_index = choose_core(policy, task, ready, core_free_at, tile_owner,
                                 memory)
        cycles = timing.cycles(task, core_index)
        if runtime._homogeneous:
            duration = cycles
        else:
            duration = (cycles * reference_freq
                        / runtime.core_frequencies_ghz[core_index])
        compute_duration = duration
        e = memory.account(task, core_index)
        duration = compose_task_cycles(duration, e.stall_cycles,
                                       runtime.stall_overlap,
                                       e.local_transfer_cycles)
        start = max(core_free_at[core_index], ready)
        end = start + duration
        core_free_at[core_index] = end
        busy_cycles[core_index] += cycles
        busy_time[core_index] += compute_duration
        tile_owner[task.output] = core_index
        executions.append(TaskExecution(
            task.task_id, task.kind, core_index, start, end,
            stall_cycles=e.stall_cycles, refill_bytes=e.refill_bytes,
            energy_j=e.energy_j, local_transfer_cycles=e.local_transfer_cycles,
            local_hit_bytes=e.local_hit_bytes, compute_cycles=compute_duration,
            spill_bytes=e.spill_refill_bytes,
            transfer_bytes=e.shared_to_local_bytes + e.c2c_bytes,
            writeback_bytes=e.writeback_bytes,
            shared_to_local_bytes=e.shared_to_local_bytes))
        if trace is not None:
            parts = decompose_task_cycles(compute_duration, e.stall_cycles,
                                          runtime.stall_overlap,
                                          e.local_transfer_cycles)
            args = {"task_id": task.task_id, "kind": task.kind.value,
                    "compute_cycles": parts["compute"],
                    "spill_stall_cycles": parts["spill_stall"],
                    "transfer_cycles": parts["transfer"],
                    "hidden_cycles": parts["hidden"]}
            args.update(e.as_args())
            spilled += e.spill_refill_bytes
            stalled += e.stall_cycles
            spill_series.append({"name": "offchip_spill_bytes", "ph": "C",
                                 "ts": end, "pid": 0,
                                 "args": {"value": spilled}})
            stall_series.append({"name": "stall_cycles", "ph": "C", "ts": end,
                                 "pid": 0, "args": {"value": stalled}})
            spans.append({"name": f"{task.kind.value}#{task.task_id}",
                          "cat": "task", "ph": "X", "ts": float(start),
                          "dur": float(end) - float(start), "pid": 0,
                          "tid": core_index, "args": args})
        for succ_id in successors[task.task_id]:
            ready_time[succ_id] = max(ready_time.get(succ_id, 0), end)
            indegree[succ_id] -= 1
            if indegree[succ_id] == 0:
                heapq.heappush(heap, (
                    priority(policy, by_id[succ_id], ready_time[succ_id],
                             memory, tile_owner, ranks),
                    succ_id, memory.version))

    if len(executions) != len(task_list):
        raise RuntimeError("task graph deadlock: circular dependencies")

    makespan = max(core_free_at) if core_free_at else 0
    runtime._executions = executions
    runtime._exec_rows = [astuple(e) for e in executions]
    runtime._last_graph = graph
    runtime.last_memory = memory
    runtime.last_makespan = float(makespan)
    if trace is not None:
        timeline = [(e.core_index, e.start_cycle, e.end_cycle) for e in executions]
        for core, gap_start, gap_end in idle_gaps(timeline, num_cores, makespan):
            spans.append({"name": "idle", "cat": "idle", "ph": "X",
                          "ts": float(gap_start),
                          "dur": float(gap_end) - float(gap_start), "pid": 0,
                          "tid": core,
                          "args": {"idle_cycles": gap_end - gap_start}})
        trace.append({"name": "process_name", "ph": "M", "ts": 0, "pid": 0,
                      "args": {"name": "LAP"}})
        trace.extend({"name": "thread_name", "ph": "M", "ts": 0, "pid": 0,
                      "tid": core, "args": {"name": f"core {core}"}}
                     for core in sorted({span["tid"] for span in spans}))
        trace.extend(spans + spill_series + stall_series)
    stats = {
        "makespan_cycles": makespan,
        "per_core_busy_cycles": busy_cycles,
        "parallel_efficiency": (sum(busy_time) / (makespan * num_cores))
        if makespan else 0.0,
        "tasks_executed": len(executions),
        "policy": policy,
        "timing": runtime.timing.name,
        "makespan_ns": makespan / reference_freq,
        "data_valid": bool(verify) or not timing.memoized,
    }
    memory.finish()
    stats.update(memory.summary())
    stats["graph"] = graph.summary()
    return stats


def resimulated_row(params):
    """The ``lap_runtime`` row of ``params``, simulated and never replayed.

    The replay memo is emptied and no result cache is configured, so no
    recorded schedule can serve the point; asserts that the runner
    recorded a fresh schedule.
    """
    from repro.engine import runners
    from repro.lap.replay import REPLAY_STATS

    runners._REPLAY_MEMO.clear()
    runners.configure_worker(None)
    recorded = REPLAY_STATS["recorded"]
    row = runners.get_runner("lap_runtime")(params)
    assert REPLAY_STATS["recorded"] == recorded + 1
    return row
