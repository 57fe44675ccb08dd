"""Unified memory-hierarchy layer for the LAP runtime.

The dissertation's central argument is that a linear-algebra processor wins
by keeping tiles resident in its multi-megabyte on-chip memory and
amortising off-chip traffic over many tile operations.  This module models
exactly that data movement for the task-graph runtime:

* the shared level -- an LRU working set of logical tiles over the
  :class:`repro.hw.memory.OnChipMemory` capacity (:class:`TileResidency`).
  Tiles are fetched from off-chip on first touch (*compulsory* traffic,
  overlapped with compute by the double-buffered streaming the LAP is
  designed around), re-fetched when capacity pressure evicted them (*spill*
  traffic, which stalls), and dirty tiles are written back on eviction and
  at the end of the schedule.
* the local level -- one per-core LRU over that core's local-store budget,
  fed by the shared level (:class:`LocalStore`).  A task's tiles are served
  from the assigned core's store when possible (*local hit*, no transfer),
  copied from a sibling core's store when another core holds them
  (*core-to-core* transfer), and otherwise filled from the shared on-chip
  memory (*shared hit*).  Both transfer kinds cross the on-chip fabric and
  cost transfer cycles; only local hits are free.  The hierarchy is
  inclusive (every local tile also lives in the shared level) and
  write-through (dirtiness is tracked at the shared level only), so
  enabling local stores never changes the off-chip traffic of a fixed
  schedule -- it splits the on-chip side of the movement and adds the
  transfer time.
* :class:`TaskEnergyModel` -- the constants of the first-order per-task
  energy: pJ/flop of the FMAC units, pJ/byte of on-chip SRAM accesses and
  pJ/byte moved across the chip boundary, so a schedule reports GFLOPS/W
  like the paper's headline comparisons.
* :class:`MemoryHierarchy` -- composes the levels, the point's
  :class:`repro.hw.memory.OffChipInterface` (:func:`offchip_interface`) and
  clock, and the energy constants for one schedule, and holds its
  whole-schedule totals; the runtime's scheduler loop
  (:meth:`repro.lap.runtime.LAPRuntime.execute`) does the per-task
  accounting, converting spill refill bytes into stall cycles through the
  interface's bytes per cycle and charging each task's energy.

Both residency levels are structure-of-arrays over the dense tile ids of
a :class:`repro.lap.taskgraph.TaskGraph`: a level keeps one LRU timestamp
per tile id in plain Python lists (footprints are 1-4 tiles, where scalar
list indexing beats any ufunc dispatch), sized once from
``TaskGraph.num_tiles``.  The two-level hierarchy adds one holder bitmask
per tile id (:attr:`MemoryHierarchy.local_holders`): bit ``k`` is set while
core ``k``'s store holds the tile.  The classes hold state only: the
scheduler loop is the one implementation of both levels.  It runs the
shared-level LRU and each core's local-store LRU over that state, keeps
the masks equal to the stores' membership (set on a fill, cleared on an
LRU eviction, a sibling core's write or a shared-level eviction), and
reads local membership only through them, so a write or a shared-level
eviction visits just the cores that hold the tile.
``tests/scheduler_oracle.py`` keeps ``OrderedDict`` levels that define the
model, and the tests pin the loop to them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.hw.fpu import FMACUnit
from repro.hw.memory import OffChipInterface, OnChipMemory

__all__ = [
    "LocalStore", "MemoryHierarchy", "TaskEnergyModel", "TileResidency",
    "offchip_interface",
]


class _LRULevel:
    """State the two residency levels share.

    ``_stamp[tile_id]`` is the tile's LRU timestamp (-1 = not resident),
    handed out by a monotonic clock; ``_qt`` is the queue of touched tile
    ids from ``_qhead`` on, whose entry ``k`` carries stamp ``_qbase + k``;
    ``_rc`` counts resident tiles and ``_cap_tiles`` is the most that fit.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int,
                 num_tiles: int, level: str):
        if not (math.isfinite(capacity_bytes) and capacity_bytes > 0):
            raise ValueError(f"{level} capacity must be a positive finite number")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._stamp: List[int] = [-1] * num_tiles
        self._qt: List[int] = []
        self._qhead = 0
        self._qbase = 0
        self._clock = 0
        self._rc = 0
        self.peak_resident_bytes = 0
        # Largest resident tile count that does NOT overflow the capacity
        # (exact integer form of ``rc * tile_bytes > capacity_bytes``).
        cap_max = int(self.capacity_bytes // self.tile_bytes)
        while (cap_max + 1) * self.tile_bytes <= self.capacity_bytes:
            cap_max += 1
        while cap_max > 0 and cap_max * self.tile_bytes > self.capacity_bytes:
            cap_max -= 1
        self._cap_tiles = cap_max


class TileResidency(_LRULevel):
    """LRU working set of logical tiles over an on-chip capacity.

    All tiles occupy ``tile_bytes``.  For each dispatched task the
    scheduler loop (:meth:`repro.lap.runtime.LAPRuntime.execute`) fetches
    the missing tiles of its footprint -- *compulsory* on a tile's
    first-ever fetch (``_ever``), *spill* on a re-fetch after eviction --
    marks the written tiles dirty, then evicts least-recently-used tiles
    down to the capacity, writing dirty victims back.  The footprint is
    *pinned* while it is brought resident, so one task's tiles never evict
    each other; a footprint larger than the capacity overflows transiently
    (the schedule then thrashes, which the spill counters make visible).
    ``version`` advances whenever membership changes, which is when the
    memory-keyed policies re-score stale heap keys.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int,
                 num_tiles: int = 0):
        super().__init__(capacity_bytes, tile_bytes, num_tiles, "on-chip")
        self._dirty: List[bool] = [False] * num_tiles
        self._ever: List[bool] = [False] * num_tiles
        self._dirty_count = 0
        self.version = 0

    def flush(self) -> float:
        """Write back every dirty tile and empty the level; returns the bytes."""
        writeback = float(self._dirty_count * self.tile_bytes)
        n = len(self._stamp)
        self._stamp[:] = [-1] * n
        self._dirty[:] = [False] * n
        self._dirty_count = 0
        self._rc = 0
        self._qt = []
        self._qhead = 0
        self._qbase = self._clock
        self.version += 1
        return writeback


class LocalStore(_LRULevel):
    """Per-core LRU working set of tiles over one core's local-store budget.

    The second residency level of the two-level hierarchy: the shared
    :class:`TileResidency` feeds one store per core.  The store is inclusive
    in the shared level and write-through (the shared level owns dirtiness
    and hence all off-chip accounting), so it keeps the clock/stamp state
    of :class:`TileResidency` without the dirty/compulsory bookkeeping.  The
    scheduler loop fills, evicts and invalidates it, pinning a footprint
    while it is brought resident, so a footprint larger than the budget
    overflows transiently instead of evicting itself; the hierarchy's
    holder masks mirror its membership.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int,
                 num_tiles: int = 0):
        super().__init__(capacity_bytes, tile_bytes, num_tiles, "local-store")


class TaskEnergyModel:
    """Constants of the first-order per-task energy: compute + on-chip SRAM
    + off-chip pJ.

    A task costs ``flops * J/flop + onchip_bytes * J/byte + offchip_bytes *
    J/byte`` (the scheduler loop's expression).  The per-flop energy comes
    from the FMAC model (one MAC is two flops), the on-chip per-byte energy
    from the banked SRAM's per-access energy, and the off-chip per-byte
    energy from the DRAM interface (~60 pJ/byte by default).
    """

    def __init__(self, fmac: FMACUnit, onchip: OnChipMemory,
                 interface: OffChipInterface):
        self.energy_per_flop_j = fmac.energy_per_mac_j / 2.0
        word_bytes = max(1, onchip.word_bytes)
        self.onchip_energy_per_byte_j = onchip.energy_per_access_j() / word_bytes
        self.offchip_energy_per_byte_j = interface.energy_per_byte_j


def offchip_interface(chip: OffChipInterface,
                      bandwidth_gbs: Optional[float] = None,
                      offchip_pj_per_byte: Optional[float] = None
                      ) -> OffChipInterface:
    """The off-chip interface of one sweep point: the chip's interface
    ``chip`` with the point's overrides of the sustained bandwidth (GB/s)
    and the access energy (pJ/byte).  An energy that is not a non-negative
    finite number of pJ/byte raises ``ValueError`` naming
    ``offchip_pj_per_byte``; a bandwidth that is not a positive finite
    number raises it from :class:`~repro.hw.memory.OffChipInterface`."""
    if bandwidth_gbs is None and offchip_pj_per_byte is None:
        return chip
    energy = chip.energy_per_byte_j
    if offchip_pj_per_byte is not None:
        pj = float(offchip_pj_per_byte)
        if not (math.isfinite(pj) and pj >= 0):
            raise ValueError(f"offchip_pj_per_byte must be a non-negative "
                             f"finite number of pJ/byte, got {pj}")
        energy = pj * 1e-12
    return OffChipInterface(
        bandwidth_gbytes_per_sec=(chip.bandwidth_gbytes_per_sec
                                  if bandwidth_gbs is None
                                  else float(bandwidth_gbs)),
        energy_per_byte_j=energy)


class MemoryHierarchy:
    """Per-schedule data-movement state and totals of one ``execute()`` call.

    The runtime's scheduler loop drives the hierarchy task by task in
    dispatch order: it touches each footprint in the shared
    :class:`TileResidency`, converts spill refills into stall cycles
    through :attr:`interface` at :attr:`frequency_ghz`, attributes energy
    per task with the constants of :attr:`energy`, and adds the per-task
    traffic to the whole-schedule totals below (:meth:`summary`);
    :meth:`finish` flushes the dirty tiles at the end.

    With ``local_store_kb`` set the hierarchy becomes two-level: one
    :class:`LocalStore` per core sits above the shared residency.  A
    dispatched task's footprint is classified against its assigned core's
    store (local hit / core-to-core copy / shared-to-local fill) and both
    transfer kinds cost transfer cycles through the on-chip bandwidth plus
    on-chip access energy.  The local
    level is inclusive and write-through, so the off-chip traffic of a fixed
    dispatch order is *identical* to the single-level model --
    ``local_store_kb=None`` reproduces the single-level accounting byte for
    byte.  ``num_tiles`` sizes every level's state once: the graph's tile
    count (``TaskGraph.num_tiles``), whose dense ids all levels share.
    :attr:`local_holders` is the stores' shared holder bitmask per tile id
    (``None`` without local stores).
    """

    def __init__(self, capacity_bytes: float, tile: int, element_bytes: int,
                 interface: OffChipInterface, onchip: OnChipMemory,
                 fmac: FMACUnit, frequency_ghz: float,
                 num_cores: int = 1,
                 local_store_kb: Optional[float] = None,
                 num_tiles: int = 0):
        if tile <= 0 or element_bytes <= 0:
            raise ValueError("tile size and element bytes must be positive")
        if num_cores < 1:
            raise ValueError("the hierarchy needs at least one core")
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        self.tile = int(tile)
        self.element_bytes = int(element_bytes)
        tile_bytes = self.tile * self.tile * self.element_bytes
        self.residency = TileResidency(capacity_bytes, tile_bytes, num_tiles)
        self.interface = interface
        self.frequency_ghz = float(frequency_ghz)
        self.energy = TaskEnergyModel(fmac, onchip, interface)
        self.num_cores = int(num_cores)
        self.local_store_kb = (None if local_store_kb is None
                               else float(local_store_kb))
        self.local_holders: Optional[List[int]] = None
        self.local_stores: Optional[List[LocalStore]] = None
        if self.local_store_kb is not None:
            self.local_holders = [0] * num_tiles
            self.local_stores = [
                LocalStore(self.local_store_kb * 1024, tile_bytes, num_tiles)
                for _ in range(self.num_cores)]
        #: Bytes/cycle of shared-to-local (and core-to-core) transfers: the
        #: peak bandwidth of the shared on-chip SRAM.
        self.onchip_bw_bytes_per_cycle = float(onchip.peak_bandwidth_bytes_per_cycle)
        self.total_flops = 0.0
        self.total_energy_j = 0.0
        self.total_stall_cycles = 0.0
        self.compulsory_bytes = 0.0
        self.spill_bytes = 0.0
        self.writeback_bytes = 0.0
        self.local_hit_bytes = 0.0
        self.shared_to_local_bytes = 0.0
        self.c2c_bytes = 0.0
        self.local_transfer_cycles = 0.0
        #: Bytes the end-of-schedule flush wrote back (set by finish());
        #: recorded on the ScheduleTrace so energy re-keys can reproduce the
        #: flush term.
        self.flush_writeback_bytes = 0.0
        self._flushed = False

    @classmethod
    def for_chip(cls, lap, tile: int,
                 on_chip_kb: Optional[float] = None,
                 bandwidth_gbs: Optional[float] = None,
                 local_store_kb: Optional[float] = None,
                 num_tiles: int = 0,
                 offchip_pj_per_byte: Optional[float] = None) -> "MemoryHierarchy":
        """Build the hierarchy of one chip, with optional capacity/BW overrides.

        ``on_chip_kb`` shrinks (or grows) the residency capacity relative to
        the chip's physical on-chip memory -- the axis the capacity sweeps
        move; ``bandwidth_gbs`` overrides the sustained off-chip bandwidth;
        ``local_store_kb`` enables the per-core second level with the given
        per-core budget; ``num_tiles`` sizes the levels' state;
        ``offchip_pj_per_byte`` overrides the off-chip interface's access
        energy (pJ/byte, a DRAM-technology sweep axis).  The remaining
        energy coefficients always come from the chip's component models.
        """
        cfg = lap.config
        capacity = (cfg.onchip_memory_mbytes * 1024 * 1024
                    if on_chip_kb is None else float(on_chip_kb) * 1024)
        return cls(capacity_bytes=capacity, tile=tile,
                   element_bytes=cfg.element_bytes,
                   interface=offchip_interface(lap.offchip, bandwidth_gbs,
                                               offchip_pj_per_byte),
                   onchip=lap.onchip_memory, fmac=cfg.fmac(),
                   frequency_ghz=cfg.frequency_ghz,
                   num_cores=len(lap.cores), local_store_kb=local_store_kb,
                   num_tiles=num_tiles)

    def finish(self) -> float:
        """Flush dirty tiles at the end of the schedule; returns the bytes."""
        if self._flushed:
            return 0.0
        self._flushed = True
        writeback = self.residency.flush()
        self.flush_writeback_bytes = writeback
        self.writeback_bytes += writeback
        self.total_energy_j += writeback * self.energy.offchip_energy_per_byte_j
        return writeback

    # -------------------------------------------------------------- totals
    @property
    def traffic_bytes(self) -> float:
        """Total off-chip traffic: all refills plus all writebacks."""
        return self.compulsory_bytes + self.spill_bytes + self.writeback_bytes

    def arithmetic_intensity(self) -> float:
        """Flops per byte of off-chip traffic (0.0 when nothing moved)."""
        traffic = self.traffic_bytes
        return self.total_flops / traffic if traffic > 0 else 0.0

    def gflops_per_watt(self) -> float:
        """Energy efficiency of the schedule (flops per nJ).

        GFLOPS/W is flops-per-second over joules-per-second, so the
        schedule's wall time cancels and the ratio is ``flops / J / 1e9``.
        """
        if self.total_energy_j <= 0:
            return 0.0
        return self.total_flops / self.total_energy_j / 1e9

    def local_hit_rate(self) -> float:
        """Fraction of local-level footprint bytes served without a transfer
        (0.0 when the second level is disabled or nothing was touched)."""
        touched = self.local_hit_bytes + self.shared_to_local_bytes + self.c2c_bytes
        return self.local_hit_bytes / touched if touched > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Whole-schedule data-movement totals for stats rows.

        The local-store keys are present only when the per-core second level
        is enabled, so single-level stats stay byte-identical to the
        single-level model's.
        """
        totals = {
            "offchip_traffic_bytes": self.traffic_bytes,
            "compulsory_bytes": self.compulsory_bytes,
            "spill_bytes": self.spill_bytes,
            "writeback_bytes": self.writeback_bytes,
            "stall_cycles": self.total_stall_cycles,
            "energy_j": self.total_energy_j,
            "total_flops": self.total_flops,
            "arithmetic_intensity": self.arithmetic_intensity(),
            "gflops_per_w": self.gflops_per_watt(),
            "peak_resident_bytes": float(self.residency.peak_resident_bytes),
            "on_chip_capacity_bytes": self.residency.capacity_bytes,
            "bandwidth_gbs": self.interface.bandwidth_gbytes_per_sec,
        }
        if self.local_stores is not None:
            totals.update({
                "local_store_kb": self.local_store_kb,
                "local_hit_bytes": self.local_hit_bytes,
                "shared_to_local_bytes": self.shared_to_local_bytes,
                "c2c_bytes": self.c2c_bytes,
                "local_hit_rate": self.local_hit_rate(),
                "local_transfer_cycles": self.local_transfer_cycles,
                "peak_local_resident_bytes": float(max(
                    store.peak_resident_bytes for store in self.local_stores)),
            })
        return totals
