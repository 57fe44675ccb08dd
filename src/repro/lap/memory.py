"""Unified memory-hierarchy layer for the LAP runtime.

The dissertation's central argument is that a linear-algebra processor wins
by keeping tiles resident in its multi-megabyte on-chip memory and
amortising off-chip traffic over many tile operations.  This module models
exactly that data movement for the task-graph runtime:

* the shared level -- an LRU working set of logical tiles over the
  :class:`repro.hw.memory.OnChipMemory` capacity
  (:class:`repro.lap.fastpath.FastTileResidency`).  Tiles are fetched from
  off-chip on first touch (*compulsory* traffic, overlapped with compute by
  the double-buffered streaming the LAP is designed around), re-fetched when
  capacity pressure evicted them (*spill* traffic, which stalls), and dirty
  tiles are written back on eviction and at the end of the schedule.
* the local level -- one per-core LRU over that core's local-store budget,
  fed by the shared level (:class:`repro.lap.fastpath.FastLocalStore`).  A
  task's tiles are served from the assigned core's store when possible
  (*local hit*, no transfer), copied from a sibling core's store when
  another core holds them (*core-to-core* transfer), and otherwise filled
  from the shared on-chip memory (*shared hit*).  Both transfer kinds cross
  the on-chip fabric and cost transfer cycles; only local hits are free.
  The hierarchy is inclusive (every local tile also lives in the shared
  level) and write-through (dirtiness is tracked at the shared level only),
  so enabling local stores never changes the off-chip traffic of a fixed
  schedule -- it splits the on-chip side of the movement and adds the
  transfer time.
* :class:`BandwidthModel` -- converts spill refill bytes into stall cycles
  through the sustained bandwidth of the
  :class:`repro.hw.memory.OffChipInterface`.
* :class:`TaskEnergyModel` -- per-task energy from three first-order terms:
  pJ/flop of the FMAC units, pJ/byte of on-chip SRAM accesses and pJ/byte
  moved across the chip boundary, so a schedule reports GFLOPS/W like the
  paper's headline comparisons.
* :class:`MemoryHierarchy` -- composes the levels and models for one
  schedule and holds its whole-schedule totals; the runtime's scheduler
  loop (:meth:`repro.lap.runtime.LAPRuntime.execute`) does the per-task
  accounting.

The closed-form streaming traffic of a monolithic GEMM
(:func:`gemm_stream_traffic`) also lives here;
:mod:`repro.lap.offchip` keeps its historical API as a thin shim on top.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hw.fpu import FMACUnit
from repro.hw.memory import OffChipInterface, OnChipMemory
from repro.lap.fastpath import FastLocalStore, FastTileResidency, TileInterner

__all__ = [
    "BandwidthModel", "MemoryHierarchy", "TaskEnergyModel",
    "gemm_stream_traffic",
]


def gemm_stream_traffic(n: int, element_bytes: int = 8,
                        resident_fraction_of_c: float = 1.0) -> Dict[str, float]:
    """Closed-form off-chip traffic of a streamed ``n x n x n`` GEMM.

    The canonical LAP blocking keeps a block of C resident and streams the
    panels of A and B past it.  With only a fraction of C resident, the A
    and B panels are re-streamed once per resident sub-block
    (``1 / fraction`` times); C is read and written exactly once either way.
    Returns the per-operand byte counts; :class:`repro.lap.offchip`'s
    ``TrafficSummary`` is a named view of this dictionary.
    """
    if n <= 0:
        raise ValueError("problem size must be positive")
    if element_bytes <= 0:
        raise ValueError("element bytes must be positive")
    if not (0.0 < resident_fraction_of_c <= 1.0):
        raise ValueError("the resident fraction of C must lie in (0, 1]")
    refetch = 1.0 / resident_fraction_of_c
    matrix_bytes = float(n) * n * element_bytes
    return {
        "a_bytes": matrix_bytes * refetch,
        "b_bytes": matrix_bytes * refetch,
        "c_read_bytes": matrix_bytes,
        "c_write_bytes": matrix_bytes,
    }


class BandwidthModel:
    """Converts off-chip refill bytes into stall cycles of the core clock."""

    def __init__(self, interface: OffChipInterface, frequency_ghz: float):
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        self.interface = interface
        self.frequency_ghz = float(frequency_ghz)

    def stall_cycles(self, num_bytes: float) -> float:
        """Cycles the interface needs to move ``num_bytes`` (0 for 0 bytes)."""
        if num_bytes <= 0:
            return 0.0
        return self.interface.transfer_cycles(num_bytes, self.frequency_ghz)


class TaskEnergyModel:
    """First-order per-task energy: compute + on-chip SRAM + off-chip pJ.

    ``energy = flops * J/flop + onchip_bytes * J/byte + offchip_bytes *
    J/byte``.  The per-flop energy comes from the FMAC model (one MAC is two
    flops), the on-chip per-byte energy from the banked SRAM's per-access
    energy, and the off-chip per-byte energy from the DRAM interface
    (~60 pJ/byte by default).
    """

    def __init__(self, fmac: FMACUnit, onchip: OnChipMemory,
                 interface: OffChipInterface):
        self.energy_per_flop_j = fmac.energy_per_mac_j / 2.0
        word_bytes = max(1, onchip.word_bytes)
        self.onchip_energy_per_byte_j = onchip.energy_per_access_j() / word_bytes
        self.offchip_energy_per_byte_j = interface.energy_per_byte_j

    def task_energy_j(self, flops: float, onchip_bytes: float,
                      offchip_bytes: float) -> float:
        if min(flops, onchip_bytes, offchip_bytes) < 0:
            raise ValueError("flops and byte counts must be non-negative")
        return (flops * self.energy_per_flop_j
                + onchip_bytes * self.onchip_energy_per_byte_j
                + offchip_bytes * self.offchip_energy_per_byte_j)


class MemoryHierarchy:
    """Per-schedule data-movement state and totals of one ``execute()`` call.

    The runtime's scheduler loop drives the hierarchy task by task in
    dispatch order: it touches each footprint in the shared
    :class:`~repro.lap.fastpath.FastTileResidency`, converts spill refills
    into stall cycles through :attr:`bandwidth`, attributes energy per task
    through :attr:`energy`, and adds the per-task traffic to the
    whole-schedule totals below (:meth:`summary`); :meth:`finish` flushes the
    dirty tiles at the end.

    With ``local_store_kb`` set the hierarchy becomes two-level: one
    :class:`~repro.lap.fastpath.FastLocalStore` per core sits above the
    shared residency.  A dispatched task's footprint is classified against
    its assigned core's store (local hit / core-to-core copy /
    shared-to-local fill) and both transfer kinds cost transfer cycles
    through the on-chip bandwidth plus on-chip access energy.  The local
    level is inclusive and write-through, so the off-chip traffic of a fixed
    dispatch order is *identical* to the single-level model --
    ``local_store_kb=None`` reproduces the single-level accounting byte for
    byte.  An ``interner`` shared with the scheduler's graph arrays keeps
    tile ids consistent across all levels.
    """

    def __init__(self, capacity_bytes: float, tile: int, element_bytes: int,
                 interface: OffChipInterface, onchip: OnChipMemory,
                 fmac: FMACUnit, frequency_ghz: float,
                 num_cores: int = 1,
                 local_store_kb: Optional[float] = None,
                 interner: Optional[TileInterner] = None):
        if tile <= 0 or element_bytes <= 0:
            raise ValueError("tile size and element bytes must be positive")
        if num_cores < 1:
            raise ValueError("the hierarchy needs at least one core")
        self.tile = int(tile)
        self.element_bytes = int(element_bytes)
        tile_bytes = self.tile * self.tile * self.element_bytes
        interner = interner if interner is not None else TileInterner()
        self.residency = FastTileResidency(capacity_bytes, tile_bytes, interner)
        self.bandwidth = BandwidthModel(interface, frequency_ghz)
        self.energy = TaskEnergyModel(fmac, onchip, interface)
        self.num_cores = int(num_cores)
        self.local_store_kb = (None if local_store_kb is None
                               else float(local_store_kb))
        if self.local_store_kb is not None and self.local_store_kb <= 0:
            raise ValueError("local-store capacity must be positive")
        self.local_stores: Optional[List[FastLocalStore]] = (
            None if self.local_store_kb is None else
            [FastLocalStore(self.local_store_kb * 1024, tile_bytes, interner)
             for _ in range(self.num_cores)])
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
                 interner: Optional[TileInterner] = None,
                 offchip_pj_per_byte: Optional[float] = None) -> "MemoryHierarchy":
        """Build the hierarchy of one chip, with optional capacity/BW overrides.

        ``on_chip_kb`` shrinks (or grows) the residency capacity relative to
        the chip's physical on-chip memory -- the axis the capacity sweeps
        move; ``bandwidth_gbs`` overrides the sustained off-chip bandwidth;
        ``local_store_kb`` enables the per-core second level with the given
        per-core budget; ``offchip_pj_per_byte`` overrides the off-chip
        interface's access energy (pJ/byte, a DRAM-technology sweep axis).
        The remaining energy coefficients always come from the chip's
        component models.
        """
        cfg = lap.config
        capacity = (cfg.onchip_memory_mbytes * 1024 * 1024
                    if on_chip_kb is None else float(on_chip_kb) * 1024)
        if bandwidth_gbs is None and offchip_pj_per_byte is None:
            interface = lap.offchip
        else:
            interface = OffChipInterface(
                bandwidth_gbytes_per_sec=(
                    lap.offchip.bandwidth_gbytes_per_sec
                    if bandwidth_gbs is None else float(bandwidth_gbs)),
                energy_per_byte_j=(
                    lap.offchip.energy_per_byte_j
                    if offchip_pj_per_byte is None
                    else float(offchip_pj_per_byte) * 1e-12))
        fmac = cfg.fmac()
        return cls(capacity_bytes=capacity, tile=tile,
                   element_bytes=cfg.element_bytes, interface=interface,
                   onchip=lap.onchip_memory, fmac=fmac,
                   frequency_ghz=cfg.frequency_ghz,
                   num_cores=len(lap.cores), local_store_kb=local_store_kb,
                   interner=interner)

    def finish(self) -> float:
        """Flush dirty tiles at the end of the schedule; returns the bytes."""
        if self._flushed:
            return 0.0
        self._flushed = True
        writeback = self.residency.flush()
        self.flush_writeback_bytes = writeback
        self.writeback_bytes += writeback
        self.total_energy_j += self.energy.task_energy_j(0.0, 0.0, writeback)
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
            "bandwidth_gbs": self.bandwidth.interface.bandwidth_gbytes_per_sec,
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
