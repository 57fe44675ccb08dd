"""Unified memory-hierarchy layer for the LAP runtime.

The dissertation's central argument is that a linear-algebra processor wins
by keeping tiles resident in its multi-megabyte on-chip memory and
amortising off-chip traffic over many tile operations.  This module holds
the constants and totals of that data movement for the task-graph runtime;
the residency model itself is the state of the runtime's scheduler loop
(:meth:`repro.lap.runtime.LAPRuntime.execute`), which allocates it afresh
for every schedule:

* the shared level -- an LRU working set of logical tiles over the
  :class:`repro.hw.memory.OnChipMemory` capacity.  Tiles are fetched from
  off-chip on first touch (*compulsory* traffic, overlapped with compute
  by the double-buffered streaming the LAP is designed around), re-fetched
  when capacity pressure evicted them (*spill* traffic, which stalls), and
  dirty tiles are written back on eviction and at the end of the schedule.
* the local level -- one per-core LRU over that core's local-store budget,
  fed by the shared level.  A task's tiles are served from the assigned
  core's store when possible (*local hit*, no transfer), copied from a
  sibling core's store when another core holds them (*core-to-core*
  transfer), and otherwise filled from the shared on-chip memory (*shared
  hit*).  Both transfer kinds cross the on-chip fabric and cost transfer
  cycles; only local hits are free.  The hierarchy is inclusive (every
  local tile also lives in the shared level) and write-through (dirtiness
  is tracked at the shared level only), so enabling local stores never
  changes the off-chip traffic of a fixed schedule -- it splits the on-chip
  side of the movement and adds the transfer time.
* :class:`TaskEnergyModel` -- the constants of the first-order per-task
  energy: pJ/flop of the FMAC units, pJ/byte of on-chip SRAM accesses and
  pJ/byte moved across the chip boundary, so a schedule reports GFLOPS/W
  like the paper's headline comparisons.
* :class:`MemoryHierarchy` -- one point's constants (tile bytes, each
  level's capacity in tiles from :func:`_tiles_that_fit`, the point's
  :class:`repro.hw.memory.OffChipInterface` from
  :func:`offchip_interface`, the clock, the energy constants and the
  on-chip bandwidth) and one schedule's totals; the loop does the per-task
  accounting, converting spill refill bytes into stall cycles through the
  interface's bytes per cycle and charging each task's energy.

Both levels are structure-of-arrays over the dense tile ids of a
:class:`repro.lap.taskgraph.TaskGraph`: one LRU timestamp per tile id in
plain Python lists (footprints are 1-4 tiles, where scalar list indexing
beats any ufunc dispatch), sized from ``TaskGraph.num_tiles``.  The
two-level hierarchy adds one holder bitmask per tile id: bit ``k`` is set
while core ``k``'s store holds the tile, and the loop reads local
membership only through the masks, so a write or a shared-level eviction
visits just the cores that hold the tile.  The final masks are left on
:attr:`MemoryHierarchy.local_holders`.  ``tests/scheduler_oracle.py`` keeps
``OrderedDict`` levels that define the model, and the tests pin the loop
to them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.hw.fpu import FMACUnit
from repro.hw.memory import OffChipInterface, OnChipMemory

__all__ = ["MemoryHierarchy", "TaskEnergyModel", "offchip_interface"]


def _tiles_that_fit(name: str, kb: float, tile_bytes: int) -> int:
    """The most ``tile_bytes`` tiles a level of ``kb`` KiB holds.

    The count is the largest whose bytes do not exceed the capacity, in
    exact integer form (``tiles * tile_bytes <= kb * 1024``).  ``name`` is
    the parameter ``kb`` came from: a value that is not a positive finite
    number raises ``ValueError`` naming it and the value.
    """
    capacity = kb * 1024
    if not (math.isfinite(capacity) and capacity > 0):
        raise ValueError(f"{name} must be a positive finite number of KiB, "
                         f"got {kb}")
    tiles = int(capacity // tile_bytes)
    while (tiles + 1) * tile_bytes <= capacity:
        tiles += 1
    while tiles > 0 and tiles * tile_bytes > capacity:
        tiles -= 1
    return tiles


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
    """One point's memory constants and one schedule's data-movement totals.

    The runtime's scheduler loop (:meth:`repro.lap.runtime.LAPRuntime.execute`)
    builds one per ``execute()`` call and runs the residency levels over
    its own state: it brings each dispatched footprint resident in a shared
    level of :attr:`capacity_tiles` tiles of :attr:`tile_bytes`, converts
    spill refills into stall cycles through :attr:`interface` at
    :attr:`frequency_ghz`, attributes energy per task with the constants of
    :attr:`energy`, and adds the per-task traffic to the whole-schedule
    totals below (:meth:`summary`); :meth:`finish` charges the writeback of
    the tiles still dirty at the end.

    With ``local_store_kb`` set the hierarchy becomes two-level: one store
    of :attr:`local_capacity_tiles` tiles per core sits above the shared
    level.  A dispatched task's footprint is classified against its
    assigned core's store (local hit / core-to-core copy / shared-to-local
    fill) and both transfer kinds cost transfer cycles through the on-chip
    bandwidth plus on-chip access energy.  The local level is inclusive and
    write-through, so the off-chip traffic of a fixed dispatch order is
    *identical* to the single-level model -- ``local_store_kb=None``
    reproduces the single-level accounting byte for byte.  After the loop,
    :attr:`local_holders` holds the stores' final holder bitmask per tile
    id (``None`` without local stores).
    """

    def __init__(self, on_chip_kb: float, tile: int, element_bytes: int,
                 interface: OffChipInterface, onchip: OnChipMemory,
                 fmac: FMACUnit, frequency_ghz: float,
                 local_store_kb: Optional[float] = None):
        if tile <= 0 or element_bytes <= 0:
            raise ValueError("tile size and element bytes must be positive")
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        self.tile_bytes = int(tile) * int(tile) * int(element_bytes)
        self.on_chip_capacity_bytes = float(on_chip_kb) * 1024
        self.capacity_tiles = _tiles_that_fit("on_chip_kb", on_chip_kb,
                                              self.tile_bytes)
        self.local_store_kb: Optional[float] = None
        self.local_capacity_tiles: Optional[int] = None
        if local_store_kb is not None:
            self.local_store_kb = float(local_store_kb)
            self.local_capacity_tiles = _tiles_that_fit(
                "local_store_kb", local_store_kb, self.tile_bytes)
        self.interface = interface
        self.frequency_ghz = float(frequency_ghz)
        self.energy = TaskEnergyModel(fmac, onchip, interface)
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
        self.peak_resident_bytes = 0
        self.peak_local_resident_bytes = 0
        self.local_holders: Optional[List[int]] = None
        #: Bytes the end-of-schedule flush wrote back (set by finish());
        #: recorded on the ScheduleTrace so energy re-keys can reproduce the
        #: flush term.
        self.flush_writeback_bytes = 0.0

    @classmethod
    def for_chip(cls, lap, tile: int, interface: OffChipInterface,
                 on_chip_kb: Optional[float] = None,
                 local_store_kb: Optional[float] = None) -> "MemoryHierarchy":
        """Build the hierarchy of one chip behind the off-chip ``interface``
        (the point's, from :func:`offchip_interface`).

        ``on_chip_kb`` shrinks (or grows) the shared level's capacity
        relative to the chip's physical on-chip memory -- the axis the
        capacity sweeps move; ``local_store_kb`` enables the per-core second
        level with the given per-core budget.  The remaining energy
        coefficients always come from the chip's component models.
        """
        cfg = lap.config
        return cls(on_chip_kb=(cfg.onchip_memory_mbytes * 1024
                               if on_chip_kb is None else on_chip_kb),
                   tile=tile, element_bytes=cfg.element_bytes,
                   interface=interface, onchip=lap.onchip_memory,
                   fmac=cfg.fmac(), frequency_ghz=cfg.frequency_ghz,
                   local_store_kb=local_store_kb)

    def finish(self, dirty_tiles: int) -> None:
        """Charge the writeback of the ``dirty_tiles`` tiles still dirty at
        the end of the schedule (the final flush)."""
        writeback = float(dirty_tiles * self.tile_bytes)
        self.flush_writeback_bytes = writeback
        self.writeback_bytes += writeback
        self.total_energy_j += writeback * self.energy.offchip_energy_per_byte_j

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
            "peak_resident_bytes": float(self.peak_resident_bytes),
            "on_chip_capacity_bytes": self.on_chip_capacity_bytes,
            "bandwidth_gbs": self.interface.bandwidth_gbytes_per_sec,
        }
        if self.local_store_kb is not None:
            totals.update({
                "local_store_kb": self.local_store_kb,
                "local_hit_bytes": self.local_hit_bytes,
                "shared_to_local_bytes": self.shared_to_local_bytes,
                "c2c_bytes": self.c2c_bytes,
                "local_hit_rate": self.local_hit_rate(),
                "local_transfer_cycles": self.local_transfer_cycles,
                "peak_local_resident_bytes": float(
                    self.peak_local_resident_bytes),
            })
        return totals
