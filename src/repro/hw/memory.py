"""On-chip shared memory and off-chip interface models.

At the chip level a LAP surrounds its cores with a multi-megabyte on-chip
memory that mainly holds an ``n x n`` block of the result matrix ``C`` plus
the panels of ``A`` and ``B`` currently being streamed.  The dissertation
studies two implementations of that memory:

* plain banked **SRAM**, single-ported low-power banks, one bank dedicated to
  each core plus a shared region (the design point it advocates); and
* a **NUCA cache** built from CACTI's cache model, used as a counterfactual to
  show how much a general-purpose cache hierarchy would cost in power and
  area (Figs. 4.11/4.12).

The off-chip interface is characterised only by its sustained bandwidth in
bytes per cycle (or GB/s) -- exactly the abstraction the analytical chip model
needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.sram import SRAMConfig, SRAMModel
from repro.hw.technology import TechnologyNode, TECH_45NM


@dataclass(frozen=True)
class OnChipMemory:
    """Banked on-chip SRAM shared by the cores of a LAP.

    Parameters
    ----------
    capacity_bytes:
        Total capacity.
    banks:
        Number of independently accessible banks; the LAP dedicates one bank
        per core plus shared banks, so ``banks >= num_cores`` in practice.
    word_bytes:
        Access granularity in bytes.
    frequency_ghz:
        Operating frequency of the memory macros.
    high_performance:
        Select the fast/leaky device corner (needed when a small memory must
        sustain a very high bandwidth).
    node:
        Technology node.
    """

    capacity_bytes: int
    banks: int = 8
    word_bytes: int = 8
    frequency_ghz: float = 1.0
    high_performance: bool = False
    node: TechnologyNode = TECH_45NM

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.banks < 1:
            raise ValueError("banks must be >= 1")

    def _bank_model(self) -> SRAMModel:
        bank_bytes = max(self.capacity_bytes // self.banks, 1024)
        return SRAMModel(
            SRAMConfig(
                capacity_bytes=bank_bytes,
                ports=1,
                word_bytes=self.word_bytes,
                banks=1,
                high_performance=self.high_performance,
                node=self.node,
            )
        )

    # ------------------------------------------------------------------ area
    @property
    def area_mm2(self) -> float:
        """Total area of all banks."""
        return self.banks * self._bank_model().area_mm2

    # ------------------------------------------------------------ bandwidth
    @property
    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate bandwidth with every bank supplying one word per cycle."""
        return self.banks * self.word_bytes

    # ---------------------------------------------------------------- energy
    def energy_per_access_j(self) -> float:
        """Energy of one word access (single bank touched per access)."""
        return self._bank_model().energy_per_access_j

    def dynamic_power_w(self, accesses_per_cycle: float) -> float:
        """Dynamic power at a given aggregate access rate (words/cycle)."""
        if accesses_per_cycle < 0:
            raise ValueError("access rate must be non-negative")
        per_second = accesses_per_cycle * self.frequency_ghz * 1e9
        return self.energy_per_access_j() * per_second

    @property
    def leakage_power_w(self) -> float:
        """Total leakage of all banks."""
        return self.banks * self._bank_model().leakage_power_w


@dataclass(frozen=True)
class NUCACache:
    """A NUCA cache alternative for the on-chip memory (Figs. 4.11/4.12).

    Compared to the plain SRAM organisation a cache pays for tags, associative
    lookup, coherence bookkeeping and -- when a small capacity must provide a
    large bandwidth -- for high-performance banks.  We model those overheads
    as multiplicative factors on top of the SRAM model; the factors are chosen
    so that the qualitative conclusions of the dissertation hold: at small
    capacities the NUCA memory costs more area and power than the compute
    cores, and a larger, slower cache is both more power- and area-efficient
    than a small, fast one.
    """

    capacity_bytes: int
    banks: int = 8
    word_bytes: int = 8
    frequency_ghz: float = 1.0
    associativity: int = 8
    line_bytes: int = 64
    required_bandwidth_bytes_per_cycle: float = 16.0
    node: TechnologyNode = TECH_45NM

    #: Area overhead of tags + comparators + MSHRs relative to the data array.
    TAG_AREA_OVERHEAD = 0.18
    #: Energy overhead of associative lookup relative to a plain SRAM access.
    LOOKUP_ENERGY_OVERHEAD = 0.85

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")

    def _needs_high_performance(self) -> bool:
        """Small capacities that must sustain high bandwidth need fast banks."""
        plain_peak = self.banks * self.word_bytes
        return self.required_bandwidth_bytes_per_cycle > 0.5 * plain_peak

    def _sram(self) -> OnChipMemory:
        return OnChipMemory(
            capacity_bytes=self.capacity_bytes,
            banks=self.banks,
            word_bytes=self.word_bytes,
            frequency_ghz=self.frequency_ghz,
            high_performance=self._needs_high_performance(),
            node=self.node,
        )

    @property
    def area_mm2(self) -> float:
        """Cache area: data array + tag/lookup overhead, scaled by bandwidth pressure."""
        base = self._sram().area_mm2 * (1.0 + self.TAG_AREA_OVERHEAD)
        # Providing more bandwidth out of a smaller capacity requires wider
        # (multi-ported or more aggressively banked) structures.
        capacity_mb = self.capacity_bytes / (1024 * 1024)
        pressure = self.required_bandwidth_bytes_per_cycle / max(capacity_mb, 0.125)
        return base * (1.0 + 0.02 * pressure)

    def energy_per_access_j(self) -> float:
        """Energy of one access including tag lookup."""
        return self._sram().energy_per_access_j() * (1.0 + self.LOOKUP_ENERGY_OVERHEAD)

    def dynamic_power_w(self, accesses_per_cycle: float) -> float:
        """Dynamic power at the given access rate."""
        if accesses_per_cycle < 0:
            raise ValueError("access rate must be non-negative")
        per_second = accesses_per_cycle * self.frequency_ghz * 1e9
        return self.energy_per_access_j() * per_second

    @property
    def leakage_power_w(self) -> float:
        """Leakage, dominated by the high-performance banks when present."""
        return self._sram().leakage_power_w * (1.0 + self.TAG_AREA_OVERHEAD)


@dataclass(frozen=True)
class OffChipInterface:
    """Off-chip (DRAM) interface characterised by sustained bandwidth.

    Parameters
    ----------
    bandwidth_gbytes_per_sec:
        Sustained bandwidth in GB/s (positive and finite).
    energy_per_byte_j:
        Energy of moving one byte across the interface (pin + DRAM access;
        non-negative and finite); a typical DDR3-class figure of
        ~60 pJ/byte is used as default.
    """

    bandwidth_gbytes_per_sec: float
    energy_per_byte_j: float = 60e-12

    def __post_init__(self) -> None:
        bandwidth = self.bandwidth_gbytes_per_sec
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(f"bandwidth must be a positive finite number of "
                             f"GB/s, got {bandwidth}")
        energy = self.energy_per_byte_j
        if not (math.isfinite(energy) and energy >= 0):
            raise ValueError(f"energy per byte must be a non-negative finite "
                             f"number of joules, got {energy}")

    def bytes_per_cycle(self, frequency_ghz: float) -> float:
        """Convert the sustained bandwidth to bytes per core cycle."""
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        return self.bandwidth_gbytes_per_sec / frequency_ghz

    def transfer_energy_j(self, num_bytes: float) -> float:
        """Energy to transfer ``num_bytes`` across the interface."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return num_bytes * self.energy_per_byte_j
