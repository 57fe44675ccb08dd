"""CACTI-like SRAM area / energy / leakage model.

The LAC keeps matrix panels in plain, untagged SRAM local stores inside each
PE -- a larger single-ported array for the resident panel of ``A`` and a small
dual-ported array for the replicated panel of ``B`` -- and the LAP surrounds
the cores with multi-megabyte banks of on-chip SRAM.  The dissertation obtains
area and energy for all of these from CACTI with the low-power ITRS device
model and aggressive interconnect projection; the calibration points it quotes
are roughly:

* a 16 KB dual-ported PE store: ~0.13 mm^2, ~13.5 mW per port for accesses at
  2.5 GHz (i.e. ~5.4 pJ per access);
* leakage negligible compared to dynamic power in the low-power corner;
* bigger/faster banks move to a faster (leakier) device model.

We reproduce those points with a simple parametric model: energy per access
and area grow with capacity following sub-linear (square-root-ish wordline /
bitline) terms plus a linear cell-array term, ports multiply both, and a
high-performance flag trades leakage for speed.  The absolute constants are
fitted so that the quoted CACTI points are matched; everything else in the
evaluation only depends on relative behaviour across sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.technology import TechnologyNode, TECH_45NM


#: Calibration: a 16 KB dual-ported array occupies ~0.13 mm^2 at 45 nm.
_CAL_CAPACITY_KB = 16.0
_CAL_PORTS = 2
_CAL_AREA_MM2 = 0.13
#: Calibration: ~13.5 mW per port at 2.5 GHz with 8-byte accesses every cycle.
_CAL_POWER_PER_PORT_MW = 13.5
_CAL_FREQUENCY_GHZ = 2.5
#: Energy per 8-byte access implied by the calibration point (joules).
_CAL_ENERGY_PER_ACCESS_J = (_CAL_POWER_PER_PORT_MW * 1e-3) / (_CAL_FREQUENCY_GHZ * 1e9)

#: Fraction of area taken by the cell array at the calibration size; the rest
#: is periphery that grows more slowly with capacity.
_CELL_ARRAY_FRACTION = 0.65

#: Leakage (fraction of peak dynamic power at full activity) for the two
#: device corners.
_LEAKAGE_FRACTION_LOW_POWER = 0.02
_LEAKAGE_FRACTION_HIGH_PERF = 0.20


@dataclass(frozen=True)
class SRAMConfig:
    """Configuration of one SRAM macro.

    Parameters
    ----------
    capacity_bytes:
        Usable storage in bytes.
    ports:
        Number of read/write ports (1 or 2 for the PE stores).
    word_bytes:
        Access width in bytes (8 for double precision operands).
    banks:
        Number of independently addressable banks; banking reduces per-access
        energy slightly and increases available bandwidth.
    high_performance:
        Use the high-performance (faster, leakier) device corner instead of
        the low-power ITRS corner.
    node:
        Technology node.
    """

    capacity_bytes: int
    ports: int = 1
    word_bytes: int = 8
    banks: int = 1
    high_performance: bool = False
    node: TechnologyNode = TECH_45NM

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes}")
        if self.ports not in (1, 2, 3, 4):
            raise ValueError(f"unsupported port count: {self.ports}")
        if self.word_bytes <= 0:
            raise ValueError("word width must be positive")
        if self.banks < 1:
            raise ValueError("bank count must be >= 1")

    @property
    def capacity_kbytes(self) -> float:
        """Capacity in kilobytes."""
        return self.capacity_bytes / 1024.0


class SRAMModel:
    """Evaluates area, per-access energy and leakage for an :class:`SRAMConfig`."""

    def __init__(self, config: SRAMConfig):
        self.config = config

    # ------------------------------------------------------------------ area
    @property
    def area_mm2(self) -> float:
        """Macro area in mm^2.

        The cell array scales linearly with capacity; the periphery (decoders,
        sense amplifiers, IO) scales with the square root of capacity and
        linearly with the number of ports.  Multi-ported cells are bigger, so
        the cell-array term also carries a port factor.
        """
        cfg = self.config
        cap_ratio = cfg.capacity_kbytes / _CAL_CAPACITY_KB
        port_cell_factor = 1.0 + 0.45 * (cfg.ports - 1)
        cal_port_cell_factor = 1.0 + 0.45 * (_CAL_PORTS - 1)
        cell_area = (_CAL_AREA_MM2 * _CELL_ARRAY_FRACTION) * cap_ratio * (
            port_cell_factor / cal_port_cell_factor
        )
        periph_area = (_CAL_AREA_MM2 * (1.0 - _CELL_ARRAY_FRACTION)) * math.sqrt(cap_ratio) * (
            cfg.ports / _CAL_PORTS
        )
        bank_overhead = 1.0 + 0.03 * (cfg.banks - 1)
        hp_overhead = 1.10 if cfg.high_performance else 1.0
        return (cell_area + periph_area) * bank_overhead * hp_overhead

    # ---------------------------------------------------------------- energy
    @property
    def energy_per_access_j(self) -> float:
        """Dynamic energy of one word access in joules.

        Access energy grows with the square root of the capacity of the bank
        being accessed (bitline/wordline lengths) relative to the calibration
        size.  Banking therefore reduces per-access energy.
        """
        cfg = self.config
        bank_capacity_kb = cfg.capacity_kbytes / cfg.banks
        size_factor = math.sqrt(max(bank_capacity_kb, 0.25) / _CAL_CAPACITY_KB)
        width_factor = cfg.word_bytes / 8.0
        hp_factor = 1.25 if cfg.high_performance else 1.0
        return _CAL_ENERGY_PER_ACCESS_J * size_factor * width_factor * hp_factor

    def dynamic_power_w(self, frequency_ghz: float, accesses_per_cycle: float = 1.0) -> float:
        """Dynamic power at a given access rate.

        ``accesses_per_cycle`` may exceed 1.0 only up to the number of ports
        times banks; the PE stores of the LAC are accessed at most once per
        port per cycle.
        """
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        max_rate = self.config.ports * self.config.banks
        if accesses_per_cycle < 0 or accesses_per_cycle > max_rate + 1e-9:
            raise ValueError(
                f"access rate {accesses_per_cycle} exceeds port*bank capability {max_rate}"
            )
        accesses_per_second = accesses_per_cycle * frequency_ghz * 1e9
        return self.energy_per_access_j * accesses_per_second

    @property
    def leakage_power_w(self) -> float:
        """Leakage power of the macro.

        Leakage scales linearly with capacity.  It is expressed relative to
        the dynamic power the *calibration-sized* array burns at its full
        access rate, so that the low-power corner comes out negligible (a few
        percent of dynamic power), as CACTI reports for the ITRS-LP devices.
        """
        cfg = self.config
        frac = _LEAKAGE_FRACTION_HIGH_PERF if cfg.high_performance else _LEAKAGE_FRACTION_LOW_POWER
        calibration_full_activity = _CAL_ENERGY_PER_ACCESS_J * _CAL_FREQUENCY_GHZ * 1e9
        return frac * calibration_full_activity * (cfg.capacity_kbytes / _CAL_CAPACITY_KB)

    # ------------------------------------------------------------ bandwidth
    def peak_bandwidth_bytes_per_cycle(self) -> float:
        """Peak bandwidth the macro can supply in bytes per cycle."""
        return self.config.ports * self.config.banks * self.config.word_bytes

    def max_frequency_ghz(self) -> float:
        """Rough achievable frequency of the macro.

        Small low-power arrays in the dissertation comfortably reach
        2.5+ GHz; large multi-megabyte banks slow down with the square root
        of capacity, and the high-performance corner buys back ~40%.
        """
        base = 2.8
        size_penalty = math.sqrt(max(self.config.capacity_kbytes, 1.0) / _CAL_CAPACITY_KB) ** 0.5
        freq = base / size_penalty
        if self.config.high_performance:
            freq *= 1.4
        return freq


def pe_store_a(capacity_bytes: int, node: TechnologyNode = TECH_45NM) -> SRAMModel:
    """The larger single-ported PE store holding the resident panel of A."""
    return SRAMModel(SRAMConfig(capacity_bytes=capacity_bytes, ports=1, word_bytes=8, node=node))


def pe_store_b(capacity_bytes: int, node: TechnologyNode = TECH_45NM) -> SRAMModel:
    """The smaller dual-ported PE store holding the replicated panel of B."""
    return SRAMModel(SRAMConfig(capacity_bytes=capacity_bytes, ports=2, word_bytes=8, node=node))
