"""LAP / LAC / PE design-point builders.

These builders assemble the component models (FMAC, SRAM, buses, SFU) into
the design points evaluated in Chapters 3 and 4: a single processing element
at a given frequency and local-store size, an ``nr x nr`` core, and a
multi-core chip.  Each design point exposes area, power and the standard
efficiency metrics so that the PE frequency sweeps, the local-store sweeps
and the core/chip comparison tables can all be generated from the same code
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hw.bus import BroadcastBus, BUS_AREA_PER_PE_MM2
from repro.hw.fpu import FMACUnit, Precision
from repro.hw.memory import OnChipMemory
from repro.hw.sfu import SFUPlacement, SpecialFunctionUnit
from repro.hw.sram import SRAMModel, pe_store_a, pe_store_b
from repro.models.efficiency import EfficiencyMetrics
from repro.models.power import PowerComponent, PowerModel


@dataclass(frozen=True)
class PEDesignPoint:
    """One processing element design point (Table 3.1 rows)."""

    precision: Precision
    frequency_ghz: float
    local_store_kbytes: float
    fmac: FMACUnit
    store_a: SRAMModel
    store_b: SRAMModel

    @property
    def area_mm2(self) -> float:
        """PE area: MAC + both local stores + bus share."""
        return (self.fmac.area_mm2 + self.store_a.area_mm2 + self.store_b.area_mm2
                + BUS_AREA_PER_PE_MM2)

    @property
    def memory_power_w(self) -> float:
        """Dynamic power of the local stores at GEMM access rates.

        ``MEM A`` is read once every ``nr`` cycles (one element of A per
        rank-1 update shared across the row); ``MEM B`` supplies one element
        per cycle.  We fold both into a single figure at the PE's frequency.
        """
        f = self.frequency_ghz
        return (self.store_a.dynamic_power_w(f, accesses_per_cycle=0.25)
                + self.store_b.dynamic_power_w(f, accesses_per_cycle=1.0))

    @property
    def fmac_power_w(self) -> float:
        """Dynamic power of the MAC unit at full issue rate."""
        return self.fmac.dynamic_power_w

    @property
    def total_power_w(self) -> float:
        """Total PE power (dynamic plus the calibrated idle fraction)."""
        bus = BroadcastBus(width_bits=self.precision.bits)
        # Per PE, 2/nr of the power of one bus; with nr=4 this is small.
        bus_power = 2.0 / 4.0 * bus.dynamic_power_w(self.frequency_ghz, 1.0)
        dynamic = self.fmac_power_w + self.memory_power_w + bus_power
        return dynamic * 1.25

    @property
    def peak_gflops(self) -> float:
        """Peak throughput of the PE (2 flops per cycle)."""
        return 2.0 * self.frequency_ghz

    def efficiency(self, utilization: float = 1.0) -> EfficiencyMetrics:
        """Standard efficiency metrics of the PE design point."""
        return EfficiencyMetrics(
            label=f"PE[{self.precision.value}@{self.frequency_ghz:.2f}GHz]",
            gflops=self.peak_gflops * utilization,
            power_w=self.total_power_w,
            area_mm2=self.area_mm2,
            utilization=utilization,
            frequency_ghz=self.frequency_ghz,
            precision=self.precision.value,
        )

    def as_table_row(self) -> dict:
        """Row matching the columns of the PE design table."""
        eff = self.efficiency()
        return {
            "precision": "SP" if self.precision is Precision.SINGLE else "DP",
            "frequency_ghz": round(self.frequency_ghz, 2),
            "area_mm2": round(self.area_mm2, 3),
            "memory_mw": round(self.memory_power_w * 1e3, 2),
            "fmac_mw": round(self.fmac_power_w * 1e3, 1),
            "pe_mw": round(self.total_power_w * 1e3, 1),
            "w_per_mm2": round(eff.watts_per_mm2, 3),
            "gflops_per_mm2": round(eff.gflops_per_mm2, 2),
            "gflops_per_w": round(eff.gflops_per_watt, 1),
            "gflops2_per_w": round(eff.inverse_energy_delay, 1),
        }


@dataclass(frozen=True)
class LACDesignPoint:
    """One Linear Algebra Core design point (nr x nr PEs plus an SFU)."""

    nr: int
    pe: PEDesignPoint
    sfu: SpecialFunctionUnit

    @property
    def num_pes(self) -> int:
        return self.nr * self.nr

    @property
    def area_mm2(self) -> float:
        """Core area: PEs plus the shared special function unit."""
        return self.num_pes * self.pe.area_mm2 + self.sfu.area_mm2

    @property
    def power_w(self) -> float:
        """Core power at full GEMM activity."""
        return self.num_pes * self.pe.total_power_w + self.sfu.idle_power_w

    @property
    def peak_gflops(self) -> float:
        return self.num_pes * self.pe.peak_gflops

    def efficiency(self, utilization: float = 0.95) -> EfficiencyMetrics:
        """Efficiency of the core running GEMM at the given utilisation."""
        return EfficiencyMetrics(
            label=f"LAC[{self.nr}x{self.nr}, {self.pe.precision.value}]",
            gflops=self.peak_gflops * utilization,
            power_w=self.power_w,
            area_mm2=self.area_mm2,
            utilization=utilization,
            frequency_ghz=self.pe.frequency_ghz,
            precision=self.pe.precision.value,
        )


@dataclass(frozen=True)
class LAPDesignPoint:
    """One chip-level design point: S cores plus shared on-chip memory."""

    num_cores: int
    core: LACDesignPoint
    onchip_memory: OnChipMemory
    offchip_bandwidth_gb_s: float = 32.0

    @property
    def num_pes(self) -> int:
        return self.num_cores * self.core.num_pes

    @property
    def area_mm2(self) -> float:
        return self.num_cores * self.core.area_mm2 + self.onchip_memory.area_mm2

    def power_w(self, onchip_accesses_per_cycle: float = 8.0) -> float:
        """Chip power: cores plus the on-chip memory at its streaming rate."""
        mem = (self.onchip_memory.dynamic_power_w(onchip_accesses_per_cycle)
               + self.onchip_memory.leakage_power_w)
        return self.num_cores * self.core.power_w + mem

    @property
    def peak_gflops(self) -> float:
        return self.num_cores * self.core.peak_gflops

    def efficiency(self, utilization: float = 0.9,
                   onchip_accesses_per_cycle: float = 8.0) -> EfficiencyMetrics:
        """Chip-level efficiency running GEMM."""
        return EfficiencyMetrics(
            label=f"LAP[{self.num_cores} cores, {self.core.pe.precision.value}]",
            gflops=self.peak_gflops * utilization,
            power_w=self.power_w(onchip_accesses_per_cycle),
            area_mm2=self.area_mm2,
            utilization=utilization,
            frequency_ghz=self.core.pe.frequency_ghz,
            precision=self.core.pe.precision.value,
        )


# ----------------------------------------------------------------- builders
def build_pe(precision: Precision = Precision.DOUBLE, frequency_ghz: float = 1.0,
             local_store_kbytes: float = 16.0, store_b_kbytes: float = 2.0,
             pipeline_stages: int = 5) -> PEDesignPoint:
    """Build one PE design point from the component models."""
    for name, kbytes in (("local_store_kbytes", local_store_kbytes),
                         ("store_b_kbytes", store_b_kbytes)):
        if not (math.isfinite(kbytes) and kbytes > 0):
            raise ValueError(f"{name} must be a positive finite number of KB, "
                             f"got {kbytes}")
    fmac = FMACUnit(precision=precision, frequency_ghz=frequency_ghz,
                    pipeline_stages=pipeline_stages)
    store_a = pe_store_a(int(local_store_kbytes * 1024))
    store_b = pe_store_b(int(store_b_kbytes * 1024))
    return PEDesignPoint(precision=precision, frequency_ghz=frequency_ghz,
                         local_store_kbytes=local_store_kbytes, fmac=fmac,
                         store_a=store_a, store_b=store_b)


def build_lac(nr: int = 4, precision: Precision = Precision.DOUBLE,
              frequency_ghz: float = 1.0, local_store_kbytes: float = 16.0,
              sfu_placement: SFUPlacement = SFUPlacement.ISOLATED) -> LACDesignPoint:
    """Build one LAC design point."""
    pe = build_pe(precision=precision, frequency_ghz=frequency_ghz,
                  local_store_kbytes=local_store_kbytes)
    sfu = SpecialFunctionUnit(placement=sfu_placement, precision=precision,
                              frequency_ghz=frequency_ghz, nr=nr)
    return LACDesignPoint(nr=nr, pe=pe, sfu=sfu)


def build_lap(num_cores: int = 8, nr: int = 4, precision: Precision = Precision.DOUBLE,
              frequency_ghz: float = 1.0, local_store_kbytes: float = 16.0,
              onchip_memory_mbytes: float = 4.0,
              offchip_bandwidth_gb_s: float = 32.0) -> LAPDesignPoint:
    """Build one LAP design point."""
    if num_cores < 1:
        raise ValueError(f"num_cores must be at least 1, got {num_cores}")
    if not (math.isfinite(onchip_memory_mbytes) and onchip_memory_mbytes > 0):
        raise ValueError(f"onchip_memory_mbytes must be a positive finite number "
                         f"of MB, got {onchip_memory_mbytes}")
    core = build_lac(nr=nr, precision=precision, frequency_ghz=frequency_ghz,
                     local_store_kbytes=local_store_kbytes)
    memory = OnChipMemory(capacity_bytes=int(onchip_memory_mbytes * 1024 * 1024),
                          banks=max(num_cores, 4), word_bytes=precision.bytes,
                          frequency_ghz=frequency_ghz)
    return LAPDesignPoint(num_cores=num_cores, core=core, onchip_memory=memory,
                          offchip_bandwidth_gb_s=offchip_bandwidth_gb_s)


def pe_frequency_sweep(precision: Precision, frequencies: Sequence[float],
                       local_store_kbytes: float = 16.0) -> List[PEDesignPoint]:
    """Sweep the PE design across operating frequencies (Table 3.1 / Fig. 3.6)."""
    return [build_pe(precision=precision, frequency_ghz=f,
                     local_store_kbytes=local_store_kbytes) for f in frequencies]


def find_sweet_spot_frequency(precision: Precision = Precision.DOUBLE,
                              frequencies: Optional[Sequence[float]] = None,
                              local_store_kbytes: float = 16.0) -> float:
    """Frequency balancing energy-delay against power/area efficiency.

    The dissertation identifies roughly 1 GHz as the sweet spot: pushing the
    clock further keeps improving energy-delay and area efficiency but power
    efficiency collapses (the voltage must rise), while very low clocks are
    power efficient but waste area and energy-delay.  We formalise the knee
    the same way the text argues it: among the frequencies whose GFLOPS/W is
    still within a constant fraction of the best achievable (which occurs at
    the lowest clock), pick the one with the best (lowest) energy-delay.
    """
    freqs = list(frequencies) if frequencies is not None else [0.2, 0.33, 0.5, 0.75, 0.95,
                                                               1.0, 1.2, 1.4, 1.6, 1.81, 2.08]
    points = []
    for f in freqs:
        pe = build_pe(precision=precision, frequency_ghz=f,
                      local_store_kbytes=local_store_kbytes)
        points.append((f, pe.efficiency()))
    best_power_eff = max(eff.gflops_per_watt for _, eff in points)
    candidates = [(f, eff) for f, eff in points
                  if eff.gflops_per_watt >= 0.55 * best_power_eff]
    best_f, _ = min(candidates, key=lambda fe: fe[1].energy_delay)
    return best_f
