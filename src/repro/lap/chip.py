"""The Linear Algebra Processor: multiple LACs plus on-chip memory.

This object glues the pieces together at chip level:

* it owns ``S`` :class:`repro.lac.core.LinearAlgebraCore` instances,
* a shared :class:`repro.hw.memory.OnChipMemory` and an
  :class:`repro.hw.memory.OffChipInterface`,
* the :class:`repro.lap.policies.GEMMScheduler` that splits large GEMMs into
  per-core row-panel work,
* and the area aggregation over its components (the chip-level power
  breakdown of Chapter 4 is :func:`repro.arch.breakdowns.lap_breakdown`).

Two execution paths are provided.  ``run_gemm`` functionally executes a GEMM
on the core simulators (each core processes its panels; cycle counts per core
are combined by taking the busiest core, exactly what lock-step execution
with a shared panel of B gives).  ``model_gemm`` evaluates the analytical
chip model instead, which is what the large design-space sweeps use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.hw.fpu import FMACUnit, Precision
from repro.hw.memory import OffChipInterface, OnChipMemory
from repro.hw.sram import pe_store_a, pe_store_b
from repro.kernels.gemm import lac_gemm
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.lac.pe import PEConfig
from repro.lap.policies import GEMMScheduler
from repro.models.chip_model import ChipGEMMModel, ChipModelResult


@dataclass
class LAPConfig:
    """Configuration of a Linear Algebra Processor.

    Parameters
    ----------
    num_cores:
        Number of LACs on the chip.
    nr:
        Dimension of each core.
    frequency_ghz:
        Clock frequency of cores and on-chip memory.
    precision:
        Operating precision.
    pe_store_a_kbytes / pe_store_b_kbytes:
        Capacities of the per-PE local stores.
    onchip_memory_mbytes:
        Capacity of the shared on-chip memory.
    offchip_bandwidth_gb_s:
        Sustained external bandwidth.
    mac_pipeline_stages:
        MAC pipeline depth of the PEs.
    """

    num_cores: int = 8
    nr: int = 4
    frequency_ghz: float = 1.0
    precision: Precision = Precision.DOUBLE
    pe_store_a_kbytes: float = 16.0
    pe_store_b_kbytes: float = 2.0
    onchip_memory_mbytes: float = 4.0
    offchip_bandwidth_gb_s: float = 32.0
    mac_pipeline_stages: int = 5

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("at least one core is required")
        if not (math.isfinite(self.frequency_ghz) and self.frequency_ghz > 0):
            raise ValueError(f"frequency must be a positive finite number of "
                             f"GHz, got {self.frequency_ghz}")
        if min(self.pe_store_a_kbytes, self.pe_store_b_kbytes) <= 0:
            raise ValueError("local store capacities must be positive")
        if self.onchip_memory_mbytes <= 0:
            raise ValueError("on-chip memory capacity must be positive")

    @property
    def element_bytes(self) -> int:
        """Bytes per matrix element at the configured precision."""
        return self.precision.bytes

    def fmac(self) -> FMACUnit:
        """Derive the FMAC model shared by the compute and energy models."""
        return FMACUnit(precision=self.precision,
                        frequency_ghz=self.frequency_ghz,
                        pipeline_stages=self.mac_pipeline_stages)

    def onchip_memory(self) -> OnChipMemory:
        """Derive the shared banked SRAM (one bank per core, at least four)."""
        return OnChipMemory(
            capacity_bytes=int(self.onchip_memory_mbytes * 1024 * 1024),
            banks=max(self.num_cores, 4),
            word_bytes=self.element_bytes,
            frequency_ghz=self.frequency_ghz,
        )

    def offchip(self) -> OffChipInterface:
        """Derive the off-chip interface at the sustained bandwidth."""
        return OffChipInterface(bandwidth_gbytes_per_sec=self.offchip_bandwidth_gb_s)

    def pe_config(self) -> PEConfig:
        """Derive the simulator PE configuration from the capacities."""
        eb = self.element_bytes
        return PEConfig(
            store_a_words=max(8, int(self.pe_store_a_kbytes * 1024 // eb)),
            store_b_words=max(8, int(self.pe_store_b_kbytes * 1024 // eb)),
            register_file_words=4,
            accumulators=4,
            mac_pipeline_stages=self.mac_pipeline_stages,
        )


class LinearAlgebraProcessor:
    """A multi-core LAP with functional simulation and analytical models."""

    def __init__(self, config: Optional[LAPConfig] = None):
        self.config = config if config is not None else LAPConfig()
        cfg = self.config
        self.cores: List[LinearAlgebraCore] = [
            LinearAlgebraCore(LACConfig(nr=cfg.nr, pe=cfg.pe_config(),
                                        precision=cfg.precision,
                                        frequency_ghz=cfg.frequency_ghz))
            for _ in range(cfg.num_cores)
        ]
        self.onchip_memory = cfg.onchip_memory()
        self.offchip = cfg.offchip()
        self.scheduler = GEMMScheduler(cfg.num_cores, cfg.nr)
        self.analytical = ChipGEMMModel(num_cores=cfg.num_cores, nr=cfg.nr,
                                        element_bytes=cfg.element_bytes)

    # -------------------------------------------------------------- geometry
    @property
    def num_pes(self) -> int:
        """Total MAC units on the chip."""
        return self.config.num_cores * self.config.nr * self.config.nr

    def peak_gflops(self) -> float:
        """Peak throughput of the chip."""
        return 2.0 * self.num_pes * self.config.frequency_ghz

    # --------------------------------------------------------------- execute
    def run_gemm(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> Dict[str, object]:
        """Functionally execute ``C += A B`` across the cores.

        ``C`` is ``m x n``, ``A`` is ``m x k``, ``B`` is ``k x n``; all
        dimensions must be multiples of the core size.  Row panels of C/A are
        distributed round-robin over the cores; every core consumes the same
        B.  Returns the updated C, the per-core cycle counts and the chip
        cycle count (the busiest core, since cores run in lock step on a
        shared B panel).
        """
        cfg = self.config
        c = np.array(c, dtype=float, copy=True)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        m, k = a.shape
        if b.shape[0] != k or c.shape != (m, b.shape[1]):
            raise ValueError("operand shapes are inconsistent for GEMM")
        if m % cfg.nr or k % cfg.nr or b.shape[1] % cfg.nr:
            raise ValueError("all dimensions must be multiples of the core size nr")

        mc = max(cfg.nr, (m // (cfg.num_cores * cfg.nr)) * cfg.nr)
        assignments = self.scheduler.assign_panels(m, mc)
        per_core_cycles = [0] * cfg.num_cores
        for assignment in assignments:
            core = self.cores[assignment.core_index]
            rows = slice(assignment.row_start, assignment.row_end)
            result = lac_gemm(core, c[rows, :], a[rows, :], b)
            c[rows, :] = result.output
            per_core_cycles[assignment.core_index] += result.cycles
        chip_cycles = max(per_core_cycles) if per_core_cycles else 0
        total_flops = 2.0 * m * k * b.shape[1]
        return {
            "c": c,
            "per_core_cycles": per_core_cycles,
            "chip_cycles": chip_cycles,
            "total_flops": total_flops,
            "utilization": (total_flops / 2.0) / (chip_cycles * self.num_pes)
            if chip_cycles else 0.0,
        }

    # ----------------------------------------------------------------- model
    def model_gemm(self, n: int, mc: Optional[int] = None, kc: Optional[int] = None) -> ChipModelResult:
        """Evaluate the analytical chip model for an ``n x n x n`` GEMM."""
        cfg = self.config
        kc = kc if kc is not None else max(cfg.nr, min(256, n // 2 // cfg.nr * cfg.nr) or cfg.nr)
        mc = mc if mc is not None else kc
        z = self.offchip.bytes_per_cycle(cfg.frequency_ghz) / cfg.element_bytes
        return self.analytical.cycles_offchip(n, z, mc=mc, kc=kc)

    # ------------------------------------------------------------------ area
    def area_mm2(self) -> float:
        """Total chip area: PEs (MAC + stores + bus share) plus on-chip memory."""
        cfg = self.config
        fmac = cfg.fmac()
        store_a = pe_store_a(int(cfg.pe_store_a_kbytes * 1024))
        store_b = pe_store_b(int(cfg.pe_store_b_kbytes * 1024))
        from repro.hw.bus import BUS_AREA_PER_PE_MM2
        pe_area = fmac.area_mm2 + store_a.area_mm2 + store_b.area_mm2 + BUS_AREA_PER_PE_MM2
        return self.num_pes * pe_area + self.onchip_memory.area_mm2

    def describe(self) -> str:
        """One-line description of the chip configuration."""
        cfg = self.config
        return (f"LAP[{cfg.num_cores} x {cfg.nr}x{cfg.nr} PEs, "
                f"{cfg.precision.value}, {cfg.frequency_ghz:.2f} GHz, "
                f"{cfg.onchip_memory_mbytes:.1f} MB on-chip]: "
                f"peak {self.peak_gflops():.0f} GFLOPS, {self.area_mm2():.0f} mm^2")
