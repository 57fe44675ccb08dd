"""The Linear Algebra Processor: multiple LACs plus on-chip memory.

:class:`LinearAlgebraProcessor` is the chip the task-graph runtime
schedules on: it owns ``S`` :class:`repro.lac.core.LinearAlgebraCore`
instances, a shared :class:`repro.hw.memory.OnChipMemory` and an
:class:`repro.hw.memory.OffChipInterface`, all derived from one
:class:`LAPConfig`.  Multi-core execution is
:meth:`repro.lap.runtime.LAPRuntime.run_blocked_gemm` and its
factorization siblings; the chip's area and power design point is
:class:`repro.arch.lap_design.LAPDesignPoint` (with the Chapter 4 power
breakdown in :func:`repro.arch.breakdowns.lap_breakdown`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.hw.fpu import FMACUnit, Precision
from repro.hw.memory import OffChipInterface, OnChipMemory
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.lac.pe import PEConfig


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
            raise ValueError(f"num_cores must be at least 1, got {self.num_cores}")
        if not (math.isfinite(self.frequency_ghz) and self.frequency_ghz > 0):
            raise ValueError(f"frequency must be a positive finite number of "
                             f"GHz, got {self.frequency_ghz}")
        for name, unit in (("pe_store_a_kbytes", "KB"), ("pe_store_b_kbytes", "KB"),
                           ("onchip_memory_mbytes", "MB")):
            size = getattr(self, name)
            if not (math.isfinite(size) and size > 0):
                raise ValueError(f"{name} must be a positive finite number of "
                                 f"{unit}, got {size}")

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
    """A multi-core LAP: its cores, shared on-chip memory and off-chip link."""

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
