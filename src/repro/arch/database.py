"""Published specifications of the comparison architectures.

The dissertation's comparison tables (core level and chip level) combine its
own LAC/LAP estimates with numbers for existing architectures taken from the
literature and scaled to 45 nm: Cell SPEs, NVidia GTX280/GTX480 streaming
multiprocessors, the Rigel accelerator cluster, Intel's 80-tile NoC research
chip, Intel Penryn / Core i7 / quad-core CPUs, IBM Power7, Altera Stratix IV
FPGAs and the ClearSpeed CSX700.  This module records those reference data
points in one place (as the paper treats them: fixed published inputs) and
provides the table generators built on top of them.

The numbers stored here are the 45 nm-scaled values the comparison tables
report (throughput when running GEMM, power density, areal and power
efficiency, achieved utilisation).  They intentionally mirror the magnitudes
of the published tables so that the reproduction's qualitative claims --
which architecture wins, and by roughly what factor -- can be asserted by the
paper-claim tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ArchitectureSpec:
    """One comparison architecture running GEMM (45 nm-scaled numbers).

    ``scope`` distinguishes core-level entries (a single SPE / SM / LAC) from
    chip-level entries (the whole processor).
    """

    name: str
    scope: str                    #: "core" or "chip"
    precision: str                #: "single" or "double"
    gflops: float                 #: achieved GEMM throughput
    watts_per_mm2: float
    gflops_per_mm2: float
    gflops_per_watt: float
    utilization: float
    is_lap: bool = False

    @property
    def inverse_energy_delay(self) -> float:
        """GFLOPS^2 / W."""
        return self.gflops * self.gflops_per_watt


# --------------------------------------------------------------------------
# Core-level comparison (single core / SM / SPE running GEMM, 45 nm scaled).
# --------------------------------------------------------------------------
_CORE_LEVEL: List[ArchitectureSpec] = [
    ArchitectureSpec("Cell SPE", "core", "single", 25.6, 0.4, 6.4, 16.0, 0.83),
    ArchitectureSpec("Nvidia GTX280 SM", "core", "single", 31.0, 0.6, 3.1, 5.3, 0.66),
    ArchitectureSpec("Rigel cluster", "core", "single", 33.0, 0.3, 4.5, 15.0, 0.40),
    ArchitectureSpec("80-Tile @0.8V", "core", "single", 2.4, 0.2, 1.2, 8.3, 0.38),
    ArchitectureSpec("Nvidia GTX480 SM", "core", "single", 46.0, 0.5, 4.5, 8.4, 0.70),
    ArchitectureSpec("Altera Stratix IV", "core", "single", 200.0, 0.02, 0.1, 7.0, 0.90),
    ArchitectureSpec("LAC (SP)", "core", "single", 30.4, 0.2, 19.5, 104.0, 0.95, is_lap=True),
    ArchitectureSpec("Intel Core", "core", "double", 10.6, 0.5, 0.4, 0.85, 0.95),
    ArchitectureSpec("Nvidia GTX480 SM (DP)", "core", "double", 23.0, 0.5, 2.0, 4.1, 0.70),
    ArchitectureSpec("Altera Stratix IV (DP)", "core", "double", 100.0, 0.02, 0.05, 3.5, 0.90),
    ArchitectureSpec("ClearSpeed CSX700", "core", "double", 75.0, 0.02, 0.28, 12.5, 0.78),
    ArchitectureSpec("LAC (DP)", "core", "double", 15.2, 0.3, 15.6, 47.0, 0.95, is_lap=True),
]

# --------------------------------------------------------------------------
# Chip-level comparison (whole processors running GEMM, 45 nm scaled).
# --------------------------------------------------------------------------
_CHIP_LEVEL: List[ArchitectureSpec] = [
    ArchitectureSpec("Cell", "chip", "single", 200.0, 0.3, 1.5, 5.0, 0.88),
    ArchitectureSpec("Nvidia GTX280", "chip", "single", 410.0, 0.3, 0.8, 2.6, 0.66),
    ArchitectureSpec("Rigel", "chip", "single", 850.0, 0.3, 3.2, 10.7, 0.40),
    ArchitectureSpec("80-Tile @0.8V", "chip", "single", 175.0, 0.2, 1.2, 6.6, 0.38),
    ArchitectureSpec("80-Tile @1.07V", "chip", "single", 380.0, 0.7, 2.66, 3.8, 0.38),
    ArchitectureSpec("Nvidia GTX480", "chip", "single", 940.0, 0.2, 0.9, 5.2, 0.70),
    ArchitectureSpec("Core i7-960", "chip", "single", 96.0, 0.4, 0.50, 1.14, 0.95),
    ArchitectureSpec("Altera Stratix IV", "chip", "single", 200.0, 0.02, 0.1, 7.0, 0.90),
    ArchitectureSpec("LAP (SP)", "chip", "single", 1200.0, 0.2, 8.5, 42.0, 0.90, is_lap=True),
    ArchitectureSpec("Intel Quad-Core", "chip", "double", 40.0, 0.5, 0.4, 0.8, 0.95),
    ArchitectureSpec("Intel Penryn", "chip", "double", 20.0, 0.4, 0.2, 0.6, 0.95),
    ArchitectureSpec("IBM Power7", "chip", "double", 230.0, 0.5, 0.5, 1.0, 0.95),
    ArchitectureSpec("Nvidia GTX480 (DP)", "chip", "double", 470.0, 0.2, 0.5, 2.6, 0.70),
    ArchitectureSpec("Core i7-960 (DP)", "chip", "double", 48.0, 0.4, 0.25, 0.57, 0.95),
    ArchitectureSpec("Altera Stratix IV (DP)", "chip", "double", 100.0, 0.02, 0.05, 3.5, 0.90),
    ArchitectureSpec("ClearSpeed CSX700", "chip", "double", 75.0, 0.02, 0.2, 12.5, 0.78),
    ArchitectureSpec("LAP (DP)", "chip", "double", 600.0, 0.2, 4.0, 20.0, 0.90, is_lap=True),
]


def core_level_specs(precision: Optional[str] = None) -> List[ArchitectureSpec]:
    """Core-level comparison entries, optionally filtered by precision."""
    return [s for s in _CORE_LEVEL if precision is None or s.precision == precision]


def chip_level_specs(precision: Optional[str] = None) -> List[ArchitectureSpec]:
    """Chip-level comparison entries, optionally filtered by precision."""
    return [s for s in _CHIP_LEVEL if precision is None or s.precision == precision]


def design_choice_comparison() -> List[Dict[str, str]]:
    """The qualitative design-choice comparison between CPUs, GPUs and the LAP.

    Each row describes one design dimension and how the three platform
    classes handle it (the content of the dissertation's design-choices
    table, condensed to machine-checkable categories).
    """
    return [
        {"aspect": "Instruction pipeline",
         "cpu": "instruction cache, out-of-order, branch prediction",
         "gpu": "instruction cache, in-order, multithreaded issue",
         "lap": "no instructions (micro-coded state machines)"},
        {"aspect": "Execution unit",
         "cpu": "1D SIMD + register file",
         "gpu": "2D SIMD + register file",
         "lap": "2D MAC array + local SRAM per FPU"},
        {"aspect": "Register file",
         "cpu": "many-ported",
         "gpu": "multi-ported, very large",
         "lap": "tiny single-ported, usually bypassed"},
        {"aspect": "On-chip memory",
         "cpu": "large coherent caches",
         "gpu": "small caches, weak coherency",
         "lap": "large plain SRAM, tightly coupled banks"},
        {"aspect": "Multithreading",
         "cpu": "simultaneous multithreading",
         "gpu": "blocked multithreading",
         "lap": "not needed (static schedule)"},
        {"aspect": "Bandwidth per FPU",
         "cpu": "high",
         "gpu": "high",
         "lap": "low (sufficient by design)"},
        {"aspect": "Memory per FPU",
         "cpu": "high",
         "gpu": "low (inadequate)",
         "lap": "high"},
    ]
