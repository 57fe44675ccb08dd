"""Efficiency metrics: GFLOPS/W, GFLOPS/mm^2, energy-delay and friends.

The dissertation picks its design points using a small set of metrics
(Section 3.6):

* power efficiency: GFLOPS per watt,
* area efficiency: GFLOPS per mm^2,
* power density: watts per mm^2,
* energy-delay: W / GFLOPS^2 (lower is better) and its inverse
  GFLOPS^2 / W (higher is better), used for the chip-level comparison in
  Table 4.2.

This module provides one small container computing all of them consistently
from (throughput, power, area, utilisation) tuples so that every table and
figure in the reproduction derives its numbers the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EfficiencyMetrics:
    """Efficiency metrics of one design point running one workload.

    Parameters
    ----------
    label:
        Name of the design point (e.g. "LAC (DP)", "Nvidia GTX480 SM").
    gflops:
        Achieved throughput in GFLOPS (already scaled by utilisation).
    power_w:
        Total power in watts attributable to that throughput.
    area_mm2:
        Silicon area in mm^2.
    utilization:
        Fraction of theoretical peak achieved (0..1].
    frequency_ghz:
        Operating frequency (optional, for reporting only).
    precision:
        "single" or "double" (optional, for reporting only).
    """

    label: str
    gflops: float
    power_w: float
    area_mm2: float
    utilization: float = 1.0
    frequency_ghz: Optional[float] = None
    precision: Optional[str] = None

    def __post_init__(self) -> None:
        if self.gflops < 0:
            raise ValueError(f"{self.label}: throughput must be non-negative")
        if self.power_w <= 0:
            raise ValueError(f"{self.label}: power must be positive")
        if self.area_mm2 <= 0:
            raise ValueError(f"{self.label}: area must be positive")
        if not (0.0 < self.utilization <= 1.0 + 1e-9):
            raise ValueError(f"{self.label}: utilization must lie in (0, 1]")

    # -------------------------------------------------------------- metrics
    @property
    def gflops_per_watt(self) -> float:
        """Power efficiency."""
        return self.gflops / self.power_w

    @property
    def gflops_per_mm2(self) -> float:
        """Area efficiency."""
        return self.gflops / self.area_mm2

    @property
    def watts_per_mm2(self) -> float:
        """Power density."""
        return self.power_w / self.area_mm2

    @property
    def energy_delay(self) -> float:
        """Energy-delay metric W / GFLOPS^2 (lower is better)."""
        if self.gflops == 0:
            return float("inf")
        return self.power_w / (self.gflops ** 2)

    @property
    def inverse_energy_delay(self) -> float:
        """Inverse energy-delay GFLOPS^2 / W (higher is better; Table 4.2)."""
        return (self.gflops ** 2) / self.power_w

    @property
    def mm2_per_gflop(self) -> float:
        """Area per unit throughput (Fig. 3.6/3.7 x-axis)."""
        if self.gflops == 0:
            return float("inf")
        return self.area_mm2 / self.gflops

    @property
    def mw_per_gflop(self) -> float:
        """Power per unit throughput in mW/GFLOPS (Fig. 3.6/3.7 y-axis)."""
        if self.gflops == 0:
            return float("inf")
        return 1e3 * self.power_w / self.gflops
