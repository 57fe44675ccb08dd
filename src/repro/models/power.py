"""Analytical power model: dynamic plus idle power over all components.

The dissertation's power methodology (Section 1.3.3) computes total power as
the sum over all architectural components of a dynamic term and an idle term::

    Power = sum_i Pmax_i * activity_i  +  sum_i Pmax_i * idle_ratio

Activity factors come either from the access patterns of the algorithm under
study (memories, buses) or are 0/1 depending on whether a component is used
at all (functional units, front-end structures).  Idle/leakage power is a
calibrated constant fraction of the dynamic power (25--30% depending on the
technology).

This module provides the generic aggregation machinery plus the breakdown
container used to reproduce the normalised power-breakdown figures
(Figs. 4.13--4.15) and the efficiency comparisons (Fig. 4.16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List


@dataclass(frozen=True)
class PowerComponent:
    """One architectural component in the power model.

    Parameters
    ----------
    name:
        Component name as it appears in the breakdown figures (e.g. "FPUs",
        "Register File", "Shared Memory / L1", "Instruction Cache").
    max_power_w:
        Maximum (fully active) dynamic power of the component in watts.
    activity:
        Activity factor in [0, 1]; memories use the access-rate derived
        factor, logic uses 0 or 1.
    category:
        Coarse grouping used for normalised breakdown plots
        ("compute", "memory", "overhead", "interconnect", "io").
    essential:
        Whether the component does useful work for GEMM (FPUs, data
        memories) or is pure overhead from the matrix-computation viewpoint
        (instruction handling, register file shuffling, caches' tag logic).
    """

    name: str
    max_power_w: float
    activity: float = 1.0
    category: str = "compute"
    essential: bool = True

    def __post_init__(self) -> None:
        if self.max_power_w < 0:
            raise ValueError(f"max power must be non-negative ({self.name})")
        if not (0.0 <= self.activity <= 1.0):
            raise ValueError(f"activity factor must lie in [0,1] ({self.name}: {self.activity})")

    @property
    def dynamic_power_w(self) -> float:
        """Dynamic power contribution of the component."""
        return self.max_power_w * self.activity


@dataclass
class PowerBreakdown:
    """Aggregated power numbers for one architecture running one workload."""

    label: str
    components: List[PowerComponent]
    idle_ratio: float
    gflops: float = 0.0

    @property
    def dynamic_power_w(self) -> float:
        """Total dynamic power."""
        return sum(c.dynamic_power_w for c in self.components)

    @property
    def idle_power_w(self) -> float:
        """Total idle (leakage) power."""
        return self.dynamic_power_w * self.idle_ratio

    @property
    def total_power_w(self) -> float:
        """Dynamic + idle power."""
        return self.dynamic_power_w + self.idle_power_w

    @property
    def gflops_per_watt(self) -> float:
        """Achieved efficiency (0 when no throughput was recorded)."""
        return self.gflops / self.total_power_w if self.total_power_w > 0 else 0.0

    def by_component(self) -> Dict[str, float]:
        """Dynamic power per component name (idle power listed separately)."""
        out: Dict[str, float] = {}
        for c in self.components:
            out[c.name] = out.get(c.name, 0.0) + c.dynamic_power_w
        out["Idle/Leakage"] = self.idle_power_w
        return out

    def normalized_by_performance(self) -> Dict[str, float]:
        """W/GFLOPS per component -- the quantity plotted in Figs. 4.13-4.15."""
        if self.gflops <= 0:
            raise ValueError(f"breakdown '{self.label}' has no recorded throughput")
        return {name: watts / self.gflops for name, watts in self.by_component().items()}


class PowerModel:
    """Builds :class:`PowerBreakdown` objects from component inventories.

    Parameters
    ----------
    idle_ratio:
        Idle power as a fraction of dynamic power (0.25--0.30 in the paper).
    """

    def __init__(self, idle_ratio: float = 0.25):
        if not (0.0 <= idle_ratio <= 1.0):
            raise ValueError("idle ratio must lie in [0, 1]")
        self.idle_ratio = idle_ratio

    def breakdown(self, label: str, components: Iterable[PowerComponent],
                  gflops: float = 0.0) -> PowerBreakdown:
        """Aggregate a set of components into a breakdown."""
        comps = list(components)
        if not comps:
            raise ValueError("at least one component is required")
        if gflops < 0:
            raise ValueError("throughput must be non-negative")
        return PowerBreakdown(label=label, components=comps,
                              idle_ratio=self.idle_ratio, gflops=gflops)
