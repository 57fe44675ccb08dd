"""Technology scaling of published architecture measurements.

The comparison tables mix architectures manufactured in different technology
nodes (Cell at 65 nm, ClearSpeed CSX700 at 90 nm, GTX280 at 65 nm, ...).  The
dissertation brings every number to 45 nm before comparing; this module makes
that step explicit and testable: given a published measurement (throughput,
power, area, node) it produces the 45 nm-equivalent figures using the scaling
rules of :mod:`repro.hw.technology`, and records both views so reports can
show the provenance of every scaled number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hw.technology import (KNOWN_NODES, TECH_45NM, TechnologyNode, scale_area,
                                 scale_power)


@dataclass(frozen=True)
class PublishedMeasurement:
    """One published data point for an architecture running a workload."""

    name: str
    workload: str
    node: TechnologyNode
    gflops: float
    power_w: float
    area_mm2: float
    frequency_ghz: Optional[float] = None
    utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.gflops < 0 or self.power_w <= 0 or self.area_mm2 <= 0:
            raise ValueError(f"invalid published measurement for {self.name}")
        if not (0.0 < self.utilization <= 1.0):
            raise ValueError(f"utilization out of range for {self.name}")


@dataclass(frozen=True)
class ScaledMeasurement:
    """A published measurement scaled to a target technology node."""

    original: PublishedMeasurement
    target_node: TechnologyNode
    gflops: float
    power_w: float
    area_mm2: float
    frequency_ghz: Optional[float]

    @property
    def gflops_per_watt(self) -> float:
        return self.gflops / self.power_w

    @property
    def gflops_per_mm2(self) -> float:
        return self.gflops / self.area_mm2

    def as_row(self) -> Dict[str, object]:
        """Provenance row: published values next to the scaled ones."""
        return {
            "architecture": self.original.name,
            "workload": self.original.workload,
            "published_node": self.original.node.name,
            "published_gflops": self.original.gflops,
            "published_power_w": self.original.power_w,
            "published_area_mm2": self.original.area_mm2,
            "scaled_node": self.target_node.name,
            "scaled_gflops": round(self.gflops, 1),
            "scaled_power_w": round(self.power_w, 2),
            "scaled_area_mm2": round(self.area_mm2, 1),
            "scaled_gflops_per_w": round(self.gflops_per_watt, 2),
            "scaled_gflops_per_mm2": round(self.gflops_per_mm2, 3),
        }


def scale_measurement(measurement: PublishedMeasurement,
                      target: TechnologyNode = TECH_45NM) -> ScaledMeasurement:
    """Scale one published measurement to the target node.

    The design keeps its original clock, as the paper's comparisons do: area
    shrinks quadratically, power shrinks with the capacitance/voltage
    product, and throughput is unchanged.
    """
    node = measurement.node
    area = scale_area(measurement.area_mm2, node, target)
    power = scale_power(measurement.power_w, node, target, same_frequency=True)
    return ScaledMeasurement(original=measurement, target_node=target,
                             gflops=measurement.gflops, power_w=power,
                             area_mm2=area,
                             frequency_ghz=measurement.frequency_ghz)


#: Published measurements used by the comparison tables, in their native nodes.
PUBLISHED_MEASUREMENTS: List[PublishedMeasurement] = [
    PublishedMeasurement("Cell BE (8 SPE)", "SGEMM", KNOWN_NODES["65nm"],
                         gflops=200.0, power_w=70.0, area_mm2=230.0,
                         frequency_ghz=3.2, utilization=0.88),
    PublishedMeasurement("Nvidia GTX280", "SGEMM", KNOWN_NODES["65nm"],
                         gflops=410.0, power_w=236.0, area_mm2=576.0,
                         frequency_ghz=1.30, utilization=0.66),
    PublishedMeasurement("ClearSpeed CSX700", "DGEMM", KNOWN_NODES["90nm"],
                         gflops=75.0, power_w=12.0, area_mm2=400.0,
                         frequency_ghz=0.25, utilization=0.78),
    PublishedMeasurement("Nvidia GTX480", "DGEMM", KNOWN_NODES["45nm"],
                         gflops=470.0, power_w=220.0, area_mm2=529.0,
                         frequency_ghz=1.40, utilization=0.70),
    PublishedMeasurement("Intel Penryn (2 cores)", "DGEMM", KNOWN_NODES["45nm"],
                         gflops=20.0, power_w=34.0, area_mm2=107.0,
                         frequency_ghz=2.66, utilization=0.95),
]


def scaled_comparison_rows(target: TechnologyNode = TECH_45NM) -> List[Dict[str, object]]:
    """Scale every published measurement to the target node (provenance table)."""
    return [scale_measurement(m, target).as_row() for m in PUBLISHED_MEASUREMENTS]
