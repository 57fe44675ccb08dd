"""Off-chip traffic accounting for the LAP.

Separates the external-memory view of a GEMM from the on-chip execution: how
many bytes cross the chip boundary, at what rate they must arrive to keep the
cores busy, and what happens when the on-chip memory is too small to hold the
whole block of C (the extra blocking layer of Section 4.2.3).

The byte counts are the closed form of a streamed monolithic GEMM.  With
every tile resident it is also the limit of the scheduler's tile-residency
model (:mod:`repro.lap.memory`): a large-capacity run of the tiled GEMM
graph moves exactly these bytes, which the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import OffChipInterface


@dataclass(frozen=True)
class TrafficSummary:
    """Bytes moved across the chip boundary for one GEMM problem."""

    n: int
    element_bytes: int
    a_bytes: float
    b_bytes: float
    c_read_bytes: float
    c_write_bytes: float

    def __post_init__(self) -> None:
        if self.element_bytes <= 0:
            raise ValueError("element bytes must be positive")
        if min(self.a_bytes, self.b_bytes, self.c_read_bytes,
               self.c_write_bytes) < 0:
            raise ValueError("byte counts must be non-negative")

    @property
    def total_bytes(self) -> float:
        """Total off-chip traffic."""
        return self.a_bytes + self.b_bytes + self.c_read_bytes + self.c_write_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of off-chip traffic.

        Degenerate problems (``n <= 0`` or nothing moved) report ``0.0``
        rather than ``inf`` so downstream ratios and sweep rows stay finite.
        """
        flops = 2.0 * float(self.n) ** 3
        if self.n <= 0 or self.total_bytes <= 0:
            return 0.0
        return flops / self.total_bytes


class OffChipTrafficModel:
    """Computes off-chip traffic and transfer-limited performance bounds."""

    def __init__(self, num_cores: int, nr: int = 4, element_bytes: int = 8):
        if num_cores < 1:
            raise ValueError("need at least one core")
        if element_bytes <= 0:
            raise ValueError("element bytes must be positive")
        self.num_cores = num_cores
        self.nr = nr
        self.element_bytes = element_bytes

    def traffic(self, n: int, onchip_fraction_of_c: float = 1.0) -> TrafficSummary:
        """Off-chip traffic of a square ``n x n x n`` GEMM.

        The canonical LAP blocking keeps a block of C resident and streams
        the panels of A and B past it.  ``onchip_fraction_of_c`` in (0, 1]
        says what fraction of the C block can be kept resident; smaller
        fractions mean the panels of A and B are re-streamed once per
        resident sub-block (``1/fraction`` times).  C is read and written
        exactly once either way.
        """
        if n <= 0:
            raise ValueError("problem size must be positive")
        if not (0.0 < onchip_fraction_of_c <= 1.0):
            raise ValueError("the resident fraction of C must lie in (0, 1]")
        matrix_bytes = float(n) * n * self.element_bytes
        streamed = matrix_bytes * (1.0 / onchip_fraction_of_c)
        return TrafficSummary(n=n, element_bytes=self.element_bytes,
                              a_bytes=streamed, b_bytes=streamed,
                              c_read_bytes=matrix_bytes,
                              c_write_bytes=matrix_bytes)

    def bandwidth_bound_gflops(self, n: int, interface: OffChipInterface,
                               onchip_fraction_of_c: float = 1.0) -> float:
        """Upper bound on GFLOPS imposed by the off-chip interface alone."""
        summary = self.traffic(n, onchip_fraction_of_c)
        seconds = summary.total_bytes / (interface.bandwidth_gbytes_per_sec * 1e9)
        flops = 2.0 * float(n) ** 3
        return flops / seconds / 1e9 if seconds > 0 else float("inf")

    def compute_bound_gflops(self, frequency_ghz: float) -> float:
        """Upper bound imposed by the MAC throughput of the cores."""
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        return 2.0 * self.num_cores * self.nr * self.nr * frequency_ghz

    def roofline_gflops(self, n: int, interface: OffChipInterface, frequency_ghz: float,
                        onchip_fraction_of_c: float = 1.0) -> float:
        """Roofline-style achievable GFLOPS: min(compute bound, bandwidth bound)."""
        return min(self.compute_bound_gflops(frequency_ghz),
                   self.bandwidth_bound_gflops(n, interface, onchip_fraction_of_c))

    def transfer_energy_j(self, n: int, interface: OffChipInterface,
                          onchip_fraction_of_c: float = 1.0) -> float:
        """Energy spent moving the problem across the chip boundary."""
        return interface.transfer_energy_j(self.traffic(n, onchip_fraction_of_c).total_bytes)
