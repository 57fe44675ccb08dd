"""Fused multiply-accumulate (FMAC) unit model.

The heart of every LAC processing element is a pipelined fused
multiply-accumulate unit with a local accumulator register and delayed
normalization (normalization is postponed until the final accumulation of an
inner product), which gives a throughput of one MAC per cycle and saves
roughly 15% of the unit power relative to a conventional FMA.

The dissertation does not design the FPU itself; it uses area and power
numbers published in the literature (Galal & Horowitz-style studies) for
45 nm implementations:

* single precision: ~0.01 mm^2, 8-10 mW at ~1 GHz / 0.8 V,
* double precision: ~0.04 mm^2, 40-50 mW at ~1 GHz / 0.8 V,
* pipeline depth between 5 and 9 stages.

This module wraps those constants in a small model that can be evaluated at
arbitrary frequencies (Table 3.1 sweeps 0.2 to 2.08 GHz) and exposes optional
micro-architecture extensions used in Chapter 6 / Appendix A:

* an extra exponent bit in the accumulator (overflow/underflow-safe vector
  norm), and
* a comparator attached to the accumulator path (pivot search for LU).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.hw.technology import OperatingPoint, TechnologyNode, TECH_45NM


class Precision(enum.Enum):
    """Floating-point precision of a functional unit."""

    SINGLE = "single"
    DOUBLE = "double"

    @property
    def bytes(self) -> int:
        """Width of one element in bytes."""
        return 4 if self is Precision.SINGLE else 8

    @property
    def bits(self) -> int:
        """Width of one element in bits."""
        return 8 * self.bytes


# Calibration constants at the reference point (1 GHz, 0.8 V, 45 nm).
_REFERENCE_POINT = OperatingPoint(frequency_ghz=1.0, vdd=0.8, node=TECH_45NM)

#: Area in mm^2 of a bare FMAC datapath at 45 nm.
_FMAC_AREA_MM2 = {Precision.SINGLE: 0.010, Precision.DOUBLE: 0.040}

#: Dynamic power in mW at the reference operating point.
_FMAC_POWER_MW = {Precision.SINGLE: 8.9, Precision.DOUBLE: 32.0}

#: Relative power saving from single-cycle accumulation / delayed normalization.
_DELAYED_NORMALIZATION_SAVING = 0.15

#: Relative area overhead of the comparator extension (pivot search).
_COMPARATOR_AREA_OVERHEAD = 0.03
#: Relative power overhead of the comparator extension when active.
_COMPARATOR_POWER_OVERHEAD = 0.02

#: Relative area overhead of widening the accumulator exponent by one bit.
_EXPONENT_EXT_AREA_OVERHEAD = 0.015
#: Relative power overhead of the exponent extension.
_EXPONENT_EXT_POWER_OVERHEAD = 0.01


@dataclass(frozen=True)
class FMACUnit:
    """A pipelined fused multiply-accumulate unit.

    Parameters
    ----------
    precision:
        Single or double precision.
    pipeline_stages:
        Number of pipeline stages (the paper uses designs with 5--9 stages;
        its TRSM/Cholesky discussions assume ``p`` stages and the stacked
        TRSM example uses ``p = 8``).
    frequency_ghz:
        Clock frequency of the unit.
    delayed_normalization:
        Whether the unit uses single-cycle accumulation with delayed
        normalization (the LAC design point does; conventional SIMD FPUs in
        CPUs/GPUs do not).
    has_comparator:
        Extension: comparator on the accumulate path used to locate pivots
        during LU factorization without extra instructions.
    extended_exponent:
        Extension: one extra exponent bit in the accumulator so that vector
        norms can be accumulated without the scaling pass that guards
        against overflow/underflow.
    node:
        Technology node; defaults to 45 nm.
    """

    precision: Precision = Precision.DOUBLE
    pipeline_stages: int = 5
    frequency_ghz: float = 1.0
    delayed_normalization: bool = True
    has_comparator: bool = False
    extended_exponent: bool = False
    node: TechnologyNode = TECH_45NM

    def __post_init__(self) -> None:
        if not (1 <= self.pipeline_stages <= 16):
            raise ValueError(f"pipeline_stages out of range: {self.pipeline_stages}")
        if not (math.isfinite(self.frequency_ghz) and self.frequency_ghz > 0):
            raise ValueError(f"frequency must be a positive finite number of "
                             f"GHz, got {self.frequency_ghz}")

    # ------------------------------------------------------------------ area
    @property
    def area_mm2(self) -> float:
        """Silicon area of the unit in mm^2 (including extensions)."""
        area = _FMAC_AREA_MM2[self.precision]
        if self.has_comparator:
            area *= 1.0 + _COMPARATOR_AREA_OVERHEAD
        if self.extended_exponent:
            area *= 1.0 + _EXPONENT_EXT_AREA_OVERHEAD
        return area

    # ----------------------------------------------------------------- power
    @property
    def operating_point(self) -> OperatingPoint:
        """The (frequency, voltage) operating point of the unit."""
        return OperatingPoint.at_frequency(self.frequency_ghz, node=self.node)

    @property
    def dynamic_power_w(self) -> float:
        """Dynamic power in watts when issuing one MAC per cycle."""
        base_mw = _FMAC_POWER_MW[self.precision]
        if not self.delayed_normalization:
            base_mw /= 1.0 - _DELAYED_NORMALIZATION_SAVING
        if self.has_comparator:
            base_mw *= 1.0 + _COMPARATOR_POWER_OVERHEAD
        if self.extended_exponent:
            base_mw *= 1.0 + _EXPONENT_EXT_POWER_OVERHEAD
        scale = self.operating_point.dynamic_power_scale(_REFERENCE_POINT)
        return base_mw * scale * 1e-3

    @property
    def energy_per_mac_j(self) -> float:
        """Dynamic energy of a single MAC operation in joules."""
        cycles_per_second = self.frequency_ghz * 1e9
        return self.dynamic_power_w / cycles_per_second

    @property
    def idle_power_w(self) -> float:
        """Leakage/idle power modelled as a technology-dependent fraction."""
        return self.dynamic_power_w * self.node.leakage_fraction
