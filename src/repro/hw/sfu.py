"""Special function units: reciprocal, square root, inverse square root, divide.

TRSM needs a reciprocal (1/x), Cholesky needs an inverse square root
(1/sqrt(x)), LU with partial pivoting needs a reciprocal of the pivot, and the
Householder QR / vector-norm kernel needs square roots and divisions.  The
dissertation (Chapter 6 and Appendix A) studies three ways of providing these
operations on the LAC:

``SW``
    a micro-programmed Goldschmidt iteration running on the existing MAC unit
    of a PE (no extra hardware, many extra cycles);
``ISOLATE``
    one dedicated divide/square-root unit per core, shared over the column
    buses (the "SFU" in the core diagram);
``DIAGONAL``
    extending the MAC units of the diagonal PEs with the small amount of
    extra logic (lookup table + control) needed to run the special functions
    natively.

This module models latency, area and energy for each option, using a
Goldschmidt-style iteration count derived from the seed accuracy of a minimax
lookup table, which is how the referenced divide/square-root design operates.
It models cost only: the functional simulator computes the values itself
(:meth:`repro.lac.core.LinearAlgebraCore.special`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hw.fpu import FMACUnit, Precision


class SFUPlacement(enum.Enum):
    """Where the divide/square-root capability lives in the core."""

    SOFTWARE = "sw"          #: micro-programmed on the PE MAC units
    ISOLATED = "isolate"     #: one shared unit per core
    DIAGONAL = "diag"        #: MAC extensions on the diagonal PEs


class SpecialOp(enum.Enum):
    """The special operations required by the factorization kernels."""

    RECIPROCAL = "recip"          # 1/x        (TRSM, LU)
    INV_SQRT = "inv_sqrt"         # 1/sqrt(x)  (Cholesky)
    SQRT = "sqrt"                 # sqrt(x)    (vector norm)
    DIVIDE = "div"                # y/x        (Householder)


@dataclass(frozen=True)
class GoldschmidtDivider:
    """Iterative divide/square-root engine built on multiply-accumulate.

    Goldschmidt's algorithm refines a lookup-table seed quadratically: a seed
    accurate to ``seed_bits`` bits reaches ``seed_bits * 2**k`` bits after
    ``k`` iterations, and each iteration costs two fused multiplies (plus one
    extra multiply for square root).  The referenced hardware design uses a
    minimax lookup table good to roughly 13 bits, which needs 2 iterations for
    single precision (24-bit mantissa) and 3 for double (53-bit mantissa).
    """

    precision: Precision = Precision.DOUBLE
    seed_bits: int = 13
    mac_latency_cycles: int = 5

    def __post_init__(self) -> None:
        if self.seed_bits < 4:
            raise ValueError("seed table must provide at least 4 bits of accuracy")

    @property
    def target_bits(self) -> int:
        """Mantissa bits that must be produced (24 for SP, 53 for DP)."""
        return 24 if self.precision is Precision.SINGLE else 53

    @property
    def iterations(self) -> int:
        """Number of Goldschmidt iterations required for full precision."""
        bits = self.seed_bits
        it = 0
        while bits < self.target_bits:
            bits *= 2
            it += 1
        return it

    def latency_cycles(self, op: SpecialOp) -> int:
        """Latency of one special operation in cycles.

        Each iteration issues two dependent fused multiplies (three for
        square-root flavoured operations), each of which traverses the MAC
        pipeline; the table lookup and final rounding add a couple of cycles.
        """
        per_iter_macs = 3 if op in (SpecialOp.INV_SQRT, SpecialOp.SQRT) else 2
        return 2 + self.iterations * per_iter_macs * self.mac_latency_cycles

    def mac_operations(self, op: SpecialOp) -> int:
        """Number of MAC-equivalent operations consumed by one special op."""
        per_iter_macs = 3 if op in (SpecialOp.INV_SQRT, SpecialOp.SQRT) else 2
        return self.iterations * per_iter_macs + 1  # +1 for the final scaling


# Area/power calibration for the dedicated (isolated or diagonal) options.
# The isolated unit is roughly the size of a double-precision FMAC plus the
# lookup tables; the diagonal-PE extension reuses the existing MAC and only
# pays for the lookup table and the small amount of extra control.
_LOOKUP_TABLE_AREA_MM2 = {Precision.SINGLE: 0.004, Precision.DOUBLE: 0.008}
_LOOKUP_TABLE_POWER_MW = {Precision.SINGLE: 1.0, Precision.DOUBLE: 2.2}
_ISOLATED_CONTROL_AREA_MM2 = 0.006
_DIAGONAL_CONTROL_AREA_MM2 = 0.002
_DIAGONAL_CONTROL_POWER_MW = 0.5


@dataclass(frozen=True)
class SpecialFunctionUnit:
    """A divide / square-root / reciprocal capability for a LAC.

    Parameters
    ----------
    placement:
        Which of the three architecture options provides the capability.
    precision:
        Operating precision.
    frequency_ghz:
        Clock of the hosting core.
    nr:
        Core dimension (at least 2, as for every LAC); the diagonal option
        replicates the extension on the ``nr`` diagonal PEs, the isolated
        option instantiates exactly one unit per core.
    mac_pipeline_stages:
        Pipeline depth of the underlying MAC units (drives iteration latency).
    """

    placement: SFUPlacement = SFUPlacement.ISOLATED
    precision: Precision = Precision.DOUBLE
    frequency_ghz: float = 1.0
    nr: int = 4
    mac_pipeline_stages: int = 5
    divider: GoldschmidtDivider = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.nr < 2:
            raise ValueError("core dimension nr must be >= 2")
        if self.divider is None:
            object.__setattr__(
                self,
                "divider",
                GoldschmidtDivider(precision=self.precision,
                                   mac_latency_cycles=self.mac_pipeline_stages),
            )

    # --------------------------------------------------------------- latency
    def latency_cycles(self, op: SpecialOp) -> int:
        """Latency in cycles to produce one result of ``op``.

        The dedicated hardware options pipeline the iterations tightly (the
        unit is built for exactly this recurrence), whereas the software
        option pays the full dependent-MAC latency for every iteration and an
        additional micro-code dispatch overhead.
        """
        base = self.divider.latency_cycles(op)
        if self.placement is SFUPlacement.SOFTWARE:
            return base + 4  # micro-code sequencing overhead
        # Dedicated units overlap the two multiplies of an iteration.
        dedicated = 2 + self.divider.iterations * self.mac_pipeline_stages
        if op in (SpecialOp.INV_SQRT, SpecialOp.SQRT):
            dedicated += self.divider.iterations  # extra squaring step
        return dedicated

    def occupies_pe_mac(self) -> bool:
        """Whether a special op steals cycles from the PE MAC units."""
        return self.placement is SFUPlacement.SOFTWARE

    # ------------------------------------------------------------------ area
    @property
    def area_mm2(self) -> float:
        """Total extra area the option adds to one core."""
        lut = _LOOKUP_TABLE_AREA_MM2[self.precision]
        if self.placement is SFUPlacement.SOFTWARE:
            return 0.0
        if self.placement is SFUPlacement.ISOLATED:
            fmac = FMACUnit(precision=self.precision, frequency_ghz=self.frequency_ghz)
            return fmac.area_mm2 + lut + _ISOLATED_CONTROL_AREA_MM2
        # DIAGONAL: nr copies of (lookup table + small control), MAC reused.
        return self.nr * (lut + _DIAGONAL_CONTROL_AREA_MM2)

    # ----------------------------------------------------------------- power
    @property
    def active_power_w(self) -> float:
        """Power drawn while a special operation is in flight."""
        lut_mw = _LOOKUP_TABLE_POWER_MW[self.precision]
        fmac = FMACUnit(precision=self.precision, frequency_ghz=self.frequency_ghz)
        if self.placement is SFUPlacement.SOFTWARE:
            # The PE MAC is already accounted for; only bookkeeping power here.
            return 0.1e-3
        if self.placement is SFUPlacement.ISOLATED:
            return fmac.dynamic_power_w + lut_mw * 1e-3
        return (lut_mw + _DIAGONAL_CONTROL_POWER_MW) * 1e-3

    @property
    def idle_power_w(self) -> float:
        """Leakage of the added hardware (zero for the software option)."""
        if self.placement is SFUPlacement.SOFTWARE:
            return 0.0
        return self.active_power_w * 0.25

    def energy_per_op_j(self, op: SpecialOp) -> float:
        """Dynamic energy of one special operation in joules."""
        cycles = self.latency_cycles(op)
        seconds = cycles / (self.frequency_ghz * 1e9)
        if self.placement is SFUPlacement.SOFTWARE:
            # Software runs the iterations on the PE's own MAC unit.
            fmac = FMACUnit(precision=self.precision, frequency_ghz=self.frequency_ghz)
            return self.divider.mac_operations(op) * fmac.energy_per_mac_j
        return self.active_power_w * seconds
