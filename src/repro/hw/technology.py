"""CMOS technology nodes and scaling rules.

The dissertation evaluates the LAC/LAP in standard bulk CMOS at 45 nm, and
scales published numbers for competitor architectures (Cell at 65/45 nm,
ClearSpeed CSX700 at 90 nm, NVidia GTX280 at 65 nm, ...) to a common node
before comparing them.  This module provides a small, explicit model of those
scaling rules so that every table in the evaluation can state exactly how a
published number was brought to 45 nm.

The scaling rules follow the classical (constant-field inspired) assumptions
the paper uses when it says "scaled to 45nm technology":

* linear dimension scales with the node ratio ``s = node_from / node_to``;
* area scales with ``s**2``;
* capacitance (and hence dynamic energy per operation at constant voltage)
  scales roughly linearly with ``s``;
* achievable frequency improves roughly linearly with ``1/s`` (delay ~ s);
* dynamic power at constant frequency scales with the energy ratio, while
  power at the *scaled* frequency stays roughly constant per unit area.

These are approximations -- exactly the ones a pencil-and-paper architecture
study makes -- and are sufficient to reproduce the relative rankings in the
paper's comparison tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TechnologyNode:
    """A bulk CMOS technology node.

    Parameters
    ----------
    name:
        Human readable name, e.g. ``"45nm"``.
    feature_nm:
        Drawn feature size in nanometres.
    nominal_vdd:
        Nominal supply voltage in volts.  The paper operates its MAC units
        around 0.8 V at 1 GHz in 45 nm and uses the low-power ITRS corner for
        SRAM.
    leakage_fraction:
        Idle (leakage) power expressed as a constant fraction of dynamic
        power.  The dissertation's power model uses 25%--30% depending on the
        technology (Sec. 1.3.3); we store the calibrated per-node value here.
    """

    name: str
    feature_nm: float
    nominal_vdd: float = 0.9
    leakage_fraction: float = 0.25

    def scale_factor_to(self, other: "TechnologyNode") -> float:
        """Linear-dimension scale factor from this node to ``other``.

        A value > 1 means the design shrinks when moving to ``other``.
        """
        return self.feature_nm / other.feature_nm


#: The primary evaluation node of the dissertation.
TECH_45NM = TechnologyNode("45nm", 45.0, nominal_vdd=0.8, leakage_fraction=0.25)

#: Node used for the GTX280 comparison (Fig. 4.13).
TECH_65NM = TechnologyNode("65nm", 65.0, nominal_vdd=1.0, leakage_fraction=0.28)

#: Node of the ClearSpeed CSX700 measurements.
TECH_90NM = TechnologyNode("90nm", 90.0, nominal_vdd=1.1, leakage_fraction=0.30)

#: Registry of known nodes keyed by name.
KNOWN_NODES = {n.name: n for n in (TECH_45NM, TECH_65NM, TECH_90NM)}


def scale_area(area_mm2: float, from_node: TechnologyNode, to_node: TechnologyNode) -> float:
    """Scale a silicon area between technology nodes (area ~ feature^2)."""
    if area_mm2 < 0:
        raise ValueError(f"area must be non-negative, got {area_mm2}")
    s = from_node.scale_factor_to(to_node)
    return area_mm2 / (s * s) if s != 0 else area_mm2


def scale_power(power_w: float, from_node: TechnologyNode, to_node: TechnologyNode,
                same_frequency: bool = True) -> float:
    """Scale power between technology nodes.

    With ``same_frequency=True`` dynamic power follows the capacitance times
    voltage-squared product; we approximate ``C*V^2`` scaling with the linear
    feature ratio times the square of the voltage ratio, which is how the
    dissertation brings the 65 nm Cell and 90 nm CSX numbers to 45 nm.  With
    ``same_frequency=False`` the design is assumed to also speed up by the
    inverse feature ratio, leaving power/area roughly constant; this is rarely
    what the comparison tables need, but is provided for completeness.
    """
    if power_w < 0:
        raise ValueError(f"power must be non-negative, got {power_w}")
    s = from_node.feature_nm / to_node.feature_nm  # > 1 when shrinking
    v = (to_node.nominal_vdd / from_node.nominal_vdd) ** 2
    scaled = power_w * v / s
    if not same_frequency:
        scaled *= s  # frequency also went up by s
    return scaled


@dataclass
class OperatingPoint:
    """A (frequency, voltage) operating point for a component.

    The dissertation sweeps PE frequency from 0.2 GHz to ~2.1 GHz (Table 3.1,
    Figs. 3.6/3.7) with voltage following frequency.  ``voltage_for`` captures
    the simple linear voltage/frequency relationship used to extrapolate the
    published FPU numbers across that sweep.
    """

    frequency_ghz: float
    vdd: float
    node: TechnologyNode = field(default=TECH_45NM)

    @classmethod
    def at_frequency(cls, frequency_ghz: float, node: TechnologyNode = TECH_45NM,
                     vmin: float = 0.65, vmax: float = 1.1,
                     fmin: float = 0.2, fmax: float = 2.1) -> "OperatingPoint":
        """Construct an operating point with voltage interpolated from frequency.

        Voltage scales linearly between ``vmin`` at ``fmin`` and ``vmax`` at
        ``fmax``; frequencies outside the range are clamped for the purpose of
        the voltage computation (the frequency itself is preserved).
        """
        if frequency_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_ghz}")
        f = min(max(frequency_ghz, fmin), fmax)
        alpha = (f - fmin) / (fmax - fmin)
        vdd = vmin + alpha * (vmax - vmin)
        return cls(frequency_ghz=frequency_ghz, vdd=vdd, node=node)

    def dynamic_power_scale(self, reference: "OperatingPoint") -> float:
        """Ratio of dynamic power at this point relative to ``reference``.

        Dynamic power ~ f * V^2 (activity and capacitance held constant).
        """
        return (self.frequency_ghz / reference.frequency_ghz) * (self.vdd / reference.vdd) ** 2
