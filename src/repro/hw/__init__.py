"""Hardware component substrates for the LAC/LAP reproduction.

This subpackage models the low-level hardware building blocks that the
dissertation uses to construct its Linear Algebra Core (LAC) and Linear
Algebra Processor (LAP):

* :mod:`repro.hw.technology` -- CMOS technology nodes and scaling rules.
* :mod:`repro.hw.fpu` -- fused multiply-accumulate (FMAC) unit models.
* :mod:`repro.hw.sfu` -- special function units (reciprocal, square root,
  inverse square root, divide) built from Goldschmidt/Newton iterations and
  a minimax lookup-table seed.
* :mod:`repro.hw.sram` -- CACTI-like SRAM area/energy/leakage model.
* :mod:`repro.hw.bus` -- broadcast bus wire model (repeater classes,
  energy per bit-mm, achievable frequency).
* :mod:`repro.hw.memory` -- on-chip SRAM/NUCA banks and off-chip memory
  interface models.

All models are calibrated to the constants quoted in the dissertation so
that the tables and figures of the evaluation chapters can be regenerated.
"""

from repro.hw.technology import TechnologyNode, TECH_45NM, TECH_65NM, TECH_90NM, scale_power, scale_area
from repro.hw.fpu import FMACUnit, Precision
from repro.hw.sfu import SpecialFunctionUnit, SFUPlacement, GoldschmidtDivider
from repro.hw.sram import SRAMConfig, SRAMModel
from repro.hw.bus import BroadcastBus, WireClass
from repro.hw.memory import OnChipMemory, NUCACache, OffChipInterface

__all__ = [
    "TechnologyNode",
    "TECH_45NM",
    "TECH_65NM",
    "TECH_90NM",
    "scale_power",
    "scale_area",
    "FMACUnit",
    "Precision",
    "SpecialFunctionUnit",
    "SFUPlacement",
    "GoldschmidtDivider",
    "SRAMConfig",
    "SRAMModel",
    "BroadcastBus",
    "WireClass",
    "OnChipMemory",
    "NUCACache",
    "OffChipInterface",
]
