"""Cycle-level functional simulator of the Linear Algebra Core (LAC).

The simulator models the ``nr x nr`` mesh of processing elements described in
Chapter 3: each PE owns a pipelined MAC unit with local accumulators, two
local SRAM stores (a larger single-ported one for the resident panel of ``A``
and a small dual-ported one for the replicated panel of ``B``), a small
register file, and latched connections to one row broadcast bus and one
column broadcast bus.  Control is distributed: every PE runs the same
predetermined sequence in lock step, so the simulator advances the whole mesh
one logical step at a time and charges cycles according to the operation
performed (rank-1 updates are single-cycle throughput, dependent scalar steps
pay the MAC pipeline latency, special functions pay the SFU latency).

Numerical results are bit-identical to an equivalent NumPy computation except
for floating-point summation order, which the tests account for with standard
tolerances.  Every data movement increments an access counter so that the
power model can be driven by realistic activity factors
(:mod:`repro.lac.stats`).
"""

from repro.lac.stats import AccessCounters
from repro.lac.pe import ProcessingElement, PEConfig
from repro.lac.bus import RowColumnBuses
from repro.lac.core import LinearAlgebraCore, LACConfig

__all__ = [
    "AccessCounters",
    "ProcessingElement",
    "PEConfig",
    "RowColumnBuses",
    "LinearAlgebraCore",
    "LACConfig",
]
