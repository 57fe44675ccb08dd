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

The PE state of a core is held as NumPy arrays indexed ``[row, col,
address]`` (:class:`~repro.lac.core.LinearAlgebraCore`), and each step of a
kernel updates the whole mesh with one array operation.  Every output element
comes from the same floating-point operations, in the same order, as a PE
issuing one MAC at a time would perform, so results are bit-identical to that
literal model.  The access counters that drive the power model
(:mod:`repro.lac.stats`) are charged once per operation in closed form; they
equal the per-event counts of the per-PE model kept in the test suite as an
oracle (``tests/lac_oracle.py``).
"""

from repro.lac.stats import AccessCounters
from repro.lac.pe import PEConfig
from repro.lac.core import LinearAlgebraCore, LACConfig

__all__ = [
    "AccessCounters",
    "PEConfig",
    "LinearAlgebraCore",
    "LACConfig",
]
