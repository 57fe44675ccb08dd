"""Processing element (PE) configuration for the LAC simulator.

Each PE of the ``nr x nr`` mesh contains (Figure 3.1, right-hand side):

* a pipelined fused multiply-accumulate (MAC) unit whose accumulator register
  holds the element of ``C`` assigned to that PE,
* ``MEM A`` -- a larger, single-ported SRAM holding the PE's share of the
  resident ``mc x kc`` block of ``A``,
* ``MEM B`` -- a small, dual-ported SRAM holding the locally replicated
  ``kc x nr`` panel of ``B``,
* a small register file (a handful of entries) for temporaries,
* read/write latches onto the row and column broadcast buses.

:class:`PEConfig` sizes these.  The simulator keeps the state of all PEs of
a core together, as the ``[row, col, address]`` arrays ``store_a``,
``store_b`` and ``accumulators`` of :class:`repro.lac.core.LinearAlgebraCore`
(addressed sequentially, exactly as the auto-incrementing address generators
of the real design would), and counts every access in the core's
:class:`repro.lac.stats.AccessCounters`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PEConfig:
    """Static configuration of one processing element.

    Parameters
    ----------
    store_a_words:
        Capacity of the single-ported ``MEM A`` store in 8-byte words.
    store_b_words:
        Capacity of the dual-ported ``MEM B`` store in words.
    register_file_words:
        Register file entries (the LAC design uses 4).
    accumulators:
        Number of accumulator registers inside the MAC unit (1 suffices for
        GEMM; extra accumulators allow holding several C elements during
        blocked factorizations).
    mac_pipeline_stages:
        Pipeline depth of the MAC unit.
    """

    store_a_words: int = 2048
    store_b_words: int = 256
    register_file_words: int = 4
    accumulators: int = 4
    mac_pipeline_stages: int = 5

    def __post_init__(self) -> None:
        if self.store_a_words < 1 or self.store_b_words < 1:
            raise ValueError("local stores must have positive capacity")
        if self.register_file_words < 1:
            raise ValueError("register file must have at least one entry")
        if self.accumulators < 1:
            raise ValueError("at least one accumulator is required")
        if self.mac_pipeline_stages < 1:
            raise ValueError("MAC pipeline depth must be >= 1")
