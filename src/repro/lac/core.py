"""The Linear Algebra Core (LAC): an ``nr x nr`` mesh of PEs with buses.

This is the central object of the cycle-level simulator.  It owns the PE
state, the shared access counters and a special function unit, and provides
the primitive operations that the kernel mappings in :mod:`repro.kernels`
compose:

* 2D cyclic round-robin distribution of matrix blocks into the PE local
  stores (``alpha[i, p]`` lives in PE ``(i mod nr, p mod nr)``; the panel of
  ``B`` is replicated down the PE columns),
* preloading of ``C`` into the MAC accumulators and streaming it back out,
* diagonal-PE transposition (used by SYRK),
* row/column broadcasts and reductions for the factorization kernels,
* special function operations (reciprocal, square root, inverse square root)
  charged with the configured SFU latency.

The PE state is three NumPy arrays indexed ``[row, col, address]``:
``store_a`` (``MEM A``), ``store_b`` (``MEM B``) and ``accumulators``, sized
from :class:`~repro.lac.pe.PEConfig`.  Each primitive updates the whole mesh
with one array operation and charges its counters once, in closed form; the
kernels do the same for their MAC steps (the rank-1 engine is
:func:`repro.kernels.gemm.lac_rank1_sequence`).  A broadcast has no state
beyond its counters: the value driven on a bus is the value every PE on it
latches in the same step.

Cycle accounting follows the dissertation's design: rank-1 updates sustain a
throughput of one per cycle; dependent scalar steps pay the MAC pipeline
latency; special functions pay the SFU latency; transfers over the column
buses to/from on-chip memory move ``nr`` words per cycle and can overlap with
computation when the kernel says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.hw.sfu import SFUPlacement, SpecialFunctionUnit, SpecialOp
from repro.hw.fpu import Precision
from repro.lac.pe import PEConfig
from repro.lac.stats import AccessCounters


@dataclass
class LACConfig:
    """Static configuration of one LAC.

    Parameters
    ----------
    nr:
        Core dimension (default 4, giving 16 PEs).
    pe:
        Per-PE configuration (store sizes, pipeline depth, ...).
    sfu_placement:
        Which divide/square-root option the core uses.
    precision:
        Operating precision (affects only the SFU latency model here; the
        functional simulation always computes in double precision).
    frequency_ghz:
        Clock frequency, used when converting cycle counts to time/energy.
    """

    nr: int = 4
    pe: PEConfig = field(default_factory=PEConfig)
    sfu_placement: SFUPlacement = SFUPlacement.ISOLATED
    precision: Precision = Precision.DOUBLE
    frequency_ghz: float = 1.0

    def __post_init__(self) -> None:
        if self.nr < 2:
            raise ValueError("core dimension nr must be >= 2")
        if not (math.isfinite(self.frequency_ghz) and self.frequency_ghz > 0):
            raise ValueError(f"frequency must be a positive finite number of "
                             f"GHz, got {self.frequency_ghz}")


def _check_words(base: int, words: int, limit: int, what: str) -> None:
    """Raise the ``IndexError`` of the first of ``words`` sequential writes
    from ``base`` that falls outside ``[0, limit)`` (none when all fit)."""
    if words > 0 and not (0 <= base and base + words <= limit):
        address = base if base < 0 or base >= limit else limit
        raise IndexError(f"{what} address {address} out of range [0, {limit})")


class LinearAlgebraCore:
    """Functional/cycle-level model of one LAC."""

    def __init__(self, config: Optional[LACConfig] = None):
        self.config = config if config is not None else LACConfig()
        nr = self.config.nr
        pe = self.config.pe
        self.nr = nr
        self.counters = AccessCounters()
        #: ``MEM A``, ``MEM B`` and the MAC accumulators of every PE,
        #: indexed ``[row, col, address]``.
        self.store_a = np.zeros((nr, nr, pe.store_a_words))
        self.store_b = np.zeros((nr, nr, pe.store_b_words))
        self.accumulators = np.zeros((nr, nr, pe.accumulators))
        self.sfu = SpecialFunctionUnit(
            placement=self.config.sfu_placement,
            precision=self.config.precision,
            frequency_ghz=self.config.frequency_ghz,
            nr=nr,
            mac_pipeline_stages=pe.mac_pipeline_stages,
        )

    # ------------------------------------------------------------ properties
    @property
    def num_pes(self) -> int:
        """Total number of processing elements."""
        return self.nr * self.nr

    @property
    def mac_latency(self) -> int:
        """MAC pipeline depth in cycles."""
        return self.config.pe.mac_pipeline_stages

    def tick(self, cycles: int = 1) -> None:
        """Advance the cycle counter by ``cycles``."""
        if cycles < 0:
            raise ValueError("cannot advance time backwards")
        self.counters.cycles += int(cycles)

    # ----------------------------------------------------- data distribution
    def distribute_a(self, a: np.ndarray, base_address: int = 0) -> int:
        """Distribute an ``m x k`` block of A into the PE ``MEM A`` stores.

        Element ``a[i, p]`` is written to PE ``(i mod nr, p mod nr)`` at a
        sequential local address; the function returns the number of words
        written per PE (the stride a kernel needs to address the block).
        Transfers enter over the column buses at ``nr`` words per cycle.
        """
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError("A block must be a 2-D array")
        m, k = a.shape
        nr = self.nr
        words_per_pe = int(math.ceil(m / nr) * math.ceil(k / nr))
        _check_words(base_address, words_per_pe, self.config.pe.store_a_words,
                     "store A")
        for r in range(min(m, nr)):
            for c in range(min(k, nr)):
                words = a[r::nr, c::nr].ravel()
                self.store_a[r, c, base_address:base_address + words.size] = words
        self.counters.store_a_writes += m * k
        self.counters.external_loads += m * k
        self.tick(int(math.ceil(m * k / nr)))
        return words_per_pe

    def distribute_b_replicated(self, b: np.ndarray, base_address: int = 0) -> int:
        """Replicate a ``k x nr`` panel of B down every PE column.

        Element ``b[p, j]`` is stored in *every* PE of column ``j`` at local
        address ``base_address + p`` of ``MEM B``.  Returns the number of
        words written per PE.
        """
        b = np.asarray(b, dtype=float)
        nr = self.nr
        if b.ndim != 2 or b.shape[1] != nr:
            raise ValueError(f"B panel must be k x nr (nr={nr}), got {b.shape}")
        k = b.shape[0]
        _check_words(base_address, k, self.config.pe.store_b_words, "store B")
        self.store_b[:, :, base_address:base_address + k] = b.T
        self.counters.store_b_writes += k * nr * nr
        self.counters.external_loads += k * nr
        self.tick(k)
        return k

    def load_c_accumulators(self, c: np.ndarray, accumulator: int = 0) -> None:
        """Preload an ``nr x nr`` block of C into the MAC accumulators."""
        c = np.asarray(c, dtype=float)
        nr = self.nr
        if c.shape != (nr, nr):
            raise ValueError(f"C block must be {nr} x {nr}, got {c.shape}")
        _check_words(accumulator, 1, self.config.pe.accumulators, "accumulator")
        self.accumulators[:, :, accumulator] = c
        self.counters.accumulator_writes += nr * nr
        self.counters.external_loads += nr * nr
        self.tick(nr)  # nr columns buses move nr words/cycle

    def store_c_accumulators(self, accumulator: int = 0) -> np.ndarray:
        """Stream the ``nr x nr`` block of C out of the accumulators."""
        nr = self.nr
        _check_words(accumulator, 1, self.config.pe.accumulators, "accumulator")
        out = self.accumulators[:, :, accumulator].copy()
        self.counters.accumulator_reads += nr * nr
        self.counters.external_stores += nr * nr
        self.tick(nr)
        return out

    def drain_pipeline(self) -> None:
        """Charge the MAC pipeline drain latency after a dependent sequence."""
        self.tick(self.mac_latency)

    # -------------------------------------------------- broadcasts/reductions
    def _check_bus(self, index: int) -> None:
        if not (0 <= index < self.nr):
            raise IndexError(f"bus index {index} out of range [0, {self.nr})")

    def broadcast_row(self, row: int, value: float) -> float:
        """Broadcast a scalar along one PE row (single cycle)."""
        self._check_bus(row)
        self.counters.row_broadcasts += 1
        self.tick(1)
        return float(value)

    def broadcast_column(self, col: int, value: float) -> float:
        """Broadcast a scalar along one PE column (single cycle)."""
        self._check_bus(col)
        self.counters.column_broadcasts += 1
        self.tick(1)
        return float(value)

    def transpose_via_diagonal(self, column_values: Sequence[float]) -> List[float]:
        """Transpose a column vector into a row vector via the diagonal PEs.

        The diagonal PEs receive the column of values from the row buses and
        re-broadcast them over the column buses, producing the transposed
        vector available to every PE in one extra cycle (used by SYRK).
        """
        if len(column_values) != self.nr:
            raise ValueError("transpose operand must have length nr")
        self.counters.row_broadcasts += self.nr
        self.counters.column_broadcasts += self.nr
        self.tick(2)
        return [float(value) for value in column_values]

    def reduce_column(self, partials: Sequence[float]) -> float:
        """Sum ``nr`` partial values held by the PEs of one column.

        Implemented as ``nr`` broadcast-accumulate steps over the column bus
        (the LAC has no adder tree); charges ``nr`` cycles plus a pipeline
        drain.
        """
        if len(partials) != self.nr:
            raise ValueError("reduction operand must have length nr")
        total = 0.0
        for value in partials:
            total += float(value)
        self.counters.column_broadcasts += self.nr
        self.counters.mac_ops += self.nr
        self.tick(self.nr)
        self.drain_pipeline()
        return total

    # ----------------------------------------------------- special functions
    def special(self, op: SpecialOp, value: float) -> float:
        """Execute a special function (reciprocal, sqrt, inv-sqrt, divide-seed).

        The numerical result is exact; the cycle cost is the latency of the
        configured SFU placement.  Software placement additionally consumes
        MAC issue slots, which the counter records.
        """
        latency = self.sfu.latency_cycles(op)
        self.counters.sfu_ops += 1
        if self.sfu.occupies_pe_mac():
            self.counters.mac_ops += self.sfu.divider.mac_operations(op)
        self.tick(latency)
        if op is SpecialOp.RECIPROCAL:
            if value == 0.0:
                raise ZeroDivisionError("reciprocal of zero on the LAC SFU")
            return 1.0 / value
        if op is SpecialOp.SQRT:
            if value < 0.0:
                raise ValueError("square root of a negative value on the LAC SFU")
            return math.sqrt(value)
        if op is SpecialOp.INV_SQRT:
            if value <= 0.0:
                raise ValueError("inverse square root requires a positive value")
            return 1.0 / math.sqrt(value)
        if op is SpecialOp.DIVIDE:
            if value == 0.0:
                raise ZeroDivisionError("division by zero on the LAC SFU")
            return 1.0 / value
        raise ValueError(f"unknown special operation {op}")

    # ------------------------------------------------------------- reporting
    def elapsed_seconds(self) -> float:
        """Wall-clock time represented by the recorded cycles."""
        return self.counters.cycles / (self.config.frequency_ghz * 1e9)
