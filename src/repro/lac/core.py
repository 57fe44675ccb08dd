"""The Linear Algebra Core (LAC): an ``nr x nr`` mesh of PEs with buses.

This is the central object of the functional/cycle-level simulator.  It owns
the PEs, the broadcast buses, the shared access counters and a special
function unit, and provides the primitive operations that the kernel mappings
in :mod:`repro.kernels` compose:

* 2D cyclic round-robin distribution of matrix blocks into the PE local
  stores (``alpha[i, p]`` lives in PE ``(i mod nr, p mod nr)``; the panel of
  ``B`` is replicated down the PE columns),
* preloading of ``C`` into the MAC accumulators and streaming it back out,
* the single-cycle rank-1 update step (column of ``A`` on the row buses, row
  of ``B`` on the column buses, one MAC per PE),
* diagonal-PE transposition (used by SYRK),
* row/column broadcasts and reductions for the factorization kernels,
* special function operations (reciprocal, square root, inverse square root)
  charged with the configured SFU latency.

Cycle accounting follows the dissertation's design: rank-1 updates sustain a
throughput of one per cycle; dependent scalar steps pay the MAC pipeline
latency; special functions pay the SFU latency; transfers over the column
buses to/from on-chip memory move ``nr`` words per cycle and can overlap with
computation when the kernel says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.sfu import SFUPlacement, SpecialFunctionUnit, SpecialOp
from repro.hw.fpu import Precision
from repro.lac.bus import RowColumnBuses
from repro.lac.pe import PEConfig, ProcessingElement
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
        functional simulation always computes in Python floats).
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


class LinearAlgebraCore:
    """Functional/cycle-level model of one LAC."""

    def __init__(self, config: Optional[LACConfig] = None):
        self.config = config if config is not None else LACConfig()
        nr = self.config.nr
        self.nr = nr
        self.counters = AccessCounters()
        self.buses = RowColumnBuses(nr, self.counters)
        self.pes: List[List[ProcessingElement]] = [
            [ProcessingElement(r, c, self.config.pe, self.counters) for c in range(nr)]
            for r in range(nr)
        ]
        self.sfu = SpecialFunctionUnit(
            placement=self.config.sfu_placement,
            precision=self.config.precision,
            frequency_ghz=self.config.frequency_ghz,
            nr=nr,
            mac_pipeline_stages=self.config.pe.mac_pipeline_stages,
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

    def pe(self, row: int, col: int) -> ProcessingElement:
        """Access one PE by mesh coordinates."""
        return self.pes[row][col]

    def reset_counters(self) -> None:
        """Zero the shared access counters (keeps memory contents)."""
        self.counters.reset()

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
        next_addr = [[base_address for _ in range(nr)] for _ in range(nr)]
        for i in range(m):
            for p in range(k):
                pe = self.pes[i % nr][p % nr]
                addr = next_addr[i % nr][p % nr]
                pe.write_store_a(addr, a[i, p])
                next_addr[i % nr][p % nr] = addr + 1
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
        if b.ndim != 2 or b.shape[1] != self.nr:
            raise ValueError(f"B panel must be k x nr (nr={self.nr}), got {b.shape}")
        k = b.shape[0]
        for p in range(k):
            for j in range(self.nr):
                for i in range(self.nr):
                    self.pes[i][j].write_store_b(base_address + p, b[p, j])
        self.counters.external_loads += k * self.nr
        self.tick(int(math.ceil(k * self.nr / self.nr)))
        return k

    def load_c_accumulators(self, c: np.ndarray, accumulator: int = 0) -> None:
        """Preload an ``nr x nr`` block of C into the MAC accumulators."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.nr, self.nr):
            raise ValueError(f"C block must be {self.nr} x {self.nr}, got {c.shape}")
        for i in range(self.nr):
            for j in range(self.nr):
                self.pes[i][j].set_accumulator(c[i, j], accumulator)
        self.counters.external_loads += self.nr * self.nr
        self.tick(self.nr)  # nr columns buses move nr words/cycle

    def store_c_accumulators(self, accumulator: int = 0) -> np.ndarray:
        """Stream the ``nr x nr`` block of C out of the accumulators."""
        out = np.empty((self.nr, self.nr), dtype=float)
        for i in range(self.nr):
            for j in range(self.nr):
                out[i, j] = self.pes[i][j].get_accumulator(accumulator)
        self.counters.external_stores += self.nr * self.nr
        self.tick(self.nr)
        return out

    # -------------------------------------------------------- rank-1 engine
    def rank1_update_step(self, a_column: Sequence[float], b_row: Sequence[float],
                          accumulator: int = 0) -> None:
        """One rank-1 update: C += a_column * b_row, one MAC per PE, one cycle.

        ``a_column`` (length nr) is driven onto the row buses by the root
        column; ``b_row`` (length nr) is driven onto the column buses by the
        root row.  The calling kernel charges the local-store reads.
        """
        if len(a_column) != self.nr or len(b_row) != self.nr:
            raise ValueError("rank-1 operands must have length nr")
        self.buses.broadcast_row_vector(list(a_column))
        self.buses.broadcast_column_vector(list(b_row))
        for i in range(self.nr):
            alpha = self.buses.read_row(i)
            for j in range(self.nr):
                beta = self.buses.read_column(j)
                pe = self.pes[i][j]
                pe.latch_row_bus(alpha)
                pe.latch_column_bus(beta)
                pe.mac(alpha, beta, accumulator)
        self.buses.clear()
        self.tick(1)

    def drain_pipeline(self) -> None:
        """Charge the MAC pipeline drain latency after a dependent sequence."""
        self.tick(self.mac_latency)

    # -------------------------------------------------- broadcasts/reductions
    def broadcast_row(self, row: int, value: float) -> float:
        """Broadcast a scalar along one PE row (single cycle)."""
        self.buses.drive_row(row, value)
        out = self.buses.read_row(row)
        self.buses.clear()
        self.tick(1)
        return out

    def broadcast_column(self, col: int, value: float) -> float:
        """Broadcast a scalar along one PE column (single cycle)."""
        self.buses.drive_column(col, value)
        out = self.buses.read_column(col)
        self.buses.clear()
        self.tick(1)
        return out

    def transpose_via_diagonal(self, column_values: Sequence[float]) -> List[float]:
        """Transpose a column vector into a row vector via the diagonal PEs.

        The diagonal PEs receive the column of values from the row buses and
        re-broadcast them over the column buses, producing the transposed
        vector available to every PE in one extra cycle (used by SYRK).
        """
        if len(column_values) != self.nr:
            raise ValueError("transpose operand must have length nr")
        self.buses.broadcast_row_vector(list(column_values))
        latched = [self.buses.read_row(i) for i in range(self.nr)]
        self.buses.clear()
        self.tick(1)
        self.buses.broadcast_column_vector(latched)
        out = [self.buses.read_column(j) for j in range(self.nr)]
        self.buses.clear()
        self.tick(1)
        return out

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
            self.counters.column_broadcasts += 1
            self.counters.mac_ops += 1
            self.tick(1)
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
    def utilization(self) -> float:
        """MAC issue rate relative to peak since the last counter reset."""
        return self.counters.utilization(self.num_pes)

    def elapsed_seconds(self) -> float:
        """Wall-clock time represented by the recorded cycles."""
        return self.counters.cycles / (self.config.frequency_ghz * 1e9)

    def achieved_gflops(self) -> float:
        """Achieved GFLOPS since the last counter reset."""
        seconds = self.elapsed_seconds()
        return self.counters.flops / seconds / 1e9 if seconds > 0 else 0.0
