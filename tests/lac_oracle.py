"""Per-PE LAC simulator: the clarity-first oracle the array simulator is pinned to.

:class:`repro.lac.core.LinearAlgebraCore` keeps the PE state as three NumPy
arrays and runs each kernel step as one array operation with its counters
charged in closed form.  This module keeps the literal model of Chapter 3
for the tests to compare against:

* :class:`ProcessingElement` -- one PE with ``MEM A``/``MEM B`` as Python
  lists of floats, a register file, accumulators and bus latches; every
  access is counted as it happens;
* :class:`RowColumnBuses` -- the ``2 * nr`` broadcast buses, one value per
  bus per step, with contention and idle-read checks;
* :class:`OracleCore` -- the mesh of PEs and buses with the primitives of
  the product core, each issued word by word and MAC by MAC;
* :func:`merge_counters`, :func:`reset_counters`,
  :func:`local_store_accesses` and :func:`bus_broadcasts` -- counter
  arithmetic that only tests use;
* the kernels of :mod:`repro.kernels` under their product names
  (:func:`lac_gemm`, :func:`lac_syrk`, ... :func:`lac_fft`), each driving
  one PE method call per MAC on an :class:`OracleCore`.

Outputs must be bit-identical to the product's and every
:class:`~repro.lac.stats.AccessCounters` field equal
(``tests/test_lac_oracle.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.hw.sfu import SpecialFunctionUnit, SpecialOp
from repro.kernels.common import KernelResult, check_divisible, counters_delta
from repro.kernels.fft import _bit_reverse_radix4
from repro.lac.core import LACConfig
from repro.lac.pe import PEConfig
from repro.lac.stats import AccessCounters
from repro.models.fft_model import FMA_OPS_PER_RADIX4_BUTTERFLY


# ------------------------------------------------------------- counters
def merge_counters(total: AccessCounters, other: AccessCounters) -> AccessCounters:
    """Accumulate ``other`` into ``total`` field by field (returns ``total``)."""
    for name, value in other.as_dict().items():
        setattr(total, name, getattr(total, name) + value)
    return total


def reset_counters(counters: AccessCounters) -> None:
    """Zero every counter field in place."""
    for name in counters.as_dict():
        setattr(counters, name, 0)


def local_store_accesses(counters: AccessCounters) -> int:
    """Total local store traffic (reads + writes, both stores)."""
    return (counters.store_a_reads + counters.store_a_writes
            + counters.store_b_reads + counters.store_b_writes)


def bus_broadcasts(counters: AccessCounters) -> int:
    """Total broadcast count over row and column buses."""
    return counters.row_broadcasts + counters.column_broadcasts


# ------------------------------------------------------------------- PE
class ProcessingElement:
    """One PE of the LAC mesh; all accesses go to the shared ``counters``."""

    def __init__(self, row: int, col: int, config: PEConfig,
                 counters: Optional[AccessCounters] = None):
        if row < 0 or col < 0:
            raise ValueError("PE coordinates must be non-negative")
        self.row = row
        self.col = col
        self.config = config
        self.counters = counters if counters is not None else AccessCounters()
        self.store_a: List[float] = [0.0] * config.store_a_words
        self.store_b: List[float] = [0.0] * config.store_b_words
        self.registers: List[float] = [0.0] * config.register_file_words
        self.accumulator: List[float] = [0.0] * config.accumulators
        self.row_bus_in: float = 0.0
        self.column_bus_in: float = 0.0

    def write_store_a(self, address: int, value: float) -> None:
        self._check_address(address, self.config.store_a_words, "store A")
        self.store_a[address] = float(value)
        self.counters.store_a_writes += 1

    def read_store_a(self, address: int) -> float:
        self._check_address(address, self.config.store_a_words, "store A")
        self.counters.store_a_reads += 1
        return self.store_a[address]

    def write_store_b(self, address: int, value: float) -> None:
        self._check_address(address, self.config.store_b_words, "store B")
        self.store_b[address] = float(value)
        self.counters.store_b_writes += 1

    def read_store_b(self, address: int) -> float:
        self._check_address(address, self.config.store_b_words, "store B")
        self.counters.store_b_reads += 1
        return self.store_b[address]

    def write_register(self, index: int, value: float) -> None:
        self._check_address(index, self.config.register_file_words, "register file")
        self.registers[index] = float(value)
        self.counters.register_writes += 1

    def read_register(self, index: int) -> float:
        self._check_address(index, self.config.register_file_words, "register file")
        self.counters.register_reads += 1
        return self.registers[index]

    def set_accumulator(self, value: float, index: int = 0) -> None:
        self._check_address(index, self.config.accumulators, "accumulator")
        self.accumulator[index] = float(value)
        self.counters.accumulator_writes += 1

    def get_accumulator(self, index: int = 0) -> float:
        self._check_address(index, self.config.accumulators, "accumulator")
        self.counters.accumulator_reads += 1
        return self.accumulator[index]

    def mac(self, a: float, b: float, index: int = 0) -> float:
        """acc += a * b."""
        self._check_address(index, self.config.accumulators, "accumulator")
        self.accumulator[index] += float(a) * float(b)
        self.counters.mac_ops += 1
        return self.accumulator[index]

    def multiply(self, a: float, b: float) -> float:
        self.counters.mac_ops += 1
        return float(a) * float(b)

    def multiply_add(self, a: float, b: float, c: float) -> float:
        """a * b + c, not targeting the accumulator."""
        self.counters.mac_ops += 1
        return float(a) * float(b) + float(c)

    def latch_row_bus(self, value: float) -> None:
        self.row_bus_in = float(value)

    def latch_column_bus(self, value: float) -> None:
        self.column_bus_in = float(value)

    @staticmethod
    def _check_address(address: int, limit: int, what: str) -> None:
        if not (0 <= address < limit):
            raise IndexError(f"{what} address {address} out of range [0, {limit})")


# ---------------------------------------------------------------- buses
class RowColumnBuses:
    """The ``2 * nr`` broadcast buses of one LAC: one value per bus per step."""

    def __init__(self, nr: int, counters: Optional[AccessCounters] = None):
        if nr < 1:
            raise ValueError("core dimension must be >= 1")
        self.nr = nr
        self.counters = counters if counters is not None else AccessCounters()
        self._row_values: List[Optional[float]] = [None] * nr
        self._col_values: List[Optional[float]] = [None] * nr

    def drive_row(self, row: int, value: float) -> None:
        self._check_index(row)
        if self._row_values[row] is not None:
            raise RuntimeError(f"row bus {row} already driven this step")
        self._row_values[row] = float(value)
        self.counters.row_broadcasts += 1

    def read_row(self, row: int) -> float:
        self._check_index(row)
        value = self._row_values[row]
        if value is None:
            raise RuntimeError(f"row bus {row} read while idle")
        return value

    def drive_column(self, col: int, value: float) -> None:
        self._check_index(col)
        if self._col_values[col] is not None:
            raise RuntimeError(f"column bus {col} already driven this step")
        self._col_values[col] = float(value)
        self.counters.column_broadcasts += 1

    def read_column(self, col: int) -> float:
        self._check_index(col)
        value = self._col_values[col]
        if value is None:
            raise RuntimeError(f"column bus {col} read while idle")
        return value

    def clear(self) -> None:
        """Release all buses at the end of a logical step."""
        self._row_values = [None] * self.nr
        self._col_values = [None] * self.nr

    def broadcast_row_vector(self, values: Sequence[float]) -> None:
        if len(values) != self.nr:
            raise ValueError(f"expected {self.nr} values, got {len(values)}")
        for r, v in enumerate(values):
            self.drive_row(r, v)

    def broadcast_column_vector(self, values: Sequence[float]) -> None:
        if len(values) != self.nr:
            raise ValueError(f"expected {self.nr} values, got {len(values)}")
        for c, v in enumerate(values):
            self.drive_column(c, v)

    def row_is_driven(self, row: int) -> bool:
        self._check_index(row)
        return self._row_values[row] is not None

    def column_is_driven(self, col: int) -> bool:
        self._check_index(col)
        return self._col_values[col] is not None

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.nr):
            raise IndexError(f"bus index {index} out of range [0, {self.nr})")


# ----------------------------------------------------------------- core
class OracleCore:
    """The ``nr x nr`` mesh of :class:`ProcessingElement` and its buses."""

    def __init__(self, config: Optional[LACConfig] = None):
        self.config = config if config is not None else LACConfig()
        nr = self.config.nr
        self.nr = nr
        self.counters = AccessCounters()
        self.buses = RowColumnBuses(nr, self.counters)
        self.pes = [[ProcessingElement(r, c, self.config.pe, self.counters)
                     for c in range(nr)] for r in range(nr)]
        self.sfu = SpecialFunctionUnit(
            placement=self.config.sfu_placement,
            precision=self.config.precision,
            frequency_ghz=self.config.frequency_ghz,
            nr=nr,
            mac_pipeline_stages=self.config.pe.mac_pipeline_stages,
        )

    @property
    def num_pes(self) -> int:
        return self.nr * self.nr

    @property
    def mac_latency(self) -> int:
        return self.config.pe.mac_pipeline_stages

    def state(self, name: str) -> np.ndarray:
        """``store_a``, ``store_b`` or ``accumulator`` of every PE as one
        ``[row, col, address]`` array, the product core's layout."""
        return np.array([[getattr(pe, name) for pe in row] for row in self.pes])

    def tick(self, cycles: int = 1) -> None:
        if cycles < 0:
            raise ValueError("cannot advance time backwards")
        self.counters.cycles += int(cycles)

    def distribute_a(self, a: np.ndarray, base_address: int = 0) -> int:
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
        c = np.asarray(c, dtype=float)
        if c.shape != (self.nr, self.nr):
            raise ValueError(f"C block must be {self.nr} x {self.nr}, got {c.shape}")
        for i in range(self.nr):
            for j in range(self.nr):
                self.pes[i][j].set_accumulator(c[i, j], accumulator)
        self.counters.external_loads += self.nr * self.nr
        self.tick(self.nr)

    def store_c_accumulators(self, accumulator: int = 0) -> np.ndarray:
        out = np.empty((self.nr, self.nr), dtype=float)
        for i in range(self.nr):
            for j in range(self.nr):
                out[i, j] = self.pes[i][j].get_accumulator(accumulator)
        self.counters.external_stores += self.nr * self.nr
        self.tick(self.nr)
        return out

    def rank1_update_step(self, a_column: Sequence[float], b_row: Sequence[float],
                          accumulator: int = 0) -> None:
        """C += a_column * b_row over the buses: one MAC per PE, one cycle."""
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
        self.tick(self.mac_latency)

    def broadcast_row(self, row: int, value: float) -> float:
        self.buses.drive_row(row, value)
        out = self.buses.read_row(row)
        self.buses.clear()
        self.tick(1)
        return out

    def broadcast_column(self, col: int, value: float) -> float:
        self.buses.drive_column(col, value)
        out = self.buses.read_column(col)
        self.buses.clear()
        self.tick(1)
        return out

    def transpose_via_diagonal(self, column_values: Sequence[float]) -> List[float]:
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

    def special(self, op: SpecialOp, value: float) -> float:
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


# -------------------------------------------------------------- gemm

def lac_rank1_sequence(core: OracleCore, c_block: np.ndarray,
                       a_slice: np.ndarray, b_slice: np.ndarray) -> np.ndarray:
    nr = core.nr
    c_block = np.asarray(c_block, dtype=float)
    a_slice = np.asarray(a_slice, dtype=float)
    b_slice = np.asarray(b_slice, dtype=float)
    if c_block.shape != (nr, nr):
        raise ValueError(f"C block must be {nr}x{nr}")
    if a_slice.shape[0] != nr or b_slice.shape[1] != nr:
        raise ValueError("A slice must be nr x kc and B slice kc x nr")
    if a_slice.shape[1] != b_slice.shape[0]:
        raise ValueError("inner dimensions of the rank-1 sequence do not match")

    kc = a_slice.shape[1]
    core.load_c_accumulators(c_block)
    for p in range(kc):
        core.rank1_update_step(a_slice[:, p], b_slice[p, :])
        # One read of A from the owning PEs' MEM A to drive the row buses.
        core.counters.store_a_reads += nr
        # Every PE reads its replicated copy of beta_{p,j} from MEM B.
        core.counters.store_b_reads += nr * nr
    return core.store_c_accumulators()

def lac_gemm(core: OracleCore, c: np.ndarray, a: np.ndarray, b: np.ndarray,
             distribute_operands: bool = True) -> KernelResult:
    start = core.counters.copy()
    c = np.array(c, dtype=float, copy=True)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nr = core.nr
    mc, kc = a.shape
    kb, n = b.shape
    if kb != kc:
        raise ValueError(f"inner dimensions do not match: A {a.shape}, B {b.shape}")
    if c.shape != (mc, n):
        raise ValueError(f"C has shape {c.shape}, expected {(mc, n)}")
    check_divisible(mc, nr, "mc")
    check_divisible(kc, nr, "kc")
    check_divisible(n, nr, "n")

    if distribute_operands:
        core.distribute_a(a)

    for j in range(0, n, nr):
        b_panel = b[:, j:j + nr]
        if distribute_operands:
            core.distribute_b_replicated(b_panel)
        for i in range(0, mc, nr):
            c[i:i + nr, j:j + nr] = lac_rank1_sequence(
                core, c[i:i + nr, j:j + nr], a[i:i + nr, :], b_panel)

    return KernelResult(name="gemm", output=c, counters=counters_delta(core.counters, start),
                        num_pes=core.num_pes)

# -------------------------------------------------------------- syrk

def _syrk_unblocked(core: OracleCore, c_block: np.ndarray,
                    a_panel: np.ndarray) -> np.ndarray:
    nr = core.nr
    c_block = np.asarray(c_block, dtype=float)
    a_panel = np.asarray(a_panel, dtype=float)
    if c_block.shape != (nr, nr) or a_panel.shape[0] != nr:
        raise ValueError("diagonal SYRK operands have the wrong shape")
    kc = a_panel.shape[1]

    core.load_c_accumulators(c_block)
    for p in range(kc):
        column = a_panel[:, p]
        transposed = core.transpose_via_diagonal(column)
        # rank-1 update with a_i on the rows and a_i^T on the columns; the
        # transpose step already drove the buses, so this is the MAC step.
        for i in range(nr):
            for j in range(nr):
                core.pes[i][j].mac(column[i], transposed[j])
        core.counters.store_a_reads += nr
        core.tick(1)
    updated = core.store_c_accumulators()
    # Only the lower triangle is defined by the operation.
    out = np.asarray(c_block, dtype=float).copy()
    lower = np.tril_indices(nr)
    out[lower] = updated[lower]
    return out

def lac_syrk(core: OracleCore, c: np.ndarray, a: np.ndarray) -> KernelResult:
    start = core.counters.copy()
    c = np.array(c, dtype=float, copy=True)
    a = np.asarray(a, dtype=float)
    nr = core.nr
    mc, kc = a.shape
    if c.shape != (mc, mc):
        raise ValueError(f"C must be {mc} x {mc} for SYRK, got {c.shape}")
    check_divisible(mc, nr, "mc")
    check_divisible(kc, nr, "kc")

    core.distribute_a(a)
    for j in range(0, mc, nr):
        # (1a/1b) diagonal block and the transposed panel A_j^T.
        c[j:j + nr, j:j + nr] = _syrk_unblocked(core, c[j:j + nr, j:j + nr], a[j:j + nr, :])
        a_j_t = a[j:j + nr, :].T  # kc x nr, retained in the PE rows by the kernel
        # (2) the panel below the diagonal: C[i, j] += A_i * A_j^T as GEMM.
        for i in range(j + nr, mc, nr):
            c[i:i + nr, j:j + nr] = lac_rank1_sequence(
                core, c[i:i + nr, j:j + nr], a[i:i + nr, :], a_j_t)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="syrk", output=c, counters=delta, num_pes=core.num_pes)

def lac_syr2k(core: OracleCore, c: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> KernelResult:
    start = core.counters.copy()
    c = np.array(c, dtype=float, copy=True)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("A and B must have identical shapes for SYR2K")
    nr = core.nr
    mc, kc = a.shape
    if c.shape != (mc, mc):
        raise ValueError(f"C must be {mc} x {mc} for SYR2K, got {c.shape}")
    check_divisible(mc, nr, "mc")
    check_divisible(kc, nr, "kc")

    core.distribute_a(a)
    core.distribute_a(b, base_address=(mc // nr) * (kc // nr))
    for j in range(0, mc, nr):
        # Diagonal block: C_jj += A_j B_j^T + B_j A_j^T, via two transposing passes.
        block = c[j:j + nr, j:j + nr]
        tmp = _cross_unblocked(core, block, a[j:j + nr, :], b[j:j + nr, :])
        c[j:j + nr, j:j + nr] = _cross_unblocked(core, tmp, b[j:j + nr, :], a[j:j + nr, :])
        a_j_t = a[j:j + nr, :].T
        b_j_t = b[j:j + nr, :].T
        for i in range(j + nr, mc, nr):
            block = lac_rank1_sequence(core, c[i:i + nr, j:j + nr], a[i:i + nr, :], b_j_t)
            c[i:i + nr, j:j + nr] = lac_rank1_sequence(core, block, b[i:i + nr, :], a_j_t)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="syr2k", output=c, counters=delta, num_pes=core.num_pes)

def _cross_unblocked(core: OracleCore, c_block: np.ndarray,
                     left: np.ndarray, right: np.ndarray) -> np.ndarray:
    nr = core.nr
    c_block = np.asarray(c_block, dtype=float)
    kc = left.shape[1]
    core.load_c_accumulators(c_block)
    for p in range(kc):
        col_left = np.asarray(left, dtype=float)[:, p]
        col_right = np.asarray(right, dtype=float)[:, p]
        transposed = core.transpose_via_diagonal(col_right)
        for i in range(nr):
            for j in range(nr):
                core.pes[i][j].mac(col_left[i], transposed[j])
        core.counters.store_a_reads += 2 * nr
        core.tick(1)
    updated = core.store_c_accumulators()
    out = c_block.copy()
    lower = np.tril_indices(nr)
    out[lower] = updated[lower]
    return out

# -------------------------------------------------------------- trsm

def lac_trsm_unblocked(core: OracleCore, l_block: np.ndarray,
                       b_panel: np.ndarray, variant: str = "software_pipelined"
                       ) -> np.ndarray:
    nr = core.nr
    l_block = np.asarray(l_block, dtype=float)
    b_panel = np.array(b_panel, dtype=float, copy=True)
    if l_block.shape != (nr, nr):
        raise ValueError(f"diagonal block must be {nr}x{nr}")
    if b_panel.shape[0] != nr:
        raise ValueError("panel of B must have nr rows")
    if variant not in ("basic", "stacked", "software_pipelined"):
        raise ValueError(f"unknown TRSM variant '{variant}'")

    m = b_panel.shape[1]
    p = core.mac_latency

    for i in range(nr):
        diag = l_block[i, i]
        # S1/S2: reciprocal of the diagonal element on the SFU, broadcast along
        # the i-th PE row, then scale the i-th row of B.
        inv = core.special(SpecialOp.RECIPROCAL, diag)
        core.broadcast_row(i, inv)
        for j in range(m):
            b_panel[i, j] = core.pes[i][j % nr].multiply(b_panel[i, j], inv)
        # S3: broadcast the solved row down the columns and the i-th column of
        # L along the rows, rank-1 update of the remaining rows.
        for r in range(i + 1, nr):
            coeff = l_block[r, i]
            for j in range(m):
                pe = core.pes[r][j % nr]
                b_panel[r, j] = pe.multiply_add(-coeff, b_panel[i, j], b_panel[r, j])
        core.counters.row_broadcasts += 1
        core.counters.column_broadcasts += 1

        # Cycle accounting per iteration beyond the events charged above:
        # dependent traversals of the MAC pipeline.
        if variant == "basic":
            core.tick(2 * p)
        elif variant == "stacked":
            # p blocks share the pipeline; amortised cost per block iteration.
            core.tick(2 * p // max(1, min(p, max(1, m // nr))) + 1)
        else:  # software pipelined
            g = max(1, m // (p * nr))
            core.tick(max(2, (p * (g + 1)) // (nr * max(1, g))))
    return b_panel

def lac_trsm(core: OracleCore, l: np.ndarray, b: np.ndarray,
             variant: str = "software_pipelined") -> KernelResult:
    start = core.counters.copy()
    l = np.asarray(l, dtype=float)
    b = np.array(b, dtype=float, copy=True)
    nr = core.nr
    k = l.shape[0]
    if l.shape != (k, k):
        raise ValueError("L must be square")
    if b.shape[0] != k:
        raise ValueError(f"B must have {k} rows, got {b.shape[0]}")
    check_divisible(k, nr, "k")
    m = b.shape[1]
    check_divisible(m, nr, "m (columns of B)")
    if np.any(np.abs(np.diag(l)) < 1e-300):
        raise ValueError("L has a (near-)zero diagonal element; TRSM is singular")

    core.distribute_a(np.tril(l))
    for i in range(0, k, nr):
        # (1) GEMM update with the already-computed rows of X.
        for jj in range(0, m, nr):
            block = b[i:i + nr, jj:jj + nr]
            if i > 0:
                block = lac_rank1_sequence(core, block, -l[i:i + nr, :i], b[:i, jj:jj + nr])
            b[i:i + nr, jj:jj + nr] = block
        # (2) unblocked TRSM with the diagonal block, across the whole panel.
        b[i:i + nr, :] = lac_trsm_unblocked(core, l[i:i + nr, i:i + nr], b[i:i + nr, :],
                                            variant=variant)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="trsm", output=b, counters=delta, num_pes=core.num_pes)

# ---------------------------------------------------------- cholesky

def _cholesky_unblocked(core: OracleCore, a_block: np.ndarray) -> np.ndarray:
    nr = core.nr
    a = np.array(a_block, dtype=float, copy=True)
    if a.shape != (nr, nr):
        raise ValueError(f"block must be {nr}x{nr}")
    p = core.mac_latency

    for i in range(nr):
        diag = a[i, i]
        if diag <= 0.0:
            raise ValueError("matrix is not positive definite")
        inv_sqrt = core.special(SpecialOp.INV_SQRT, diag)
        # S2: broadcast 1/sqrt(a_ii) along row i and column i, scale.
        core.broadcast_row(i, inv_sqrt)
        core.broadcast_column(i, inv_sqrt)
        a[i, i] = core.pes[i][i].multiply(diag, inv_sqrt)  # sqrt(a_ii)
        for r in range(i + 1, nr):
            a[r, i] = core.pes[r][i].multiply(a[r, i], inv_sqrt)
        for c in range(i + 1, nr):
            a[i, c] = core.pes[i][c].multiply(a[i, c], inv_sqrt)
        # S3: rank-1 update of the trailing submatrix.
        if i + 1 < nr:
            core.counters.row_broadcasts += 1
            core.counters.column_broadcasts += 1
            for r in range(i + 1, nr):
                for c in range(i + 1, nr):
                    a[r, c] = core.pes[r][c].multiply_add(-a[r, i], a[i, c], a[r, c])
        core.tick(2 * p)
    return np.tril(a)

def lac_cholesky(core: OracleCore, a: np.ndarray) -> KernelResult:
    start = core.counters.copy()
    a = np.array(a, dtype=float, copy=True)
    nr = core.nr
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A must be square")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("A must be symmetric for Cholesky factorization")
    check_divisible(n, nr, "n")

    core.distribute_a(a)
    l = np.zeros_like(a)
    work = a.copy()
    for j in range(0, n, nr):
        # Factor the diagonal block.
        l_jj = _cholesky_unblocked(core, work[j:j + nr, j:j + nr])
        l[j:j + nr, j:j + nr] = l_jj
        if j + nr < n:
            # Panel solve: L[i, j] = work[i, j] * L_jj^{-T}  <=>  solve
            # L_jj X^T = work[i, j]^T; use the unblocked TRSM on the transpose.
            panel = work[j + nr:, j:j + nr]
            solved_t = lac_trsm_unblocked(core, l_jj, panel.T)
            l[j + nr:, j:j + nr] = solved_t.T
            # Trailing update: work[i, k] -= L[i, j] L[k, j]^T (SYRK-shaped).
            lp = l[j + nr:, j:j + nr]
            for i in range(j + nr, n, nr):
                for k in range(j + nr, i + nr, nr):
                    block = work[i:i + nr, k:k + nr]
                    work[i:i + nr, k:k + nr] = lac_rank1_sequence(
                        core, block, -lp[i - j - nr:i - j, :],
                        lp[k - j - nr:k - j, :].T)
                    # Keep symmetry of the trailing matrix for the next diagonal block.
                    if k != i:
                        work[k:k + nr, i:i + nr] = work[i:i + nr, k:k + nr].T

    delta = counters_delta(core.counters, start)
    return KernelResult(name="cholesky", output=l, counters=delta, num_pes=core.num_pes)

# ---------------------------------------------------------------- lu

def lac_lu_panel(core: OracleCore, a_panel: np.ndarray,
                 use_comparator_extension: bool = True) -> KernelResult:
    start = core.counters.copy()
    a = np.array(a_panel, dtype=float, copy=True)
    nr = core.nr
    k = a.shape[0]
    if a.ndim != 2 or a.shape[1] != nr:
        raise ValueError(f"panel must be k x nr with nr={nr}, got {a.shape}")
    if k < nr:
        raise ValueError("panel must have at least nr rows")

    core.distribute_a(a)
    p = core.mac_latency
    pivots: List[int] = []

    for i in range(nr):
        # S1: pivot search in column i over rows i..k-1.
        column = a[i:, i]
        pivot_offset = int(np.argmax(np.abs(column)))
        pivot_row = i + pivot_offset
        pivots.append(pivot_row)
        rows_below = k - i
        traversal = rows_below / float(nr) + p
        if use_comparator_extension:
            core.counters.mac_ops += rows_below  # compare folded into traversal
            core.tick(int(np.ceil(traversal)))
        else:
            core.counters.mac_ops += 2 * rows_below
            core.tick(int(np.ceil(2 * traversal + nr)))

        pivot = a[pivot_row, i]
        if abs(pivot) < 1e-300:
            raise ValueError("panel is singular to working precision")

        # S2: reciprocal of the pivot (SFU) and the row interchange (buses).
        inv = core.special(SpecialOp.RECIPROCAL, pivot)
        if pivot_row != i:
            a[[i, pivot_row], :] = a[[pivot_row, i], :]
            core.counters.row_broadcasts += nr
            core.counters.column_broadcasts += nr
            core.tick(2)

        # S3: broadcast 1/pivot down column i and scale the sub-column.
        core.broadcast_column(i, inv)
        for r in range(i + 1, k):
            a[r, i] = core.pes[r % nr][i].multiply(a[r, i], inv)
        core.tick(int(np.ceil((k - i - 1) / float(nr))) + p)

        # S4: rank-1 update of the trailing (k-i-1) x (nr-i-1) panel.
        if i + 1 < nr:
            core.counters.row_broadcasts += 1
            core.counters.column_broadcasts += 1
            for r in range(i + 1, k):
                for c in range(i + 1, nr):
                    pe = core.pes[r % nr][c]
                    a[r, c] = pe.multiply_add(-a[r, i], a[i, c], a[r, c])
            core.tick(int(np.ceil((k - i - 1) * (nr - i - 1) / float(nr * nr))) + p)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="lu_panel", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"pivots": pivots})

# ---------------------------------------------------------------- qr

def lac_vector_norm(core: OracleCore, x: np.ndarray, owner_column: int = 0,
                    use_exponent_extension: bool = True) -> KernelResult:
    start = core.counters.copy()
    x = np.asarray(x, dtype=float).ravel()
    nr = core.nr
    if not (0 <= owner_column < nr):
        raise ValueError(f"owner column must lie in [0, {nr})")
    k = x.size
    if k == 0:
        raise ValueError("cannot compute the norm of an empty vector")
    p = core.mac_latency

    scale = 1.0
    values = x
    if not use_exponent_extension:
        # Guarded algorithm: find max |x_i|, scale by its reciprocal.
        t = float(np.max(np.abs(x)))
        core.counters.mac_ops += k            # compare/abs traversal
        core.tick(int(np.ceil(k / float(2 * nr))) + p + nr)
        if t == 0.0:
            delta = counters_delta(core.counters, start)
            return KernelResult(name="vector_norm", output=0.0, counters=delta,
                                num_pes=core.num_pes)
        inv_t = core.special(SpecialOp.RECIPROCAL, t)
        values = x * inv_t
        scale = t
        core.counters.mac_ops += k            # the scaling multiplies
        core.tick(int(np.ceil(k / float(2 * nr))) + p)

    # S1: the owner column and its neighbour accumulate partial inner products.
    neighbour = (owner_column + 1) % nr
    partials = np.zeros(2 * nr, dtype=float)
    for idx, value in enumerate(values):
        lane = idx % (2 * nr)
        row = lane % nr
        col = owner_column if lane < nr else neighbour
        partials[lane] = core.pes[row][col].multiply_add(value, value, partials[lane])
    core.counters.row_broadcasts += k // 2    # sharing half the vector sideways
    core.tick(int(np.ceil(k / float(2 * nr))) + p)

    # S2: reduce the neighbour column's partials back into the owner column.
    owner_partials = [partials[r] + partials[nr + r] for r in range(nr)]
    core.counters.mac_ops += nr
    core.counters.row_broadcasts += nr
    core.tick(1 + p)

    # S3: reduce-all over the owner column bus.
    total = core.reduce_column(owner_partials)
    norm = scale * core.special(SpecialOp.SQRT, total)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="vector_norm", output=float(norm), counters=delta,
                        num_pes=core.num_pes)

def lac_householder_vector(core: OracleCore, x: np.ndarray,
                           use_exponent_extension: bool = True):
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot reflect an empty vector")
    alpha1 = float(x[0])
    x2 = x[1:]
    if x2.size == 0 or not np.any(x2):
        return alpha1, np.zeros_like(x2), float("inf")
    chi2 = lac_vector_norm(core, x2, use_exponent_extension=use_exponent_extension).output
    alpha = lac_vector_norm(core, np.array([alpha1, chi2]),
                            use_exponent_extension=use_exponent_extension).output
    rho1 = -np.sign(alpha1) * alpha if alpha1 != 0.0 else -alpha
    nu1 = alpha1 - rho1
    inv_nu1 = core.special(SpecialOp.RECIPROCAL, nu1)
    u2 = np.array([core.pes[i % core.nr][0].multiply(v, inv_nu1) for i, v in enumerate(x2)])
    chi2_scaled = abs(chi2 * inv_nu1)
    core.counters.mac_ops += 1
    tau1 = (1.0 + chi2_scaled ** 2) / 2.0
    core.tick(core.mac_latency)
    return float(rho1), u2, float(tau1)

def lac_householder_qr_panel(core: OracleCore, a_panel: np.ndarray,
                             use_exponent_extension: bool = True) -> KernelResult:
    start = core.counters.copy()
    a = np.array(a_panel, dtype=float, copy=True)
    nr = core.nr
    k = a.shape[0]
    if a.ndim != 2 or a.shape[1] != nr:
        raise ValueError(f"panel must be k x nr with nr={nr}, got {a.shape}")
    if k < nr:
        raise ValueError("panel must have at least nr rows")
    p = core.mac_latency

    core.distribute_a(a)
    taus: List[float] = []
    for j in range(nr):
        rho, u2, tau = lac_householder_vector(core, a[j:, j],
                                              use_exponent_extension=use_exponent_extension)
        taus.append(tau)
        if not np.isfinite(tau):
            a[j, j] = rho if u2.size else a[j, j]
            continue
        u = np.concatenate(([1.0], u2))
        # Apply H = I - u u^T / tau to the trailing columns: w = (u^T A)/tau,
        # A -= u w^T -- a matrix-vector product plus a rank-1 update.
        trailing = a[j:, j + 1:]
        if trailing.size:
            w = np.zeros(trailing.shape[1], dtype=float)
            for c in range(trailing.shape[1]):
                acc = 0.0
                for r in range(trailing.shape[0]):
                    acc = core.pes[r % nr][(j + 1 + c) % nr].multiply_add(
                        u[r], trailing[r, c], acc)
                w[c] = acc / tau
            core.tick(int(np.ceil(trailing.size / float(nr * nr))) + p)
            for r in range(trailing.shape[0]):
                for c in range(trailing.shape[1]):
                    trailing[r, c] = core.pes[r % nr][(j + 1 + c) % nr].multiply_add(
                        -u[r], w[c], trailing[r, c])
            core.tick(int(np.ceil(trailing.size / float(nr * nr))) + p)
            a[j:, j + 1:] = trailing
        # Store rho on the diagonal and the essential reflector below it.
        a[j, j] = rho
        a[j + 1:, j] = u2

    delta = counters_delta(core.counters, start)
    return KernelResult(name="qr_panel", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"tau": taus})

def lac_apply_reflectors(core: OracleCore, v: np.ndarray,
                         taus: Sequence[float], c: np.ndarray) -> KernelResult:
    start = core.counters.copy()
    v = np.asarray(v, dtype=float)
    c = np.array(c, dtype=float, copy=True)
    nr = core.nr
    p = core.mac_latency
    if v.ndim != 2 or c.ndim != 2:
        raise ValueError("reflector block and C must be 2-D")
    m, num_reflectors = v.shape
    if c.shape[0] != m:
        raise ValueError(f"C must have {m} rows to match the reflectors, "
                         f"got {c.shape[0]}")
    if len(taus) != num_reflectors:
        raise ValueError(f"expected {num_reflectors} tau scalars, got {len(taus)}")

    q = c.shape[1]
    for j in range(num_reflectors):
        tau = taus[j]
        if not np.isfinite(tau):
            continue
        u = np.concatenate(([1.0], v[j + 1:, j]))
        rows = m - j
        w = np.zeros(q, dtype=float)
        for col in range(q):
            acc = 0.0
            for r in range(rows):
                acc = core.pes[r % nr][col % nr].multiply_add(u[r], c[j + r, col], acc)
            w[col] = acc / tau
        core.tick(int(np.ceil(rows * q / float(nr * nr))) + p)
        for r in range(rows):
            for col in range(q):
                c[j + r, col] = core.pes[r % nr][col % nr].multiply_add(
                    -u[r], w[col], c[j + r, col])
        core.tick(int(np.ceil(rows * q / float(nr * nr))) + p)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="apply_reflectors", output=c, counters=delta,
                        num_pes=core.num_pes)

# -------------------------------------------- blocked_factorizations

def lac_lu_blocked(core: OracleCore, a: np.ndarray,
                   use_comparator_extension: bool = True) -> KernelResult:
    start = core.counters.copy()
    a = np.array(a, dtype=float, copy=True)
    nr = core.nr
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("blocked LU requires a square matrix")
    check_divisible(n, nr, "n")

    pivots: List[int] = []
    for j in range(0, n, nr):
        # 1. Factor the current panel (rows j.., columns j..j+nr).
        panel_result = lac_lu_panel(core, a[j:, j:j + nr],
                                    use_comparator_extension=use_comparator_extension)
        a[j:, j:j + nr] = panel_result.output
        # 2. Apply the panel's row interchanges to the rest of the matrix.
        for local_i, local_piv in enumerate(panel_result.extra["pivots"]):
            gi = j + local_i
            gp = j + local_piv
            pivots.append(gp)
            if gp != gi:
                a[[gi, gp], :j] = a[[gp, gi], :j]
                a[[gi, gp], j + nr:] = a[[gp, gi], j + nr:]
                core.counters.row_broadcasts += 2 * (n - nr)
                core.tick(2)
        if j + nr < n:
            # 3. U panel: solve L_jj * U_{j, j+nr:} = A_{j, j+nr:}.
            l_jj = np.tril(a[j:j + nr, j:j + nr], -1) + np.eye(nr)
            a[j:j + nr, j + nr:] = lac_trsm_unblocked(core, l_jj, a[j:j + nr, j + nr:])
            # 4. Trailing update: A22 -= L21 U12, cast as rank-1 sequences.
            l21 = a[j + nr:, j:j + nr]
            u12 = a[j:j + nr, j + nr:]
            for i in range(j + nr, n, nr):
                for k in range(j + nr, n, nr):
                    block = a[i:i + nr, k:k + nr]
                    a[i:i + nr, k:k + nr] = lac_rank1_sequence(
                        core, block, -l21[i - j - nr:i - j, :], u12[:, k - j - nr:k - j])

    permutation = np.arange(n)
    for i, piv in enumerate(pivots):
        if piv != i:
            permutation[[i, piv]] = permutation[[piv, i]]

    delta = counters_delta(core.counters, start)
    return KernelResult(name="lu_blocked", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"pivots": pivots, "permutation": permutation})

def lac_qr_blocked(core: OracleCore, a: np.ndarray,
                   use_exponent_extension: bool = True) -> KernelResult:
    start = core.counters.copy()
    a = np.array(a, dtype=float, copy=True)
    nr = core.nr
    m, n = a.shape
    if m < n:
        raise ValueError("blocked QR requires m >= n")
    check_divisible(n, nr, "n (columns)")

    taus: List[float] = []
    for j in range(0, n, nr):
        panel_result = lac_householder_qr_panel(core, a[j:, j:j + nr],
                                                use_exponent_extension=use_exponent_extension)
        a[j:, j:j + nr] = panel_result.output
        taus.extend(panel_result.extra["tau"])
        # Apply the panel's reflectors to the trailing columns, one reflector
        # at a time: w = (u^T A)/tau ; A -= u w^T (matrix-vector + rank-1).
        if j + nr < n:
            for local in range(nr):
                tau = panel_result.extra["tau"][local]
                if not np.isfinite(tau):
                    continue
                col = j + local
                u = np.concatenate(([1.0], a[col + 1:, col]))
                trailing = a[col:, j + nr:]
                w = np.zeros(trailing.shape[1], dtype=float)
                for c in range(trailing.shape[1]):
                    acc = 0.0
                    for r in range(trailing.shape[0]):
                        acc = core.pes[r % nr][c % nr].multiply_add(u[r], trailing[r, c], acc)
                    w[c] = acc / tau
                core.tick(int(np.ceil(trailing.size / float(nr * nr))) + core.mac_latency)
                for r in range(trailing.shape[0]):
                    for c in range(trailing.shape[1]):
                        trailing[r, c] = core.pes[r % nr][c % nr].multiply_add(
                            -u[r], w[c], trailing[r, c])
                core.tick(int(np.ceil(trailing.size / float(nr * nr))) + core.mac_latency)
                a[col:, j + nr:] = trailing

    delta = counters_delta(core.counters, start)
    return KernelResult(name="qr_blocked", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"tau": taus})

# --------------------------------------------------------------- fft

def lac_fft(core: OracleCore, x: np.ndarray,
            block_points: Optional[int] = None) -> KernelResult:
    start = core.counters.copy()
    x = np.asarray(x, dtype=complex).ravel()
    n = x.size
    if n < 4 or (n & (n - 1)) != 0 or int(round(math.log(n, 4))) != math.log(n, 4):
        raise ValueError(f"FFT length must be a power of 4, got {n}")

    if block_points is None:
        block_points = n if n <= 4096 else 64

    if n <= block_points:
        result = _core_fft(core, x)
    else:
        result = _four_step_fft(core, x, block_points)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="fft", output=result, counters=delta, num_pes=core.num_pes)

def _core_fft(core: OracleCore, x: np.ndarray) -> np.ndarray:
    n = x.size
    nr = core.nr
    pes = nr * nr
    stages = int(round(math.log(n, 4)))
    data = _bit_reverse_radix4(x)

    # Initial load of the points over the column buses (2 words per point).
    core.counters.external_loads += 2 * n
    core.tick(int(math.ceil(2 * n / nr)))

    size = 4
    for stage in range(stages):
        quarter = size // 4
        num_groups = n // size
        for group in range(num_groups):
            base = group * size
            for j in range(quarter):
                idx = [base + j + q * quarter for q in range(4)]
                w = np.exp(-2j * np.pi * j / size)
                t0 = data[idx[0]]
                t1 = w * data[idx[1]]
                t2 = (w * w) * data[idx[2]]
                t3 = (w * w * w) * data[idx[3]]
                data[idx[0]] = t0 + t1 + t2 + t3
                data[idx[1]] = t0 - 1j * t1 - t2 + 1j * t3
                data[idx[2]] = t0 - t1 + t2 - t3
                data[idx[3]] = t0 + 1j * t1 - t2 - 1j * t3
                # One FMA-optimised butterfly executed by the owning PE.
                owner = core.pes[(idx[0] // 4) % nr][(idx[0] // (4 * nr)) % nr]
                owner.counters.mac_ops += FMA_OPS_PER_RADIX4_BUTTERFLY
                owner.counters.store_a_reads += 8   # 4 complex inputs
                owner.counters.store_a_writes += 8  # 4 complex outputs
        # Butterfly issue cycles for this stage: (n/4) butterflies spread over
        # the PEs at 24 FMAs each, one FMA per cycle per PE.
        butterflies = n // 4
        core.tick(int(math.ceil(butterflies * FMA_OPS_PER_RADIX4_BUTTERFLY / pes)))
        # Inter-stage exchange: alternate row-bus and column-bus patterns.
        exchanged_words = 2 * n  # every point moves once between stages
        if stage % 2 == 0:
            core.counters.row_broadcasts += exchanged_words // 2
        else:
            core.counters.column_broadcasts += exchanged_words // 2
        size *= 4

    # Final store over the column buses.
    core.counters.external_stores += 2 * n
    core.tick(int(math.ceil(2 * n / nr)))
    return data

def _four_step_fft(core: OracleCore, x: np.ndarray, block_points: int) -> np.ndarray:
    n = x.size
    n2 = block_points
    n1 = n // n2
    if n1 * n2 != n:
        raise ValueError("block size must divide the transform length")
    matrix = x.reshape(n1, n2)

    # Pass 1: FFT down the columns (length n1 transforms).
    stage1 = np.empty_like(matrix)
    for col in range(n2):
        stage1[:, col] = _core_fft(core, matrix[:, col]) if n1 >= 4 else matrix[:, col]
    # Twiddle scaling between the two passes.
    j1 = np.arange(n1).reshape(-1, 1)
    j2 = np.arange(n2).reshape(1, -1)
    stage1 = stage1 * np.exp(-2j * np.pi * j1 * j2 / n)
    core.counters.mac_ops += 4 * n      # one complex multiply per point
    core.tick(int(math.ceil(4 * n / (core.nr * core.nr))))
    # Pass 2: FFT along the rows (length n2 transforms).
    out = np.empty_like(stage1)
    for row in range(n1):
        out[row, :] = _core_fft(core, stage1[row, :])
    # Result in transposed (decimated) order: X[k1 + n1*k2] = out[k1, k2].
    result = np.empty(n, dtype=complex)
    for k1 in range(n1):
        for k2 in range(n2):
            result[k1 + n1 * k2] = out[k1, k2]
    return result
