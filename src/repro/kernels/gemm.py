"""GEMM on the LAC: the rank-1 update engine and the blocked core kernel.

The driving example of the whole design (Chapter 3): a ``4 x kc`` slice of
``A`` and a ``kc x 4`` slice of ``B`` are combined through ``kc`` rank-1
updates into a ``4 x 4`` block of ``C`` held in the MAC accumulators.  The
element ``a[i, p]`` is broadcast along PE row ``i`` from the PE that owns it
(column ``p mod nr``), ``b[p, j]`` is broadcast down PE column ``j`` (or read
from the locally replicated copy of the ``B`` panel), and every PE performs
one MAC per cycle.

The blocked core kernel then sweeps a resident ``mc x kc`` block of ``A``
against a ``kc x n`` panel of ``B``: for every ``nr``-column slice of ``C``
the corresponding ``kc x nr`` panel of ``B`` is replicated into the PE
``MEM B`` stores, and for every ``nr``-row slice of ``A`` the accumulators are
preloaded with the ``nr x nr`` block of ``C``, updated with ``kc`` rank-1
steps, and streamed back out — exactly the loop structure of Section 3.3.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import KernelResult, check_divisible, counters_delta
from repro.lac.core import LinearAlgebraCore


def lac_rank1_sequence(core: LinearAlgebraCore, c_block: np.ndarray,
                       a_slice: np.ndarray, b_slice: np.ndarray) -> np.ndarray:
    """Update one ``nr x nr`` block of C with ``kc`` rank-1 updates.

    Parameters
    ----------
    core:
        The LAC simulator instance.
    c_block:
        ``nr x nr`` block of C (preloaded into the accumulators here).
    a_slice:
        ``nr x kc`` slice of A (column ``p`` is broadcast in step ``p``).
    b_slice:
        ``kc x nr`` slice of B (row ``p`` is broadcast / read in step ``p``).

    Returns the updated ``nr x nr`` block.
    """
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


def lac_gemm(core: LinearAlgebraCore, c: np.ndarray, a: np.ndarray, b: np.ndarray,
             distribute_operands: bool = True) -> KernelResult:
    """Blocked GEMM ``C += A B`` on a single LAC.

    ``C`` is ``mc x n``, ``A`` is ``mc x kc`` (the resident block), ``B`` is
    ``kc x n`` (streamed in ``nr``-column panels).  All three dimensions must
    be multiples of the core size ``nr``.

    Parameters
    ----------
    distribute_operands:
        When True (default) the block of A and each panel of B are explicitly
        distributed/replicated into the PE local stores, charging the
        corresponding transfer cycles; the steady-state kernel of the paper
        overlaps those transfers with computation, which callers can model by
        resetting the counters around the inner loop instead.
    """
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


def lac_gemm_steady_state_cycles(nr: int, mc: int, kc: int, n: int) -> int:
    """Closed-form steady-state cycle count of the blocked core GEMM.

    One rank-1 update per cycle, ``kc`` updates per ``nr x nr`` block of C,
    ``(mc/nr) * (n/nr)`` blocks — the figure the analytical core model uses as
    its peak-compute term ``mc * kc * n / nr^2``.
    """
    if min(nr, mc, kc, n) < 1:
        raise ValueError("all dimensions must be positive")
    return (mc // nr) * (n // nr) * kc
