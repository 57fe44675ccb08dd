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


def lac_rank1_sequence(core: LinearAlgebraCore, c: np.ndarray,
                       a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Update every ``nr x nr`` block of C with ``kc`` rank-1 updates.

    Each block streams through the accumulators in turn: preload, ``kc``
    single-cycle rank-1 steps (column ``p`` of its rows of A on the row
    buses, row ``p`` of its columns of B read from the replicated ``MEM B``
    copy), stream-out.  Step ``p`` adds ``a[i, p] * b[p, j]`` to every
    element, so the simulator runs it for all blocks as one outer product:
    each element gets the same sum in the same order.  The counters of all
    blocks are charged at once, and the last (bottom-right) block is left in
    the accumulators.

    Parameters
    ----------
    core:
        The LAC simulator instance.
    c:
        ``m x n`` region of C; both dimensions multiples of ``nr``.
    a:
        ``m x kc`` slice of A (column ``p`` is broadcast in step ``p``).
    b:
        ``kc x n`` slice of B (row ``p`` is broadcast / read in step ``p``).

    Returns the updated region.
    """
    nr = core.nr
    out = np.array(c, dtype=float, copy=True)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if out.ndim != 2 or out.shape[0] % nr or out.shape[1] % nr:
        raise ValueError(f"C must be a region of {nr}x{nr} blocks, got {out.shape}")
    m, n = out.shape
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != m or b.shape[1] != n:
        raise ValueError("A slice must be m x kc and B slice kc x n")
    if a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions of the rank-1 sequence do not match")

    kc = a.shape[1]
    for p in range(kc):
        out += np.multiply.outer(a[:, p], b[p, :])
    blocks = (m // nr) * (n // nr)
    if blocks:
        core.accumulators[:, :, 0] = out[-nr:, -nr:]
    counters = core.counters
    # Per block: preload and stream-out of nr x nr words over the column
    # buses (nr cycles each), then kc steps of nr row and nr column
    # broadcasts, nr*nr MACs, nr MEM A reads (the broadcast column of A) and
    # nr*nr MEM B reads (every PE's replicated beta), one cycle each.
    counters.accumulator_writes += blocks * nr * nr
    counters.accumulator_reads += blocks * nr * nr
    counters.external_loads += blocks * nr * nr
    counters.external_stores += blocks * nr * nr
    counters.row_broadcasts += blocks * kc * nr
    counters.column_broadcasts += blocks * kc * nr
    counters.mac_ops += blocks * kc * nr * nr
    counters.store_a_reads += blocks * kc * nr
    counters.store_b_reads += blocks * kc * nr * nr
    core.tick(blocks * (2 * nr + kc))
    return out


def lac_gemm(core: LinearAlgebraCore, c: np.ndarray, a: np.ndarray, b: np.ndarray,
             distribute_operands: bool = True) -> KernelResult:
    """Blocked GEMM ``C += A B`` on a single LAC.

    ``C`` is ``mc x n``, ``A`` is ``mc x kc`` (the resident block), ``B`` is
    ``kc x n`` (streamed in ``nr``-column panels).  All three dimensions must
    be multiples of the core size ``nr``.  Every ``nr``-column panel of ``B``
    is replicated into ``MEM B`` and every ``nr x nr`` block of ``C`` gets
    its ``kc`` rank-1 updates; the blocks are independent, so one
    :func:`lac_rank1_sequence` runs them all.

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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nr = core.nr
    mc, kc = a.shape
    kb, n = b.shape
    if kb != kc:
        raise ValueError(f"inner dimensions do not match: A {a.shape}, B {b.shape}")
    if np.shape(c) != (mc, n):
        raise ValueError(f"C has shape {np.shape(c)}, expected {(mc, n)}")
    check_divisible(mc, nr, "mc")
    check_divisible(kc, nr, "kc")
    check_divisible(n, nr, "n")

    if distribute_operands:
        core.distribute_a(a)
        for j in range(0, n, nr):
            core.distribute_b_replicated(b[:, j:j + nr])
    c = lac_rank1_sequence(core, c, a, b)

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
