"""SYRK and SYR2K on the LAC (Section 5.2).

The symmetric rank-k update ``C := C + A A^T`` looks like GEMM with ``B``
replaced by ``A^T``; the twist is that each column of ``A`` must be available
in transposed form during the rank-1 updates.  The LAC achieves this without
extra passes by routing the column through the diagonal PEs: in iteration
``i`` the owning PE column broadcasts column ``a_i`` across the *row* buses,
the diagonal PEs latch it and re-broadcast it down the *column* buses in the
next step, giving every PE both ``a_i`` (row value) and ``a_i^T`` (column
value) for the rank-1 update, while the transposed copy is retained so the
bulk of the blocked algorithm can proceed as plain GEMM.

Only the lower triangle of ``C`` is computed; the blocked algorithm updates
the diagonal ``nr x nr`` blocks with the unblocked transposing kernel and
casts all off-diagonal work as GEMM with the previously produced ``A^T``
panels (Figure 5.3).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import KernelResult, check_divisible, counters_delta
from repro.kernels.gemm import lac_rank1_sequence
from repro.lac.core import LinearAlgebraCore


def lac_syrk(core: LinearAlgebraCore, c: np.ndarray, a: np.ndarray) -> KernelResult:
    """Blocked SYRK ``C := C + A A^T`` (lower triangle) on a single LAC.

    ``C`` is ``mc x mc`` and ``A`` is ``mc x kc``; both dimensions must be
    multiples of ``nr``.  Diagonal blocks use the transposing unblocked
    kernel; off-diagonal blocks ``C[i, j] += A_i A_j^T`` (``i > j``) are plain
    rank-1 update sequences against the transposed panel produced while the
    ``j``-th diagonal block was computed.
    """
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
        # (1a/1b) diagonal block and the transposed panel A_j^T: each column
        # of A_j is read once from MEM A and transposed over the diagonal PEs.
        c[j:j + nr, j:j + nr] = _cross_unblocked(core, c[j:j + nr, j:j + nr], a[j:j + nr, :],
                                                 a[j:j + nr, :], nr)
        a_j_t = a[j:j + nr, :].T  # kc x nr, retained in the PE rows by the kernel
        # (2) the panel below the diagonal: C[i, j] += A_i * A_j^T as GEMM.
        c[j + nr:, j:j + nr] = lac_rank1_sequence(core, c[j + nr:, j:j + nr],
                                                  a[j + nr:, :], a_j_t)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="syrk", output=c, counters=delta, num_pes=core.num_pes)


def lac_syr2k(core: LinearAlgebraCore, c: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> KernelResult:
    """Blocked SYR2K ``C := C + A B^T + B A^T`` (lower triangle) on a LAC.

    Uses the same principles as SYRK with both cross terms; the amount of
    communication and computation doubles (Section 5.2.2).
    """
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
        tmp = _cross_unblocked(core, block, a[j:j + nr, :], b[j:j + nr, :], 2 * nr)
        c[j:j + nr, j:j + nr] = _cross_unblocked(core, tmp, b[j:j + nr, :],
                                                 a[j:j + nr, :], 2 * nr)
        # Below the diagonal, each block runs its A_i B_j^T sequence and then
        # its B_i A_j^T sequence.
        panel = lac_rank1_sequence(core, c[j + nr:, j:j + nr], a[j + nr:, :],
                                   b[j:j + nr, :].T)
        c[j + nr:, j:j + nr] = lac_rank1_sequence(core, panel, b[j + nr:, :],
                                                  a[j:j + nr, :].T)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="syr2k", output=c, counters=delta, num_pes=core.num_pes)


def _cross_unblocked(core: LinearAlgebraCore, c_block: np.ndarray,
                     left: np.ndarray, right: np.ndarray,
                     reads_per_step: int) -> np.ndarray:
    """Diagonal-block update ``C += left * right^T`` with on-the-fly transpose.

    Step ``p`` broadcasts column ``p`` of ``right`` on the row buses, the
    diagonal PEs re-broadcast it down the column buses, and every PE adds
    its product with column ``p`` of ``left`` to its accumulator (one MAC
    per PE, one cycle) -- the three concurrent activities of Figure 5.2.
    ``reads_per_step`` ``MEM A`` words feed each step.  Only the lower
    triangle of the block is updated.
    """
    nr = core.nr
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    kc = left.shape[1]
    core.load_c_accumulators(c_block)
    acc = core.accumulators[:, :, 0]
    for p in range(kc):
        transposed = core.transpose_via_diagonal(right[:, p])
        acc += np.multiply.outer(left[:, p], transposed)
    core.counters.mac_ops += kc * nr * nr
    core.counters.store_a_reads += kc * reads_per_step
    core.tick(kc)
    updated = core.store_c_accumulators()
    out = np.array(c_block, dtype=float, copy=True)
    lower = np.tril_indices(nr)
    out[lower] = updated[lower]
    return out
