"""Cholesky factorization on the LAC (Section 6.1.1).

The unblocked ``nr x nr`` kernel keeps the (symmetrised) block in the PE
registers.  Each iteration ``i``:

* S1/S2 -- the diagonal PE feeds ``a[i, i]`` to the inverse-square-root unit,
  the result is broadcast along PE row ``i`` and PE column ``i`` and
  multiplied into the elements below / to the right of the diagonal, and
* S3 -- the scaled row and column are re-broadcast and a rank-1 update
  subtracts their outer product from the trailing submatrix.

Blocked Cholesky for larger matrices casts the trailing update as SYRK/GEMM
and the panel scaling as TRSM; the blocked driver here composes those kernels
so the full factorization can be verified end to end on the simulator.
"""

from __future__ import annotations

import numpy as np

from repro.hw.sfu import SpecialOp
from repro.kernels.common import KernelResult, check_divisible, counters_delta
from repro.kernels.gemm import lac_rank1_sequence
from repro.kernels.trsm import lac_trsm_unblocked
from repro.lac.core import LinearAlgebraCore


def _cholesky_unblocked(core: LinearAlgebraCore, a_block: np.ndarray) -> np.ndarray:
    """Unblocked Cholesky of an ``nr x nr`` SPD block; returns the factor L."""
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
        a[i, i] = diag * inv_sqrt  # sqrt(a_ii)
        a[i + 1:, i] = a[i + 1:, i] * inv_sqrt
        a[i, i + 1:] = a[i, i + 1:] * inv_sqrt
        rest = nr - i - 1
        core.counters.mac_ops += 1 + 2 * rest
        # S3: rank-1 update of the trailing submatrix.
        if rest:
            core.counters.row_broadcasts += 1
            core.counters.column_broadcasts += 1
            a[i + 1:, i + 1:] = np.multiply.outer(-a[i + 1:, i], a[i, i + 1:]) + a[i + 1:, i + 1:]
            core.counters.mac_ops += rest * rest
        core.tick(2 * p)
    return np.tril(a)


def lac_cholesky(core: LinearAlgebraCore, a: np.ndarray) -> KernelResult:
    """Blocked Cholesky factorization ``A = L L^T`` on a single LAC.

    ``A`` must be symmetric positive definite with a dimension that is a
    multiple of the core size.  The right-looking blocked algorithm factors
    the diagonal block with the unblocked kernel, solves the panel below it
    with TRSM, and updates the trailing matrix with rank-1 sequences (the
    SYRK/GEMM bulk).
    """
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
            # Trailing update: work[i, k] -= L[i, j] L[k, j]^T (SYRK-shaped),
            # one block row at a time, for the blocks on and below the
            # diagonal; the blocks above it are never read again.
            lp = l[j + nr:, j:j + nr]
            for i in range(j + nr, n, nr):
                work[i:i + nr, j + nr:i + nr] = lac_rank1_sequence(
                    core, work[i:i + nr, j + nr:i + nr], -lp[i - j - nr:i - j, :],
                    lp[:i - j, :].T)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="cholesky", output=l, counters=delta, num_pes=core.num_pes)


def cholesky_unblocked_cycle_estimate(nr: int, pipeline_stages: int, sfu_latency: int) -> float:
    """Closed-form estimate ``2 p (nr - 1) + q nr`` of Section 6.1.1."""
    if nr < 1 or pipeline_stages < 1 or sfu_latency < 0:
        raise ValueError("invalid parameters for the Cholesky cycle estimate")
    return 2.0 * pipeline_stages * (nr - 1) + sfu_latency * nr
