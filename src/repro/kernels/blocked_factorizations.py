"""Blocked LU and QR factorization drivers for the LAC.

Chapter 6 maps the *inner kernels* of the factorizations (a ``k x nr`` panel)
onto the LAC and notes that larger problems are handled by the standard
algorithms-by-blocks: factor a panel, then update the trailing matrix with
level-3 BLAS operations that the LAC already runs at high utilisation.  These
drivers complete that picture so the whole factorization of an ``n x n``
matrix can be verified end to end on the simulator:

* **blocked LU with partial pivoting** -- panel factorization
  (:func:`repro.kernels.lu.lac_lu_panel`), row interchanges applied across
  the trailing columns, a TRSM to compute the U panel and a GEMM trailing
  update;
* **blocked Householder QR** -- panel factorization
  (:func:`repro.kernels.qr.lac_householder_qr_panel`) followed by applying
  the block of reflectors to the trailing columns (the WY-less, vector-at-a-
  time variant, which is what the LAC kernel produces);
* **blocked right-looking Cholesky** -- diagonal blocks factored with the
  unblocked kernel (:func:`repro.kernels.cholesky.lac_cholesky`), panel
  TRSMs against the diagonal factor and rank-``nr`` trailing updates, the
  single-core view of the task graph the LAP runtime schedules across cores.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.cholesky import lac_cholesky
from repro.kernels.common import KernelResult, check_divisible, counters_delta
from repro.kernels.gemm import lac_rank1_sequence
from repro.kernels.lu import lac_lu_panel
from repro.kernels.qr import apply_reflector, lac_householder_qr_panel
from repro.kernels.trsm import lac_trsm_unblocked
from repro.lac.core import LinearAlgebraCore


def lac_cholesky_blocked(core: LinearAlgebraCore, a: np.ndarray) -> KernelResult:
    """Blocked right-looking Cholesky factorization of an SPD ``n x n`` matrix.

    :func:`repro.kernels.cholesky.lac_cholesky` already implements the full
    blocked algorithm (unblocked diagonal factorization, panel TRSM,
    SYRK-shaped trailing updates); this driver re-exports it under the
    blocked-factorization naming so Cholesky, LU and QR share one module
    and one result convention (``output`` is the lower factor ``L`` with
    ``L @ L.T == A``).
    """
    result = lac_cholesky(core, a)
    return KernelResult(name="cholesky_blocked", output=result.output,
                        counters=result.counters, num_pes=result.num_pes,
                        extra=result.extra)


def lac_lu_blocked(core: LinearAlgebraCore, a: np.ndarray,
                   use_comparator_extension: bool = True) -> KernelResult:
    """Blocked LU factorization with partial pivoting of an ``n x n`` matrix.

    The output matrix carries ``L`` (unit diagonal implied) below the diagonal
    and ``U`` on/above it; ``extra['pivots']`` records the global row swapped
    into position ``i`` at elimination step ``i`` (0-based, LAPACK ``ipiv``
    convention), and ``extra['permutation']`` the resulting row permutation
    such that ``A[permutation] = L @ U``.
    """
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
            a[j + nr:, j + nr:] = lac_rank1_sequence(core, a[j + nr:, j + nr:],
                                                     -a[j + nr:, j:j + nr],
                                                     a[j:j + nr, j + nr:])

    permutation = np.arange(n)
    for i, piv in enumerate(pivots):
        if piv != i:
            permutation[[i, piv]] = permutation[[piv, i]]

    delta = counters_delta(core.counters, start)
    return KernelResult(name="lu_blocked", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"pivots": pivots, "permutation": permutation})


def lu_blocked_reconstruct(factored: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split the in-place blocked-LU output into explicit L and U factors."""
    factored = np.asarray(factored, dtype=float)
    n = factored.shape[0]
    l = np.tril(factored, -1) + np.eye(n)
    u = np.triu(factored)
    return l, u


def lac_qr_blocked(core: LinearAlgebraCore, a: np.ndarray,
                   use_exponent_extension: bool = True) -> KernelResult:
    """Blocked Householder QR factorization of an ``m x n`` matrix (m >= n).

    The output carries ``R`` in its upper triangle and the essential parts of
    the Householder vectors below the diagonal; ``extra['tau']`` lists the
    reflector scalars in elimination order.  ``qr_blocked_q`` rebuilds the
    explicit ``Q`` for verification.
    """
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
                apply_reflector(core, np.concatenate(([1.0], a[col + 1:, col])), tau,
                                a[col:, j + nr:])

    delta = counters_delta(core.counters, start)
    return KernelResult(name="qr_blocked", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"tau": taus})


def qr_blocked_q(factored: np.ndarray, taus: List[float]) -> np.ndarray:
    """Rebuild the explicit orthogonal factor Q from the blocked-QR output."""
    factored = np.asarray(factored, dtype=float)
    m, n = factored.shape
    q = np.eye(m)
    for j in range(n - 1, -1, -1):
        tau = taus[j]
        if not np.isfinite(tau):
            continue
        u = np.zeros(m)
        u[j] = 1.0
        u[j + 1:] = factored[j + 1:, j]
        q -= np.outer(u, (u @ q)) / tau
    return q
