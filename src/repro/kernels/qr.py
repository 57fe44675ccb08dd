"""Householder QR and the overflow-safe vector norm on the LAC (Sec. 6.1.3).

The vector-norm kernel maps a column vector that lives in one PE column onto
the mesh in three steps (Figure 6.4): the owning column shares half of its
elements with the neighbouring column so ``2*nr`` PEs accumulate partial
inner products (S1), the partials are reduced back into the owning column
(S2), and a reduce-all over the column bus leaves the final norm in every PE
of that column (S3).  Without the extended-exponent MAC accumulator the
kernel must first find the largest magnitude and scale the vector by it to
guard against overflow/underflow, adding a search pass, a reciprocal and a
scaling pass.

The QR panel kernel composes the vector norm with the Householder-vector
computation of Table 6.1 (right column) and applies each reflector to the
trailing columns with a matrix-vector product and a rank-1 update.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.hw.sfu import SpecialOp
from repro.kernels.common import KernelResult, counters_delta
from repro.lac.core import LinearAlgebraCore


def lac_vector_norm(core: LinearAlgebraCore, x: np.ndarray, owner_column: int = 0,
                    use_exponent_extension: bool = True) -> KernelResult:
    """Overflow-safe 2-norm of a vector stored in one PE column.

    Parameters
    ----------
    x:
        The vector (length ``k``).
    owner_column:
        Index of the PE column that owns the vector.
    use_exponent_extension:
        When True the MAC accumulators carry an extra exponent bit and the
        scaling passes are skipped; when False the two-pass guarded algorithm
        is executed (max search, scale, accumulate, un-scale).
    """
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

    # S1: the owner column and its neighbour accumulate partial inner
    # products; element idx goes to lane idx mod 2nr (lanes 0..nr-1 are the
    # owner column's PEs, nr..2nr-1 its neighbour's).
    partials = np.zeros(2 * nr, dtype=float)
    for first in range(0, k, 2 * nr):
        chunk = values[first:first + 2 * nr]
        partials[:chunk.size] = chunk * chunk + partials[:chunk.size]
    core.counters.mac_ops += k
    core.counters.row_broadcasts += k // 2    # sharing half the vector sideways
    core.tick(int(np.ceil(k / float(2 * nr))) + p)

    # S2: reduce the neighbour column's partials back into the owner column.
    owner_partials = partials[:nr] + partials[nr:]
    core.counters.mac_ops += nr
    core.counters.row_broadcasts += nr
    core.tick(1 + p)

    # S3: reduce-all over the owner column bus.
    total = core.reduce_column(owner_partials)
    norm = scale * core.special(SpecialOp.SQRT, total)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="vector_norm", output=float(norm), counters=delta,
                        num_pes=core.num_pes)


def lac_householder_vector(core: LinearAlgebraCore, x: np.ndarray,
                           use_exponent_extension: bool = True):
    """Householder reflector of a vector on the LAC (Table 6.1, right column).

    Returns ``(rho1, u2, tau1)`` matching the reference implementation.
    """
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
    u2 = x2 * inv_nu1
    chi2_scaled = abs(chi2 * inv_nu1)
    core.counters.mac_ops += x2.size + 1
    tau1 = (1.0 + chi2_scaled ** 2) / 2.0
    core.tick(core.mac_latency)
    return float(rho1), u2, float(tau1)


def apply_reflector(core: LinearAlgebraCore, u: np.ndarray, tau: float,
                    block: np.ndarray) -> None:
    """Apply ``H = I - u u^T / tau`` to ``block`` in place on the LAC mesh.

    ``w = (u^T block) / tau`` is a matrix-vector product: each column's sum
    runs down the rows in order, one MAC per element, and the columns
    proceed in parallel.  ``block -= u w^T`` is then a rank-1 update.  Each
    pass costs ``ceil(size / nr^2)`` cycles plus a pipeline drain.
    """
    rows, cols = block.shape
    w = np.zeros(cols, dtype=float)
    for r in range(rows):
        w = u[r] * block[r] + w
    w = w / tau
    cycles = int(np.ceil(block.size / float(core.num_pes))) + core.mac_latency
    core.tick(cycles)
    block[...] = np.multiply.outer(-u, w) + block
    core.tick(cycles)
    core.counters.mac_ops += 2 * block.size


def lac_householder_qr_panel(core: LinearAlgebraCore, a_panel: np.ndarray,
                             use_exponent_extension: bool = True) -> KernelResult:
    """Householder QR of a ``k x nr`` panel on the LAC.

    The output matrix carries ``R`` in its upper triangle and the essential
    parts of the Householder vectors below the diagonal (LAPACK ``geqrf``
    convention); ``extra['tau']`` holds the scalar ``tau`` of each reflector.
    """
    start = core.counters.copy()
    a = np.array(a_panel, dtype=float, copy=True)
    nr = core.nr
    k = a.shape[0]
    if a.ndim != 2 or a.shape[1] != nr:
        raise ValueError(f"panel must be k x nr with nr={nr}, got {a.shape}")
    if k < nr:
        raise ValueError("panel must have at least nr rows")

    core.distribute_a(a)
    taus: List[float] = []
    for j in range(nr):
        rho, u2, tau = lac_householder_vector(core, a[j:, j],
                                              use_exponent_extension=use_exponent_extension)
        taus.append(tau)
        if not np.isfinite(tau):
            a[j, j] = rho if u2.size else a[j, j]
            continue
        if j + 1 < nr:
            apply_reflector(core, np.concatenate(([1.0], u2)), tau, a[j:, j + 1:])
        # Store rho on the diagonal and the essential reflector below it.
        a[j, j] = rho
        a[j + 1:, j] = u2

    delta = counters_delta(core.counters, start)
    return KernelResult(name="qr_panel", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"tau": taus})


def lac_apply_reflectors(core: LinearAlgebraCore, v: np.ndarray,
                         taus: Sequence[float], c: np.ndarray) -> KernelResult:
    """Apply ``Q^T = H_{p-1} ... H_0`` of a packed reflector block to ``C``.

    ``v`` is ``m x p`` with the essential parts of reflector ``j`` stored
    below its diagonal (unit head implied, entries above ignored) and ``c``
    is ``m x q``.  Reflector ``j`` is applied as ``w = (u^T C)/tau`` followed
    by the rank-1 update ``C -= u w^T`` -- a matrix-vector product plus a
    rank-1 update through the MAC mesh, exactly like the trailing update
    inside :func:`lac_householder_qr_panel`.  This is the UNMQR/TSMQR tile
    kernel of the tiled-QR runtime.
    """
    start = core.counters.copy()
    v = np.asarray(v, dtype=float)
    c = np.array(c, dtype=float, copy=True)
    if v.ndim != 2 or c.ndim != 2:
        raise ValueError("reflector block and C must be 2-D")
    m, num_reflectors = v.shape
    if c.shape[0] != m:
        raise ValueError(f"C must have {m} rows to match the reflectors, "
                         f"got {c.shape[0]}")
    if len(taus) != num_reflectors:
        raise ValueError(f"expected {num_reflectors} tau scalars, got {len(taus)}")

    for j in range(num_reflectors):
        tau = taus[j]
        if not np.isfinite(tau):
            continue
        apply_reflector(core, np.concatenate(([1.0], v[j + 1:, j])), tau, c[j:])

    delta = counters_delta(core.counters, start)
    return KernelResult(name="apply_reflectors", output=c, counters=delta,
                        num_pes=core.num_pes)
