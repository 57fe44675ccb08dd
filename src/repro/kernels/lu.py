"""LU factorization with partial pivoting on the LAC (Section 6.1.2).

The inner kernel factors a tall ``k x nr`` panel stored 2D-cyclically across
the mesh.  Iteration ``i`` performs four steps (Figure 6.2):

* **S1** -- search the ``i``-th column below the diagonal for the element of
  maximum magnitude (the pivot).  With the comparator MAC extension the
  search rides along the normal column traversal; without it an explicit
  reduction pass is issued.
* **S2** -- feed the pivot to the reciprocal unit and swap the pivot row with
  row ``i`` over the buses, concurrently.
* **S3** -- broadcast ``1/pivot`` down the ``i``-th column and scale the
  entries below the diagonal.
* **S4** -- broadcast the scaled column along the rows and the pivot row down
  the columns and apply the rank-1 update to the trailing panel.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hw.sfu import SpecialOp
from repro.kernels.common import KernelResult, check_divisible, counters_delta
from repro.lac.core import LinearAlgebraCore


def lac_lu_panel(core: LinearAlgebraCore, a_panel: np.ndarray,
                 use_comparator_extension: bool = True) -> KernelResult:
    """Factor a ``k x nr`` panel with partial pivoting on the LAC.

    Returns a :class:`KernelResult` whose output is the factored panel (unit
    lower-triangular multipliers below the diagonal, ``U`` on and above it)
    and whose ``extra['pivots']`` records the row swapped into position ``i``
    at step ``i`` (LAPACK-style ipiv, 0-based).
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
        a[i + 1:, i] = a[i + 1:, i] * inv
        core.counters.mac_ops += k - i - 1
        core.tick(int(np.ceil((k - i - 1) / float(nr))) + p)

        # S4: rank-1 update of the trailing (k-i-1) x (nr-i-1) panel.
        if i + 1 < nr:
            core.counters.row_broadcasts += 1
            core.counters.column_broadcasts += 1
            a[i + 1:, i + 1:] = np.multiply.outer(-a[i + 1:, i], a[i, i + 1:]) + a[i + 1:, i + 1:]
            core.counters.mac_ops += (k - i - 1) * (nr - i - 1)
            core.tick(int(np.ceil((k - i - 1) * (nr - i - 1) / float(nr * nr))) + p)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="lu_panel", output=a, counters=delta, num_pes=core.num_pes,
                        extra={"pivots": pivots})
