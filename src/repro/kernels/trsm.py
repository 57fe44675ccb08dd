"""TRSM on the LAC: triangular solve with multiple right-hand sides (Sec. 5.3).

The operation solves ``L X = B`` for ``X`` with a lower-triangular ``L``.
Three inner-kernel organisations are modelled, mirroring the dissertation:

``basic``
    a single ``nr x nr`` TRSM; every iteration serialises a reciprocal, a row
    scale and a rank-1 update through the MAC pipeline, so most pipeline
    slots are idle (``~2 p nr`` cycles for one block).
``stacked``
    ``p`` independent ``nr x nr`` TRSMs share the pipeline; the p blocks fill
    the otherwise-empty stages (``~2 p nr + p`` cycles for p blocks).
``software pipelined``
    the wide panel of ``B`` is split into ``g`` stacked groups and the scale
    step of one group overlaps the rank-1 updates of the previous one
    (``~p nr (g + 1)`` cycles for a ``nr x g p nr`` panel).

The blocked algorithm (Figure 5.7) then updates each block row of ``B`` with a
GEMM against the already-solved rows before applying the unblocked kernel to
the diagonal block, which is where the ~95% overall utilisation comes from.
"""

from __future__ import annotations

import numpy as np

from repro.hw.sfu import SpecialOp
from repro.kernels.common import KernelResult, check_divisible, counters_delta
from repro.kernels.gemm import lac_rank1_sequence
from repro.lac.core import LinearAlgebraCore


def lac_trsm_unblocked(core: LinearAlgebraCore, l_block: np.ndarray,
                       b_panel: np.ndarray, variant: str = "software_pipelined"
                       ) -> np.ndarray:
    """Unblocked TRSM of an ``nr x nr`` diagonal block against a panel of B.

    Parameters
    ----------
    l_block:
        ``nr x nr`` lower-triangular diagonal block of L.
    b_panel:
        ``nr x m`` panel of right-hand sides (``m`` a multiple of ``nr`` is
        not required here).
    variant:
        ``"basic"``, ``"stacked"`` or ``"software_pipelined"`` -- affects only
        the cycle accounting; the numerical result is identical.

    Returns the solved panel ``X = L^{-1} B``.
    """
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
        b_panel[i] = b_panel[i] * inv
        # S3: broadcast the solved row down the columns and the i-th column of
        # L along the rows, rank-1 update of the remaining rows.
        b_panel[i + 1:] = np.multiply.outer(-l_block[i + 1:, i], b_panel[i]) + b_panel[i + 1:]
        core.counters.mac_ops += (nr - i) * m
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


def lac_trsm(core: LinearAlgebraCore, l: np.ndarray, b: np.ndarray,
             variant: str = "software_pipelined") -> KernelResult:
    """Blocked TRSM ``X = L^{-1} B`` on a single LAC.

    ``L`` is ``k x k`` lower triangular and ``B`` is ``k x m``; ``k`` must be
    a multiple of ``nr``.  Block row ``i`` of ``B`` is first updated with a
    GEMM against the already-solved block rows (``B_1 -= L_10 B_0``), then the
    diagonal block is applied with the unblocked kernel (``B_1 = L_11^{-1}
    B_1``) -- the two steps of Figure 5.7.
    """
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
        # (1) GEMM update of the block row with the already-computed rows of X.
        if i > 0:
            b[i:i + nr, :] = lac_rank1_sequence(core, b[i:i + nr, :], -l[i:i + nr, :i],
                                                b[:i, :])
        # (2) unblocked TRSM with the diagonal block, across the whole panel.
        b[i:i + nr, :] = lac_trsm_unblocked(core, l[i:i + nr, i:i + nr], b[i:i + nr, :],
                                            variant=variant)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="trsm", output=b, counters=delta, num_pes=core.num_pes)


def trsm_unblocked_cycle_estimate(nr: int, pipeline_stages: int, variant: str = "basic",
                                  stacked_blocks: int = 1, groups: int = 1) -> float:
    """Closed-form cycle estimates of Section 5.3.1 for the inner kernels.

    * basic ``nr x nr`` TRSM: ``2 p nr`` cycles;
    * stacked (``p`` blocks): ``2 p nr + p`` cycles;
    * software pipelined (``nr x g p nr`` panel): ``p nr (g + 1)`` cycles.
    """
    p = pipeline_stages
    if variant == "basic":
        return 2.0 * p * nr
    if variant == "stacked":
        if stacked_blocks < 1:
            raise ValueError("stacked_blocks must be >= 1")
        return 2.0 * p * nr + p
    if variant == "software_pipelined":
        if groups < 1:
            raise ValueError("groups must be >= 1")
        return float(p * nr * (groups + 1))
    raise ValueError(f"unknown TRSM variant '{variant}'")
