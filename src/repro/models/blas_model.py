"""Analytical utilisation models for level-3 BLAS operations on the LAC.

Chapter 5 generalises the GEMM mapping to the rest of the level-3 BLAS.  The
key results reproduced here are:

* **SYRK / SYR2K** -- the diagonal blocks are computed by an unblocked kernel
  that transposes columns of ``A`` over the diagonal PEs while the bulk of
  the work is cast as GEMM; utilisation is lowered by the triangular diagonal
  blocks and (for SYR2K) by the doubled data traffic.
* **TRSM** -- the unblocked kernel is limited by fine-grained dependencies
  through the pipelined MAC units.  Stacking ``p`` independent nr x nr TRSMs
  fills the pipeline, and software pipelining ``g`` stacked groups overlaps
  the scale step with the rank-1 updates, giving the ~60% inner-kernel
  utilisation derived in Section 5.3.1; the blocked algorithm then casts the
  bulk of the work as GEMM and reaches ~90+% overall.
* At a representative design point (20 KB/PE, 4 B/cycle, nr = 4) the paper
  quotes utilisations of about 100% (GEMM), 95% (TRSM), 90% (SYRK) and
  ~80-85% (SYR2K); Table 5.1 reports the corresponding GFLOPS/W at 1.1 GHz.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.models.core_model import CoreGEMMModel


class Level3Operation(enum.Enum):
    """The level-3 BLAS operations analysed in Chapter 5."""

    GEMM = "gemm"
    SYMM = "symm"
    TRMM = "trmm"
    SYRK = "syrk"
    SYR2K = "syr2k"
    TRSM = "trsm"


@dataclass(frozen=True)
class BlasModelResult:
    """Utilisation estimate for one level-3 BLAS design point."""

    operation: Level3Operation
    nr: int
    mc: int
    kc: int
    n: int
    bandwidth_elements_per_cycle: float
    local_store_kbytes_per_pe: float
    utilization: float


class BlasCoreModel:
    """Analytical utilisation model of the LAC across level-3 BLAS.

    The model composes the GEMM core model (which captures the
    bandwidth/local-store trade-off) with operation-specific inner-kernel
    efficiency terms that capture the triangular diagonal blocks, the
    transpose traffic and the dependency-limited TRSM inner kernel.
    """

    def __init__(self, nr: int = 4, element_bytes: int = 8, mac_pipeline_stages: int = 8):
        if mac_pipeline_stages < 1:
            raise ValueError("MAC pipeline depth must be >= 1")
        self.nr = nr
        self.element_bytes = element_bytes
        self.mac_pipeline_stages = mac_pipeline_stages
        self.gemm_model = CoreGEMMModel(nr=nr, element_bytes=element_bytes)

    # ------------------------------------------------- inner kernel models

    def trsm_blocked_utilization(self, k_blocks: int) -> float:
        """Utilisation of the blocked TRSM over ``k_blocks`` block-rows.

        Section 5.3.3: the ratio of useful MACs to issued cycles is
        ``sum_i (i + 1/2) / sum_i (i + 1)`` which approaches 1 as the number
        of block rows grows (90% already at k=8 from the paper's 32x128
        example scaled by block size).
        """
        if k_blocks < 1:
            raise ValueError("number of blocks must be >= 1")
        num = sum(i + 0.5 for i in range(k_blocks + 1))
        den = sum(i + 1.0 for i in range(k_blocks + 1))
        return num / den

    def syrk_inner_utilization(self, m_blocks: int) -> float:
        """Utilisation of blocked SYRK over ``m_blocks`` block-rows of C.

        Only the diagonal nr x nr blocks run the (transposing) unblocked
        kernel; they update just the lower triangle, so roughly half of the
        MACs in those blocks are useful, while all off-diagonal work is plain
        GEMM.  With ``m`` block rows there are ``m`` diagonal blocks and
        ``m*(m-1)/2`` off-diagonal blocks.
        """
        if m_blocks < 1:
            raise ValueError("number of block rows must be >= 1")
        diag = m_blocks
        off_diag = m_blocks * (m_blocks - 1) / 2.0
        useful = off_diag + 0.5 * diag
        issued = off_diag + diag
        return useful / issued

    # ------------------------------------------------------ composite model
    def utilization(self, operation: Level3Operation, mc: int, kc: int, n: int,
                    bandwidth_elements_per_cycle: float,
                    full_overlap: bool = False) -> BlasModelResult:
        """Utilisation of the LAC for a level-3 BLAS operation.

        The GEMM bandwidth/local-store model provides the baseline; the
        operation-specific factors described in the class docstring modulate
        it.  ``SYR2K`` additionally halves the effective problem that fits in
        the same local store because both ``A`` and ``B`` panels must be
        resident, which shows up as a doubled bandwidth demand.
        """
        if operation is Level3Operation.SYR2K:
            # Twice the streamed data for the same compute.
            base = self.gemm_model.cycles(mc, kc, n,
                                          bandwidth_elements_per_cycle / 2.0,
                                          full_overlap)
        else:
            base = self.gemm_model.cycles(mc, kc, n, bandwidth_elements_per_cycle,
                                          full_overlap)
        util = base.utilization

        m_blocks = max(1, mc // self.nr)
        if operation is Level3Operation.GEMM:
            factor = 1.0
        elif operation in (Level3Operation.SYMM, Level3Operation.TRMM):
            # SYMM pays a small transpose overhead on the diagonal blocks of A;
            # TRMM's triangular panels shorten some updates.
            factor = self.syrk_inner_utilization(m_blocks) * 0.5 + 0.5
        elif operation in (Level3Operation.SYRK, Level3Operation.SYR2K):
            factor = self.syrk_inner_utilization(m_blocks)
        elif operation is Level3Operation.TRSM:
            factor = self.trsm_blocked_utilization(m_blocks)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown operation {operation}")

        util = min(1.0, util * factor)
        return BlasModelResult(
            operation=operation,
            nr=self.nr,
            mc=mc,
            kc=kc,
            n=n,
            bandwidth_elements_per_cycle=bandwidth_elements_per_cycle,
            local_store_kbytes_per_pe=self.gemm_model.local_store_bytes_per_pe(
                mc, kc, full_overlap) / 1024.0,
            utilization=util,
        )

    # ------------------------------------------------------------ sweeps

    def compare_operations(self, mc: int, kc: int, n: int,
                           bandwidth_elements_per_cycle: float,
                           operations: Optional[Sequence[Level3Operation]] = None
                           ) -> List[BlasModelResult]:
        """Utilisation of several operations at one design point (Fig. 5.10)."""
        ops = operations or [Level3Operation.GEMM, Level3Operation.TRSM,
                             Level3Operation.SYRK, Level3Operation.SYR2K]
        return [self.utilization(op, mc, kc, n, bandwidth_elements_per_cycle) for op in ops]
