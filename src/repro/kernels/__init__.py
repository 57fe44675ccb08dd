"""Algorithm mappings onto the LAC / LAP.

Each module maps one family of operations onto the cycle-level LAC simulator
(:mod:`repro.lac`), producing numerically correct results *and* realistic
cycle/access counts:

* :mod:`repro.kernels.gemm` -- the rank-1 update engine and blocked GEMM,
* :mod:`repro.kernels.syrk` -- SYRK and SYR2K with the diagonal-PE transpose,
* :mod:`repro.kernels.trsm` -- triangular solve (basic, stacked and
  software-pipelined inner kernels, blocked algorithm),
* :mod:`repro.kernels.cholesky`, :mod:`repro.kernels.lu`,
  :mod:`repro.kernels.qr` -- the matrix-factorization inner kernels of
  Chapter 6 (Cholesky, LU with partial pivoting, Householder QR and the
  overflow-safe vector norm),
* :mod:`repro.kernels.fft` -- the radix-4 FMA-optimised FFT of Appendix B.
"""

from repro.kernels.common import KernelResult
from repro.kernels.gemm import lac_gemm, lac_rank1_sequence
from repro.kernels.syrk import lac_syrk, lac_syr2k
from repro.kernels.trsm import lac_trsm, lac_trsm_unblocked
from repro.kernels.cholesky import lac_cholesky
from repro.kernels.lu import lac_lu_panel
from repro.kernels.qr import lac_vector_norm, lac_householder_qr_panel
from repro.kernels.blocked_factorizations import lac_lu_blocked, lac_qr_blocked
from repro.kernels.fft import lac_fft

__all__ = [
    "KernelResult",
    "lac_gemm",
    "lac_rank1_sequence",
    "lac_syrk",
    "lac_syr2k",
    "lac_trsm",
    "lac_trsm_unblocked",
    "lac_cholesky",
    "lac_lu_panel",
    "lac_lu_blocked",
    "lac_qr_blocked",
    "lac_vector_norm",
    "lac_householder_qr_panel",
    "lac_fft",
]
