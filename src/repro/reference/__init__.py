"""Plain NumPy reference implementations used to verify the LAC kernels.

The tests check the LAC kernels (GEMM, SYRK, SYR2K, TRSM, Cholesky, LU,
QR, the vector norm and the FFT) against the functions in this subpackage;
nothing else calls them.  The references are deliberately written as
straightforward, readable NumPy code (they are the "ground truth", not the
artifact under study).
"""

from repro.reference.blas3 import (
    ref_gemm,
    ref_syrk,
    ref_syr2k,
    ref_trsm,
)
from repro.reference.factorizations import (
    ref_cholesky,
    ref_lu_partial_pivoting,
    ref_householder_qr,
    ref_vector_norm,
    ref_householder_vector,
)
from repro.reference.fft_ref import ref_dft, ref_fft_radix4

__all__ = [
    "ref_gemm",
    "ref_syrk",
    "ref_syr2k",
    "ref_trsm",
    "ref_cholesky",
    "ref_lu_partial_pivoting",
    "ref_householder_qr",
    "ref_vector_norm",
    "ref_householder_vector",
    "ref_dft",
    "ref_fft_radix4",
]
