"""NumPy reference implementations of the level-3 BLAS operations.

These follow the operation definitions of Chapter 5:

* ``GEMM``  : C := C + A B
* ``SYRK``  : C := C + A A^T, updating only the lower triangle of C
* ``SYR2K`` : C := C + A B^T + B A^T, updating only the lower triangle
* ``TRSM``  : solve L X = B for X with lower triangular L
"""

from __future__ import annotations

import numpy as np


def _as_2d(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    return arr


def ref_gemm(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General matrix-matrix multiply: returns C + A @ B."""
    c = _as_2d(c, "C")
    a = _as_2d(a, "A")
    b = _as_2d(b, "B")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
    if c.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"C has shape {c.shape}, expected {(a.shape[0], b.shape[1])}")
    return c + a @ b


def ref_syrk(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Symmetric rank-k update: lower triangle of C + A @ A^T.

    The strictly-upper part of the returned matrix is left equal to the input
    C (the operation only defines the lower triangle).
    """
    c = _as_2d(c, "C")
    a = _as_2d(a, "A")
    if c.shape[0] != c.shape[1] or c.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch for SYRK: C {c.shape}, A {a.shape}")
    full = c + a @ a.T
    out = c.copy()
    lower = np.tril_indices(c.shape[0])
    out[lower] = full[lower]
    return out


def ref_syr2k(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric rank-2k update: lower triangle of C + A B^T + B A^T."""
    c = _as_2d(c, "C")
    a = _as_2d(a, "A")
    b = _as_2d(b, "B")
    if a.shape != b.shape:
        raise ValueError("A and B must have identical shapes for SYR2K")
    if c.shape[0] != c.shape[1] or c.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch for SYR2K: C {c.shape}, A {a.shape}")
    full = c + a @ b.T + b @ a.T
    out = c.copy()
    lower = np.tril_indices(c.shape[0])
    out[lower] = full[lower]
    return out


def ref_trsm(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triangular solve with multiple right-hand sides: X with L X = B."""
    l = _as_2d(l, "L")
    b = _as_2d(b, "B")
    if l.shape[0] != l.shape[1]:
        raise ValueError("L must be square for TRSM")
    if l.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: L {l.shape}, B {b.shape}")
    if np.any(np.abs(np.diag(l)) < 1e-300):
        raise ValueError("L has a (near-)zero diagonal element; TRSM is singular")
    n, m = b.shape
    x = np.array(b, dtype=float, copy=True)
    lt = np.tril(l)
    for i in range(n):
        x[i, :] = (x[i, :] - lt[i, :i] @ x[:i, :]) / lt[i, i]
    return x
