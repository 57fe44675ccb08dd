"""Tests for the NumPy reference implementations themselves.

The references are the ground truth for the simulator tests, so they get
their own independent checks against numpy/scipy-style identities.
"""

import numpy as np
import pytest

from repro.reference import (ref_cholesky, ref_dft, ref_fft_radix4, ref_gemm,
                             ref_householder_qr, ref_householder_vector,
                             ref_lu_partial_pivoting, ref_syr2k, ref_syrk, ref_trsm,
                             ref_vector_norm)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_ref_gemm_matches_numpy(rng):
    a, b, c = rng.random((5, 7)), rng.random((7, 3)), rng.random((5, 3))
    np.testing.assert_allclose(ref_gemm(c, a, b), c + a @ b)
    with pytest.raises(ValueError):
        ref_gemm(c, a, rng.random((5, 3)))
    with pytest.raises(ValueError):
        ref_gemm(rng.random((2, 2)), a, b)


def test_ref_trmm_and_trsm_are_inverse_operations(rng):
    l = np.tril(rng.random((6, 6))) + 6 * np.eye(6)
    b = rng.random((6, 5))
    np.testing.assert_allclose(ref_trsm(l, l @ b), b, rtol=1e-10)


def test_ref_trsm_rejects_singular(rng):
    l = np.tril(rng.random((4, 4)))
    l[2, 2] = 0.0
    with pytest.raises(ValueError):
        ref_trsm(l, rng.random((4, 2)))


def test_ref_syrk_and_syr2k_lower_triangles(rng):
    c = rng.random((6, 6))
    a = rng.random((6, 4))
    b = rng.random((6, 4))
    syrk = ref_syrk(c, a)
    full = c + a @ a.T
    np.testing.assert_allclose(np.tril(syrk), np.tril(full))
    np.testing.assert_allclose(np.triu(syrk, 1), np.triu(c, 1))
    syr2k = ref_syr2k(c, a, b)
    full2 = c + a @ b.T + b @ a.T
    np.testing.assert_allclose(np.tril(syr2k), np.tril(full2))


def test_ref_cholesky_against_numpy(rng):
    m = rng.random((6, 6))
    a = m @ m.T + 6 * np.eye(6)
    np.testing.assert_allclose(ref_cholesky(a), np.linalg.cholesky(a), rtol=1e-10)
    with pytest.raises(ValueError):
        ref_cholesky(rng.random((4, 4)))
    with pytest.raises(ValueError):
        ref_cholesky(-np.eye(4))


def test_ref_lu_reconstructs_and_pivots(rng):
    a = rng.random((7, 7))
    p, l, u = ref_lu_partial_pivoting(a)
    np.testing.assert_allclose(p @ a, l @ u, rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(np.tril(l, -1))) <= 1.0 + 1e-12
    np.testing.assert_allclose(np.diag(l), np.ones(7))
    with pytest.raises(ValueError):
        ref_lu_partial_pivoting(np.zeros((4, 4)))


def test_ref_vector_norm_matches_numpy_and_is_safe(rng):
    x = rng.standard_normal(100)
    assert ref_vector_norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert ref_vector_norm(np.zeros(5)) == 0.0
    assert ref_vector_norm(np.array([])) == 0.0
    huge = np.full(4, 1e250)
    assert np.isfinite(ref_vector_norm(huge))
    assert ref_vector_norm(huge) == pytest.approx(2e250, rel=1e-12)


def test_ref_householder_vector_annihilates_tail(rng):
    x = rng.standard_normal(6)
    rho, u2, tau = ref_householder_vector(x)
    u = np.concatenate(([1.0], u2))
    h = np.eye(6) - np.outer(u, u) / tau
    reflected = h @ x
    assert reflected[0] == pytest.approx(rho, rel=1e-12)
    np.testing.assert_allclose(reflected[1:], 0.0, atol=1e-12)
    # Norm is preserved by the reflection.
    assert abs(rho) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_ref_householder_vector_zero_tail():
    rho, u2, tau = ref_householder_vector(np.array([3.0, 0.0, 0.0]))
    assert rho == pytest.approx(3.0)
    assert tau == float("inf")
    with pytest.raises(ValueError):
        ref_householder_vector(np.array([]))


def test_ref_householder_qr_identities(rng):
    a = rng.random((8, 5))
    q, r = ref_householder_qr(a)
    np.testing.assert_allclose(q @ r, a, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(r, np.triu(r))
    with pytest.raises(ValueError):
        ref_householder_qr(rng.random((3, 5)))


def test_ref_qr_matches_numpy_up_to_signs(rng):
    a = rng.random((6, 6))
    _, r = ref_householder_qr(a)
    _, r_np = np.linalg.qr(a)
    np.testing.assert_allclose(np.abs(r), np.abs(r_np), rtol=1e-9)


def test_ref_fft_implementations_agree(rng):
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    np.testing.assert_allclose(ref_fft_radix4(x), np.fft.fft(x), rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(ref_dft(x), np.fft.fft(x), rtol=1e-8, atol=1e-8)
    with pytest.raises(ValueError):
        ref_fft_radix4(rng.standard_normal(24))
    assert ref_dft(np.array([], dtype=complex)).size == 0
