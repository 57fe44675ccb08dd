"""Tests for the blocked LU / QR drivers."""

import numpy as np
import pytest

from repro.kernels.blocked_factorizations import (lac_lu_blocked, lac_qr_blocked,
                                                  lu_blocked_reconstruct, qr_blocked_q)
from repro.lac.core import LinearAlgebraCore


@pytest.fixture
def rng():
    return np.random.default_rng(31)


# ------------------------------------------------------------- blocked LU
@pytest.mark.parametrize("n", [4, 8, 12])
def test_blocked_lu_reconstructs_permuted_input(rng, n):
    a = rng.random((n, n)) + n * np.eye(n)
    result = lac_lu_blocked(LinearAlgebraCore(), a)
    l, u = lu_blocked_reconstruct(result.output)
    permuted = a[result.extra["permutation"], :]
    np.testing.assert_allclose(l @ u, permuted, rtol=1e-9, atol=1e-10)


def test_blocked_lu_multipliers_bounded_by_pivoting(rng):
    a = rng.random((12, 12))
    result = lac_lu_blocked(LinearAlgebraCore(), a)
    l, _ = lu_blocked_reconstruct(result.output)
    assert np.max(np.abs(np.tril(l, -1))) <= 1.0 + 1e-12


def test_blocked_lu_solves_linear_system(rng):
    n = 8
    a = rng.random((n, n)) + n * np.eye(n)
    b = rng.random(n)
    result = lac_lu_blocked(LinearAlgebraCore(), a)
    l, u = lu_blocked_reconstruct(result.output)
    perm = result.extra["permutation"]
    # Solve A x = b via P A = L U  =>  x = U^{-1} L^{-1} (P b).
    y = np.linalg.solve(l, b[perm])
    x = np.linalg.solve(u, y)
    np.testing.assert_allclose(a @ x, b, rtol=1e-8, atol=1e-9)


def test_blocked_lu_agrees_with_scipy_style_reference(rng):
    a = rng.random((8, 8))
    result = lac_lu_blocked(LinearAlgebraCore(), a)
    l, u = lu_blocked_reconstruct(result.output)
    # |det(A)| = prod |u_ii| regardless of the permutation.
    assert np.prod(np.abs(np.diag(u))) == pytest.approx(abs(np.linalg.det(a)), rel=1e-9)


def test_blocked_lu_validation(rng):
    with pytest.raises(ValueError):
        lac_lu_blocked(LinearAlgebraCore(), rng.random((8, 6)))
    with pytest.raises(ValueError):
        lac_lu_blocked(LinearAlgebraCore(), rng.random((6, 6)))


# ------------------------------------------------------------- blocked QR
@pytest.mark.parametrize("m,n", [(8, 4), (8, 8), (16, 8)])
def test_blocked_qr_reconstructs_input(rng, m, n):
    a = rng.random((m, n))
    result = lac_qr_blocked(LinearAlgebraCore(), a)
    q = qr_blocked_q(result.output, result.extra["tau"])
    r = np.triu(result.output[:n, :])
    reconstructed = q[:, :m] @ np.vstack([r, np.zeros((m - n, n))])
    np.testing.assert_allclose(reconstructed, a, rtol=1e-9, atol=1e-9)


def test_blocked_qr_q_is_orthogonal(rng):
    a = rng.random((12, 8))
    result = lac_qr_blocked(LinearAlgebraCore(), a)
    q = qr_blocked_q(result.output, result.extra["tau"])
    np.testing.assert_allclose(q.T @ q, np.eye(q.shape[0]), atol=1e-9)


def test_blocked_qr_r_matches_numpy_up_to_signs(rng):
    a = rng.random((16, 8))
    result = lac_qr_blocked(LinearAlgebraCore(), a)
    r = np.triu(result.output[:8, :])
    r_np = np.linalg.qr(a, mode="r")
    np.testing.assert_allclose(np.abs(r), np.abs(r_np), rtol=1e-8, atol=1e-9)


def test_blocked_qr_validation(rng):
    with pytest.raises(ValueError):
        lac_qr_blocked(LinearAlgebraCore(), rng.random((4, 8)))
    with pytest.raises(ValueError):
        lac_qr_blocked(LinearAlgebraCore(), rng.random((8, 6)))
