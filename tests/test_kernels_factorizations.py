"""Functional tests for Cholesky, LU and QR / vector-norm kernels on the LAC."""

import numpy as np
import pytest

from repro.kernels.cholesky import cholesky_unblocked_cycle_estimate, lac_cholesky
from repro.kernels.lu import lac_lu_panel
from repro.kernels.qr import lac_householder_qr_panel, lac_vector_norm
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.reference import (ref_cholesky, ref_householder_qr, ref_lu_partial_pivoting,
                             ref_vector_norm)


@pytest.fixture
def core():
    return LinearAlgebraCore()


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def _spd(rng, n):
    m = rng.random((n, n))
    return m @ m.T + n * np.eye(n)


def apply_panel_pivots(matrix, pivots):
    """Apply the recorded row interchanges of :func:`lac_lu_panel` to a matrix."""
    out = np.array(matrix, dtype=float, copy=True)
    for i, piv in enumerate(pivots):
        if piv != i:
            out[[i, piv], :] = out[[piv, i], :]
    return out


def reconstruct_from_panel(factored):
    """Split a factored ``k x nr`` panel into its L (unit lower) and U parts."""
    factored = np.asarray(factored, dtype=float)
    k, nr = factored.shape
    l = np.zeros((k, nr), dtype=float)
    u = np.zeros((nr, nr), dtype=float)
    for j in range(nr):
        u[: j + 1, j] = factored[: j + 1, j]
        l[j, j] = 1.0
        l[j + 1:, j] = factored[j + 1:, j]
    return l, u


# -------------------------------------------------------------- Cholesky
@pytest.mark.parametrize("n", [4, 8, 12])
def test_cholesky_matches_reference(core, rng, n):
    a = _spd(rng, n)
    result = lac_cholesky(core, a)
    np.testing.assert_allclose(result.output, ref_cholesky(a), rtol=1e-9, atol=1e-10)


def test_cholesky_factor_reconstructs_input(core, rng):
    a = _spd(rng, 8)
    l = lac_cholesky(core, a).output
    np.testing.assert_allclose(l @ l.T, a, rtol=1e-9)


def test_cholesky_rejects_non_symmetric(core, rng):
    with pytest.raises(ValueError):
        lac_cholesky(core, rng.random((8, 8)))


def test_cholesky_rejects_indefinite_matrix(core, rng):
    a = _spd(rng, 8)
    a[0, 0] = -1000.0
    a[0, 0] = a[0, 0]  # keep symmetric (diagonal change preserves symmetry)
    with pytest.raises(ValueError):
        lac_cholesky(core, a)


def test_cholesky_uses_inverse_sqrt_on_sfu(core, rng):
    result = lac_cholesky(core, _spd(rng, 8))
    # One inverse sqrt per diagonal element (8) plus the reciprocals of the
    # TRSM panel solve below the first diagonal block (4).
    assert result.counters.sfu_ops == 12


def test_cholesky_unblocked_cycle_estimate():
    assert cholesky_unblocked_cycle_estimate(4, 8, 20) == 2 * 8 * 3 + 20 * 4
    with pytest.raises(ValueError):
        cholesky_unblocked_cycle_estimate(0, 8, 20)


# -------------------------------------------------------------------- LU
@pytest.mark.parametrize("k", [4, 8, 16, 32])
def test_lu_panel_matches_reference(core, rng, k):
    panel = rng.random((k, 4))
    result = lac_lu_panel(core, panel)
    permuted = apply_panel_pivots(panel, result.extra["pivots"])
    l, u = reconstruct_from_panel(result.output)
    np.testing.assert_allclose(l @ u, permuted, rtol=1e-10, atol=1e-12)


def test_lu_panel_pivot_choices_match_reference(core, rng):
    for k in (4, 8, 12, 16, 32):
        panel = rng.random((k, 4))
        result = lac_lu_panel(core, panel)
        p, l_ref, u_ref = ref_lu_partial_pivoting(panel)
        # Same row interchanges as the reference, so the same permuted panel.
        np.testing.assert_array_equal(
            p @ panel, apply_panel_pivots(panel, result.extra["pivots"]))
        l, u = reconstruct_from_panel(result.output)
        np.testing.assert_allclose(l, l_ref[:, :4], rtol=0, atol=1e-12)
        np.testing.assert_allclose(u, u_ref[:4], rtol=0, atol=1e-12)


def test_lu_panel_without_comparator_costs_more_cycles(rng):
    panel = np.random.default_rng(3).random((32, 4))
    with_cmp = lac_lu_panel(LinearAlgebraCore(), panel, use_comparator_extension=True)
    without = lac_lu_panel(LinearAlgebraCore(), panel, use_comparator_extension=False)
    assert without.cycles > with_cmp.cycles
    np.testing.assert_allclose(with_cmp.output, without.output)


def test_lu_panel_singular_detection(core):
    panel = np.zeros((8, 4))
    with pytest.raises(ValueError):
        lac_lu_panel(core, panel)


def test_lu_panel_shape_validation(core, rng):
    with pytest.raises(ValueError):
        lac_lu_panel(core, rng.random((8, 3)))
    with pytest.raises(ValueError):
        lac_lu_panel(core, rng.random((2, 4)))


# ----------------------------------------------------------- vector norm
@pytest.mark.parametrize("k", [1, 4, 16, 37, 128])
def test_vector_norm_matches_reference(core, rng, k):
    x = rng.standard_normal(k)
    result = lac_vector_norm(core, x)
    assert result.output == pytest.approx(ref_vector_norm(x), rel=1e-12)


def test_vector_norm_guarded_variant_matches_and_costs_more(rng):
    x = np.random.default_rng(5).standard_normal(64)
    fast = lac_vector_norm(LinearAlgebraCore(), x, use_exponent_extension=True)
    guarded = lac_vector_norm(LinearAlgebraCore(), x, use_exponent_extension=False)
    assert fast.output == pytest.approx(guarded.output, rel=1e-12)
    assert guarded.cycles > fast.cycles


def test_vector_norm_handles_huge_and_tiny_values(core):
    huge = np.array([1e200, 1e200, 1e200])
    tiny = np.array([1e-200, 1e-200])
    assert lac_vector_norm(core, huge, use_exponent_extension=False).output == \
        pytest.approx(np.sqrt(3) * 1e200, rel=1e-12)
    assert lac_vector_norm(LinearAlgebraCore(), tiny,
                           use_exponent_extension=False).output == \
        pytest.approx(np.sqrt(2) * 1e-200, rel=1e-12)


def test_vector_norm_zero_vector(core):
    assert lac_vector_norm(core, np.zeros(8), use_exponent_extension=False).output == 0.0


def test_vector_norm_validation(core):
    with pytest.raises(ValueError):
        lac_vector_norm(core, np.array([]))
    with pytest.raises(ValueError):
        lac_vector_norm(core, np.ones(4), owner_column=7)


# -------------------------------------------------------------------- QR
@pytest.mark.parametrize("k", [4, 8, 16])
def test_qr_panel_r_matches_reference(core, rng, k):
    panel = rng.random((k, 4))
    result = lac_householder_qr_panel(core, panel)
    r_lac = np.triu(result.output[:4, :])
    _, r_ref = ref_householder_qr(panel)
    # R is unique up to column signs.
    np.testing.assert_allclose(np.abs(r_lac), np.abs(r_ref), rtol=1e-9, atol=1e-10)


def test_qr_panel_reconstructs_input(core, rng):
    """Applying the stored reflectors to R must reproduce the original panel."""
    k = 12
    panel = rng.random((k, 4))
    result = lac_householder_qr_panel(core, panel)
    factored = result.output
    taus = result.extra["tau"]
    # Rebuild Q explicitly from the stored Householder vectors.
    # R = H_3 H_2 H_1 H_0 A, each H symmetric orthogonal, so A = H_0 H_1 H_2 H_3 R.
    q = np.eye(k)
    for j in range(3, -1, -1):
        if not np.isfinite(taus[j]):
            continue
        u = np.zeros(k)
        u[j] = 1.0
        u[j + 1:] = factored[j + 1:, j]
        h = np.eye(k) - np.outer(u, u) / taus[j]
        q = h @ q
    r = np.zeros((k, 4))
    r[:4, :] = np.triu(factored[:4, :])
    np.testing.assert_allclose(q @ r, panel, rtol=1e-9, atol=1e-10)


def test_qr_panel_orthogonality_of_reference(rng):
    a = rng.random((16, 4))
    q, r = ref_householder_qr(a)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(q @ r, a, rtol=1e-10, atol=1e-12)


def test_qr_panel_shape_validation(core, rng):
    with pytest.raises(ValueError):
        lac_householder_qr_panel(core, rng.random((8, 3)))
    with pytest.raises(ValueError):
        lac_householder_qr_panel(core, rng.random((2, 4)))
