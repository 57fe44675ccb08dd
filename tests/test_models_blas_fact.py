"""Tests for the level-3 BLAS and factorization analytical models (Chaps. 5-6)."""

import pytest

from repro.hw.sfu import SFUPlacement
from repro.models.blas_model import BlasCoreModel, Level3Operation
from repro.models.fact_model import (FactorizationKernel, FactorizationKernelModel,
                                     MACExtension)


# ------------------------------------------------------------- BLAS model
@pytest.fixture
def blas():
    return BlasCoreModel(nr=4)


def test_gemm_has_highest_utilization_at_design_point(blas):
    """Fig. 5.10: GEMM >= TRSM >= SYRK >= SYR2K at the common design point."""
    results = blas.compare_operations(mc=256, kc=256, n=512,
                                      bandwidth_elements_per_cycle=0.5)
    by_op = {r.operation: r.utilization for r in results}
    assert by_op[Level3Operation.GEMM] >= by_op[Level3Operation.TRSM]
    assert by_op[Level3Operation.TRSM] >= by_op[Level3Operation.SYRK] - 1e-9
    assert by_op[Level3Operation.SYRK] >= by_op[Level3Operation.SYR2K]


def test_design_point_utilizations_match_paper_ranges(blas):
    """Paper: ~100% GEMM, ~95% TRSM, ~90% SYRK, ~80-85% SYR2K at 20 KB/PE, 4 B/cyc."""
    results = {r.operation: r for r in blas.compare_operations(
        mc=256, kc=256, n=512, bandwidth_elements_per_cycle=0.5)}
    assert results[Level3Operation.GEMM].utilization > 0.93
    assert results[Level3Operation.TRSM].utilization > 0.90
    assert results[Level3Operation.SYRK].utilization > 0.85
    assert results[Level3Operation.SYR2K].utilization > 0.75


def test_trsm_blocked_utilization_grows_with_blocks(blas):
    assert blas.trsm_blocked_utilization(1) < blas.trsm_blocked_utilization(8) \
        < blas.trsm_blocked_utilization(64)
    assert blas.trsm_blocked_utilization(64) > 0.95


def test_syrk_inner_utilization_grows_with_blocks(blas):
    assert blas.syrk_inner_utilization(1) == pytest.approx(0.5)
    assert blas.syrk_inner_utilization(64) > 0.95


def test_syr2k_doubles_bandwidth_pressure(blas):
    syrk = blas.utilization(Level3Operation.SYRK, 128, 128, 512, 0.5)
    syr2k = blas.utilization(Level3Operation.SYR2K, 128, 128, 512, 0.5)
    assert syr2k.utilization <= syrk.utilization


def test_blas_model_validation(blas):
    with pytest.raises(ValueError):
        blas.trsm_blocked_utilization(0)
    with pytest.raises(ValueError):
        blas.syrk_inner_utilization(0)
    with pytest.raises(ValueError):
        BlasCoreModel(mac_pipeline_stages=0)


# ---------------------------------------------------- factorization model
@pytest.fixture
def fact():
    return FactorizationKernelModel(nr=4)


def test_cholesky_cycle_count_includes_sfu_latency(fact):
    sw = fact.cholesky_cycles(SFUPlacement.SOFTWARE)
    hw = fact.cholesky_cycles(SFUPlacement.DIAGONAL)
    assert sw > hw > 0


def test_lu_comparator_extension_saves_cycles(fact):
    base = fact.lu_panel_cycles(128, SFUPlacement.ISOLATED, MACExtension.NONE)
    with_cmp = fact.lu_panel_cycles(128, SFUPlacement.ISOLATED, MACExtension.COMPARATOR)
    assert with_cmp < base


def test_vector_norm_exponent_extension_saves_cycles(fact):
    base = fact.vector_norm_cycles(256, SFUPlacement.ISOLATED, MACExtension.NONE)
    with_exp = fact.vector_norm_cycles(256, SFUPlacement.ISOLATED, MACExtension.EXPONENT)
    assert with_exp < base


def test_hardware_sfu_beats_software_for_all_kernels(fact):
    for kernel in (FactorizationKernel.LU, FactorizationKernel.VECTOR_NORM,
                   FactorizationKernel.QR_HOUSEHOLDER):
        sw = fact.evaluate(kernel, 128, SFUPlacement.SOFTWARE, MACExtension.NONE)
        hw = fact.evaluate(kernel, 128, SFUPlacement.DIAGONAL, MACExtension.NONE)
        assert hw.cycles < sw.cycles, kernel


def test_power_efficiency_improves_with_problem_size(fact):
    """Figs. 6.6/6.7: bigger inner kernels amortise the serial steps."""
    small = fact.evaluate(FactorizationKernel.LU, 64, SFUPlacement.DIAGONAL,
                          MACExtension.COMPARATOR)
    large = fact.evaluate(FactorizationKernel.LU, 256, SFUPlacement.DIAGONAL,
                          MACExtension.COMPARATOR)
    assert large.gflops_per_watt(1.0) > small.gflops_per_watt(1.0)
    assert large.utilization > small.utilization


def test_extensions_improve_lu_power_efficiency(fact):
    base = fact.evaluate(FactorizationKernel.LU, 256, SFUPlacement.DIAGONAL,
                         MACExtension.NONE)
    ext = fact.evaluate(FactorizationKernel.LU, 256, SFUPlacement.DIAGONAL,
                        MACExtension.COMPARATOR)
    assert ext.gflops_per_watt(1.0) > base.gflops_per_watt(1.0)


def test_efficiency_wrapper_produces_valid_metrics(fact):
    res = fact.evaluate(FactorizationKernel.CHOLESKY, 4, SFUPlacement.ISOLATED)
    eff = fact.efficiency(res, core_area_mm2=2.8)
    assert eff.gflops_per_watt > 0
    assert eff.area_mm2 == 2.8


def test_fact_model_validation(fact):
    with pytest.raises(ValueError):
        FactorizationKernelModel(nr=1)
    with pytest.raises(ValueError):
        fact.lu_panel_cycles(2, SFUPlacement.ISOLATED, MACExtension.NONE)
    with pytest.raises(ValueError):
        fact.vector_norm_cycles(0, SFUPlacement.ISOLATED, MACExtension.NONE)
    with pytest.raises(ValueError):
        fact.qr_panel_cycles(2, SFUPlacement.ISOLATED, MACExtension.NONE)
