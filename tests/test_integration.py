"""End-to-end integration tests crossing module boundaries.

These exercise the paths a downstream user would follow: simulate a kernel,
validate it numerically, cross-check the measured cycles against the
analytical model, feed the measured activity into the power model, and
regenerate an experiment through the registry.
"""

import numpy as np
import pytest

from repro.arch.breakdowns import lap_breakdown
from repro.experiments.registry import run_experiment
from repro.hw.fpu import FMACUnit, Precision
from repro.hw.sram import pe_store_a, pe_store_b
from repro.kernels.gemm import lac_gemm
from repro.kernels.trsm import lac_trsm
from repro.kernels.cholesky import lac_cholesky
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.lac.pe import PEConfig
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import LAPRuntime
from repro.models.chip_model import ChipGEMMModel
from repro.models.core_model import CoreGEMMModel
from repro.models.power import PowerComponent, PowerModel
from repro.reference import ref_cholesky, ref_trsm


def test_simulator_cycles_track_analytical_peak_term():
    """The simulator's steady-state rank-1 cycles equal the model's peak term.

    This is the validation loop of Sec. 1.3.1: analytic formulae vs simulator.
    """
    nr, mc, kc, n = 4, 16, 24, 8
    rng = np.random.default_rng(0)
    core = LinearAlgebraCore()
    a, b, c = rng.random((mc, kc)), rng.random((kc, n)), rng.random((mc, n))
    result = lac_gemm(core, c, a, b)

    model = CoreGEMMModel(nr=nr)
    peak_cycles = model.cycles(mc, kc, n, bandwidth_elements_per_cycle=1e9).peak_cycles
    # Rank-1 updates charged by the simulator (one cycle each).
    rank1_cycles = (mc // nr) * (n // nr) * kc
    assert rank1_cycles == pytest.approx(peak_cycles)
    # Total simulated cycles = rank-1 steps + data movement (load/store of C,
    # distribution of A and B); well within 3x of the peak term at this size.
    assert peak_cycles <= result.cycles <= 3.0 * peak_cycles


def test_measured_activity_feeds_power_model():
    """Counters from a simulated GEMM drive a power breakdown with sane numbers."""
    rng = np.random.default_rng(1)
    core = LinearAlgebraCore(LACConfig(nr=4, pe=PEConfig(store_a_words=4096,
                                                         store_b_words=512)))
    result = lac_gemm(core, rng.random((16, 16)), rng.random((16, 32)), rng.random((32, 16)))
    factors = result.counters.activity_factors(core.num_pes)

    fmac = FMACUnit(precision=Precision.DOUBLE, frequency_ghz=1.0)
    store_a = pe_store_a(16 * 1024)
    store_b = pe_store_b(2 * 1024)
    components = [
        PowerComponent("MAC units", 16 * fmac.dynamic_power_w, factors["mac"]),
        PowerComponent("store A", 16 * store_a.dynamic_power_w(1.0, 1.0), factors["store_a"]),
        PowerComponent("store B", 16 * store_b.dynamic_power_w(1.0, 1.0), factors["store_b"]),
    ]
    seconds = result.cycles / 1e9
    gflops = result.flops / seconds / 1e9
    breakdown = PowerModel(idle_ratio=0.25).breakdown("measured LAC", components, gflops=gflops)
    assert 0.0 < breakdown.total_power_w < 5.0
    assert breakdown.gflops_per_watt > 5.0


def test_trsm_and_cholesky_compose_to_solve_a_linear_system():
    """Factor A = L L^T on the LAC, then solve A X = B with two LAC TRSMs."""
    rng = np.random.default_rng(2)
    n, m = 8, 8
    mmat = rng.random((n, n))
    a = mmat @ mmat.T + n * np.eye(n)
    b = rng.random((n, m))

    chol = lac_cholesky(LinearAlgebraCore(), a)
    l = chol.output
    np.testing.assert_allclose(l, ref_cholesky(a), rtol=1e-9)

    y = lac_trsm(LinearAlgebraCore(), l, b).output           # L y = b
    # Solve L^T x = y by transposing: (L^T) is upper, so solve with the
    # reference for the check and with a flipped system on the LAC.
    x_ref = np.linalg.solve(a, b)
    # L^T x = y  <=>  reversed-order lower system: P L^T P (P x) = P y with P the flip.
    p = np.eye(n)[::-1]
    l_flipped = p @ l.T @ p
    x_flipped = lac_trsm(LinearAlgebraCore(), l_flipped, p @ y).output
    x = p @ x_flipped
    np.testing.assert_allclose(x, x_ref, rtol=1e-8, atol=1e-9)


def test_chip_simulation_agrees_with_chip_model_trend():
    """Functional multi-core GEMM utilisation should not contradict the model."""
    config = LAPConfig(num_cores=2, nr=4, onchip_memory_mbytes=1.0)
    runtime = LAPRuntime(LinearAlgebraProcessor(config), tile=8)
    run = runtime.run_blocked_gemm(16, np.random.default_rng(3))
    assert run["residual"] < 1e-12
    num_pes = config.num_cores * config.nr * config.nr
    utilization = run["total_flops"] / 2.0 / (run["makespan_cycles"] * num_pes)
    assert 0.05 < utilization <= 1.0
    model = ChipGEMMModel(num_cores=config.num_cores, nr=config.nr,
                          element_bytes=config.element_bytes)
    words_per_cycle = (config.offchip().bytes_per_cycle(config.frequency_ghz)
                       / config.element_bytes)
    result = model.cycles_offchip(1024, words_per_cycle, mc=256, kc=256)
    assert 0.5 < result.utilization <= 1.0


def test_experiment_registry_round_trip_with_report():
    from repro.experiments.report import summarize_experiment
    data = run_experiment("table_4_1")
    text = summarize_experiment("table_4_1", data)
    assert "core" in text and "chip" in text
    assert "bandwidth_words_per_cycle" in text


def test_full_precision_pipeline_single_vs_double():
    """The same throughput on SP and DP LAPs: SP is roughly twice as efficient."""
    for target_gflops in (20.0, 100.0, 470.0, 940.0):
        sp_eff = lap_breakdown(target_gflops, Precision.SINGLE).gflops_per_watt
        dp_eff = lap_breakdown(target_gflops, Precision.DOUBLE).gflops_per_watt
        assert sp_eff > 1.5 * dp_eff
