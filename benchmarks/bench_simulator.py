"""Benchmarks of the cycle-level simulator itself.

These are true pytest-benchmark measurements of the Python simulator running
the kernels the dissertation's own simulator was used to verify (GEMM, TRSM,
Cholesky; Sec. 1.3), plus the simulator-vs-analytical-model cross check.
They double as ablation benches: GEMM with and without operand prefetching
accounting, and TRSM inner-kernel variants.
"""

import time

import numpy as np
import pytest

from repro.kernels.blocked_factorizations import lac_lu_blocked, lac_qr_blocked
from repro.kernels.cholesky import lac_cholesky
from repro.kernels.fft import lac_fft
from repro.kernels.gemm import lac_gemm
from repro.kernels.syrk import lac_syrk
from repro.kernels.trsm import lac_trsm
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.models.core_model import CoreGEMMModel
from repro.reference import ref_cholesky, ref_trsm


RNG = np.random.default_rng(2024)


def _fresh_core(nr: int = 4) -> LinearAlgebraCore:
    return LinearAlgebraCore(LACConfig(nr=nr))


def test_simulated_gemm_16x16(benchmark, bench_json):
    a = RNG.random((16, 16))
    b = RNG.random((16, 16))
    c = RNG.random((16, 16))
    last = {}

    def run():
        started = time.perf_counter()
        result = lac_gemm(_fresh_core(), c, a, b)
        last["elapsed"] = time.perf_counter() - started
        return result

    result = benchmark(run)
    np.testing.assert_allclose(result.output, c + a @ b, rtol=1e-12)
    assert result.counters.mac_ops == 16 ** 3
    # Utilisation of the simulated run stays healthy even with every operand
    # transfer charged (no prefetch overlap modelled in this small run).
    assert result.utilization > 0.4
    bench_json("simulator_gemm_16x16", {
        "cycles": result.cycles,
        "utilization": result.utilization,
        "simulate_seconds": last["elapsed"],
    })


def test_simulated_gemm_matches_analytical_peak_term(benchmark):
    """Cross-validation of simulator cycles against the analytical model."""
    mc, kc, n = 16, 32, 16
    a = RNG.random((mc, kc))
    b = RNG.random((kc, n))
    c = RNG.random((mc, n))

    def run():
        core = _fresh_core()
        return lac_gemm(core, c, a, b)

    result = benchmark(run)
    model = CoreGEMMModel(nr=4)
    peak = model.cycles(mc, kc, n, 1e9).peak_cycles
    rank1 = (mc // 4) * (n // 4) * kc
    assert rank1 == pytest.approx(peak)
    assert peak <= result.cycles <= 2.5 * peak


def test_simulated_trsm_8x16(benchmark):
    l = np.tril(RNG.random((8, 8))) + 8 * np.eye(8)
    b = RNG.random((8, 16))

    def run():
        return lac_trsm(_fresh_core(), l, b)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, ref_trsm(l, b), rtol=1e-10)


def test_simulated_trsm_variant_ablation(benchmark):
    """Ablation: the software-pipelined inner kernel charges fewer cycles."""
    l = np.tril(RNG.random((8, 8))) + 8 * np.eye(8)
    b = RNG.random((8, 32))

    def run_sw():
        return lac_trsm(_fresh_core(), l, b, variant="software_pipelined")

    sw = benchmark(run_sw)
    basic = lac_trsm(_fresh_core(), l, b, variant="basic")
    np.testing.assert_allclose(sw.output, basic.output, rtol=1e-10)
    assert sw.cycles < basic.cycles


def test_simulated_cholesky_12x12(benchmark):
    m = RNG.random((12, 12))
    a = m @ m.T + 12 * np.eye(12)

    def run():
        return lac_cholesky(_fresh_core(), a)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, ref_cholesky(a), rtol=1e-9)


def test_simulated_fft_256(benchmark):
    x = RNG.standard_normal(256) + 1j * RNG.standard_normal(256)

    def run():
        return lac_fft(_fresh_core(), x)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, np.fft.fft(x), rtol=1e-9, atol=1e-9)
    # FFT on the LAC sustains a healthy fraction of peak FMA issue.
    assert result.utilization > 0.2


def test_simulated_gemm_8x8_core(benchmark):
    """The nr=8 core: four times the MAC count of the 4x4 core on the same problem."""
    a = RNG.random((16, 16))
    b = RNG.random((16, 16))
    c = RNG.random((16, 16))

    def run():
        return lac_gemm(_fresh_core(nr=8), c, a, b)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, c + a @ b, rtol=1e-12)
    assert result.num_pes == 64


def _lac_kernel_cases():
    """The LAC warm-up kernels of perfbench ``coarse_cholesky`` (tile 48) and
    of tiled LU and QR at tile 64, on seeded operands, with their MAC counts
    on a default 4x4 core."""
    rng = np.random.default_rng(7)
    g, c = rng.random((48, 48)), rng.random((48, 48))
    spd = g @ g.T + 48 * np.eye(48)
    lower = np.tril(g) + 48 * np.eye(48)
    dense = rng.random((64, 64))
    dominant = dense + 64 * np.eye(64)
    return [
        ("lac_gemm", lambda core: lac_gemm(core, c, g, g.T), 110_592),
        ("lac_syrk", lambda core: lac_syrk(core, c, g), 59_904),
        ("lac_trsm", lambda core: lac_trsm(core, lower, g), 56_448),
        ("lac_cholesky", lambda core: lac_cholesky(core, spd), 21_304),
        ("lac_lu_blocked", lambda core: lac_lu_blocked(core, dominant), 91_360),
        ("lac_qr_blocked", lambda core: lac_qr_blocked(core, dense), 179_949),
    ]


def test_lac_kernel_throughput(bench_json):
    """Wall time and MAC rate of the simulator on the kernels that memoized
    timing warms up.  The MAC counts are pinned; the times are recorded in
    ``BENCH_lac_kernels.json`` with the environment block, not asserted
    (the host speed drifts up to 2x)."""
    payload = {}
    for name, run, macs in _lac_kernel_cases():
        seconds = []
        for _ in range(3):
            core = _fresh_core()
            started = time.perf_counter()
            result = run(core)
            seconds.append(time.perf_counter() - started)
        assert result.counters.mac_ops == macs, name
        best = min(seconds)
        payload[name] = {"seconds": best, "mac_ops": macs, "macs_per_s": macs / best,
                         "cycles": result.cycles}
    bench_json("lac_kernels", payload)
