"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lac_oracle import merge_counters
from repro.kernels.gemm import lac_gemm
from repro.kernels.trsm import lac_trsm
from repro.lac.core import LinearAlgebraCore
from repro.lac.stats import AccessCounters
from repro.models.chip_model import ChipGEMMModel
from repro.models.core_model import CoreGEMMModel
from repro.models.power import PowerComponent, PowerModel
from repro.reference import ref_trsm, ref_vector_norm


# Reasonable bounded float strategy for matrix entries.
matrix_entries = st.floats(min_value=-100.0, max_value=100.0,
                           allow_nan=False, allow_infinity=False)


@st.composite
def small_matrix(draw, rows, cols):
    data = draw(st.lists(matrix_entries, min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=float).reshape(rows, cols)


# ------------------------------------------------------------ core model
@given(kc=st.integers(min_value=4, max_value=512),
       bw=st.floats(min_value=0.05, max_value=64.0),
       n=st.integers(min_value=16, max_value=2048))
@settings(max_examples=60, deadline=None)
def test_core_model_utilization_always_in_unit_interval(kc, bw, n):
    model = CoreGEMMModel(nr=4)
    res = model.cycles(mc=kc, kc=kc, n=n, bandwidth_elements_per_cycle=bw)
    assert 0.0 < res.utilization <= 1.0
    assert res.total_cycles >= res.peak_cycles


@given(kc=st.integers(min_value=4, max_value=512),
       n=st.integers(min_value=16, max_value=2048),
       bw1=st.floats(min_value=0.05, max_value=8.0),
       bw2=st.floats(min_value=0.05, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_core_model_utilization_monotone_in_bandwidth(kc, n, bw1, bw2):
    model = CoreGEMMModel(nr=4)
    lo, hi = sorted((bw1, bw2))
    u_lo = model.cycles(mc=kc, kc=kc, n=n, bandwidth_elements_per_cycle=lo).utilization
    u_hi = model.cycles(mc=kc, kc=kc, n=n, bandwidth_elements_per_cycle=hi).utilization
    assert u_hi >= u_lo - 1e-12


@given(kc=st.integers(min_value=4, max_value=256))
@settings(max_examples=30, deadline=None)
def test_core_model_full_overlap_never_slower(kc):
    model = CoreGEMMModel(nr=4)
    partial = model.cycles(kc, kc, 512, 1.0, full_overlap=False)
    full = model.cycles(kc, kc, 512, 1.0, full_overlap=True)
    assert full.total_cycles <= partial.total_cycles + 1e-9


# ------------------------------------------------------------ chip model
@given(num_cores=st.integers(min_value=1, max_value=32),
       kc=st.integers(min_value=8, max_value=256),
       n=st.integers(min_value=256, max_value=4096))
@settings(max_examples=50, deadline=None)
def test_chip_memory_requirement_grows_with_cores_and_problem(num_cores, kc, n):
    model = ChipGEMMModel(num_cores=num_cores, nr=4)
    base = model.onchip_memory_words(kc, kc, n)
    more_cores = ChipGEMMModel(num_cores=num_cores + 1, nr=4).onchip_memory_words(kc, kc, n)
    assert more_cores >= base
    assert base >= n * n


@given(num_cores=st.integers(min_value=1, max_value=16),
       n=st.integers(min_value=64, max_value=4096))
@settings(max_examples=50, deadline=None)
def test_offchip_bandwidth_demand_decreases_with_problem_size(num_cores, n):
    model = ChipGEMMModel(num_cores=num_cores, nr=4)
    assert model.offchip_bandwidth_words_per_cycle(n) >= \
        model.offchip_bandwidth_words_per_cycle(2 * n)


# ----------------------------------------------------------- power model
@given(powers=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8),
       activities=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8),
       idle=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_power_model_additive_and_nonnegative(powers, activities, idle):
    comps = [PowerComponent(f"c{i}", p, activities[i]) for i, p in enumerate(powers)]
    model = PowerModel(idle_ratio=idle)
    bd = model.breakdown("x", comps, gflops=1.0)
    assert bd.total_power_w >= bd.dynamic_power_w >= 0.0
    assert bd.dynamic_power_w == pytest.approx(sum(c.dynamic_power_w for c in comps))
    # Splitting a component in two must not change the total.
    if comps[0].max_power_w > 0:
        half = comps[0].max_power_w / 2.0
        split = [PowerComponent("a", half, comps[0].activity),
                 PowerComponent("b", half, comps[0].activity)] + comps[1:]
        bd_split = model.breakdown("y", split, gflops=1.0)
        assert bd_split.total_power_w == pytest.approx(bd.total_power_w)


# --------------------------------------------------------------- counters
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                          st.integers(min_value=0, max_value=1000)), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_counter_merge_is_associative_sum(pairs):
    total = AccessCounters()
    expected_cycles = 0
    expected_macs = 0
    for cycles, macs in pairs:
        merge_counters(total, AccessCounters(cycles=cycles, mac_ops=macs))
        expected_cycles += cycles
        expected_macs += macs
    assert total.cycles == expected_cycles
    assert total.mac_ops == expected_macs
    assert 0.0 <= total.utilization(16) <= 1.0


# ------------------------------------------------- functional simulation
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_gemm_on_lac_matches_numpy_for_random_shapes(data):
    nr = 4
    m = data.draw(st.sampled_from([4, 8]))
    k = data.draw(st.sampled_from([4, 8, 12]))
    n = data.draw(st.sampled_from([4, 8]))
    a = data.draw(small_matrix(m, k))
    b = data.draw(small_matrix(k, n))
    c = data.draw(small_matrix(m, n))
    result = lac_gemm(LinearAlgebraCore(), c, a, b)
    np.testing.assert_allclose(result.output, c + a @ b, rtol=1e-9, atol=1e-9)
    assert result.counters.mac_ops == m * k * n


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_trsm_on_lac_solves_system_for_random_triangles(data):
    k = 8
    raw = data.draw(small_matrix(k, k))
    # Strictly diagonally dominant, so nonsingular and well conditioned: each
    # diagonal entry is its row's off-diagonal absolute sum plus one.
    l = np.tril(raw, -1)
    l += np.diag(np.abs(l).sum(axis=1) + 1.0)
    b = data.draw(small_matrix(k, 4))
    result = lac_trsm(LinearAlgebraCore(), l, b)
    np.testing.assert_allclose(np.tril(l) @ result.output, b, rtol=1e-8, atol=1e-8)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_reference_vector_norm_properties(values):
    x = np.array(values, dtype=float)
    norm = ref_vector_norm(x)
    assert norm >= 0.0
    assert norm == pytest.approx(np.linalg.norm(x), rel=1e-9, abs=1e-12)
    # Scaling property: ||2x|| = 2 ||x||.
    assert ref_vector_norm(2.0 * x) == pytest.approx(2.0 * norm, rel=1e-9, abs=1e-12)
