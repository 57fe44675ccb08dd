"""Tests for the LAC core simulator: distribution, rank-1 engine, collectives."""

import math

import numpy as np
import pytest

from lac_oracle import reset_counters
from repro.hw.sfu import SFUPlacement, SpecialOp
from repro.kernels.gemm import lac_rank1_sequence
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.lac.pe import PEConfig


@pytest.fixture
def core():
    return LinearAlgebraCore(LACConfig(nr=4, pe=PEConfig(store_a_words=256, store_b_words=64)))


def test_default_configuration_is_4x4():
    core = LinearAlgebraCore()
    assert core.nr == 4
    assert core.num_pes == 16


def test_config_validation():
    with pytest.raises(ValueError):
        LACConfig(nr=1)
    with pytest.raises(ValueError):
        LACConfig(frequency_ghz=0.0)


@pytest.mark.parametrize("frequency", [math.nan, math.inf, 0.0, -1.0])
def test_config_rejects_non_finite_or_non_positive_frequency(frequency):
    with pytest.raises(ValueError, match=f"got {frequency}"):
        LACConfig(frequency_ghz=frequency)


def test_distribute_a_round_robin_layout(core):
    a = np.arange(8 * 8, dtype=float).reshape(8, 8)
    words = core.distribute_a(a)
    assert words == 4  # ceil(8/4) * ceil(8/4)
    # a[i, p] lives in PE (i mod 4, p mod 4); a[5, 6] is the second row/col block.
    assert core.store_a[1, 2, 3] == a[5, 6]
    assert core.store_a[0, 0, 0] == a[0, 0]
    assert core.counters.external_loads == 64
    assert core.counters.mac_ops == 0  # distribution issues no MAC


def test_distribute_b_replication(core):
    b = np.arange(8 * 4, dtype=float).reshape(8, 4)
    k = core.distribute_b_replicated(b)
    assert k == 8
    # Every PE in column j holds the whole column j of B.
    for i in range(4):
        assert core.store_b[i, 2, 5] == b[5, 2]


def test_distribute_b_requires_nr_columns(core):
    with pytest.raises(ValueError):
        core.distribute_b_replicated(np.zeros((8, 3)))


def test_accumulator_load_store_round_trip(core):
    c = np.arange(16, dtype=float).reshape(4, 4)
    core.load_c_accumulators(c)
    out = core.store_c_accumulators()
    np.testing.assert_allclose(out, c)
    assert core.counters.external_loads == 16
    assert core.counters.external_stores == 16


def test_rank1_update_step_computes_outer_product(core):
    a_col = np.array([1.0, 2.0, 3.0, 4.0])
    b_row = np.array([5.0, 6.0, 7.0, 8.0])
    out = lac_rank1_sequence(core, np.zeros((4, 4)), a_col[:, None], b_row[None, :])
    np.testing.assert_allclose(out, np.outer(a_col, b_row))
    np.testing.assert_array_equal(core.accumulators[:, :, 0], out)
    assert core.counters.mac_ops == 16


def test_rank1_update_step_is_one_cycle(core):
    def cycles(steps):
        fresh = LinearAlgebraCore(core.config)
        lac_rank1_sequence(fresh, np.zeros((4, 4)), np.ones((4, steps)),
                           np.ones((steps, 4)))
        return fresh.counters.cycles

    assert cycles(2) == cycles(1) + 1


def test_rank1_operand_length_checked(core):
    with pytest.raises(ValueError):
        lac_rank1_sequence(core, np.zeros((4, 4)), np.ones((2, 1)), np.ones((1, 4)))


def test_transpose_via_diagonal(core):
    values = [1.0, 2.0, 3.0, 4.0]
    out = core.transpose_via_diagonal(values)
    assert out == values
    assert core.counters.row_broadcasts >= 4
    assert core.counters.column_broadcasts >= 4


def test_reduce_column_sums_partials(core):
    total = core.reduce_column([1.0, 2.0, 3.0, 4.0])
    assert total == pytest.approx(10.0)
    assert core.counters.cycles > 0


def test_special_functions_return_exact_values(core):
    assert core.special(SpecialOp.RECIPROCAL, 4.0) == pytest.approx(0.25)
    assert core.special(SpecialOp.SQRT, 9.0) == pytest.approx(3.0)
    assert core.special(SpecialOp.INV_SQRT, 16.0) == pytest.approx(0.25)
    assert core.counters.sfu_ops == 3


def test_special_function_error_cases(core):
    with pytest.raises(ZeroDivisionError):
        core.special(SpecialOp.RECIPROCAL, 0.0)
    with pytest.raises(ValueError):
        core.special(SpecialOp.SQRT, -1.0)
    with pytest.raises(ValueError):
        core.special(SpecialOp.INV_SQRT, 0.0)


def test_software_sfu_consumes_mac_slots():
    core_sw = LinearAlgebraCore(LACConfig(nr=4, sfu_placement=SFUPlacement.SOFTWARE))
    core_hw = LinearAlgebraCore(LACConfig(nr=4, sfu_placement=SFUPlacement.ISOLATED))
    core_sw.special(SpecialOp.RECIPROCAL, 2.0)
    core_hw.special(SpecialOp.RECIPROCAL, 2.0)
    assert core_sw.counters.mac_ops > core_hw.counters.mac_ops
    assert core_sw.counters.cycles > core_hw.counters.cycles


def test_tick_and_drain(core):
    core.tick(5)
    core.drain_pipeline()
    assert core.counters.cycles == 5 + core.mac_latency
    with pytest.raises(ValueError):
        core.tick(-1)


def test_utilization_and_gflops_reporting(core):
    lac_rank1_sequence(core, np.zeros((4, 4)), np.ones((4, 10)), np.ones((10, 4)))
    assert 0.0 < core.counters.utilization(core.num_pes) <= 1.0
    assert core.elapsed_seconds() > 0.0
    assert core.counters.flops / core.elapsed_seconds() / 1e9 > 0.0


def test_reset_counters_preserves_memory_contents(core):
    a = np.ones((4, 4))
    core.distribute_a(a)
    reset_counters(core.counters)
    assert core.counters.cycles == 0
    assert core.store_a[0, 0, 0] == 1.0
