"""Tests for the power aggregation model and the efficiency metrics."""

import pytest

from repro.models.efficiency import EfficiencyMetrics
from repro.models.power import PowerBreakdown, PowerComponent, PowerModel


# ----------------------------------------------------------------- power
def test_total_power_is_dynamic_plus_idle():
    model = PowerModel(idle_ratio=0.25)
    breakdown = model.breakdown("x", [PowerComponent("FPU", 10.0, 1.0),
                                      PowerComponent("SRAM", 4.0, 0.5)], gflops=10.0)
    assert breakdown.dynamic_power_w == pytest.approx(12.0)
    assert breakdown.idle_power_w == pytest.approx(3.0)
    assert breakdown.total_power_w == pytest.approx(15.0)


def test_component_validation():
    with pytest.raises(ValueError):
        PowerComponent("bad", -1.0)
    with pytest.raises(ValueError):
        PowerComponent("bad", 1.0, activity=1.5)


def test_breakdown_by_component():
    model = PowerModel(idle_ratio=0.3)
    bd = model.breakdown("arch", [
        PowerComponent("FPU", 5.0, 1.0, category="compute"),
        PowerComponent("RF", 6.0, 1.0, category="overhead", essential=False),
        PowerComponent("L1", 2.0, 0.5, category="memory"),
    ], gflops=20.0)
    by_comp = bd.by_component()
    assert by_comp["FPU"] == 5.0
    assert by_comp["Idle/Leakage"] == pytest.approx(0.3 * 12.0)


def test_normalized_by_performance_requires_throughput():
    model = PowerModel()
    bd = model.breakdown("idle", [PowerComponent("FPU", 1.0, 0.0)], gflops=0.0)
    with pytest.raises(ValueError):
        bd.normalized_by_performance()


def test_gflops_per_watt_and_scaling():
    model = PowerModel(idle_ratio=0.0)
    bd = model.breakdown("x", [PowerComponent("FPU", 10.0, 1.0)], gflops=100.0)
    assert bd.gflops_per_watt == pytest.approx(10.0)
    assert bd.total_power_w == pytest.approx(10.0)
    idle = PowerModel(idle_ratio=0.25).breakdown(
        "y", [PowerComponent("FPU", 10.0, 1.0)], gflops=100.0)
    assert idle.total_power_w == pytest.approx(12.5)
    assert idle.gflops_per_watt == pytest.approx(8.0)


def test_power_model_validation():
    with pytest.raises(ValueError):
        PowerModel(idle_ratio=1.5)
    model = PowerModel()
    with pytest.raises(ValueError):
        model.breakdown("empty", [], gflops=1.0)
    with pytest.raises(ValueError):
        model.breakdown("neg", [PowerComponent("x", 1.0)], gflops=-1.0)


# ------------------------------------------------------------ efficiency
def test_efficiency_metric_definitions():
    eff = EfficiencyMetrics(label="x", gflops=100.0, power_w=2.0, area_mm2=5.0,
                            utilization=0.9)
    assert eff.gflops_per_watt == pytest.approx(50.0)
    assert eff.gflops_per_mm2 == pytest.approx(20.0)
    assert eff.watts_per_mm2 == pytest.approx(0.4)
    assert eff.energy_delay == pytest.approx(2.0 / 100.0 ** 2)
    assert eff.inverse_energy_delay == pytest.approx(100.0 ** 2 / 2.0)
    assert eff.mm2_per_gflop == pytest.approx(0.05)
    assert eff.mw_per_gflop == pytest.approx(20.0)


def test_efficiency_validation():
    with pytest.raises(ValueError):
        EfficiencyMetrics("x", gflops=-1.0, power_w=1.0, area_mm2=1.0)
    with pytest.raises(ValueError):
        EfficiencyMetrics("x", gflops=1.0, power_w=0.0, area_mm2=1.0)
    with pytest.raises(ValueError):
        EfficiencyMetrics("x", gflops=1.0, power_w=1.0, area_mm2=0.0)
    with pytest.raises(ValueError):
        EfficiencyMetrics("x", gflops=1.0, power_w=1.0, area_mm2=1.0, utilization=1.5)


def test_zero_throughput_edge_cases():
    eff = EfficiencyMetrics("idle", gflops=0.0, power_w=1.0, area_mm2=1.0)
    assert eff.energy_delay == float("inf")
    assert eff.mm2_per_gflop == float("inf")
    assert eff.mw_per_gflop == float("inf")
    assert eff.inverse_energy_delay == 0.0
