"""Tests for technology scaling of published numbers and the JSON writer."""

import pytest

from repro.arch.scaling import (PUBLISHED_MEASUREMENTS, PublishedMeasurement,
                                scale_measurement, scaled_comparison_rows)
from repro.experiments.export import write_json
from repro.hw.technology import KNOWN_NODES, TECH_45NM


# ----------------------------------------------------------------- scaling
def test_scaling_45nm_measurement_is_identity():
    m = next(x for x in PUBLISHED_MEASUREMENTS if x.node is KNOWN_NODES["45nm"])
    scaled = scale_measurement(m)
    assert scaled.gflops == m.gflops
    assert scaled.area_mm2 == pytest.approx(m.area_mm2)


def test_scaling_90nm_design_shrinks_area_by_4x():
    csx = next(x for x in PUBLISHED_MEASUREMENTS if "CSX" in x.name)
    scaled = scale_measurement(csx, TECH_45NM)
    assert scaled.area_mm2 == pytest.approx(csx.area_mm2 / 4.0)
    assert scaled.power_w < csx.power_w
    assert scaled.gflops == csx.gflops  # same clock, same throughput


def test_scaling_improves_efficiency_metrics():
    cell = next(x for x in PUBLISHED_MEASUREMENTS if "Cell" in x.name)
    scaled = scale_measurement(cell)
    assert scaled.gflops_per_watt > cell.gflops / cell.power_w
    assert scaled.gflops_per_mm2 > cell.gflops / cell.area_mm2


def test_scaled_rows_have_provenance_columns():
    rows = scaled_comparison_rows()
    assert len(rows) == len(PUBLISHED_MEASUREMENTS)
    for row in rows:
        assert row["scaled_node"] == "45nm"
        assert row["published_node"] in ("45nm", "65nm", "90nm")
        assert row["scaled_gflops_per_w"] > 0


def test_published_measurement_validation():
    with pytest.raises(ValueError):
        PublishedMeasurement("bad", "GEMM", TECH_45NM, gflops=1.0, power_w=0.0, area_mm2=1.0)
    with pytest.raises(ValueError):
        PublishedMeasurement("bad", "GEMM", TECH_45NM, gflops=1.0, power_w=1.0,
                             area_mm2=1.0, utilization=2.0)


# ------------------------------------------------------------------ export
def test_write_json_rejects_non_finite_values_before_writing(tmp_path, capsys):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json({"power_w": float("nan")}, path)
    assert not path.exists()
    with pytest.raises(ValueError):
        write_json([float("inf")], "-")
    assert capsys.readouterr().out == ""
