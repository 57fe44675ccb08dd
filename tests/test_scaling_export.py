"""Tests for technology scaling of published numbers and experiment export."""

import json
import pathlib

import pytest

from repro.arch.scaling import (PUBLISHED_MEASUREMENTS, PublishedMeasurement,
                                ScaledMeasurement, scale_measurement,
                                scaled_comparison_rows)
from repro.experiments.export import export_all, export_experiment, write_json
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


def test_rescaled_frequency_option_raises_throughput():
    gtx = next(x for x in PUBLISHED_MEASUREMENTS if "GTX280" in x.name)
    same_clock = scale_measurement(gtx, rescale_frequency=False)
    retimed = scale_measurement(gtx, rescale_frequency=True)
    assert retimed.gflops > same_clock.gflops
    assert retimed.frequency_ghz > gtx.frequency_ghz


def test_scaled_rows_have_provenance_columns():
    rows = scaled_comparison_rows()
    assert len(rows) == len(PUBLISHED_MEASUREMENTS)
    for row in rows:
        assert row["scaled_node"] == "45nm"
        assert row["published_node"] in ("45nm", "65nm", "90nm")
        assert row["scaled_gflops_per_w"] > 0


def test_scaled_measurement_efficiency_container():
    eff = scale_measurement(PUBLISHED_MEASUREMENTS[0]).efficiency()
    assert "45nm" in eff.label
    assert eff.gflops_per_watt > 0


def test_published_measurement_validation():
    with pytest.raises(ValueError):
        PublishedMeasurement("bad", "GEMM", TECH_45NM, gflops=1.0, power_w=0.0, area_mm2=1.0)
    with pytest.raises(ValueError):
        PublishedMeasurement("bad", "GEMM", TECH_45NM, gflops=1.0, power_w=1.0,
                             area_mm2=1.0, utilization=2.0)


# ------------------------------------------------------------------ export
def test_export_single_experiment_csv(tmp_path):
    path = export_experiment("table_4_1", tmp_path, fmt="csv")
    assert path.exists() and path.suffix == ".csv"
    content = path.read_text()
    assert "level" in content and "bandwidth_words_per_cycle" in content
    assert content.count("\n") >= 9  # header + 8 rows


def test_export_series_experiment_falls_back_to_json(tmp_path):
    path = export_experiment("fig_4_13_4_15", tmp_path, fmt="csv")
    assert path.suffix == ".json"
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "fig_4_13_4_15"
    assert "Penryn_DGEMM" in payload["data"]


def test_export_json_format_for_tabular_data(tmp_path):
    path = export_experiment("table_5_1", tmp_path, fmt="json")
    payload = json.loads(path.read_text())
    assert payload["kind"] == "table"
    assert isinstance(payload["data"], list)


def test_export_rejects_unknown_format_and_id(tmp_path):
    with pytest.raises(ValueError):
        export_experiment("table_4_1", tmp_path, fmt="xml")
    with pytest.raises(KeyError):
        export_experiment("table_nope", tmp_path)


def test_write_json_rejects_non_finite_values_before_writing(tmp_path, capsys):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json({"power_w": float("nan")}, path)
    assert not path.exists()
    with pytest.raises(ValueError):
        write_json([float("inf")], "-")
    assert capsys.readouterr().out == ""


def test_export_all_selected_experiments_writes_manifest(tmp_path):
    manifest = export_all(tmp_path, experiment_ids=["table_3_1", "validation_4_3"])
    assert set(manifest) == {"table_3_1", "validation_4_3"}
    assert (tmp_path / "manifest.json").exists()
    for filename in manifest.values():
        assert (tmp_path / filename).exists()
