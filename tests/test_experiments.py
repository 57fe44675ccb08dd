"""Tests for the experiment registry, generators and the report renderer."""

import pytest

from repro.experiments.registry import REGISTRY, get_experiment, run_experiment
from repro.experiments.report import format_value, render_series, render_table, summarize_experiment


def test_registry_covers_every_planned_experiment():
    """The dissertation's tables and figures; all must be registered."""
    expected = {
        "table_3_1", "fig_3_4", "fig_3_5", "fig_3_6", "table_3_2",
        "table_4_1", "fig_4_2", "fig_4_3", "fig_4_5", "fig_4_6", "validation_4_3",
        "fig_4_7_4_8", "fig_4_9_4_10", "fig_4_11_4_12", "fig_4_13_4_15", "fig_4_16",
        "table_4_2", "table_4_3",
        "fig_5_8_5_9", "fig_5_10", "table_5_1",
        "fig_6_5", "fig_6_6_6_7", "table_a_2",
        "table_6_2", "fig_6_9", "table_b_1", "fig_b_5_b_7", "table_b_2", "table_b_3",
    }
    assert expected <= set(REGISTRY.keys())


def test_every_experiment_has_metadata():
    for exp in REGISTRY.values():
        assert exp.kind in ("table", "figure", "validation")
        assert exp.source
        assert exp.description
        assert callable(exp.generator)


@pytest.mark.parametrize("exp_id", sorted(REGISTRY.keys()))
def test_every_experiment_runs_and_produces_data(exp_id):
    data = run_experiment(exp_id)
    if isinstance(data, dict):
        assert len(data) > 0
    else:
        assert len(list(data)) > 0


def test_lookup_helpers():
    exp = get_experiment("table_3_1")
    assert exp.exp_id == "table_3_1"
    with pytest.raises(KeyError):
        get_experiment("table_99_9")


def test_format_value_handles_types():
    assert format_value(True) == "Y"
    assert format_value(False) == "N"
    assert format_value(0.0) == "0"
    assert format_value(3.14159, precision=2) == "3.14"
    assert format_value(1.5e7) == "1.50e+07"
    assert format_value("text") == "text"


def test_render_table_formats_rows():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
    text = render_table(rows)
    assert "a" in text and "b" in text
    assert "10" in text and "0.25" in text
    assert render_table([]) == "(empty table)"


def test_render_table_truncates_long_tables():
    rows = [{"x": i} for i in range(100)]
    text = render_table(rows, max_rows=5)
    assert "95 more rows" in text


def test_render_series_and_summary():
    series = {"GPU": {"FPU": 0.1, "RF": 0.2}, "LAP": {"MAC": 0.02}}
    text = render_series(series)
    assert "GPU:" in text and "MAC" in text
    summary_table = summarize_experiment("table_x", [{"a": 1}])
    assert "== table_x ==" in summary_table
    summary_series = summarize_experiment("fig_y", series)
    assert "LAP:" in summary_series
    summary_other = summarize_experiment("misc", 42)
    assert "42" in summary_other


def test_validation_experiment_reports_small_errors():
    rows = run_experiment("validation_4_3")
    assert len(rows) == 2
    for row in rows:
        assert row["prediction_error_pct"] < 10.0
