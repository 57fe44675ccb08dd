"""Tests for the observability layer: trace events, Chrome export,
attribution, run manifests and their runtime/engine integration."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scheduler_oracle import compose_task_cycles

from repro.engine.cache import ResultCache
from repro.engine.executor import SweepExecutor
from repro.engine.spec import SweepSpec
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import LAPRuntime
from repro.lap.timing import decompose_task_cycles
from repro.obs import (CycleAttribution, idle_gaps, validate_chrome_trace,
                       write_chrome_trace)
from repro.obs.manifest import (MANIFEST_SCHEMA, build_run_manifest,
                                manifest_path_for, write_run_manifest)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def make_runtime(num_cores=2, **kwargs):
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=num_cores, nr=4,
                                           onchip_memory_mbytes=1.0))
    kwargs.setdefault("timing", "memoized")
    return LAPRuntime(lap, 16, **kwargs)


# --------------------------------------------------- cycle decomposition
def test_decompose_inverts_compose():
    for overlap in (0.0, 0.25, 1.0):
        parts = decompose_task_cycles(100.0, 40.0, overlap,
                                      local_transfer_cycles=10.0)
        total = compose_task_cycles(100.0, 40.0, overlap,
                                    local_transfer_cycles=10.0)
        assert parts["total"] == total
        assert (parts["compute"] + parts["spill_stall"] + parts["transfer"]
                == pytest.approx(total))
        assert parts["hidden"] == pytest.approx(50.0 * overlap)


# ----------------------------------------------------------- attribution
def test_idle_gaps_complement_executions():
    gaps = idle_gaps([(0, 2.0, 5.0), (0, 7.0, 9.0), (1, 0.0, 4.0)],
                     num_cores=2, makespan=10.0)
    assert gaps == [(0, 0.0, 2.0), (0, 5.0, 7.0), (0, 9.0, 10.0),
                    (1, 4.0, 10.0)]
    # An idle third core is one full-makespan gap.
    assert idle_gaps([], num_cores=1, makespan=3.0) == [(0, 0.0, 3.0)]
    with pytest.raises(ValueError):
        idle_gaps([], num_cores=0, makespan=1.0)


@pytest.mark.parametrize("policy", ["greedy", "critical_path", "memory_aware"])
@pytest.mark.parametrize("local_kb,overlap", [(None, 0.0), (2.0, 0.0),
                                              (2.0, 0.5), (2.0, 1.0)])
def test_attribution_conserves_cycles(rng, policy, local_kb, overlap):
    runtime = make_runtime(num_cores=2, policy=policy, on_chip_kb=8.0, bandwidth_gbs=8.0,
                           local_store_kb=local_kb, stall_overlap=overlap)
    runtime.run_blocked_cholesky(64, rng, verify=False)
    attribution = runtime.attribution()
    attribution.check(rel_tol=1e-6)
    totals = attribution.totals()
    assert sum(totals.values()) == pytest.approx(attribution.total_cycles,
                                                 rel=1e-6)
    assert attribution.total_cycles == pytest.approx(
        2 * runtime.last_makespan, rel=1e-12)
    if local_kb is not None and overlap < 1.0:
        assert totals["transfer"] > 0
    if overlap == 1.0:
        assert totals["spill_stall"] == pytest.approx(0.0)
        assert totals["transfer"] == pytest.approx(0.0)


def test_attribution_and_trace_build_no_task_execution(rng, monkeypatch):
    """Both read the loop's rows; neither builds the ``executions`` view."""
    import repro.lap.runtime as runtime_module

    runtime = make_runtime(num_cores=2, on_chip_kb=8.0, bandwidth_gbs=8.0,
                           local_store_kb=2.0, stall_overlap=0.5)
    runtime.run_blocked_cholesky(64, rng, verify=False)

    def no_view(*row):
        raise AssertionError("a TaskExecution was built")

    monkeypatch.setattr(runtime_module, "TaskExecution", no_view)
    attribution = runtime.attribution()
    events = sum(1 for _ in runtime.trace_events("LAP"))
    monkeypatch.undo()
    spans = [(e.core_index, e.start_cycle, e.end_cycle, e.stall_cycles,
              e.local_transfer_cycles) for e in runtime.executions]
    assert attribution.as_dict() == CycleAttribution.from_executions(
        spans, 2, runtime.last_makespan, stall_overlap=0.5).as_dict()
    assert events > 3 * len(spans)


@settings(max_examples=10, deadline=None)
@given(n_tiles=st.integers(min_value=2, max_value=4),
       cores=st.integers(min_value=1, max_value=3),
       overlap=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_attribution_conservation_property(n_tiles, cores, overlap, seed):
    runtime = make_runtime(num_cores=cores, on_chip_kb=6.0, bandwidth_gbs=4.0,
                           local_store_kb=1.0, stall_overlap=overlap)
    runtime.run_blocked_gemm(16 * n_tiles, np.random.default_rng(seed),
                             verify=False)
    attribution = runtime.attribution()
    attribution.check(rel_tol=1e-6)
    assert all(core.idle >= -1e-9 for core in attribution.per_core)


def test_attribution_check_rejects_double_booked_core():
    # Two overlapping 6-cycle tasks on one core of a 10-cycle schedule:
    # compute (12) + idle (4) != makespan (10).
    attribution = CycleAttribution.from_executions(
        [(0, 0.0, 6.0, 0.0, 0.0), (0, 0.0, 6.0)], 1, 10.0)
    with pytest.raises(ValueError, match="does not conserve"):
        attribution.check()


def test_attribution_check_rejects_non_finite_cycles():
    """NaN fails every comparison, so conservation alone would pass it."""
    attribution = CycleAttribution.from_executions(
        [(0, 0.0, 6.0, float("nan"), 0.0)], 1, 6.0)
    with pytest.raises(ValueError, match="core 0 attribution is not finite"):
        attribution.check()
    empty = CycleAttribution.from_executions([], 1, float("nan"))
    with pytest.raises(ValueError, match="makespan nan is not finite"):
        empty.check()


def test_write_chrome_trace_rejects_non_finite_values(tmp_path):
    with pytest.raises(ValueError, match="Out of range float"):
        write_chrome_trace([], tmp_path / "t.json",
                           {"bandwidth_gbs": float("inf")})
    assert not list(tmp_path.iterdir())


def test_attribution_round_trips_through_dict():
    original = CycleAttribution.from_executions(iter([(0, 1.0, 5.0, 2.0, 1.0)]),
                                                2, 6.0, stall_overlap=0.5)
    original.check()
    rebuilt = CycleAttribution.from_dict(original.as_dict())
    assert rebuilt.as_dict() == original.as_dict()
    rebuilt.check()
    rows = rebuilt.table_rows()
    assert rows[-1]["core"] == "TOTAL"
    assert rows[-1]["compute_pct"] + rows[-1]["stall_pct"] + \
        rows[-1]["transfer_pct"] + rows[-1]["idle_pct"] == pytest.approx(100.0)


# --------------------------------------------------------- chrome export
def test_tracer_events_one_track_per_core(rng):
    runtime = make_runtime(num_cores=2)
    runtime.run_blocked_cholesky(48, rng, verify=False)
    events = list(runtime.trace_events("LAP test"))
    assert events[0]["args"] == {"name": "LAP test"}
    thread_names = [e for e in events if e["name"] == "thread_name"]
    assert {e["tid"] for e in thread_names} == {0, 1}
    tasks = [e for e in events if e.get("cat") == "task"]
    assert tasks and {e["tid"] for e in tasks} == {0, 1}
    for event in tasks:
        for key in ("compute_cycles", "spill_stall_cycles",
                    "transfer_cycles", "task_id", "kind"):
            assert key in event["args"]


def test_runtime_trace_validates_and_covers_makespan(rng):
    runtime = make_runtime(num_cores=2, on_chip_kb=8.0, bandwidth_gbs=8.0)
    stats = runtime.run_blocked_lu(48, rng, verify=False)
    events = validate_chrome_trace(
        {"traceEvents": list(runtime.trace_events("LAP"))})
    spans = [e for e in events if e["ph"] == "X"]
    # task + idle spans tile each core's [0, makespan] exactly.
    for tid in (0, 1):
        track = sorted((e["ts"], e["ts"] + e["dur"]) for e in spans
                       if e["tid"] == tid)
        assert track[0][0] == 0.0
        assert track[-1][1] == pytest.approx(stats["makespan_cycles"])
        for (_, end), (start, _) in zip(track, track[1:]):
            assert start == pytest.approx(end)


def test_validate_rejects_malformed_traces():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"events": []})
    with pytest.raises(ValueError, match="missing required key 'pid'"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": 1, "tid": 0}]})
    with pytest.raises(ValueError, match="missing required key 'dur'"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]})
    with pytest.raises(ValueError, match="invalid ts"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": -1, "dur": 1, "pid": 0, "tid": 0}]})
    with pytest.raises(ValueError, match="overlaps"):
        validate_chrome_trace({"traceEvents": [
            {"name": "a", "cat": "task", "ph": "X", "ts": 0, "dur": 5,
             "pid": 0, "tid": 0},
            {"name": "b", "cat": "task", "ph": "X", "ts": 3, "dur": 5,
             "pid": 0, "tid": 0}]})
    # Spans of other categories may nest: the overlap rule skips them.
    validate_chrome_trace({"traceEvents": [
        {"name": "outer", "cat": "phase", "ph": "X", "ts": 0, "dur": 10,
         "pid": 0, "tid": 0},
        {"name": "inner", "cat": "phase", "ph": "X", "ts": 2, "dur": 3,
         "pid": 0, "tid": 0}]})


def test_write_chrome_trace_round_trips(tmp_path, rng):
    runtime = make_runtime(num_cores=2)
    runtime.run_blocked_gemm(32, rng, verify=False)
    path = tmp_path / "t.trace.json"
    written = write_chrome_trace(runtime.trace_events("LAP"), path,
                                 {"time_unit": "cycles", "n": 32})
    with path.open() as handle:
        loaded = json.load(handle)
    assert loaded["metadata"] == {"time_unit": "cycles", "n": 32}
    assert loaded["displayTimeUnit"] == "ns"
    assert loaded["traceEvents"] == list(runtime.trace_events("LAP"))
    assert written == len(loaded["traceEvents"])
    validate_chrome_trace(loaded)
    # One event per line between the header and the closing bracket.
    lines = path.read_text().splitlines()
    assert len(lines) == written + 2
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == \
        loaded["traceEvents"]


def _counter_events(count):
    for i in range(count):
        yield {"name": "stall_cycles", "ph": "C", "ts": float(i), "pid": 0,
               "args": {"value": float(i)}}


def test_write_chrome_trace_writes_each_event_before_pulling_the_next(tmp_path):
    """The writer streams: while the generator still yields, its events
    are already in the temp file beside the target, and the target only
    appears once the file is complete."""
    path = tmp_path / "t.trace.json"
    sizes = []

    def events():
        for event in _counter_events(5000):
            temp = [p for p in tmp_path.iterdir() if p != path]
            assert not path.exists() and len(temp) == 1
            sizes.append(temp[0].stat().st_size)
            yield event

    assert write_chrome_trace(events(), path, {}) == 5000
    assert sizes == sorted(sizes) and 0 < sizes[len(sizes) // 2] < sizes[-1]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    with path.open() as handle:
        assert json.load(handle)["traceEvents"] == list(_counter_events(5000))


@pytest.mark.parametrize("bad, message", [
    ({"name": "x", "ph": "X", "ts": 0, "dur": 1, "tid": 0},
     "missing required key 'pid'"),
    ({"name": "x", "ph": "X", "ts": -1.0, "dur": 1, "pid": 0, "tid": 0},
     "invalid ts"),
    ({"name": "x", "ph": "X", "ts": math.nan, "dur": 1, "pid": 0, "tid": 0},
     "invalid ts"),
    ({"name": "x", "ph": "C", "ts": 1.0, "pid": 0, "args": {"value": math.nan}},
     "Out of range float"),
    ({"name": "b", "cat": "task", "ph": "X", "ts": 3999.0, "dur": 5, "pid": 0,
      "tid": 0}, "overlaps the task span ending at 4000.0"),
])
def test_write_chrome_trace_rejects_a_bad_event_and_leaves_no_file(
        tmp_path, bad, message):
    """An event that fails the per-event check, or a task span overlapping
    its track's previous one, raises after thousands of good events have
    been written, and neither the target nor the temp file remains."""
    def events():
        yield from _counter_events(3000)
        yield {"name": "a", "cat": "task", "ph": "X", "ts": 0.0,
               "dur": 4000.0, "pid": 0, "tid": 0}
        yield bad

    with pytest.raises(ValueError, match=message):
        write_chrome_trace(events(), tmp_path / "t.trace.json", {})
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------- manifests
def _run_sweep(tmp_path, cache=True):
    spec = (SweepSpec().constants(algorithm="cholesky", n=32, tile=16,
                                  timing="memoized")
            .grid(num_cores=[1, 2]))
    jobs = spec.jobs("lap_runtime")
    result_cache = ResultCache(tmp_path / "cache") if cache else None
    executor = SweepExecutor(mode="serial", cache=result_cache)
    return executor.run(jobs), result_cache


def test_sweep_result_carries_telemetry(tmp_path):
    result, _ = _run_sweep(tmp_path)
    assert len(result.job_latency_s) == 2
    assert all(lat is not None and lat > 0 for lat in result.job_latency_s)
    assert result.shard_timings
    assert sum(s["jobs"] for s in result.shard_timings) == 2
    for shard in result.shard_timings:
        assert shard["runner"] == "lap_runtime"
        assert shard["elapsed_s"] >= 0
    assert result.cache_stats["misses"] == 2
    assert "cache: 0 hits, 2 misses" in result.summary()


def test_warm_sweep_reports_hits_and_null_latency(tmp_path):
    _run_sweep(tmp_path)
    result, cache = _run_sweep(tmp_path)
    assert result.cached == 2 and result.executed == 0
    assert result.job_latency_s == [None, None]
    assert result.cache_stats["hits"] == 2
    assert result.cache_stats["hit_rate"] == pytest.approx(1.0)
    assert "100.0% hit rate" in result.summary()
    # Lifetime counters were persisted across both executor runs.
    lifetime = ResultCache(tmp_path / "cache").lifetime_stats()
    assert lifetime["hits"] == 2 and lifetime["misses"] == 2
    assert lifetime["hit_rate"] == pytest.approx(0.5)


def test_run_manifest_content_and_write(tmp_path):
    result, _ = _run_sweep(tmp_path)
    manifest = build_run_manifest(result, extra={"output": "rows.json"})
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["runner"] == "lap_runtime"
    assert manifest["jobs"] == 2 and manifest["executed"] == 2
    assert manifest["latency"]["count"] == 2
    assert manifest["latency"]["max_s"] >= manifest["latency"]["mean_s"]
    assert manifest["job_params"][0]["algorithm"] == "cholesky"
    assert manifest["output"] == "rows.json"

    target = manifest_path_for(tmp_path / "rows.json")
    assert target.name == "rows.json.manifest.json"
    written = write_run_manifest(result, target)
    with written.open() as handle:
        assert json.load(handle)["schema"] == MANIFEST_SCHEMA


def test_uncached_manifest_has_null_cache(tmp_path):
    result, _ = _run_sweep(tmp_path, cache=False)
    manifest = build_run_manifest(result)
    assert manifest["cache"] is None
    assert "cache:" not in result.summary()
