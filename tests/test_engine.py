"""Tests for the parallel, cached design-space sweep engine."""

import json

import pytest

from repro.engine import (SweepSpec, best_per_metric, execute_jobs,
                          frontier_report, get_runner, pareto_frontier, runner_names,
                          sweep)
from repro.engine.cache import ResultCache, default_code_version, source_fingerprint
from repro.engine.spec import Job, canonical_params, params_key


# ------------------------------------------------------------------- spec
def points(spec):
    """The parameter points of ``spec``'s jobs, in job order."""
    return [job.params_dict for job in spec.jobs("design")]


class TestSweepSpec:
    def test_grid_expands_cartesian_product(self):
        spec = SweepSpec().grid(a=(1, 2, 3), b=(10, 20))
        expanded = points(spec)
        assert len(expanded) == 6
        assert expanded[0] == {"a": 1, "b": 10}
        assert expanded[-1] == {"a": 3, "b": 20}

    def test_constants_apply_to_every_point(self):
        spec = SweepSpec().constants(nr=4).grid(cores=(4, 8))
        assert all(p["nr"] == 4 for p in points(spec))

    def test_zip_axes_vary_together(self):
        spec = SweepSpec().zip(a=(1, 2, 3), b=(10, 20, 30))
        assert points(spec) == [{"a": 1, "b": 10}, {"a": 2, "b": 20},
                                {"a": 3, "b": 30}]

    def test_zip_crossed_with_grid(self):
        spec = SweepSpec().grid(c=(0, 1)).zip(a=(1, 2), b=(10, 20))
        assert len(points(spec)) == 4

    def test_zip_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SweepSpec().zip(a=(1, 2), b=(10,))

    def test_filter_prunes_points(self):
        spec = SweepSpec().grid(a=(1, 2, 3, 4)).filter(lambda p: p["a"] % 2 == 0)
        assert [p["a"] for p in points(spec)] == [2, 4]

    def test_duplicate_axis_raises(self):
        with pytest.raises(ValueError, match="already defined"):
            SweepSpec().constants(a=1).grid(a=(1, 2))

    def test_combinators_do_not_mutate_parent(self):
        base = SweepSpec().grid(a=(1, 2))
        extended = base.grid(b=(1, 2, 3))
        assert len(points(base)) == 2
        assert len(points(extended)) == 6

    def test_non_scalar_value_rejected(self):
        with pytest.raises(TypeError, match="scalar"):
            SweepSpec().constants(a={"no": "dicts"})

    def test_expansion_is_deterministic(self):
        make = lambda: points(SweepSpec().grid(a=(3, 1, 2), b=("x", "y")))
        assert make() == make()


class TestJobHashing:
    def test_key_is_order_insensitive(self):
        j1 = Job.create("design", {"cores": 8, "nr": 4})
        j2 = Job.create("design", {"nr": 4, "cores": 8})
        assert j1 == j2
        assert params_key(j1.runner, j1.params_dict) == params_key(j2.runner, j2.params_dict)

    def test_key_differs_across_params_and_runner(self):
        j1 = Job.create("design", {"cores": 8})
        j2 = Job.create("design", {"cores": 16})
        j3 = Job.create("simulate", {"cores": 8})
        assert len({params_key(j.runner, j.params_dict) for j in (j1, j2, j3)}) == 3

    def test_integral_floats_normalised(self):
        assert canonical_params({"nr": 4.0}) == canonical_params({"nr": 4})
        assert params_key("r", {"f": 1.0}) == params_key("r", {"f": 1})
        assert params_key("r", {"f": 1.5}) != params_key("r", {"f": 1})

    def test_jobs_are_hashable(self):
        jobs = SweepSpec().grid(a=(1, 2)).jobs("design")
        assert len(set(jobs)) == 2

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_nonfinite_values_rejected(self, value):
        """inf / nan have no canonical form: specs, jobs and keys reject
        them with an error naming the parameter."""
        with pytest.raises(ValueError, match="'x' must be finite"):
            SweepSpec().grid(x=[1.0, value])
        with pytest.raises(ValueError, match="'x' must be finite"):
            SweepSpec().constants(x=value)
        with pytest.raises(ValueError, match="'x' must be finite"):
            Job.create("design", {"x": value})
        with pytest.raises(ValueError, match="'x' must be finite"):
            params_key("design", {"x": value})


# ------------------------------------------------------------------ cache
class TestResultCache:
    def _job(self, **params):
        return Job.create("design", params or {"cores": 8})

    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        job = self._job()
        assert cache.get(job) is None
        cache.put(job, {"gflops": 100.0})
        assert cache.get(job) == {"gflops": 100.0}
        assert cache.hits == 1 and cache.misses == 1
        assert cache.get(job) is not None

    def test_code_version_invalidates(self, tmp_path):
        job = self._job()
        ResultCache(tmp_path, code_version="v1").put(job, {"gflops": 1.0})
        assert ResultCache(tmp_path, code_version="v2").get(job) is None
        assert ResultCache(tmp_path, code_version="v1").get(job) == {"gflops": 1.0}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        job = self._job()
        path = cache.put(job, {"gflops": 1.0})
        path.write_text("{ not json")
        assert cache.get(job) is None
        assert not path.exists()

    def test_foreign_format_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        job = self._job()
        path = cache.put(job, {"gflops": 1.0})
        path.write_text('{"not_row": 1}')
        assert cache.get(job) is None
        assert not path.exists()
        path = cache.put(job, {"gflops": 1.0})
        path.write_text('["valid json, wrong shape"]')
        assert cache.get(job) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        for cores in (4, 8, 16):
            cache.put(self._job(cores=cores), {"cores": cores})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_put_rejects_values_json_cannot_hold(self, tmp_path):
        """A non-JSON value raises instead of being stored as its string
        (a warm get would then differ from the cold row); nothing is left
        on disk, not even a temp file."""
        import numpy as np

        cache = ResultCache(tmp_path, code_version="v1")
        job = self._job()
        with pytest.raises(TypeError):
            cache.put(job, {"cores": np.int64(5)})
        assert cache.get(job) is None
        assert list(tmp_path.rglob("*.json")) == []
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_stats_shape(self, tmp_path):
        stats = ResultCache(tmp_path, code_version="v1").stats()
        assert {"directory", "code_version", "hits", "misses", "entries",
                "evictions", "size_bytes", "max_bytes"} <= set(stats)


# --------------------------------------------------------------- eviction
class TestCacheEviction:
    def _fill(self, cache, count, start=0):
        paths = []
        for i in range(start, start + count):
            job = Job.create("design", {"cores": i})
            paths.append(cache.put(job, {"cores": i, "pad": "x" * 64}))
        return paths

    def _touch_older(self, paths, offset=3600.0):
        """Backdate entry mtimes so LRU order is unambiguous."""
        import os
        import time

        now = time.time()
        for i, path in enumerate(paths):
            os.utime(path, (now - offset + i, now - offset + i))

    def test_prune_by_max_entries_removes_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        paths = self._fill(cache, 6)
        self._touch_older(paths)
        removed = cache.prune(max_entries=2)
        assert removed == 4
        assert len(cache) == 2
        survivors = [p for p in paths if p.exists()]
        assert survivors == paths[-2:]

    def test_prune_by_max_bytes(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        paths = self._fill(cache, 8)
        self._touch_older(paths)
        entry_bytes = paths[0].stat().st_size
        removed = cache.prune(max_bytes=3 * entry_bytes)
        assert removed == 5
        assert cache.size_bytes() <= 3 * entry_bytes
        assert cache.evictions == 5

    def test_prune_without_limits_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        self._fill(cache, 3)
        assert cache.prune() == 0
        assert len(cache) == 3

    def test_get_refreshes_lru_recency(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        paths = self._fill(cache, 4)
        self._touch_older(paths)
        # A hit on the oldest entry must protect it from the next prune.
        oldest = Job.create("design", {"cores": 0})
        assert cache.get(oldest) is not None
        cache.prune(max_entries=1)
        assert cache.get(oldest) is not None

    def test_put_enforces_max_bytes_budget(self, tmp_path):
        probe = ResultCache(tmp_path / "probe", code_version="v1")
        entry_bytes = self._fill(probe, 1)[0].stat().st_size
        cache = ResultCache(tmp_path / "real", code_version="v1",
                            max_bytes=4 * entry_bytes)
        for i in range(12):
            cache.put(Job.create("design", {"cores": i}),
                      {"cores": i, "pad": "x" * 64})
        # Automatic enforcement evicts to the low-water mark (90% of the
        # budget), so the store ends strictly below max_bytes.
        assert cache.size_bytes() <= int(0.9 * 4 * entry_bytes)
        assert cache.evictions >= 8

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, code_version="v1", max_bytes=0)

    def test_env_budget_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "2")
        cache = ResultCache(tmp_path, code_version="v1")
        assert cache.max_bytes == 2 * 1024 * 1024

    def test_env_budget_degrades_on_garbage(self, monkeypatch, capsys):
        from repro.engine.cache import env_max_bytes

        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "lots")
        assert env_max_bytes() is None
        assert "REPRO_CACHE_MAX_MB" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "-3")
        assert env_max_bytes() is None
        monkeypatch.delenv("REPRO_CACHE_MAX_MB")
        assert env_max_bytes() is None

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_env_budget_degrades_on_non_finite(self, tmp_path, monkeypatch, capsys, value):
        """A non-finite budget used to raise from int(); it now warns and
        runs unlimited."""
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", value)
        cache = ResultCache(tmp_path, code_version="v1")
        assert cache.max_bytes is None
        assert "REPRO_CACHE_MAX_MB" in capsys.readouterr().err


# --------------------------------------------------------------- executor
def _chip_jobs(n_cores=(4, 8, 12, 16), bws=(8, 16, 24)):
    spec = (SweepSpec().constants(nr=4, n=1024, frequency_ghz=1.0)
            .grid(num_cores=n_cores, offchip_bw_bytes_per_cycle=bws))
    return spec.jobs("chip_gemm")


class TestExecutor:
    def test_serial_matches_process(self):
        jobs = _chip_jobs()
        serial = execute_jobs(jobs, mode="serial")
        process = execute_jobs(jobs, mode="process", max_workers=2)
        assert json.dumps(serial.rows) == json.dumps(process.rows)

    def test_rows_follow_job_order(self):
        jobs = _chip_jobs()
        result = execute_jobs(jobs, mode="process", max_workers=2, batch_size=1)
        for job, row in zip(result.jobs, result.rows):
            params = job.params_dict
            assert row["num_cores"] == params["num_cores"]
            assert row["offchip_bw_bytes_per_cycle"] == params["offchip_bw_bytes_per_cycle"]

    def test_cache_makes_second_run_incremental(self, tmp_path):
        jobs = _chip_jobs()
        cache = ResultCache(tmp_path, code_version="v1")
        cold = execute_jobs(jobs, mode="serial", cache=cache)
        warm = execute_jobs(jobs, mode="serial", cache=cache)
        assert cold.executed == len(jobs) and cold.cached == 0
        assert warm.executed == 0 and warm.cached == len(jobs)
        assert json.dumps(cold.rows) == json.dumps(warm.rows)

    def test_partial_cache_runs_only_missing_jobs(self, tmp_path):
        jobs = _chip_jobs()
        cache = ResultCache(tmp_path, code_version="v1")
        execute_jobs(jobs[:5], mode="serial", cache=cache)
        result = execute_jobs(jobs, mode="serial", cache=cache)
        assert result.cached == 5
        assert result.executed == len(jobs) - 5

    def test_cache_write_failure_keeps_rows_and_disables_cache(self, tmp_path, capsys):
        jobs = _chip_jobs(n_cores=(4, 8), bws=(8, 16))
        cache = ResultCache(tmp_path, code_version="v1")
        original_put = cache.put
        calls = []

        def flaky_put(job, row):
            calls.append(job)
            if len(calls) >= 2:
                raise OSError("disk full")
            return original_put(job, row)

        cache.put = flaky_put
        result = execute_jobs(jobs, mode="serial", cache=cache)
        assert len(result.rows) == len(jobs)
        assert all(row for row in result.rows)
        assert "caching disabled" in capsys.readouterr().err
        assert len(calls) == 2  # caching stopped after the failure

    def test_cache_write_failure_is_scoped_to_one_run(self, tmp_path):
        """A failed write stops writing for that run only: the run still
        reports and persists its counters, and a later run of the same
        executor reads and writes the cache again."""
        from repro.engine import SweepExecutor

        jobs = SweepSpec().grid(cores=(4, 8), nr=(2, 4)).jobs("design")
        cache = ResultCache(tmp_path, code_version="v1")
        original_put = cache.put
        calls = []

        def flaky_put(job, row):
            calls.append(job)
            if len(calls) >= 2:
                raise OSError("disk full")
            return original_put(job, row)

        cache.put = flaky_put
        executor = SweepExecutor(mode="serial", cache=cache)
        first = executor.run(jobs)
        assert first.executed == 4 and len(calls) == 2
        assert first.cache_stats["misses"] == 4
        # A fresh instance sees only what the first run persisted.
        persisted = ResultCache(tmp_path, code_version="v1").lifetime_stats()
        assert persisted["misses"] == 4
        cache.put = original_put
        second = executor.run(jobs)
        assert second.cached == 1 and second.executed == 3
        assert second.cache_stats["hits"] == 1
        assert executor.run(jobs).cached == 4
        assert json.dumps(second.rows) == json.dumps(first.rows)

    def test_runner_error_propagates(self):
        bad = [Job.create("simulate", {"kernel": "gemm", "size": 10, "nr": 4})]
        with pytest.raises(ValueError, match="multiple of nr"):
            execute_jobs(bad, mode="serial")

    def test_unknown_runner_raises(self):
        with pytest.raises(KeyError, match="unknown runner"):
            execute_jobs([Job.create("nope", {})], mode="serial")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            execute_jobs([], mode="warp")

    def test_explicit_pool_mode_honoured_for_single_shard(self):
        jobs = _chip_jobs(n_cores=(4, 8), bws=(8,))
        result = execute_jobs(jobs, mode="process", batch_size=100)
        assert result.mode == "process"
        assert json.dumps(result.rows) == \
            json.dumps(execute_jobs(jobs, mode="serial").rows)

    def test_runner_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size must be positive"):
            execute_jobs([Job.create("simulate", {"kernel": "gemm", "size": 0})],
                         mode="serial")

    def test_usable_cache_dir_degrades(self, capsys):
        from repro.engine import usable_cache_dir

        assert usable_cache_dir(None) is None
        assert usable_cache_dir("/proc/nope/x") is None
        assert "running without cache" in capsys.readouterr().err

    def test_usable_cache_dir_passes_through(self, tmp_path):
        from repro.engine import usable_cache_dir

        target = tmp_path / "cache"
        assert usable_cache_dir(target) == str(target)
        assert target.is_dir()

    def test_sweep_wrapper_with_spec(self, tmp_path):
        spec = SweepSpec().constants(nr=4, n=512, frequency_ghz=1.0).grid(
            num_cores=(4, 8), offchip_bw_bytes_per_cycle=(8, 16))
        result = sweep(spec, runner="chip_gemm", mode="serial",
                       cache_dir=str(tmp_path))
        assert result.total == 4
        again = sweep(spec, runner="chip_gemm", mode="serial",
                      cache_dir=str(tmp_path))
        assert again.executed == 0

    def test_sweep_requires_runner_for_spec(self):
        with pytest.raises(ValueError, match="runner"):
            sweep(SweepSpec().grid(a=(1,)))


# ---------------------------------------------------------------- runners
class TestRunners:
    def test_registry_contents(self):
        names = runner_names()
        for expected in ("design", "pe", "simulate", "chip_gemm", "core_gemm"):
            assert expected in names

    def test_design_runner_row(self):
        row = get_runner("design")({"cores": 8, "nr": 4, "frequency_ghz": 1.0})
        assert row["cores"] == 8
        assert row["gflops"] > 0
        assert row["gflops_per_w"] > 0
        assert row["gflops_per_mm2"] > 0

    def test_simulate_runner_is_deterministic(self):
        params = {"kernel": "gemm", "size": 8, "nr": 4, "seed": 7}
        r1 = get_runner("simulate")(params)
        r2 = get_runner("simulate")(params)
        assert r1 == r2
        assert r1["mac_ops"] == 8 ** 3

    def test_simulate_runner_reports_fft_points(self):
        row = get_runner("simulate")({"kernel": "fft", "size": 8, "nr": 4})
        assert row["effective_size"] == 64

    def test_source_fingerprint_follows_package_edits(self, tmp_path):
        """The default cache namespace hashes the package source: an
        untouched copy fingerprints the same, one edited model file not."""
        import pathlib
        import shutil

        import repro

        copy = tmp_path / "repro"
        shutil.copytree(pathlib.Path(repro.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert source_fingerprint(copy) == default_code_version()
        model = copy / "models" / "chip_model.py"
        model.write_bytes(model.read_bytes() + b"\n# edited\n")
        assert source_fingerprint(copy) != default_code_version()


# ----------------------------------------------------------------- pareto
class TestPareto:
    ROWS = [
        {"id": "a", "gflops": 100.0, "gflops_per_w": 10.0, "gflops_per_mm2": 1.0},
        {"id": "b", "gflops": 200.0, "gflops_per_w": 5.0, "gflops_per_mm2": 2.0},
        {"id": "c", "gflops": 50.0, "gflops_per_w": 5.0, "gflops_per_mm2": 0.5},
        {"id": "d", "gflops": 100.0, "gflops_per_w": 10.0, "gflops_per_mm2": 1.0},
    ]

    def test_dominated_rows_removed(self):
        frontier = pareto_frontier(self.ROWS)
        ids = [r["id"] for r in frontier]
        assert "c" not in ids
        assert "a" in ids and "b" in ids

    def test_duplicates_both_survive(self):
        ids = [r["id"] for r in pareto_frontier(self.ROWS)]
        assert "a" in ids and "d" in ids

    def test_minimize_flips_sense(self):
        rows = [{"cost": 1.0, "perf": 1.0}, {"cost": 2.0, "perf": 1.0}]
        frontier = pareto_frontier(rows, ("cost", "perf"), minimize={"cost"})
        assert frontier == [rows[0]]

    def test_best_per_metric(self):
        best = best_per_metric(self.ROWS)
        assert best["gflops"]["id"] == "b"
        assert best["gflops_per_w"]["id"] == "a"  # first wins ties

    def test_missing_objective_raises(self):
        with pytest.raises(KeyError, match="missing objective"):
            pareto_frontier([{"gflops": 1.0}], ("gflops", "nope"))

    def test_frontier_report_shape(self):
        report = frontier_report(self.ROWS)
        assert report["num_rows"] == 4
        assert report["objectives"] == list(("gflops", "gflops_per_w", "gflops_per_mm2"))
        assert set(report["best"]) == {"gflops", "gflops_per_w", "gflops_per_mm2"}

    def test_empty_rows(self):
        assert pareto_frontier([]) == []
        assert best_per_metric([]) == {}


# ------------------------------------------------------------- streaming
class TestStreaming:
    def test_stream_yields_every_job_once(self):
        jobs = _chip_jobs()
        from repro.engine import stream_jobs

        events = list(stream_jobs(jobs, mode="serial"))
        assert sorted(e.index for e in events) == list(range(len(jobs)))
        assert all(not e.cached and e.latency_s is not None for e in events)
        assert all(e.row["num_cores"] == e.job.params_dict["num_cores"]
                   for e in events)

    def test_stream_then_result_matches_run(self, tmp_path):
        jobs = _chip_jobs()
        # Two identically warmed caches, so the streamed and the batch run
        # see the same hit pattern without feeding each other.
        stream_cache = ResultCache(tmp_path / "a", code_version="v1")
        batch_cache = ResultCache(tmp_path / "b", code_version="v1")
        execute_jobs(jobs[:4], mode="serial", cache=stream_cache)
        execute_jobs(jobs[:4], mode="serial", cache=batch_cache)

        from repro.engine import SweepExecutor

        stream = SweepExecutor(mode="process", max_workers=2,
                               cache=stream_cache).stream(jobs)
        events = list(stream)
        streamed = stream.result()
        batch = execute_jobs(jobs, mode="serial", cache=batch_cache)
        # Stream events reassembled by index equal the job-ordered rows.
        by_index = [None] * len(jobs)
        for event in events:
            assert by_index[event.index] is None
            by_index[event.index] = event.row
        assert json.dumps(by_index) == json.dumps(batch.rows)
        assert json.dumps(streamed.rows) == json.dumps(batch.rows)
        # Telemetry shape matches the batch result.
        assert streamed.executed == batch.executed
        assert streamed.cached == batch.cached == 4
        assert streamed.job_latency_s[:4] == [None] * 4
        assert sum(s["jobs"] for s in streamed.shard_timings) == \
            sum(s["jobs"] for s in batch.shard_timings)
        assert streamed.first_row_s is not None
        assert streamed.last_row_s >= streamed.first_row_s

    def test_cached_rows_stream_first_in_job_order(self, tmp_path):
        jobs = _chip_jobs()
        cache = ResultCache(tmp_path, code_version="v1")
        execute_jobs([jobs[1], jobs[5], jobs[7]], mode="serial", cache=cache)

        from repro.engine import stream_jobs

        events = list(stream_jobs(jobs, mode="serial", cache=cache))
        cached_prefix = [e.index for e in events if e.cached]
        assert cached_prefix == [1, 5, 7]
        assert [e.cached for e in events[:3]] == [True, True, True]
        assert not any(e.cached for e in events[3:])

    def test_result_drains_unconsumed_stream(self):
        jobs = _chip_jobs(n_cores=(4, 8), bws=(8,))
        from repro.engine import stream_jobs

        result = stream_jobs(jobs, mode="serial").result()
        assert result.total == len(jobs)
        assert all(row is not None for row in result.rows)

    def test_adaptive_batches_shrink_to_single_jobs_at_tail(self):
        jobs = _chip_jobs(n_cores=(4, 8, 12, 16), bws=(8, 16, 24))  # 12 jobs
        result = execute_jobs(jobs, mode="serial", max_workers=2)
        sizes = [s["jobs"] for s in result.shard_timings]
        assert sum(sizes) == len(jobs)
        # remaining/(workers*4) starts at ceil(12/8)=2 and decays to 1.
        assert sizes[-1] == 1
        assert max(sizes) <= 2

    def test_fully_cached_run_records_zero_job_shard_entry(self, tmp_path):
        """Bugfix: cache resolution shows up in shard_timings instead of
        leaving a fully-cached run with an empty timing table."""
        jobs = _chip_jobs(n_cores=(4, 8), bws=(8, 16))
        cache = ResultCache(tmp_path, code_version="v1")
        cold = execute_jobs(jobs, mode="serial", cache=cache)
        assert all(s["jobs"] > 0 for s in cold.shard_timings)  # no hits: no entry
        warm = execute_jobs(jobs, mode="serial", cache=cache)
        assert warm.cached == len(jobs)
        assert len(warm.shard_timings) == 1
        entry = warm.shard_timings[0]
        assert entry["shard"] == -1
        assert entry["jobs"] == 0
        assert entry["cached"] == len(jobs)
        assert entry["runner"] == "chip_gemm"
        assert entry["elapsed_s"] == 0.0

    def test_partially_cached_run_records_both_entries(self, tmp_path):
        jobs = _chip_jobs(n_cores=(4, 8), bws=(8, 16))
        cache = ResultCache(tmp_path, code_version="v1")
        execute_jobs(jobs[:2], mode="serial", cache=cache)
        mixed = execute_jobs(jobs, mode="serial", cache=cache)
        zero = [s for s in mixed.shard_timings if s["jobs"] == 0]
        assert len(zero) == 1 and zero[0]["cached"] == 2
        assert sum(s["jobs"] for s in mixed.shard_timings) == 2


# ------------------------------------------------------ incremental Pareto
def _pairwise_frontier(rows, objectives, minimize=()):
    """Reference: a row survives unless another row strictly dominates it
    (the O(n^2) definition, independent of the product's fold)."""
    vectors = [[-float(row[o]) if o in minimize else float(row[o])
                for o in objectives] for row in rows]
    return [row for row, vec in zip(rows, vectors)
            if not any(all(x >= y for x, y in zip(other, vec))
                       and any(x > y for x, y in zip(other, vec))
                       for other in vectors)]


class TestIncrementalPareto:
    def _rows(self, vectors):
        return [{"x": float(x), "y": float(y)} for x, y in vectors]

    def test_matches_batch_on_simple_case(self):
        from repro.engine import IncrementalPareto

        rows = self._rows([(1, 1), (2, 2), (0, 3), (2, 2), (3, 0), (1, 2)])
        inc = IncrementalPareto(objectives=("x", "y"))
        for row in rows:
            inc.add(row)
        expected = _pairwise_frontier(rows, ("x", "y"))
        assert inc.frontier() == expected
        assert pareto_frontier(rows, objectives=("x", "y")) == expected
        assert len(inc) == len(expected)
        assert inc.seen == len(rows)

    def test_minimize_axes_match_batch(self):
        from repro.engine import IncrementalPareto

        rows = self._rows([(1, 5), (2, 3), (3, 4), (2, 3), (4, 1)])
        inc = IncrementalPareto(objectives=("x", "y"), minimize=("y",))
        for row in rows:
            inc.add(row)
        expected = _pairwise_frontier(rows, ("x", "y"), minimize=("y",))
        assert inc.frontier() == expected
        assert pareto_frontier(rows, objectives=("x", "y"),
                               minimize=("y",)) == expected

    def test_add_reports_membership(self):
        from repro.engine import IncrementalPareto

        inc = IncrementalPareto(objectives=("x", "y"))
        assert inc.add({"x": 1.0, "y": 1.0}) is True
        assert inc.add({"x": 0.5, "y": 0.5}) is False   # dominated
        assert inc.add({"x": 2.0, "y": 2.0}) is True    # evicts (1, 1)
        assert [r["x"] for r in inc.frontier()] == [2.0]

    def test_requires_objectives(self):
        from repro.engine import IncrementalPareto

        with pytest.raises(ValueError, match="objective"):
            IncrementalPareto(objectives=())

    def test_missing_objective_raises_keyerror(self):
        from repro.engine import IncrementalPareto

        with pytest.raises(KeyError, match="missing objective"):
            IncrementalPareto(objectives=("nope",)).add({"x": 1.0})


def test_incremental_pareto_equals_batch_property():
    """Hypothesis: IncrementalPareto and pareto_frontier equal the pairwise
    definition for random row streams (duplicates, ties and arbitrary
    orders included)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.engine import IncrementalPareto

    # Small value grids force plenty of dominance and exact duplicates.
    value = st.integers(min_value=0, max_value=4).map(float)
    rows = st.lists(st.tuples(value, value, value), min_size=0, max_size=40)

    @settings(max_examples=200, deadline=None)
    @given(rows=rows, n_objectives=st.integers(2, 3),
           minimize_y=st.booleans())
    def check(rows, n_objectives, minimize_y):
        objectives = ("x", "y", "z")[:n_objectives]
        minimize = ("y",) if minimize_y else ()
        dicts = [{"x": x, "y": y, "z": z} for x, y, z in rows]
        inc = IncrementalPareto(objectives=objectives, minimize=minimize)
        for row in dicts:
            inc.add(row)
        expected = _pairwise_frontier(dicts, objectives, minimize)
        assert inc.frontier() == expected
        assert pareto_frontier(dicts, objectives=objectives,
                               minimize=minimize) == expected

    check()


# ------------------------------------------------- concurrent stats merge
def _persist_counts(directory, barrier, per_writer):
    """One writer of the concurrent-stats test; module level so a spawned
    process can import it.  Appends ``per_writer`` one-hit, one-miss deltas."""
    cache = ResultCache(directory, code_version="v1")
    barrier.wait(timeout=60)
    for _ in range(per_writer):
        cache.hits += 1
        cache.misses += 1
        cache.persist_stats()


class TestConcurrentStats:
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_parallel_persist_stats_loses_no_deltas(self, tmp_path, kind):
        """Many writers appending to one _stats.log keep every delta."""
        import multiprocessing
        import threading

        writers = 8
        per_writer = 50
        if kind == "thread":
            barrier = threading.Barrier(writers)
            workers = [threading.Thread(target=_persist_counts,
                                        args=(tmp_path, barrier, per_writer))
                       for _ in range(writers)]
        else:
            context = multiprocessing.get_context("spawn")
            barrier = context.Barrier(writers)
            workers = [context.Process(target=_persist_counts,
                                       args=(str(tmp_path), barrier, per_writer))
                       for _ in range(writers)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        if kind == "process":
            assert [worker.exitcode for worker in workers] == [0] * writers
        final = ResultCache(tmp_path, code_version="v1").lifetime_stats()
        assert final["hits"] == writers * per_writer
        assert final["misses"] == writers * per_writer

    def test_corrupt_stats_file_does_not_crash_merge(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cache.hits = 2
        cache.persist_stats()
        with (tmp_path / "_stats.log").open("a") as log:
            log.write('\n{"hits": 40, "mis')  # a torn last record
        cache.hits = 5
        cache.persist_stats()
        # The torn record is skipped; the deltas around it survive.
        assert ResultCache(tmp_path, code_version="v1").lifetime_stats()["hits"] == 5


# ----------------------------------------------------- replay sidecar
class TestReplaySidecar:
    def _lap_jobs(self, **overrides):
        base = {"algorithm": "cholesky", "n": 32, "tile": 8, "num_cores": 2,
                "nr": 4, "seed": 3, "timing": "memoized", "verify": False}
        base.update(overrides)
        return [Job.create("lap_runtime", base)]

    def test_sidecar_store_roundtrip(self, tmp_path):
        from repro.engine import SidecarStore

        store = SidecarStore(tmp_path, code_version="v1")
        assert store.get("kind", "mat") is None
        path = store.put("kind", "mat", {"a": 1})
        assert path.parent.parent == tmp_path  # the cache's own ??/ fan-out
        assert store.get("kind", "mat") == {"a": 1}
        assert len(store) == 1
        # A different code version is a different namespace.
        other = SidecarStore(tmp_path, code_version="v2")
        assert other.get("kind", "mat") is None
        # Corruption degrades to a miss and drops the record.
        path.write_text("{nope")
        assert store.get("kind", "mat") is None
        assert not path.exists()

    def test_cache_clear_and_prune_remove_sidecar_records(self, tmp_path):
        """Replay records are ordinary cache entries: `entries` counts them
        next to rows, and `clear` and `prune` remove them."""
        from repro.engine import SidecarStore

        cache = ResultCache(tmp_path, code_version="v1")
        execute_jobs(_chip_jobs(n_cores=(4,), bws=(8,)), mode="serial",
                     cache=cache)
        sidecar = SidecarStore(**cache.config())
        sidecar.put("kind", "mat", {"a": 1})
        assert cache.stats()["entries"] == 2
        assert cache.clear() == 2
        assert sidecar.get("kind", "mat") is None
        sidecar.put("kind", "mat", {"a": 1})
        assert cache.prune(max_entries=0) == 1
        assert sidecar.get("kind", "mat") is None
        assert not list(tmp_path.rglob("*.json"))

    def test_replay_shared_across_simulated_processes(self, tmp_path):
        """A schedule recorded under one process's memo replays in a fresh
        process (cleared memo) through the cache's replay sidecar, with
        zero scheduler loops (nothing newly recorded) and identical rows."""
        from repro.engine.runners import _REPLAY_MEMO, configure_worker
        from repro.lap.replay import REPLAY_STATS

        cache = ResultCache(tmp_path, code_version="v1")
        try:
            base = execute_jobs(self._lap_jobs(), mode="serial", cache=cache)
            assert base.executed == 1
            assert len(cache) == 2  # the row and its published recording

            _REPLAY_MEMO.clear()  # simulate a brand-new worker process
            before = dict(REPLAY_STATS)
            delta_jobs = self._lap_jobs(bandwidth_gbs=64.0)
            delta = execute_jobs(delta_jobs, mode="serial", cache=cache)
            after = dict(REPLAY_STATS)
            assert after["sidecar_loaded"] == before["sidecar_loaded"] + 1
            assert after["replayed"] == before["replayed"] + 1
            assert after["recorded"] == before["recorded"]  # 0 scheduler loops
            # The record lookups are not row lookups.
            assert (cache.hits, cache.misses) == (0, 2)

            _REPLAY_MEMO.clear()
            configure_worker(None)  # no sidecar: the delta must re-simulate
            resim = execute_jobs(delta_jobs, mode="serial")
            assert json.dumps(delta.rows) == json.dumps(resim.rows)
        finally:
            configure_worker(None)
            _REPLAY_MEMO.clear()

    def test_sidecar_budget_prunes_lru(self, tmp_path, monkeypatch):
        """Rows and replay records share the cache's byte budget
        (REPRO_CACHE_MAX_MB) and leave in one LRU order, whichever handle
        writes; evictions of both kinds reach the lifetime counter, while
        hits and misses count row lookups only."""
        import os

        from repro.engine import SidecarStore

        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        cache = ResultCache(tmp_path, code_version="v1")
        store = SidecarStore(**cache.config())
        assert store.max_bytes is None
        paths = []
        for i in range(2):
            paths.append(store.put("kind", f"mat{i}", {"pad": "x" * 400}))
            paths.append(cache.put(Job.create("design", {"cores": i}),
                                   {"pad": "x" * 400}))
        for age, path in enumerate(paths):  # record0 < row0 < record1 < row1
            os.utime(path, (age + 1.0, age + 1.0))

        monkeypatch.setenv("REPRO_CACHE_MAX_MB", str(2400 / 2 ** 20))
        cache = ResultCache(tmp_path, code_version="v1")
        store = SidecarStore(**cache.config())
        assert cache.max_bytes == store.max_bytes == 2400
        assert SidecarStore(tmp_path, code_version="v1").max_bytes == 2400
        # Record lookups refresh recency but are not row lookups.
        assert store.get("kind", "mat1") == {"pad": "x" * 400}
        assert store.get("kind", "nope") is None
        # A record write past the budget evicts the oldest entries first,
        # a record and then a row, down to the low-water mark.
        big = store.put("kind", "big", {"pad": "y" * 1000})
        assert [path.exists() for path in paths] == [False, False, True, True]
        assert big.exists() and cache.size_bytes() <= 2400
        assert store.evictions == 2
        # The refreshed record outlives the row written after it.
        assert cache.prune(max_entries=2) == 1
        assert paths[2].exists() and not paths[3].exists()
        lifetime = ResultCache(tmp_path, code_version="v1").lifetime_stats()
        assert lifetime["evictions"] == 3
        assert (lifetime["hits"], lifetime["misses"]) == (0, 0)

    def test_changed_code_fingerprint_orphans_sidecar(self, tmp_path):
        """A schedule recorded under one code fingerprint is invisible to a
        cache stamped with another (the sidecar key includes the code
        version), so new runner code never replays stale schedules; the
        re-simulation republishes under the new fingerprint."""
        from repro.engine.runners import _REPLAY_MEMO, configure_worker
        from repro.lap.replay import REPLAY_STATS

        try:
            old = ResultCache(tmp_path, code_version="fp-old")
            execute_jobs(self._lap_jobs(seed=15), mode="serial", cache=old)
            assert len(old) == 2  # the row and its recording

            _REPLAY_MEMO.clear()
            new = ResultCache(tmp_path, code_version="fp-new")
            before = dict(REPLAY_STATS)
            execute_jobs(self._lap_jobs(seed=15, bandwidth_gbs=64.0),
                         mode="serial", cache=new)
            after = dict(REPLAY_STATS)
            # Orphaned: nothing loaded from the old namespace, a full
            # scheduler run happened and was republished under fp-new.
            assert after["sidecar_loaded"] == before["sidecar_loaded"]
            assert after["recorded"] == before["recorded"] + 1
            assert after["sidecar_stored"] == before["sidecar_stored"] + 1

            _REPLAY_MEMO.clear()
            before = dict(REPLAY_STATS)
            execute_jobs(self._lap_jobs(seed=15, bandwidth_gbs=32.0),
                         mode="serial", cache=new)
            after = dict(REPLAY_STATS)
            # The fp-new namespace works: the next delta replays from it.
            assert after["sidecar_loaded"] == before["sidecar_loaded"] + 1
            assert after["replayed"] == before["replayed"] + 1
        finally:
            configure_worker(None)
            _REPLAY_MEMO.clear()

    def test_cleared_cache_replays_like_an_empty_one(self, tmp_path):
        """`clear` leaves no record behind: a re-run records and replays
        exactly as a run on an empty directory does."""
        from repro.engine.runners import _REPLAY_MEMO, configure_worker
        from repro.lap.replay import REPLAY_STATS

        jobs = (self._lap_jobs(seed=21)
                + self._lap_jobs(seed=21, bandwidth_gbs=64.0))

        def replay_deltas(cache):
            _REPLAY_MEMO.clear()
            before = dict(REPLAY_STATS)
            assert execute_jobs(jobs, mode="serial", cache=cache).executed == 2
            return {key: REPLAY_STATS[key] - before[key] for key in REPLAY_STATS}

        try:
            cache = ResultCache(tmp_path / "cache", code_version="v1")
            fresh = replay_deltas(cache)
            assert fresh["recorded"] == fresh["replayed"] == 1
            assert cache.clear() == 3  # two rows and one replay record
            assert not list((tmp_path / "cache").rglob("*.json"))
            assert replay_deltas(cache) == fresh
        finally:
            configure_worker(None)
            _REPLAY_MEMO.clear()

    def test_uncached_run_leaves_replay_in_process(self, tmp_path):
        from repro.engine import runners
        from repro.engine.runners import _REPLAY_MEMO, configure_worker

        try:
            _REPLAY_MEMO.clear()
            execute_jobs(self._lap_jobs(seed=9), mode="serial")
            assert runners._WORKER_SIDECAR is None
        finally:
            configure_worker(None)
            _REPLAY_MEMO.clear()

    def test_replay_memo_is_bounded_by_its_tasks(self, tmp_path, monkeypatch):
        """The replay memo's entries, each charged its schedule's tasks
        plus REPLAY_MEMO_ENTRY_TASKS, stay within REPLAY_MEMO_TASKS,
        oldest out; a schedule over the bound alone is not memoized, but
        its replay record is still filed in the cache and serves a delta
        point; many 1-task schedules are bounded by their fixed charge."""
        from repro.engine import runners
        from repro.engine.runners import _REPLAY_MEMO, configure_worker
        from repro.lap.replay import REPLAY_STATS

        extra = runners.REPLAY_MEMO_ENTRY_TASKS
        bound = 30 + 2 * extra
        monkeypatch.setattr(runners, "REPLAY_MEMO_TASKS", bound)
        cache = ResultCache(tmp_path, code_version="v1")

        def run(**overrides):
            before = dict(REPLAY_STATS)
            execute_jobs(self._lap_jobs(**overrides), mode="serial",
                         cache=cache)
            return {key: REPLAY_STATS[key] - before[key] for key in before}

        def memoized():
            return [(row["n"], row["seed"]) for _, row in _REPLAY_MEMO.values()]

        def charged():
            return sum(row["tasks_executed"] + extra
                       for _, row in _REPLAY_MEMO.values())

        try:
            _REPLAY_MEMO.clear()
            run(n=24)                                # 10 tasks
            run(n=32)                                # 20 tasks: the bound
            assert memoized() == [(24, 3), (32, 3)]
            assert _REPLAY_MEMO.held == charged() == bound
            run(n=16)                                # 4 tasks: evicts n=24
            assert memoized() == [(32, 3), (16, 3)]
            big = run(n=48)                          # 56 tasks
            assert big["recorded"] == big["sidecar_stored"] == 1
            assert memoized() == [(32, 3), (16, 3)]
            delta = run(n=48, bandwidth_gbs=64.0)
            assert delta["sidecar_loaded"] == delta["replayed"] == 1
            assert delta["recorded"] == 0
            assert memoized() == [(32, 3), (16, 3)]
            for seed in range(10):                   # 1 task each
                run(n=8, seed=seed)
            fit = bound // (1 + extra)
            assert memoized() == [(8, seed) for seed in range(10 - fit, 10)]
            assert _REPLAY_MEMO.held == charged() <= bound
        finally:
            configure_worker(None)
            _REPLAY_MEMO.clear()

    def test_replay_memo_charge_covers_what_an_entry_keeps(self):
        """An entry keeps at most its charge times the bytes per charged
        task that REPLAY_MEMO_TASKS allots under the 256 MiB budget, also
        for 1-task schedules, whose fixed cost dominates (tracemalloc)."""
        import gc
        import tracemalloc

        from repro.engine import runners
        from repro.lap.taskgraph import clear_graph_cache

        budget = 256 * 2 ** 20 / runners.REPLAY_MEMO_TASKS
        point = {"algorithm": "lu", "tile": 8, "num_cores": 4, "nr": 4,
                 "seed": 0, "timing": "memoized", "verify": 0,
                 "policy": "memory_aware", "on_chip_kb": 64,
                 "local_store_kb": 8, "bandwidth_gbs": 16, "stall_overlap": 1,
                 "frequency_ghz": 1.4, "offchip_pj_per_byte": 30.0,
                 "core_frequencies_ghz": [1.0, 1.2, 1.4, 1.6]}

        def kept(params):
            runners._REPLAY_MEMO.clear()
            runners.configure_worker(None)
            gc.collect()
            tracemalloc.start()
            try:
                runners.get_runner("lap_runtime")(params)
                assert len(runners._REPLAY_MEMO) == 1
                charge = runners._REPLAY_MEMO.held
                clear_graph_cache()
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                runners._REPLAY_MEMO.clear()
                gc.collect()
                return charge, held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        for n in (8, 32, 64):
            kept({**point, "n": n})              # warm the tables
            charge, nbytes = kept({**point, "n": n})
            assert nbytes <= charge * budget, (n, nbytes, charge)


# ------------------------------------------------------------- end-to-end
def test_serial_and_parallel_sweeps_are_byte_identical(tmp_path):
    """Acceptance: parallel results are byte-identical to serial results."""
    spec = (SweepSpec().constants(nr=4, frequency_ghz=1.0, seed=0)
            .grid(kernel=("gemm", "syrk", "cholesky"), size=(8, 16)))
    serial = sweep(spec.jobs("simulate"), mode="serial")
    parallel = sweep(spec.jobs("simulate"), mode="process", max_workers=2,
                     batch_size=2)
    assert json.dumps(serial.rows, sort_keys=True) == \
        json.dumps(parallel.rows, sort_keys=True)


# ----------------------------------------------------- executor regressions
@pytest.fixture
def forked_pool(monkeypatch):
    """Pool workers forked from the test process, so they see a stub runner
    the test registers in ``RUNNERS`` whatever the default start method."""
    import concurrent.futures
    import functools
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(
                            concurrent.futures.ProcessPoolExecutor,
                            mp_context=multiprocessing.get_context("fork")))


class TestExecutorRegressions:
    def test_mixed_runner_cache_hits_get_per_runner_entries(self, tmp_path):
        """Bugfix: a warm mixed-runner sweep records one zero-job cache
        entry per runner instead of charging every hit to one runner."""
        design = SweepSpec().constants(nr=4).grid(cores=(2, 4)).jobs("design")
        chip = _chip_jobs(n_cores=(4,), bws=(8,))
        jobs = design + chip
        cache = ResultCache(tmp_path, code_version="v1")
        execute_jobs(jobs, mode="serial", cache=cache)
        warm = execute_jobs(jobs, mode="serial", cache=cache)
        assert warm.cached == len(jobs)
        zero = [s for s in warm.shard_timings if s["shard"] == -1]
        assert {(s["runner"], s["cached"]) for s in zero} == \
            {("design", 2), ("chip_gemm", 1)}
        assert all(s["jobs"] == 0 for s in zero)

    def test_abandoned_stream_does_not_wait_for_stragglers(self, monkeypatch,
                                                           forked_pool):
        """Bugfix: breaking out of a stream shuts the pool down without
        draining in-flight batches, so abandoning a sweep is prompt."""
        import time

        from repro.engine import runners as runners_module
        from repro.engine import stream_jobs

        def dawdle(params):
            time.sleep(0.25)
            return {"i": params["i"]}

        monkeypatch.setitem(runners_module.RUNNERS, "dawdle", dawdle)
        jobs = [Job.create("dawdle", {"i": i}) for i in range(12)]
        stream = stream_jobs(jobs, mode="process", max_workers=2, batch_size=1)
        next(stream)
        started = time.monotonic()
        stream.close()
        # A blocking shutdown would drain the ~10 remaining 0.25 s jobs
        # (seconds); cancelling and not waiting returns immediately.
        assert time.monotonic() - started < 1.0
        result = stream.result()
        assert sum(1 for row in result.rows if row is not None) < len(jobs)

    def test_stream_is_a_context_manager(self, monkeypatch, forked_pool):
        import time

        from repro.engine import runners as runners_module
        from repro.engine import stream_jobs

        def dawdle(params):
            time.sleep(0.25)
            return {"i": params["i"]}

        monkeypatch.setitem(runners_module.RUNNERS, "dawdle", dawdle)
        jobs = [Job.create("dawdle", {"i": i}) for i in range(8)]
        started = time.monotonic()
        with stream_jobs(jobs, mode="process", max_workers=2,
                         batch_size=1) as stream:
            next(stream)  # abandon after the first row
        assert time.monotonic() - started < 1.5

    def test_broken_pool_fallback_reports_progress_and_tags_shards(
            self, monkeypatch):
        """Bugfix: the serial fallback after a broken process pool tags
        its shard entries as fallback work."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import runners as runners_module

        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("no forks today")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            BrokenPool)
        monkeypatch.setitem(runners_module.RUNNERS, "stub",
                            lambda p: {"i": p["i"]})
        jobs = [Job.create("stub", {"i": i}) for i in range(6)]
        result = execute_jobs(jobs, mode="process", batch_size=2)
        assert result.mode == "serial"
        assert [row["i"] for row in result.rows] == list(range(6))
        executed = [s for s in result.shard_timings if s["jobs"] > 0]
        assert len(executed) == 3
        assert all(s.get("fallback") is True for s in executed)

    def test_pool_that_cannot_start_runs_serially(self, monkeypatch):
        """A process pool that cannot start takes the serial re-run a
        broken pool takes: serial rows, shard entries tagged fallback."""
        import concurrent.futures

        def no_pool(max_workers):
            raise OSError("no semaphores here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        jobs = _chip_jobs(n_cores=(4, 8), bws=(8, 16))
        result = execute_jobs(jobs, mode="process", max_workers=2, batch_size=2)
        assert result.mode == "serial"
        assert json.dumps(result.rows) == \
            json.dumps(execute_jobs(jobs, mode="serial").rows)
        assert [s["jobs"] for s in result.shard_timings] == [2, 2]
        assert all(s.get("fallback") is True for s in result.shard_timings)

    def test_pool_first_round_hands_out_single_jobs(self):
        """The first row waits one job after the pool starts, not one
        adaptive batch (here ceil(12/8) = 2 jobs)."""
        result = execute_jobs(_chip_jobs(), mode="process", max_workers=2)
        sizes = {s["shard"]: s["jobs"] for s in result.shard_timings}
        assert sizes[0] == sizes[1] == 1
        assert sum(sizes.values()) == 12
        assert max(sizes.values()) == 2

    def test_serial_first_batch_is_a_single_job(self):
        """A serial run's first row waits one job too, not one adaptive
        batch (here ceil(12/4) = 3 jobs for the one worker)."""
        result = execute_jobs(_chip_jobs(), mode="serial", max_workers=1)
        sizes = [s["jobs"] for s in result.shard_timings]
        assert sizes[0] == 1 and sum(sizes) == 12
        assert max(sizes) == 3

    def test_regular_shards_are_not_tagged_fallback(self):
        result = execute_jobs(_chip_jobs(n_cores=(4, 8), bws=(8,)),
                              mode="process", max_workers=2)
        assert all("fallback" not in s for s in result.shard_timings)
