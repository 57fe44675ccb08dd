"""Benchmarks of the sweep engine: serial vs parallel vs warm-cache runs.

Measures the same 12-point cycle-level simulation sweep (4 kernels x 3
problem sizes) serially, through a process pool and from a warm cache, and
asserts the headline property of the subsystem: a warm cache turns a sweep
into pure lookups (zero executed jobs), which is far cheaper than
recomputing even a small sweep.
"""

import concurrent.futures
import functools
import gc
import json
import math
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import ResultCache, SweepExecutor, SweepSpec, execute_jobs, sweep
from repro.engine.cache import default_code_version
from repro.engine.runners import RUNNERS


def _jobs():
    spec = (SweepSpec()
            .constants(nr=4, frequency_ghz=1.0, seed=0)
            .grid(kernel=("gemm", "syrk", "trsm", "cholesky"),
                  size=(8, 16, 24)))
    return spec.jobs("simulate")


def test_sweep_serial(benchmark, bench_json):
    jobs = _jobs()
    last = {}

    def run():
        started = time.perf_counter()
        result = execute_jobs(jobs, mode="serial")
        last["elapsed"] = time.perf_counter() - started
        return result

    result = benchmark(run)
    assert result.executed == len(jobs)
    assert all(row["utilization"] > 0 for row in result.rows)
    measured = [lat for lat in result.job_latency_s if lat is not None]
    bench_json("engine_sweep_serial", {
        "jobs": len(jobs),
        "sweep_seconds": last["elapsed"],
        "mean_job_latency_s": sum(measured) / len(measured),
        "max_job_latency_s": max(measured),
    })


def test_sweep_warm_cache(benchmark, tmp_path):
    jobs = _jobs()
    cache = ResultCache(tmp_path, code_version=default_code_version())
    cold = execute_jobs(jobs, mode="serial", cache=cache)
    assert cold.executed == len(jobs)

    warm = benchmark(lambda: execute_jobs(
        jobs, mode="serial",
        cache=ResultCache(tmp_path, code_version=default_code_version())))
    assert warm.executed == 0
    assert warm.cached == len(jobs)
    assert json.dumps(warm.rows) == json.dumps(cold.rows)
    # The warm run skips every simulation, so it must be much faster than
    # the cold run was.
    assert warm.elapsed_s < cold.elapsed_s


@pytest.mark.parametrize("batch_size", [None, 3])
def test_sweep_process_pool_if_available(benchmark, batch_size):
    """Process fan-out, with adaptive and fixed micro-batches, stays
    byte-identical to serial (and falls back gracefully where process
    pools are unavailable)."""
    jobs = _jobs()
    result = benchmark(lambda: execute_jobs(jobs, mode="process",
                                            max_workers=2,
                                            batch_size=batch_size))
    serial = execute_jobs(jobs, mode="serial")
    assert json.dumps(result.rows) == json.dumps(serial.rows)


def test_sweep_lap_runtime_runner(benchmark):
    """The LAP-runtime runner schedules verified task graphs per job."""
    jobs = (SweepSpec()
            .constants(tile=8, nr=4, seed=0)
            .grid(algorithm=("gemm",), num_cores=(1, 2), n=(16, 24))
            .jobs("lap_runtime"))
    result = benchmark(lambda: execute_jobs(jobs, mode="serial"))
    assert all(row["residual"] < 1e-9 for row in result.rows)
    # More cores never lengthen the makespan of the same task graph.
    by_point = {(row["n"], row["num_cores"]): row["makespan_cycles"]
                for row in result.rows}
    for n in (16, 24):
        assert by_point[(n, 2)] <= by_point[(n, 1)]


def test_sweep_blocked_fact_runner(benchmark):
    """The blocked-factorization runner verifies every factorization row."""
    jobs = (SweepSpec()
            .constants(nr=4, seed=0, n=8)
            .grid(method=("cholesky", "lu", "qr"))
            .jobs("blocked_fact"))
    result = benchmark(lambda: execute_jobs(jobs, mode="serial"))
    assert all(row["residual"] < 1e-8 for row in result.rows)
    assert all(row["cycles"] > 0 for row in result.rows)


def test_streaming_beats_sharded_batch_on_stragglers(bench_json, monkeypatch):
    """Streaming work-stealing hides stragglers that stall a sharded batch.

    Synthetic straggler mix: one 500 ms job plus 28 cheap 10 ms jobs.  The
    legacy sharded-batch executor pre-cut the job list into fixed shards and
    put a barrier after them, so *every* row only became available once the
    straggler shard finished -- per-row availability latency equals the batch
    wall for all rows.  The streaming executor yields each row as it lands,
    so the cheap rows are available long before the straggler completes.

    Asserts the two headline numbers from the issue: streaming
    time-to-first-row under 10% of the batch wall, and a >= 1.5x improvement
    in tail (p95) row-availability latency.
    """
    from repro.engine.spec import Job

    STRAGGLER_S = 0.5
    CHEAP_S = 0.01
    CHEAP_JOBS = 28
    WORKERS = 4

    def _bench_runner(params):
        time.sleep(params["cost_s"])
        return {"index": params["index"], "cost_s": params["cost_s"]}

    # The pool workers reach the stub runner only as a copy of this
    # process, whatever the interpreter's default start method.
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(
                            concurrent.futures.ProcessPoolExecutor,
                            mp_context=multiprocessing.get_context("fork")))
    RUNNERS["_stream_bench"] = _bench_runner
    try:
        jobs = [Job.create("_stream_bench", {"index": 0, "cost_s": STRAGGLER_S})]
        jobs += [Job.create("_stream_bench", {"index": i, "cost_s": CHEAP_S})
                 for i in range(1, CHEAP_JOBS + 1)]

        def p95(latencies):
            ordered = sorted(latencies)
            return ordered[int(0.95 * (len(ordered) - 1))]

        # Legacy baseline: pre-cut shards + barrier.  Rows are only surfaced
        # after every shard future resolves, so availability == batch wall.
        shard_size = max(1, math.ceil(len(jobs) / (WORKERS * 4)))
        shards = [jobs[i:i + shard_size] for i in range(0, len(jobs), shard_size)]
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            futures = [pool.submit(
                lambda shard: [_bench_runner(job.params_dict) for job in shard],
                shard) for shard in shards]
            batch_rows = [row for future in futures for row in future.result()]
        batch_wall = time.perf_counter() - started
        batch_latencies = [batch_wall] * len(jobs)

        # Streaming run: record when each row actually becomes available.
        # Collect the garbage earlier cases left first, so that a collection
        # does not land in the ~25 ms window to the first row (about half
        # of it the process pool forking its workers).
        gc.collect()
        executor = SweepExecutor(mode="process", max_workers=WORKERS)
        stream_latencies = [0.0] * len(jobs)
        started = time.perf_counter()
        stream = executor.stream(jobs)
        for item in stream:
            stream_latencies[item.index] = time.perf_counter() - started
        stream_wall = time.perf_counter() - started
        result = stream.result()

        assert len(batch_rows) == len(result.rows) == len(jobs)
        assert result.executed == len(jobs)
        stream_ttfr = min(lat for lat in stream_latencies if lat > 0)
        tail_improvement = p95(batch_latencies) / p95(stream_latencies)

        bench_json("engine_stream", {
            "jobs": len(jobs),
            "workers": WORKERS,
            "straggler_s": STRAGGLER_S,
            "cheap_job_s": CHEAP_S,
            "batch_wall_s": batch_wall,
            "batch_time_to_first_row_s": batch_wall,
            "batch_p95_row_latency_s": p95(batch_latencies),
            "stream_wall_s": stream_wall,
            "stream_time_to_first_row_s": stream_ttfr,
            "stream_p95_row_latency_s": p95(stream_latencies),
            "tail_latency_improvement": tail_improvement,
        })

        # Headline claims: first row lands almost immediately, and the tail
        # of the availability distribution collapses from "batch wall" down
        # to roughly the cheap-job timescale.
        assert stream_ttfr < 0.1 * batch_wall
        assert tail_improvement >= 1.5
    finally:
        RUNNERS.pop("_stream_bench", None)


def test_cache_prune_keeps_sweeps_bounded(benchmark, tmp_path):
    """LRU pruning bounds the store without touching the newest entries."""
    from repro.engine.spec import Job

    cache = ResultCache(tmp_path, code_version="v1")
    for i in range(256):
        cache.put(Job.create("design", {"cores": i}), {"cores": i, "pad": "x" * 128})
    entry_bytes = cache.size_bytes() // 256

    def refill_and_prune():
        for i in range(256):
            cache.put(Job.create("design", {"cores": i}),
                      {"cores": i, "pad": "x" * 128})
        return cache.prune(max_bytes=64 * entry_bytes)

    benchmark(refill_and_prune)
    assert len(cache) <= 64
    assert cache.size_bytes() <= 64 * entry_bytes
