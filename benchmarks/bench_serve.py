"""Benchmarks of the shared result cache: remote-tier overhead.

Measures what sharing a cache over HTTP costs: the per-entry round-trip
latency of the key-addressed store, and a sweep resolved entirely through
the remote tier (fresh local cache, warm server) versus a purely local
warm run.  The headline assertion is the server's reason to exist: a
client with an *empty* local cache executes zero jobs when the server has
seen the sweep before.
"""

import shutil
import tempfile
import time

import pytest

from repro.engine import ResultCache, SweepSpec, execute_jobs
from repro.engine.spec import params_key
from repro.serve import RemoteCache, ServeClient, ServeDaemon


def _spec():
    return (SweepSpec().constants(nr=4)
            .grid(cores=(2, 4, 8), frequency_ghz=(1.0, 1.2, 1.4)))


def _jobs():
    return _spec().jobs("design")


@pytest.fixture(scope="module")
def daemon():
    directory = tempfile.mkdtemp(prefix="repro-bench-serve-")
    daemon = ServeDaemon(directory, quiet=True).start()
    # Warm the served store once so remote-tier runs measure pure lookups.
    warm_dir = tempfile.mkdtemp(prefix="repro-bench-warm-")
    cache = RemoteCache(warm_dir, daemon.url, timeout_s=10.0, retries=0)
    execute_jobs(_jobs(), mode="serial", cache=cache)
    yield daemon
    daemon.stop()
    shutil.rmtree(directory, ignore_errors=True)
    shutil.rmtree(warm_dir, ignore_errors=True)


def test_remote_entry_roundtrip(benchmark, daemon, bench_json):
    """One put + get round trip of the key-addressed HTTP store."""
    client = ServeClient(daemon.url, timeout_s=10.0, retries=0)
    params = {"bench": "roundtrip"}
    key = params_key("design", params, salt="bench")
    payload = {"runner": "design", "params": params, "code_version": "bench",
               "row": {"bench": 1.0}}
    last = {}

    def run():
        started = time.perf_counter()
        client.put_entry(key, payload)
        stored = client.get_entry(key)
        last["elapsed"] = time.perf_counter() - started
        return stored

    stored = benchmark(run)
    assert stored["row"] == payload["row"]
    bench_json("serve_entry_roundtrip", {
        "roundtrip_seconds": last["elapsed"],
        "requests": client.attempts,
    })


def test_remote_tier_sweep_executes_nothing(benchmark, daemon, bench_json):
    """A fresh client against a warm server resolves the sweep remotely."""
    jobs = _jobs()
    last = {}

    def run():
        local_dir = tempfile.mkdtemp(prefix="repro-bench-client-")
        try:
            cache = RemoteCache(local_dir, daemon.url, timeout_s=10.0,
                                retries=0)
            started = time.perf_counter()
            result = execute_jobs(jobs, mode="serial", cache=cache)
            last["elapsed"] = time.perf_counter() - started
            last["remote_hits"] = cache.remote_hits
            return result
        finally:
            shutil.rmtree(local_dir, ignore_errors=True)

    result = benchmark(run)
    assert result.executed == 0
    assert result.cached == len(jobs)
    assert last["remote_hits"] == len(jobs)
    bench_json("serve_remote_tier_sweep", {
        "jobs": len(jobs),
        "sweep_seconds": last["elapsed"],
        "rows_per_second": len(jobs) / last["elapsed"],
    })


def test_local_warm_sweep_baseline(benchmark, tmp_path, bench_json):
    """The purely local warm run the remote tier is compared against."""
    jobs = _jobs()
    cache = ResultCache(tmp_path, code_version="bench")
    execute_jobs(jobs, mode="serial", cache=cache)
    last = {}

    def run():
        started = time.perf_counter()
        result = execute_jobs(jobs, mode="serial", cache=cache)
        last["elapsed"] = time.perf_counter() - started
        return result

    result = benchmark(run)
    assert result.executed == 0
    bench_json("serve_local_warm_baseline", {
        "jobs": len(jobs),
        "sweep_seconds": last["elapsed"],
    })
