"""Benchmarks of the memory-hierarchy layer (residency / stalls / energy).

Covers the headline claims of the data-movement refactor:

* shrinking the on-chip capacity below the working set monotonically
  increases off-chip traffic and makes stalls appear,
* the ``memory_aware`` policy never moves more off-chip bytes than
  ``greedy`` and strictly fewer under capacity pressure,
* scheduling with two-level accounting (per-core local stores) stays cheap
  and the affinity policy earns a higher local hit rate than greedy,
* for a fixed schedule, growing the local:shared capacity ratio
  monotonically lifts the local hit rate while leaving off-chip traffic
  untouched (inclusion).

The shared level's own throughput is the scheduler loop's, which
``bench_taskgraph.py`` times (its throughput case and the 4k^2 scale
smoke).  Each benchmark emits a machine-readable ``BENCH_*.json`` record
via the ``bench_json`` fixture so the perf trajectory is tracked across
PRs.
"""

import time

import numpy as np

from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import AlgorithmsByBlocks


def test_capacity_pressure_traffic_trend(bench_json):
    """Traffic grows monotonically as the working set is squeezed, and the
    memory_aware policy moves no more bytes than greedy at every point."""
    capacities_kb = (64.0, 8.0, 6.0, 4.0, 3.0)
    rows = []
    for policy in ("greedy", "memory_aware"):
        for kb in capacities_kb:
            lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4,
                                                   onchip_memory_mbytes=1.0))
            runtime = LAPRuntime(lap, 8, policy=policy, timing="memoized",
                                 on_chip_kb=kb)
            stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                                 verify=False)
            rows.append({
                "policy": policy,
                "on_chip_kb": kb,
                "traffic_bytes": stats["offchip_traffic_bytes"],
                "spill_bytes": stats["spill_bytes"],
                "stall_cycles": stats["stall_cycles"],
                "makespan_cycles": stats["makespan_cycles"],
                "gflops_per_w": stats["gflops_per_w"],
            })
    by_policy = {}
    for row in rows:
        by_policy.setdefault(row["policy"], []).append(row)
    for policy_rows in by_policy.values():
        traffic = [r["traffic_bytes"] for r in policy_rows]  # shrinking kb
        assert traffic == sorted(traffic)
        assert policy_rows[0]["spill_bytes"] == 0      # fits entirely
        assert policy_rows[-1]["spill_bytes"] > 0      # thrashes
    for g, m in zip(by_policy["greedy"], by_policy["memory_aware"]):
        assert m["traffic_bytes"] <= g["traffic_bytes"]
        if g["spill_bytes"] > 0:
            assert m["traffic_bytes"] < g["traffic_bytes"]
    bench_json("memory_capacity_pressure", {"rows": rows})


def test_local_store_hit_rate_throughput(benchmark, bench_json):
    """Scheduling a ~6000-task graph with two-level accounting stays cheap,
    and the affinity policy's core choice earns a higher local hit rate
    than greedy dispatch on the same graph."""
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=8, nr=4,
                                           onchip_memory_mbytes=2.0))
    rates = {}
    for policy in ("greedy", "affinity"):
        runtime = LAPRuntime(lap, 128, policy=policy, timing="memoized",
                             local_store_kb=512.0)
        stats = runtime.run_blocked_cholesky(1024, np.random.default_rng(0),
                                             verify=False)
        rates[policy] = stats["local_hit_rate"]
    assert rates["affinity"] > rates["greedy"]

    # Shapes are all memoized timing reads, so every block aliases one tile.
    graph = AlgorithmsByBlocks(tile=128).cholesky_tasks(4096)
    block = np.eye(128) * 128
    blocks = {(i, j): block for i in range(32) for j in range(32)}
    tiles = {name: dict(blocks) for name in ("A", "B", "C", "L")}
    runtime = LAPRuntime(lap, 128, timing="memoized", local_store_kb=512.0)
    last = {}

    def schedule():
        started = time.perf_counter()
        stats = runtime.execute(graph, tiles, verify=False)
        last["elapsed"] = time.perf_counter() - started
        return stats

    stats = benchmark(schedule)
    elapsed = last["elapsed"]
    assert stats["tasks_executed"] == len(graph)
    assert 0.0 < stats["local_hit_rate"] < 1.0
    assert elapsed < 30.0  # bookkeeping only; typically well under a second
    bench_json("memory_local_store_throughput", {
        "num_tasks": len(graph),
        "elapsed_seconds": elapsed,
        "tasks_per_second": len(graph) / elapsed if elapsed else None,
        "greedy_4k_hit_rate": stats["local_hit_rate"],
        "greedy_hit_rate": rates["greedy"],
        "affinity_hit_rate": rates["affinity"],
    })


def test_local_to_shared_capacity_ratio_trend(bench_json):
    """For a fixed schedule, growing the local:shared capacity ratio
    monotonically lifts the local hit rate and shrinks shared-to-local
    transfer time, while the off-chip traffic stays exactly constant (the
    local level is inclusive and write-through, so the shared level sees
    the identical access stream).  ``stall_overlap=1`` hides all movement
    cycles, so the local-store size cannot change the dispatch order."""
    shared_kb = 8.0
    ratios = (0.125, 0.25, 0.5, 1.0)
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4,
                                           onchip_memory_mbytes=1.0))
    rows = []
    schedules = set()
    for ratio in ratios:
        runtime = LAPRuntime(lap, 8, timing="memoized", on_chip_kb=shared_kb,
                             local_store_kb=shared_kb * ratio,
                             stall_overlap=1.0)
        stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                             verify=False)
        schedules.add(tuple((e.core_index, e.start_cycle)
                            for e in runtime.executions))
        rows.append({
            "local_to_shared_ratio": ratio,
            "local_store_kb": shared_kb * ratio,
            "local_hit_rate": stats["local_hit_rate"],
            "local_transfer_cycles": stats["local_transfer_cycles"],
            "traffic_bytes": stats["offchip_traffic_bytes"],
            "spill_bytes": stats["spill_bytes"],
        })
    assert len(schedules) == 1
    hit_rates = [r["local_hit_rate"] for r in rows]
    assert hit_rates == sorted(hit_rates)
    assert hit_rates[-1] > hit_rates[0]
    transfers = [r["local_transfer_cycles"] for r in rows]
    assert transfers == sorted(transfers, reverse=True)
    assert len({r["traffic_bytes"] for r in rows}) == 1
    assert len({r["spill_bytes"] for r in rows}) == 1
    bench_json("memory_local_capacity_ratio", {"rows": rows})
