"""Tests for the unified memory-hierarchy layer of the LAP runtime.

Covers the tile-residency LRU (shared-level and local-store cases as
short task graphs through the scheduler loop), the stall conversion and
energy constants, the task footprints in the IR, the memory_aware policy,
the off-chip closed form and its residency limit, and the
tolerance-compared golden of the traffic / stall / energy columns the
``lap_runtime`` runner now reports.  Per-task
accounting in an arbitrary dispatch order goes through the oracle
hierarchy of ``scheduler_oracle``; everything else runs the product.

Refreshing the runner golden after an intentional model change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_lap_memory.py
"""

import json
import os
import pathlib
import re

import numpy as np
import pytest
from scheduler_oracle import OracleHierarchy, OracleTileResidency, touched_tiles

from repro.engine.runners import get_runner
from repro.hw.memory import OffChipInterface
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.memory import MemoryHierarchy
from repro.lap.offchip import OffChipTrafficModel, TrafficSummary
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import (AlgorithmsByBlocks, TaskDescriptor, TaskKind,
                                 task_footprint)

GOLDEN = (pathlib.Path(__file__).resolve().parent
          / "goldens" / "runtime" / "lap_runtime_memory.json")


def make_runtime(num_cores=2, tile=8, nr=4, onchip_mbytes=1.0, **kwargs):
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=num_cores, nr=nr,
                                           onchip_memory_mbytes=onchip_mbytes))
    return LAPRuntime(lap, tile, **kwargs)


def assert_capacity_checked(name):
    """A capacity ``name`` (``on_chip_kb`` or ``local_store_kb``) that is
    not a positive finite number of KiB raises, naming it and the value."""
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4))
    for kb in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a positive finite number of KiB, got {kb}")):
            MemoryHierarchy.for_chip(lap, 8, lap.offchip, **{name: kb})


# --------------------------------------------------------- task footprints
class TestTaskFootprints:
    def test_gemm_graph_footprints_are_explicit(self):
        graph = AlgorithmsByBlocks(tile=8).gemm_tasks(16, 16, 16)
        task = graph[0]
        assert task.reads == [("A", (0, 0)), ("B", (0, 0)), ("C", (0, 0))]
        assert task.writes == [("C", (0, 0))]

    def test_factorization_footprints_resolve_aliasing(self):
        """Cholesky / LU / QR footprints all live in the single operand A."""
        lib = AlgorithmsByBlocks(tile=8)
        for graph in (lib.cholesky_tasks(24), lib.lu_tasks(24), lib.qr_tasks(24)):
            for task in graph:
                operands = {op for op, _ in task.read_tiles() + task.write_tiles()}
                assert operands == {"A"}

    def test_derived_footprint_for_hand_built_tasks(self):
        task = TaskDescriptor(0, TaskKind.GEMM, output=(0, 1),
                              inputs=[(0, 2), (2, 1)])
        assert task.read_tiles() == [("A", (0, 2)), ("B", (2, 1)), ("C", (0, 1))]
        assert task.write_tiles() == [("C", (0, 1))]
        trsm = TaskDescriptor(1, TaskKind.TRSM, output=(1, 0), inputs=[(0, 0)])
        assert trsm.read_tiles() == [("L", (0, 0)), ("B", (1, 0))]
        assert trsm.write_tiles() == [("B", (1, 0))]
        # SYRK reads every input tile, repeats included (a diagonal update
        # names its panel tile twice), then its accumulator.
        syrk = TaskDescriptor(2, TaskKind.SYRK, output=(1, 1),
                              inputs=[(1, 0), (1, 0)])
        assert syrk.read_tiles() == [("A", (1, 0)), ("A", (1, 0)), ("C", (1, 1))]
        assert syrk.write_tiles() == [("C", (1, 1))]
        # In a factorization graph the same rule names every operand A.
        assert task_footprint(TaskKind.SYRK, (1, 1), [(1, 0), (1, 0)],
                              in_place=True) == (
            [("A", (1, 0)), ("A", (1, 0)), ("A", (1, 1))], [("A", (1, 1))])

    def test_touched_tiles_deduplicates(self):
        task = TaskDescriptor(0, TaskKind.SYRK, output=(1, 1),
                              inputs=[(1, 0)],
                              reads=[("A", (1, 0)), ("A", (1, 0)), ("A", (1, 1))],
                              writes=[("A", (1, 1))])
        assert touched_tiles(task) == [("A", (1, 0)), ("A", (1, 1))]

    def test_task_flops_and_working_set(self):
        graph = AlgorithmsByBlocks(tile=8).cholesky_tasks(24)
        # 3x3 blocking: 3 tile Cholesky (t^3 / 3), 3 TRSM (t^3), 3 SYRK
        # (t^2 (t + 1)) and one GEMM (2 t^3) flops.
        t = 8
        stats = make_runtime(tile=t).run_blocked_cholesky(
            24, np.random.default_rng(0))
        assert stats["total_flops"] == pytest.approx(
            3 * t ** 3 / 3 + 3 * t ** 3 + 3 * t * t * (t + 1) + 2 * t ** 3)
        # ... touching the 6 lower-triangle tiles.
        working_set = {access for task in graph for access in touched_tiles(task)}
        assert len(working_set) == 6


# ------------------------------------------------------------ shared level
def run_on_one_core(footprints, on_chip_kb=4.0):
    """Execute one chain of tasks with explicit ``(reads, writes)``
    footprints on one core; returns the runtime and its stats."""
    tasks = [TaskDescriptor(i, TaskKind.GEMM, output=(0, 0),
                            inputs=[(0, 0), (0, 0)],
                            depends_on=[i - 1] if i else [],
                            reads=list(reads), writes=list(writes))
             for i, (reads, writes) in enumerate(footprints)]
    return run_tasks(tasks, on_chip_kb=on_chip_kb)


def run_tasks(tasks, policy="greedy", on_chip_kb=4.0):
    """Execute hand-built tasks on one core over 6x6 grids of 8x8 tiles
    (so one tile is 512 bytes); returns the runtime and its stats."""
    runtime = make_runtime(num_cores=1, timing="memoized", policy=policy,
                           on_chip_kb=on_chip_kb)
    block = 16.0 * np.eye(8)
    tiles = {name: {(i, j): block.copy() for i in range(6) for j in range(6)}
             for name in ("A", "B", "C", "L")}
    stats = runtime.execute(tasks, tiles, verify=False)
    return runtime, stats


def moved(execution):
    """``(refill, compulsory, spill, writeback)`` bytes of one execution."""
    return (execution.refill_bytes,
            execution.refill_bytes - execution.spill_bytes,
            execution.spill_bytes, execution.writeback_bytes)


class TestTileResidency:
    """The shared level through the scheduler loop, its only implementation
    (512-byte tiles; ``on_chip_kb=1.0`` holds two of them)."""

    def test_validation(self):
        assert_capacity_checked("on_chip_kb")
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=1, nr=4))
        with pytest.raises(ValueError, match="tile size"):
            MemoryHierarchy.for_chip(lap, 0, lap.offchip)

    def test_cold_misses_are_compulsory_once(self):
        runtime, stats = run_on_one_core([
            ([("A", (0, 0)), ("A", (0, 1))], []),
            ([("A", (0, 0))], []),      # re-touching resident tiles is free
        ])
        assert [moved(e) for e in runtime.executions] == [
            (1024, 1024, 0, 0), (0, 0, 0, 0)]
        assert stats["compulsory_bytes"] == 1024 and stats["spill_bytes"] == 0

    def test_capacity_eviction_and_spill_refill(self):
        runtime, stats = run_on_one_core([
            ([("A", (0, 0)), ("A", (0, 1))], []),
            ([("A", (0, 2))], []),      # evicts LRU (0, 0), clean
            ([("A", (0, 0))], []),      # re-fetch after eviction: a spill
        ], on_chip_kb=1.0)
        assert moved(runtime.executions[2]) == (512, 0, 512, 0)
        assert stats["spill_bytes"] == 512
        assert stats["peak_resident_bytes"] == 1024

    def test_dirty_eviction_writes_back(self):
        runtime, stats = run_on_one_core([
            ([], [("A", (0, 0))]),      # dirty
            ([("A", (0, 1))], []),
            ([("A", (0, 2))], []),      # evicts dirty (0, 0)
        ], on_chip_kb=1.0)
        assert [e.writeback_bytes for e in runtime.executions] == [0, 0, 512]
        assert runtime.last_memory.flush_writeback_bytes == 0

    def test_footprint_is_pinned_against_itself(self):
        """One task's tiles never evict each other, even above capacity."""
        runtime, stats = run_on_one_core(
            [([("A", (0, 0)), ("A", (0, 1)), ("A", (0, 2))], [])],
            on_chip_kb=1.0)
        assert moved(runtime.executions[0]) == (1536, 1536, 0, 0)
        # All three stayed resident through the touch (transient overflow).
        assert stats["peak_resident_bytes"] == 3 * 512

    def test_missing_bytes_and_flush(self):
        """``memory_aware`` runs the ready task with fewer missing bytes
        first, and the final flush writes back the one dirty tile."""
        tasks = [TaskDescriptor(0, TaskKind.GEMM, output=(0, 0),
                                inputs=[(0, 0), (0, 0)],
                                reads=[("A", (0, 0))], writes=[("A", (0, 1))])]
        for task_id, tile in ((1, ("A", (5, 5))), (2, ("A", (0, 0)))):
            tasks.append(TaskDescriptor(task_id, TaskKind.GEMM, output=(0, 0),
                                        inputs=[(0, 0), (0, 0)],
                                        depends_on=[0], reads=[tile],
                                        writes=[]))
        for policy, order in (("greedy", [0, 1, 2]),
                              ("memory_aware", [0, 2, 1])):
            runtime, stats = run_tasks(tasks, policy=policy)
            assert [e.task_id for e in runtime.executions] == order
            assert runtime.last_memory.flush_writeback_bytes == 512
            assert stats["writeback_bytes"] == 512


# ------------------------------------ stall conversion and energy constants
class TestBandwidthAndEnergy:
    def test_stall_cycles_follow_interface_bandwidth(self):
        # 8 GB/s at 2 GHz = 4 bytes/cycle.
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4,
                                               frequency_ghz=2.0))
        runtime = LAPRuntime(lap, 8, timing="memoized", on_chip_kb=2.0,
                             bandwidth_gbs=8.0)
        stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                             verify=False)
        assert stats["spill_bytes"] > 0
        assert stats["stall_cycles"] == pytest.approx(stats["spill_bytes"] / 4.0)
        with pytest.raises(ValueError, match="frequency must be positive"):
            MemoryHierarchy(2048, 8, 8, OffChipInterface(8.0),
                            lap.onchip_memory, lap.config.fmac(),
                            frequency_ghz=0.0)

    def test_energy_model_terms(self):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4))
        hierarchy = MemoryHierarchy.for_chip(lap, 8, lap.offchip)
        energy = hierarchy.energy
        assert energy.energy_per_flop_j > 0
        assert energy.onchip_energy_per_byte_j > 0
        assert energy.offchip_energy_per_byte_j == pytest.approx(60e-12)
        # Off-chip bytes dominate on-chip bytes at equal counts.
        assert energy.offchip_energy_per_byte_j > energy.onchip_energy_per_byte_j


# ------------------------------------------- off-chip closed form vs residency
class TestOffChipShim:
    """``repro.lap.offchip``'s closed form, and its residency limit."""

    def test_traffic_summary_matches_stream_formula(self):
        """A and B are re-streamed ``1 / fraction`` times; C crosses the
        boundary once each way."""
        model = OffChipTrafficModel(num_cores=8, element_bytes=8)
        matrix_bytes = 1024.0 * 1024 * 8
        for fraction in (1.0, 0.5, 0.25):
            summary = model.traffic(1024, fraction)
            assert summary.a_bytes == summary.b_bytes == matrix_bytes / fraction
            assert summary.c_read_bytes == summary.c_write_bytes == matrix_bytes

    def test_residency_limit_equals_closed_form(self):
        """With every tile resident, the scheduler loop's accounting of the
        tiled GEMM graph reproduces the closed-form streamed traffic exactly
        (every operand crosses the boundary once)."""
        n, tile = 32, 8
        runtime = make_runtime(timing="memoized", on_chip_kb=1e6)
        rng = np.random.default_rng(0)
        tiles = {name: runtime.tile_matrix(rng.random((n, n)), tile)
                 for name in ("A", "B", "C")}
        graph = AlgorithmsByBlocks(tile=tile).gemm_tasks(n, n, n)
        stats = runtime.execute(graph, tiles, verify=False)
        summary = OffChipTrafficModel(num_cores=2, element_bytes=8).traffic(n)
        assert stats["spill_bytes"] == 0
        assert stats["compulsory_bytes"] == (summary.a_bytes + summary.b_bytes
                                             + summary.c_read_bytes)
        assert stats["writeback_bytes"] == summary.c_write_bytes

    def test_degenerate_arithmetic_intensity_is_zero(self):
        summary = TrafficSummary(n=0, element_bytes=8, a_bytes=0.0, b_bytes=0.0,
                                 c_read_bytes=0.0, c_write_bytes=0.0)
        assert summary.arithmetic_intensity == 0.0
        nonzero = TrafficSummary(n=0, element_bytes=8, a_bytes=8.0, b_bytes=0.0,
                                 c_read_bytes=0.0, c_write_bytes=0.0)
        assert nonzero.arithmetic_intensity == 0.0

    def test_traffic_summary_validation(self):
        with pytest.raises(ValueError, match="element bytes"):
            TrafficSummary(n=4, element_bytes=0, a_bytes=1.0, b_bytes=1.0,
                           c_read_bytes=1.0, c_write_bytes=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            TrafficSummary(n=4, element_bytes=8, a_bytes=-1.0, b_bytes=1.0,
                           c_read_bytes=1.0, c_write_bytes=1.0)
        with pytest.raises(ValueError, match="element bytes"):
            OffChipTrafficModel(num_cores=1, element_bytes=0)


# -------------------------------------------------- runtime integration
class TestRuntimeDataMovement:
    def test_unconstrained_capacity_has_no_spills_or_stalls(self):
        runtime = make_runtime()
        stats = runtime.run_blocked_cholesky(32, np.random.default_rng(0))
        assert stats["spill_bytes"] == 0
        assert stats["stall_cycles"] == 0
        assert stats["offchip_traffic_bytes"] == (stats["compulsory_bytes"]
                                                  + stats["writeback_bytes"])
        assert stats["energy_j"] > 0
        assert stats["gflops_per_w"] > 0
        assert stats["arithmetic_intensity"] > 0

    def test_constrained_capacity_spills_and_stalls(self):
        free = make_runtime(timing="memoized")
        tight = make_runtime(timing="memoized", on_chip_kb=4.0)
        f = free.run_blocked_cholesky(48, np.random.default_rng(0), verify=False)
        t = tight.run_blocked_cholesky(48, np.random.default_rng(0), verify=False)
        assert t["spill_bytes"] > 0
        assert t["stall_cycles"] > 0
        assert t["offchip_traffic_bytes"] > f["offchip_traffic_bytes"]
        # Stalls lengthen the schedule and burn energy; a stalled core is
        # occupied but not computing, so efficiency must drop, not pad.
        assert t["makespan_cycles"] > f["makespan_cycles"]
        assert t["energy_j"] > f["energy_j"]
        assert t["gflops_per_w"] < f["gflops_per_w"]
        assert t["parallel_efficiency"] < f["parallel_efficiency"]
        # Compute work is identical; only data movement differs.
        assert t["per_core_busy_cycles"] != []
        assert f["compulsory_bytes"] == t["compulsory_bytes"]

    def test_bandwidth_override_scales_stalls(self):
        slow = make_runtime(timing="memoized", on_chip_kb=4.0, bandwidth_gbs=8.0)
        fast = make_runtime(timing="memoized", on_chip_kb=4.0, bandwidth_gbs=64.0)
        s = slow.run_blocked_cholesky(48, np.random.default_rng(0), verify=False)
        f = fast.run_blocked_cholesky(48, np.random.default_rng(0), verify=False)
        assert s["offchip_traffic_bytes"] == f["offchip_traffic_bytes"]
        assert s["stall_cycles"] == pytest.approx(8 * f["stall_cycles"])
        assert s["makespan_cycles"] > f["makespan_cycles"]

    def test_full_stall_overlap_restores_compute_only_makespan(self):
        """stall_overlap=1 hides every spill refill: same traffic, but the
        makespan matches a schedule with no bandwidth stalls at all."""
        serialised = make_runtime(timing="memoized", on_chip_kb=4.0)
        hidden = make_runtime(timing="memoized", on_chip_kb=4.0,
                              stall_overlap=1.0)
        free = make_runtime(timing="memoized")
        s = serialised.run_blocked_cholesky(48, np.random.default_rng(0),
                                            verify=False)
        h = hidden.run_blocked_cholesky(48, np.random.default_rng(0),
                                        verify=False)
        f = free.run_blocked_cholesky(48, np.random.default_rng(0),
                                      verify=False)
        assert h["offchip_traffic_bytes"] == s["offchip_traffic_bytes"]
        assert h["stall_cycles"] == s["stall_cycles"] > 0  # still reported
        assert h["makespan_cycles"] < s["makespan_cycles"]
        assert h["makespan_cycles"] == f["makespan_cycles"]
        with pytest.raises(ValueError, match="stall_overlap"):
            make_runtime(stall_overlap=1.5)

    def test_resident_touches_do_not_bump_residency_version(self):
        res = OracleTileResidency(capacity_bytes=4096, tile_bytes=512)
        res.touch([("A", (0, 0))], [])
        version = res.version
        res.touch([("A", (0, 0))], [])           # fully resident: no-op
        assert res.version == version
        res.touch([("A", (0, 1))], [])           # membership changed
        assert res.version == version + 1

    def test_per_task_accounting_sums_to_totals(self):
        runtime = make_runtime(timing="memoized", on_chip_kb=4.0)
        stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                             verify=False)
        stalls = sum(e.stall_cycles for e in runtime.executions)
        assert stalls == pytest.approx(stats["stall_cycles"])
        # Final-flush writebacks are accounted at the hierarchy, not a task.
        task_energy = sum(e.energy_j for e in runtime.executions)
        assert task_energy <= stats["energy_j"]
        assert task_energy == pytest.approx(stats["energy_j"], rel=0.2)

    @pytest.mark.parametrize("workload,n", [("cholesky", 48), ("lu", 40),
                                            ("gemm", 32), ("qr", 32)])
    def test_memory_aware_reduces_traffic_under_pressure(self, workload, n):
        results = {}
        for policy in ("greedy", "memory_aware"):
            runtime = make_runtime(timing="memoized", policy=policy,
                                   on_chip_kb=4.0)
            results[policy] = runtime.run_workload(
                workload, n, np.random.default_rng(0), verify=False)
        assert (results["memory_aware"]["offchip_traffic_bytes"]
                < results["greedy"]["offchip_traffic_bytes"])

    def test_memory_aware_schedule_stays_valid(self):
        runtime = make_runtime(timing="memoized", policy="memory_aware",
                               on_chip_kb=4.0)
        stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                             verify=True)
        graph = AlgorithmsByBlocks(8).cholesky_tasks(48)
        assert stats["residual"] < 1e-8
        tasks = {t.task_id: t for t in graph}
        end_by_id = {e.task_id: e.end_cycle for e in runtime.executions}
        for execution in runtime.executions:
            task = tasks[execution.task_id]
            ready = max((end_by_id[d] for d in task.depends_on), default=0)
            assert execution.start_cycle >= ready

    def test_hierarchy_rejects_reuse_after_finish(self):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=1, nr=4))
        hierarchy = OracleHierarchy.for_chip(lap, tile=8)
        hierarchy.finish()
        task = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0),
                              inputs=[(0, 0), (0, 0)])
        with pytest.raises(RuntimeError, match="flushed"):
            hierarchy.account(task)


# ------------------------------------------------ runtime_memory experiment
def test_runtime_memory_golden_has_spills_and_policy_win():
    """Acceptance: on the committed runtime_memory sweep, capacities below
    the working set spill (> 0 bytes) and memory_aware moves strictly less
    off-chip traffic than greedy at every constrained capacity."""
    golden = json.loads((pathlib.Path(__file__).resolve().parent
                         / "goldens" / "runtime_memory.json").read_text())
    by_policy = {}
    for row in golden:
        by_policy.setdefault(row["policy"], {})[row["on_chip_kb"]] = row
    greedy, aware = by_policy["greedy"], by_policy["memory_aware"]
    capacities = sorted(greedy)
    constrained = [kb for kb in capacities if greedy[kb]["spill_bytes"] > 0]
    unconstrained = [kb for kb in capacities if greedy[kb]["spill_bytes"] == 0]
    assert constrained and unconstrained  # the sweep spans the working set
    for kb in constrained:
        assert greedy[kb]["stall_cycles"] > 0
        assert aware[kb]["traffic_bytes"] < greedy[kb]["traffic_bytes"]
        assert aware[kb]["traffic_vs_greedy"] < 1.0
    for kb in unconstrained:
        assert greedy[kb]["stall_cycles"] == 0
        assert aware[kb]["traffic_bytes"] == greedy[kb]["traffic_bytes"]


# ------------------------------------------------------------- runner golden
#: Runner configurations pinned by the tolerance-based golden below: every
#: workload, constrained and unconstrained capacity, both traffic policies.
GOLDEN_CASES = [
    {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False},
    {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 4.0},
    {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 4.0,
     "policy": "memory_aware"},
    {"algorithm": "gemm", "n": 32, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 6.0},
    {"algorithm": "lu", "n": 40, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 6.0,
     "policy": "memory_aware"},
    {"algorithm": "qr", "n": 32, "tile": 8, "num_cores": 1, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "bandwidth_gbs": 16.0,
     "on_chip_kb": 4.0},
]


def _golden_rows():
    runner = get_runner("lap_runtime")
    return [runner(dict(case)) for case in GOLDEN_CASES]


def test_lap_runtime_rows_match_memory_golden():
    """Traffic / stall / energy columns of the runner are pinned (rtol)."""
    rows = _golden_rows()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden regenerated")
    golden = json.loads(GOLDEN.read_text())
    assert len(rows) == len(golden)
    for row, expected in zip(rows, golden):
        assert set(row) == set(expected)
        for key, value in expected.items():
            if isinstance(value, float):
                assert row[key] == pytest.approx(value, rel=1e-6, abs=1e-15), key
            else:
                assert row[key] == value, key


# ------------------------------------------------- two-level hierarchy
class TestLocalStore:
    def test_validation(self):
        assert_capacity_checked("local_store_kb")
        # The runtime checks it at its first execute.
        runtime = make_runtime(timing="memoized", local_store_kb=0.0)
        with pytest.raises(ValueError, match="local_store_kb must be"):
            runtime.run_blocked_gemm(16, np.random.default_rng(0),
                                     verify=False)

    @staticmethod
    def chain(footprints, local_tiles, shared_tiles=None):
        """Run a one-core chain of tasks reading ``footprints`` (tile ids
        ``k`` as tiles ``A[k, 0]``, numbered in first-seen order) with a
        ``local_tiles``-tile store; returns the per-task local-hit and fill
        bytes, the holder masks and the peak local bytes."""
        tasks = [TaskDescriptor(k, TaskKind.GEMM, output=(0, 0),
                                inputs=[(0, 0), (0, 0)],
                                depends_on=[k - 1] if k else [],
                                reads=[("A", (tid, 0)) for tid in foot],
                                writes=[])
                 for k, foot in enumerate(footprints)]
        runtime = make_runtime(num_cores=1, timing="memoized",
                               local_store_kb=local_tiles * 0.5,
                               on_chip_kb=(None if shared_tiles is None
                                           else shared_tiles * 0.5))
        block = 16.0 * np.eye(8)
        tiles = {op: {(i, j): block for i in range(8) for j in range(8)}
                 for op in "ABC"}
        stats = runtime.execute(tasks, tiles, verify=False)
        rows = runtime.executions
        return ([e.local_hit_bytes for e in rows],
                [e.shared_to_local_bytes for e in rows],
                runtime.last_memory.local_holders,
                stats["peak_local_resident_bytes"])

    def test_fill_hit_and_invalidate(self):
        """A 4-tile store under a 2-tile shared level: cold fills, hits,
        and shared-level evictions revoking local copies (inclusion)."""
        hits, fills, holders, peak = self.chain(
            [[0], [0], [0, 1],
             [2],        # the shared level evicts 0, so the store drops it
             [1],        # 1 stayed
             [0]],       # re-fill (the shared level evicts 2)
            local_tiles=4, shared_tiles=2)
        assert hits == [0, 512, 512, 0, 512, 0]
        assert fills == [512, 0, 512, 512, 0, 512]
        assert holders == [1, 1, 0]
        assert peak == 2 * 512

    def test_lru_eviction_and_pinning(self):
        hits, fills, holders, peak = self.chain(
            [[0, 1],
             [2],        # evicts 0, the least recently used
             [1],        # 1 stayed
             [0],        # 0 was evicted; evicts 2
             # A footprint larger than the budget pins itself (transient
             # overflow) and evicts everything else.
             [3, 4, 5]],
            local_tiles=2)
        assert hits == [0, 0, 512, 0, 0]
        assert fills == [1024, 512, 0, 512, 3 * 512]
        assert holders == [0, 0, 0, 1, 1, 1]
        assert peak == 3 * 512

    def test_hierarchy_classifies_local_shared_and_c2c(self):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4))
        hierarchy = OracleHierarchy.for_chip(lap, tile=8, local_store_kb=4.0)
        gemm = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0),
                              inputs=[(0, 1), (1, 0)])
        tile_bytes = hierarchy.tile_bytes
        event = hierarchy.account(gemm, core_index=0)
        # Cold: every tile fills from the shared level.
        assert event.local_hit_bytes == 0
        assert event.shared_to_local_bytes == 3 * tile_bytes
        assert event.c2c_bytes == 0
        assert event.local_transfer_cycles > 0
        # Same core again: all local hits, no transfer time.
        event = hierarchy.account(gemm, core_index=0)
        assert event.local_hit_bytes == 3 * tile_bytes
        assert event.shared_to_local_bytes == 0
        assert event.local_transfer_cycles == 0
        # Other core: the tiles come from core 0's store (core-to-core).
        event = hierarchy.account(gemm, core_index=1)
        assert event.c2c_bytes == 3 * tile_bytes
        assert event.shared_to_local_bytes == 0

    def test_write_invalidates_sibling_copies(self):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4))
        hierarchy = OracleHierarchy.for_chip(lap, tile=8, local_store_kb=4.0)
        task = TaskDescriptor(0, TaskKind.CHOLESKY, output=(0, 0))
        hierarchy.account(task, core_index=0)
        hierarchy.account(task, core_index=1)   # copies (0, 0) to core 1...
        # ...and, being a write, revokes core 0's stale copy.
        assert not hierarchy.local_stores[0].is_resident(("A", (0, 0)))
        assert hierarchy.local_stores[1].is_resident(("A", (0, 0)))

    def test_shared_eviction_invalidates_local_copies(self):
        """Inclusion: a tile evicted from the shared level cannot survive in
        any core's local store."""
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=1, nr=4))
        tile_kb = 0.5                            # 8x8 doubles
        hierarchy = OracleHierarchy.for_chip(lap, tile=8,
                                             on_chip_kb=2 * tile_kb,
                                             local_store_kb=8.0)
        tasks = [TaskDescriptor(i, TaskKind.CHOLESKY, output=(i, i))
                 for i in range(3)]
        for task in tasks:
            hierarchy.account(task, core_index=0)
        # Shared level holds 2 tiles; tile (0, 0) was evicted and must be
        # gone from the (much larger) local store as well.
        assert not hierarchy.residency.is_resident(("A", (0, 0)))
        assert not hierarchy.local_stores[0].is_resident(("A", (0, 0)))

    def test_account_validates_core_index(self):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4))
        hierarchy = OracleHierarchy.for_chip(lap, tile=8, local_store_kb=4.0)
        task = TaskDescriptor(0, TaskKind.CHOLESKY, output=(0, 0))
        with pytest.raises(ValueError, match="core index"):
            hierarchy.account(task, core_index=2)
        with pytest.raises(ValueError, match="local_store_kb must be"):
            MemoryHierarchy.for_chip(lap, 8, lap.offchip, local_store_kb=0.0)


class TestTwoLevelRuntime:
    def test_local_columns_only_with_local_stores(self):
        single = make_runtime()
        stats = single.run_blocked_cholesky(32, np.random.default_rng(0))
        assert "local_hit_rate" not in stats
        two = make_runtime(local_store_kb=2.0)
        stats = two.run_blocked_cholesky(32, np.random.default_rng(0))
        for key in ("local_store_kb", "local_hit_bytes", "shared_to_local_bytes",
                    "c2c_bytes", "local_hit_rate", "local_transfer_cycles"):
            assert key in stats
        assert 0.0 < stats["local_hit_rate"] < 1.0
        assert stats["local_transfer_cycles"] > 0

    def test_local_store_is_offchip_neutral_but_costs_time_and_energy(self):
        """The inclusive write-through local level never changes off-chip
        traffic under the (order-insensitive) greedy policy, but the
        shared-to-local transfers lengthen the schedule and burn on-chip
        energy."""
        base = make_runtime(timing="memoized")
        two = make_runtime(timing="memoized", local_store_kb=2.0)
        b = base.run_blocked_cholesky(48, np.random.default_rng(0), verify=False)
        t = two.run_blocked_cholesky(48, np.random.default_rng(0), verify=False)
        assert t["offchip_traffic_bytes"] == b["offchip_traffic_bytes"]
        assert t["spill_bytes"] == b["spill_bytes"]
        assert t["makespan_cycles"] > b["makespan_cycles"]
        assert t["energy_j"] > b["energy_j"]

    def test_full_overlap_hides_local_transfers(self):
        hidden = make_runtime(timing="memoized", local_store_kb=2.0,
                              stall_overlap=1.0)
        single = make_runtime(timing="memoized", stall_overlap=1.0)
        h = hidden.run_blocked_cholesky(48, np.random.default_rng(0),
                                        verify=False)
        s = single.run_blocked_cholesky(48, np.random.default_rng(0),
                                        verify=False)
        assert h["local_transfer_cycles"] > 0     # still reported
        assert "local_transfer_cycles" not in s
        assert h["makespan_cycles"] == s["makespan_cycles"]

    @pytest.mark.parametrize("workload,n", [("lu", 40), ("qr", 32)])
    @pytest.mark.parametrize("local_kb", [1.0, 2.0])
    def test_smart_policies_spill_strictly_less_under_pressure(
            self, workload, n, local_kb):
        """Acceptance: with a finite local store and a pressured shared
        level, memory_aware and affinity move strictly fewer off-chip spill
        bytes than greedy."""
        spills = {}
        for policy in ("greedy", "memory_aware", "affinity"):
            runtime = make_runtime(timing="memoized", policy=policy,
                                   on_chip_kb=4.0, local_store_kb=local_kb)
            stats = runtime.run_workload(workload, n,
                                         np.random.default_rng(0),
                                         verify=False)
            spills[policy] = stats["spill_bytes"]
        assert spills["memory_aware"] < spills["greedy"]
        assert spills["affinity"] < spills["greedy"]

    def test_affinity_raises_local_hit_rate_over_greedy(self):
        rates = {}
        for policy in ("greedy", "affinity"):
            runtime = make_runtime(timing="memoized", policy=policy,
                                   local_store_kb=2.0)
            stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                                 verify=False)
            rates[policy] = stats["local_hit_rate"]
        assert rates["affinity"] > rates["greedy"]

    def test_affinity_schedule_stays_valid(self):
        runtime = make_runtime(timing="memoized", policy="affinity",
                               on_chip_kb=4.0, local_store_kb=2.0)
        stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                             verify=True)
        assert stats["residual"] < 1e-8
        graph = AlgorithmsByBlocks(8).cholesky_tasks(48)
        tasks = {t.task_id: t for t in graph}
        end_by_id = {e.task_id: e.end_cycle for e in runtime.executions}
        for execution in runtime.executions:
            task = tasks[execution.task_id]
            ready = max((end_by_id[d] for d in task.depends_on), default=0)
            assert execution.start_cycle >= ready

    def test_per_task_local_accounting_sums_to_totals(self):
        runtime = make_runtime(timing="memoized", local_store_kb=2.0)
        stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                             verify=False)
        transfers = sum(e.local_transfer_cycles for e in runtime.executions)
        assert transfers == pytest.approx(stats["local_transfer_cycles"])
        hits = sum(e.local_hit_bytes for e in runtime.executions)
        assert hits == pytest.approx(stats["local_hit_bytes"])


# -------------------------------------------- single-level equivalence pins
class TestSingleLevelEquivalence:
    """``local_store_kb=None`` must reproduce the single-level runtime
    byte for byte: the PR 4 runner golden and the PR 3 schedule golden."""

    def test_explicit_none_matches_runner_memory_golden(self):
        runner = get_runner("lap_runtime")
        golden_rows = json.loads(GOLDEN.read_text())
        for case, expected in zip(GOLDEN_CASES, golden_rows):
            row = runner(dict(case, local_store_kb=None))
            assert row == expected  # byte-identical, not approx

    @pytest.mark.parametrize(
        "row",
        json.loads((pathlib.Path(__file__).resolve().parent
                    / "goldens" / "runtime" / "lap_runtime.json").read_text()),
        ids=lambda r: f"{r['algorithm']}-n{r['n']}-c{r['num_cores']}")
    def test_explicit_none_matches_pre_refactor_schedules(self, row):
        runtime = make_runtime(num_cores=row["num_cores"], tile=row["tile"],
                               nr=row["nr"], onchip_mbytes=1.0,
                               local_store_kb=None, stall_overlap=0.0)
        stats = runtime.run_workload(row["algorithm"], row["n"],
                                     np.random.default_rng(row["seed"]))
        assert stats["makespan_cycles"] == row["makespan_cycles"]
        assert stats["per_core_busy_cycles"] == row["per_core_busy_cycles"]
        assert stats["parallel_efficiency"] == row["parallel_efficiency"]
        assert stats["residual"] == row["residual"]


# --------------------------------------------- runtime_energy_pareto golden
def test_runtime_energy_pareto_golden_frontier():
    """Acceptance: the committed energy/runtime sweep has a non-degenerate
    Pareto frontier (>= 3 distinct points), its energy terms add up, and
    the frontier is internally consistent (no frontier row dominates
    another)."""
    golden = json.loads((pathlib.Path(__file__).resolve().parent
                         / "goldens" / "runtime_energy_pareto.json").read_text())
    assert len(golden) > 10
    for row in golden:
        assert row["total_energy_j"] == pytest.approx(
            row["dynamic_energy_j"] + row["static_energy_j"])
    frontier = [row for row in golden if row["on_frontier"]]
    distinct = {(row["total_energy_j"], row["makespan_cycles"])
                for row in frontier}
    assert len(distinct) >= 3
    for a in frontier:
        for b in frontier:
            assert not (a["total_energy_j"] < b["total_energy_j"]
                        and a["makespan_cycles"] < b["makespan_cycles"])
    # Every off-frontier row is dominated (weakly on one axis, strictly
    # overall) by some frontier row.
    for row in golden:
        if row["on_frontier"]:
            continue
        assert any(f["total_energy_j"] <= row["total_energy_j"]
                   and f["makespan_cycles"] <= row["makespan_cycles"]
                   and (f["total_energy_j"] < row["total_energy_j"]
                        or f["makespan_cycles"] < row["makespan_cycles"])
                   for f in frontier)


def test_lap_runtime_rows_expose_local_store_columns():
    runner = get_runner("lap_runtime")
    row = runner({"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
                  "nr": 4, "seed": 0, "timing": "memoized", "verify": False,
                  "on_chip_kb": 6.0, "local_store_kb": 2.0,
                  "stall_overlap": 0.5})
    for column in ("local_store_kb", "local_hit_bytes", "shared_to_local_bytes",
                   "c2c_bytes", "local_hit_rate", "local_transfer_cycles",
                   "peak_local_resident_kb", "stall_overlap"):
        assert column in row
    assert row["local_store_kb"] == 2.0
    assert row["stall_overlap"] == 0.5
    assert 0.0 < row["local_hit_rate"] < 1.0
    # Without the parameters the columns stay absent (golden compatibility).
    plain = runner({"algorithm": "cholesky", "n": 48, "tile": 8,
                    "num_cores": 2, "nr": 4, "seed": 0, "timing": "memoized",
                    "verify": False, "on_chip_kb": 6.0})
    assert "local_hit_rate" not in plain and "stall_overlap" not in plain


def test_lap_runtime_rows_expose_memory_columns():
    row = _golden_rows()[1]
    for column in ("traffic_bytes", "compulsory_bytes", "spill_bytes",
                   "stall_cycles", "energy_j", "gflops_per_w",
                   "arithmetic_intensity", "on_chip_kb", "bandwidth_gbs"):
        assert column in row
    assert row["spill_bytes"] > 0
    assert row["stall_cycles"] > 0
    assert row["memory"] is True
    # Data-movement accounting is always on: a job that turns it off is
    # rejected instead of silently getting data-movement columns.
    runner = get_runner("lap_runtime")
    with pytest.raises(ValueError, match="memory"):
        runner({"algorithm": "gemm", "n": 16, "tile": 8, "num_cores": 2,
                "memory": False})
