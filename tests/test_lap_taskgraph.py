"""Tests for the layered task-graph runtime: IR, policies and timing models.

The pre-refactor scheduler's behaviour is pinned by
``tests/goldens/runtime/lap_runtime.json`` (captured from the monolithic
implementation): the greedy policy with functional timing must reproduce
makespan, per-core busy cycles and residuals exactly.
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.lap import taskgraph
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.policies import POLICIES, get_policy, policy_names
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import (AlgorithmsByBlocks, TaskDescriptor, TaskGraph,
                                 TaskKind, clear_graph_cache)
from repro.lap.timing import (MemoizedTiming, clear_timing_cache,
                              get_timing_model, timing_names)

GOLDEN = (pathlib.Path(__file__).resolve().parent
          / "goldens" / "runtime" / "lap_runtime.json")
BUILDERS_GOLDEN = GOLDEN.parent.parent / "taskgraph" / "builders.json"


def make_runtime(num_cores=2, tile=8, nr=4, **kwargs):
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=num_cores, nr=nr,
                                           onchip_memory_mbytes=1.0))
    return LAPRuntime(lap, tile, **kwargs)


# ------------------------------------------------------------ TaskGraph IR
class TestTaskGraph:
    def test_sequence_protocol_and_lookup(self):
        graph = AlgorithmsByBlocks(tile=8).gemm_tasks(16, 16, 16)
        assert len(graph) == 8
        assert graph[0].task_id == 0
        assert [t.task_id for t in graph] == list(range(8))
        assert {t.task_id: t for t in graph}[3] == graph[3]
        assert graph.ids == list(range(8))
        assert graph.succ[graph.ids.index(0)] == (1,)

    def test_adjacency(self):
        graph = AlgorithmsByBlocks(tile=4).cholesky_tasks(8)
        tasks = {t.task_id: t for t in graph}
        chol = graph[0]
        assert chol.kind is TaskKind.CHOLESKY
        succs = [graph.ids[j] for j in graph.succ[graph.ids.index(chol.task_id)]]
        assert succs
        assert all(chol.task_id in tasks[s].depends_on for s in succs)
        # ``succ`` is exactly the inverse of ``depends_on``.
        for i, task in enumerate(graph):
            preds = sorted(graph.ids[j] for j, targets in enumerate(graph.succ)
                           if i in targets)
            assert preds == sorted(set(task.depends_on))

    def test_levels_width_and_critical_path(self):
        graph = AlgorithmsByBlocks(tile=4).cholesky_tasks(16)  # 4x4 tiles
        levels = graph.levels()
        assert sum(len(level) for level in levels) == len(graph)
        assert graph.width() == max(len(level) for level in levels)
        # Right-looking Cholesky: chain CHOL -> TRSM -> update per step.
        nb = 4
        assert graph.critical_path_length() == 3 * (nb - 1) + 1
        # Weighted critical path with zero weights collapses to zero.
        assert graph.critical_path_length(weight=lambda t: 0.0) == 0.0

    def test_kind_counts_and_summary(self):
        graph = AlgorithmsByBlocks(tile=4).cholesky_tasks(12)
        counts = graph.kind_counts()
        assert counts[TaskKind.CHOLESKY] == 3
        assert counts[TaskKind.TRSM_RIGHT_T] == 3
        summary = graph.summary()
        assert summary["num_tasks"] == len(graph)
        assert summary["kind_counts"]["chol"] == 3

    def test_duplicate_and_unknown_ids_rejected(self):
        t0 = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0))
        with pytest.raises(ValueError, match="duplicate task id"):
            TaskGraph([t0, TaskDescriptor(0, TaskKind.GEMM, output=(0, 1))])
        with pytest.raises(ValueError, match="unknown task id"):
            TaskGraph([TaskDescriptor(1, TaskKind.GEMM, output=(0, 0),
                                      depends_on=[7])])

    def test_cycle_detected_by_levels(self):
        t0 = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0), depends_on=[1])
        t1 = TaskDescriptor(1, TaskKind.GEMM, output=(0, 1), depends_on=[0])
        graph = TaskGraph([t0, t1])
        with pytest.raises(ValueError, match="cycle"):
            graph.levels()

    def test_empty_graph_analytics(self):
        graph = TaskGraph([])
        assert graph.width() == 0
        assert graph.critical_path_length() == 0.0
        assert graph.summary()["num_tasks"] == 0


# --------------------------------------------------- builder graph golden
#: (workload, tile, nr, tiles per side): every builder at three tilings.
BUILDER_CASES = [(workload, tile, nr, nb)
                 for workload in ("gemm", "gemm_rect", "cholesky", "lu", "qr")
                 for tile, nr in ((4, 2), (8, 4), (16, 4))
                 for nb in (1, 2, 3, 5, 8)]


def _builder_graph(workload, tile, nr, nb):
    lib, n = AlgorithmsByBlocks(tile, nr), nb * tile
    if workload == "gemm_rect":
        return lib.gemm_tasks(n, 2 * tile, 3 * tile)
    return lib.build(workload, n)


def _builder_graph_digest(workload, tile, nr, nb):
    """sha256 over every task's fields and footprint plus the summary."""
    graph = _builder_graph(workload, tile, nr, nb)
    tasks = [(t.task_id, t.kind.value, t.output, t.inputs,
              sorted(set(t.depends_on)), t.alpha, t.transpose_b,
              t.read_tiles(), t.write_tiles()) for t in graph]
    payload = json.dumps([tasks, graph.summary()], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("case", BUILDER_CASES,
                         ids=lambda c: "{}-t{}-nr{}-nb{}".format(*c))
def test_builder_graph_matches_golden(case):
    """Every builder's tasks, dependencies and footprints are pinned.

    The graphs depend only on the tiles per side, so the three tilings
    share digests.  Refresh after an intentional builder change with
    ``REPRO_UPDATE_GOLDENS=1`` (only then is the golden rewritten).
    """
    key, digest = "{}-t{}-nr{}-nb{}".format(*case), _builder_graph_digest(*case)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        golden = (json.loads(BUILDERS_GOLDEN.read_text())
                  if BUILDERS_GOLDEN.exists() else {})
        golden[key] = digest
        BUILDERS_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        BUILDERS_GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                                   + "\n")
        pytest.skip("golden regenerated")
    assert json.loads(BUILDERS_GOLDEN.read_text())[key] == digest


#: The per-position arrays (and their sizes) the scheduler loop reads.
LOOP_ARRAYS = ("ids", "succ", "indegree", "group", "group_keys",
               "group_counts", "out_id", "num_out_coords", "foot_ids",
               "write_ids", "rw_len", "num_tiles")


@pytest.mark.parametrize("case", BUILDER_CASES,
                         ids=lambda c: "{}-t{}-nr{}-nb{}".format(*c))
def test_descriptor_view_rebuilds_the_same_graph(case):
    """The one representation: fed a builder graph's descriptor view, the
    hand-built path derives the arrays, successors, in-degrees and summary
    the builder emitted (explicit dependencies instead of the last-writer
    rule, the same numbering)."""
    graph = _builder_graph(*case)
    rebuilt = TaskGraph(list(graph)).fast_arrays()
    for name in LOOP_ARRAYS:
        assert getattr(rebuilt, name) == getattr(graph, name), name
    assert rebuilt.summary() == graph.summary()
    assert rebuilt.critical_path_lengths() == graph.critical_path_lengths()
    assert rebuilt.levels() == graph.levels()


def test_memoized_verify_off_row_creates_no_descriptor(monkeypatch):
    """A memoized verify-off row reads only the graph's arrays: from an
    empty graph cache and a warm cycle table it constructs no
    TaskDescriptor (a descriptor-first build made one per task)."""
    make_runtime(tile=8, timing="memoized").run_blocked_cholesky(
        64, np.random.default_rng(0), verify=False)
    clear_graph_cache()
    created = []
    post_init = TaskDescriptor.__post_init__

    def counting(self):
        created.append(self.task_id)
        post_init(self)

    monkeypatch.setattr(TaskDescriptor, "__post_init__", counting)
    stats = make_runtime(tile=8, timing="memoized").run_blocked_cholesky(
        64, np.random.default_rng(0), verify=False)
    assert stats["tasks_executed"] == 120
    assert created == []
    # The view still builds every descriptor on demand.
    assert len(list(AlgorithmsByBlocks(8).cholesky_tasks(64))) == 120
    assert len(created) == 120


def test_graph_cache_is_bounded_by_its_tasks(monkeypatch):
    """The process-wide graph cache holds at most GRAPH_CACHE_TASKS tasks,
    evicting the oldest graphs first, and never caches a graph that
    exceeds the bound alone."""
    monkeypatch.setattr(taskgraph, "GRAPH_CACHE_TASKS", 30)
    clear_graph_cache()

    def cached():
        return list(taskgraph._GRAPH_CACHE.values())

    try:
        lib = AlgorithmsByBlocks(tile=8)
        small = lib.cholesky_tasks(24)            # 10 tasks
        middle = lib.cholesky_tasks(32)           # 20 tasks: 30 in all
        assert cached() == [small, middle]
        # Every builder graph numbers its tasks from 0, so a graph built
        # again, on the same library or another, is the cached one.
        assert middle.ids == list(range(20))
        assert lib.cholesky_tasks(24) is small
        assert AlgorithmsByBlocks(tile=8).cholesky_tasks(24) is small
        gemm = lib.gemm_tasks(16, 16, 16)         # 8 tasks: evicts small
        assert cached() == [middle, gemm]
        big = lib.cholesky_tasks(40)              # 35 tasks: never cached
        assert len(big) == 35 and cached() == [middle, gemm]
        assert sum(map(len, cached())) <= 30
    finally:
        clear_graph_cache()


# ------------------------------------------------- blocking validation (nr)
class TestBlockingValidation:
    def test_tile_must_be_multiple_of_nr(self):
        with pytest.raises(ValueError, match="tile size 10 is not a multiple "
                                             "of the core dimension nr=4"):
            AlgorithmsByBlocks(tile=10, nr=4)
        with pytest.raises(ValueError, match="tile size 2 is smaller than the "
                                             "core dimension nr=4"):
            AlgorithmsByBlocks(tile=2, nr=4)
        with pytest.raises(ValueError, match="nr must be >= 2"):
            AlgorithmsByBlocks(tile=8, nr=1)
        # Non-default core dimensions are accepted when compatible.
        assert AlgorithmsByBlocks(tile=16, nr=8).tile == 16

    def test_dimension_errors_name_the_offender(self):
        lib = AlgorithmsByBlocks(tile=8)
        with pytest.raises(ValueError, match="dimension m=12 is not a multiple "
                                             "of the tile size 8"):
            lib.gemm_tasks(m=12, n=16, k=16)
        with pytest.raises(ValueError, match="dimension n=12"):
            lib.cholesky_tasks(n=12)
        with pytest.raises(ValueError, match="dimension n=20"):
            lib.lu_tasks(n=20)
        with pytest.raises(ValueError, match="dimension n=-8 must be positive"):
            lib.qr_tasks(n=-8)

    def test_runtime_rejects_tile_incompatible_with_chip(self):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=1, nr=8,
                                               onchip_memory_mbytes=1.0))
        with pytest.raises(ValueError, match="nr=8"):
            LAPRuntime(lap, tile=12)


# --------------------------------------------------------- LU and QR graphs
class TestLuQrGraphs:
    def test_lu_graph_shape(self):
        graph = AlgorithmsByBlocks(tile=8).lu_tasks(24)  # 3x3 tiles
        counts = graph.kind_counts()
        assert counts[TaskKind.LU] == 3
        assert counts[TaskKind.TRSM_LOWER] == 3
        assert counts[TaskKind.TRSM_UPPER_RIGHT] == 3
        assert counts[TaskKind.GEMM] == 4 + 1  # 2x2 then 1x1 trailing updates
        ids = {t.task_id for t in graph}
        for t in graph:
            assert all(d in ids and d < t.task_id for d in t.depends_on)

    def test_qr_graph_shape(self):
        graph = AlgorithmsByBlocks(tile=8).qr_tasks(24)  # 3x3 tiles
        counts = graph.kind_counts()
        assert counts[TaskKind.GEQRT] == 3
        assert counts[TaskKind.TSQRT] == 3   # (1,0), (2,0), (2,1)
        assert counts[TaskKind.UNMQR] == 3
        assert counts[TaskKind.TSMQR] == 5   # 2x2 below row 0, 1x1 below row 1
        ids = {t.task_id for t in graph}
        for t in graph:
            assert all(d in ids and d < t.task_id for d in t.depends_on)

    @pytest.mark.parametrize("workload,n,tile", [
        ("lu", 16, 8), ("lu", 24, 8), ("qr", 16, 8), ("qr", 24, 8)])
    def test_lu_qr_execute_end_to_end(self, workload, n, tile):
        runtime = make_runtime(tile=tile)
        stats = runtime.run_workload(workload, n, np.random.default_rng(0))
        assert stats["tasks_executed"] == len(
            runtime.library.build(workload, n))
        assert stats["makespan_cycles"] > 0
        assert stats["residual"] < 1e-10

    def test_lu_requires_no_pivoting(self):
        runtime = make_runtime(tile=8)
        # A generic random operand needs pivoting, which tile LU forbids.
        a = np.random.default_rng(0).random((16, 16))
        shared = runtime.tile_matrix(a, 8)
        tiles = {"A": shared, "B": shared, "C": shared, "L": shared}
        with pytest.raises(ValueError, match="no pivoting"):
            runtime.execute(runtime.library.lu_tasks(16), tiles)

    def test_unknown_workload_raises(self):
        runtime = make_runtime()
        with pytest.raises(ValueError, match="unknown workload 'svd'"):
            runtime.run_workload("svd", 16, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown workload"):
            runtime.library.build("svd", 16)


# ------------------------------------------------- pre-refactor equivalence
class TestGoldenEquivalence:
    """Greedy + functional reproduces the monolithic scheduler exactly."""

    @pytest.mark.parametrize("row", json.loads(GOLDEN.read_text()),
                             ids=lambda r: f"{r['algorithm']}-n{r['n']}-"
                                           f"c{r['num_cores']}-s{r['seed']}")
    def test_matches_pre_refactor_golden(self, row):
        runtime = make_runtime(num_cores=row["num_cores"], tile=row["tile"],
                               nr=row["nr"])
        stats = runtime.run_workload(row["algorithm"], row["n"],
                                     np.random.default_rng(row["seed"]))
        assert stats["makespan_cycles"] == row["makespan_cycles"]
        assert stats["per_core_busy_cycles"] == row["per_core_busy_cycles"]
        assert stats["parallel_efficiency"] == row["parallel_efficiency"]
        assert stats["tasks_executed"] == row["tasks_executed"]
        assert stats["residual"] == row["residual"]


# ------------------------------------------------------------- policies
def _schedule_is_valid(runtime, graph):
    """Dependencies respected, per-core intervals non-overlapping."""
    tasks = {t.task_id: t for t in graph}
    end_by_id = {e.task_id: e.end_cycle for e in runtime.executions}
    by_core = {}
    for execution in runtime.executions:
        task = tasks[execution.task_id]
        ready = max((end_by_id[d] for d in task.depends_on), default=0)
        assert execution.start_cycle >= ready
        by_core.setdefault(execution.core_index, []).append(
            (execution.start_cycle, execution.end_cycle))
    for intervals in by_core.values():
        intervals.sort()
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert s1 >= e0
    return True


class TestPolicies:
    def test_registry(self):
        assert policy_names() == sorted(POLICIES) == [
            "affinity", "critical_path", "greedy", "locality", "memory_aware"]
        assert get_policy("greedy") == "greedy"
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            get_policy("random")
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_runtime(policy="random")

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("workload,n,tile", [
        ("gemm", 16, 8), ("cholesky", 16, 4), ("lu", 16, 8), ("qr", 16, 8)])
    def test_every_policy_schedules_correctly(self, policy, workload, n, tile):
        runtime = make_runtime(tile=tile, policy=policy, timing="memoized")
        stats = runtime.run_workload(workload, n, np.random.default_rng(3))
        # A fresh library restarts task ids at 0, matching the executed graph.
        graph = AlgorithmsByBlocks(tile).build(workload, n)
        assert stats["residual"] < 1e-9
        assert stats["policy"] == policy
        assert _schedule_is_valid(runtime, graph)

    def test_critical_path_never_worse_on_wide_graph(self):
        results = {}
        for policy in ("greedy", "critical_path"):
            runtime = make_runtime(num_cores=4, tile=8, policy=policy,
                                   timing="memoized")
            results[policy] = runtime.run_blocked_cholesky(
                64, np.random.default_rng(0), verify=False)["makespan_cycles"]
        assert results["critical_path"] <= results["greedy"]

    def test_locality_prefers_owner_core_on_ties(self):
        # Two accumulation chains onto one C tile each: under the locality
        # policy a chain stays on the core that holds its accumulator tile.
        runtime = make_runtime(num_cores=2, tile=8, policy="locality")
        runtime.run_blocked_gemm(16, np.random.default_rng(0))
        core_by_tile = {}
        graph = AlgorithmsByBlocks(8).gemm_tasks(16, 16, 16)
        tasks = {t.task_id: t for t in graph}
        for execution in runtime.executions:
            tile_coord = tasks[execution.task_id].output
            core_by_tile.setdefault(tile_coord, set()).add(execution.core_index)
        assert all(len(cores) == 1 for cores in core_by_tile.values())


# ------------------------------------------------------------ timing models
class TestTimingModels:
    def test_registry(self):
        assert timing_names() == ["functional", "memoized"]
        assert type(get_timing_model("memoized")) is MemoizedTiming
        with pytest.raises(ValueError, match="unknown timing model"):
            get_timing_model("oracle")
        with pytest.raises(ValueError, match="unknown timing model"):
            make_runtime(timing=MemoizedTiming())

    @pytest.mark.parametrize("workload,n,tile", [
        ("gemm", 16, 8), ("cholesky", 16, 4), ("lu", 16, 8), ("qr", 16, 8)])
    def test_memoized_matches_functional_makespan(self, workload, n, tile):
        functional = make_runtime(tile=tile)
        memoized = make_runtime(tile=tile, timing="memoized")
        f = functional.run_workload(workload, n, np.random.default_rng(7))
        m = memoized.run_workload(workload, n, np.random.default_rng(7),
                                  verify=False)
        assert m["makespan_cycles"] == f["makespan_cycles"]
        assert m["per_core_busy_cycles"] == f["per_core_busy_cycles"]
        assert m["residual"] is None and f["residual"] is not None

    def test_memoized_verify_keeps_residuals(self):
        runtime = make_runtime(tile=8, timing="memoized")
        stats = runtime.run_blocked_cholesky(32, np.random.default_rng(2),
                                             verify=True)
        assert stats["residual"] is not None
        assert stats["residual"] < 1e-8
        assert runtime.timing.hits > 0  # memoization actually engaged

    def test_memoized_cache_and_stats(self):
        clear_timing_cache()
        runtime = make_runtime(tile=8, timing="memoized")
        runtime.run_blocked_cholesky(32, np.random.default_rng(0), verify=False)
        timing = runtime.timing
        first_warm = timing.warm_runs
        assert first_warm == 4  # chol, trsm_rt, syrk, gemm at one shape
        assert (timing.estimated_functional_seconds()
                >= sum(timing.warm_seconds_by_signature.values()))
        # A second graph with the same signatures is warm from the start.
        runtime.run_blocked_cholesky(48, np.random.default_rng(1), verify=False)
        assert timing.warm_runs == first_warm

    def test_functional_timing_ignores_verify_flag(self):
        runtime = make_runtime(tile=8)
        stats = runtime.run_blocked_gemm(16, np.random.default_rng(0),
                                         verify=False)
        assert stats["residual"] is not None  # data always valid


# ------------------------------------------------- heterogeneous frequencies
class TestHeterogeneousCores:
    def test_faster_core_shortens_makespan(self):
        homo = make_runtime(num_cores=2, tile=4)
        hetero = make_runtime(num_cores=2, tile=4,
                              core_frequencies_ghz=[1.0, 2.0])
        h = homo.run_blocked_cholesky(16, np.random.default_rng(3))
        f = hetero.run_blocked_cholesky(16, np.random.default_rng(3))
        assert f["makespan_cycles"] < h["makespan_cycles"]
        assert f["residual"] == h["residual"]

    def test_faster_cores_accumulate_proportionally_more_work(self):
        """A core clocked k x faster absorbs ~k x the compute cycles on a
        wide graph of identical independent chains (greedy keeps feeding
        whichever core frees up first)."""
        hetero = make_runtime(num_cores=2, tile=8, timing="memoized",
                              core_frequencies_ghz=[1.0, 3.0])
        stats = hetero.run_blocked_gemm(48, np.random.default_rng(0),
                                        verify=False)
        slow, fast = stats["per_core_busy_cycles"]
        assert fast > slow > 0
        # 36 independent 6-task chains over cores at 1 and 3 GHz: the fast
        # core should take close to 3x the tasks (quantisation leaves slack).
        assert 2.0 <= fast / slow <= 4.0
        fast_tasks = sum(1 for e in hetero.executions if e.core_index == 1)
        slow_tasks = sum(1 for e in hetero.executions if e.core_index == 0)
        assert fast_tasks > 2 * slow_tasks

    def test_hetero_makespan_beats_homogeneous_slowest_baseline(self):
        """Upgrading one core must beat the all-slowest-clock baseline."""
        baseline = make_runtime(num_cores=2, tile=8, timing="memoized",
                                core_frequencies_ghz=[1.0, 1.0])
        hetero = make_runtime(num_cores=2, tile=8, timing="memoized",
                              core_frequencies_ghz=[1.0, 2.0])
        b = baseline.run_blocked_cholesky(48, np.random.default_rng(0),
                                          verify=False)
        h = hetero.run_blocked_cholesky(48, np.random.default_rng(0),
                                        verify=False)
        assert h["makespan_cycles"] < b["makespan_cycles"]
        # The compute work itself is frequency-independent (same task set).
        assert sum(h["per_core_busy_cycles"]) == sum(b["per_core_busy_cycles"])

    def test_homogeneous_override_is_identity(self):
        base = make_runtime(num_cores=2, tile=8)
        override = make_runtime(num_cores=2, tile=8,
                                core_frequencies_ghz=[1.0, 1.0])
        b = base.run_blocked_gemm(16, np.random.default_rng(0))
        o = override.run_blocked_gemm(16, np.random.default_rng(0))
        assert b["makespan_cycles"] == o["makespan_cycles"]

    def test_validation(self):
        with pytest.raises(ValueError, match="2 entries for 4 cores"):
            make_runtime(num_cores=4, core_frequencies_ghz=[1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            make_runtime(num_cores=2, core_frequencies_ghz=[1.0, 0.0])
