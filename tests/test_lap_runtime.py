"""Tests for the host-side programming model (algorithms-by-blocks runtime)."""

import gc

import numpy as np
import pytest

from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import AlgorithmsByBlocks, TaskDescriptor, TaskKind


@pytest.fixture
def rng():
    return np.random.default_rng(41)


@pytest.fixture
def lap():
    return LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4, onchip_memory_mbytes=1.0))


# ----------------------------------------------------------- task graphs
def test_gemm_task_graph_shape():
    lib = AlgorithmsByBlocks(tile=8)
    tasks = lib.gemm_tasks(m=16, n=16, k=24)
    assert len(tasks) == 2 * 2 * 3
    # Accumulation chains: tasks writing the same C tile depend on each other.
    by_tile = {}
    for t in tasks:
        by_tile.setdefault(t.output, []).append(t)
    for tile_tasks in by_tile.values():
        assert len(tile_tasks) == 3
        assert tile_tasks[0].depends_on == []
        assert tile_tasks[1].depends_on == [tile_tasks[0].task_id]
        assert tile_tasks[2].depends_on == [tile_tasks[1].task_id]


def test_cholesky_task_graph_kinds_and_dependencies():
    lib = AlgorithmsByBlocks(tile=4)
    tasks = lib.cholesky_tasks(n=12)  # 3x3 tiles
    kinds = [t.kind for t in tasks]
    assert kinds.count(TaskKind.CHOLESKY) == 3
    assert kinds.count(TaskKind.TRSM_RIGHT_T) == 3   # (1,0), (2,0), (2,1)
    assert kinds.count(TaskKind.SYRK) == 3           # diagonal updates
    assert kinds.count(TaskKind.GEMM) == 1           # (2,1) off-diagonal update
    # Every dependency refers to an earlier task id (topological order).
    ids = {t.task_id for t in tasks}
    for t in tasks:
        assert all(d in ids and d < t.task_id for d in t.depends_on)


def test_task_graph_validation():
    lib = AlgorithmsByBlocks(tile=8)
    with pytest.raises(ValueError):
        lib.gemm_tasks(m=12, n=16, k=16)
    with pytest.raises(ValueError):
        lib.cholesky_tasks(n=12)
    with pytest.raises(ValueError):
        AlgorithmsByBlocks(tile=2)
    with pytest.raises(ValueError):
        TaskDescriptor(task_id=-1, kind=TaskKind.GEMM, output=(0, 0))


# ------------------------------------------------------------- execution
def test_runtime_executes_blocked_gemm_correctly(lap, rng):
    tile = 8
    m = n = k = 16
    a, b = rng.random((m, k)), rng.random((k, n))
    c = rng.random((m, n))
    runtime = LAPRuntime(lap, tile)
    tiles = {
        "A": LAPRuntime.tile_matrix(a, tile),
        "B": LAPRuntime.tile_matrix(b, tile),
        "C": LAPRuntime.tile_matrix(c, tile),
    }
    tasks = runtime.library.gemm_tasks(m, n, k)
    stats = runtime.execute(tasks, tiles)
    result = LAPRuntime.untile_matrix(tiles["C"], tile)
    np.testing.assert_allclose(result, c + a @ b, rtol=1e-10)
    assert stats["tasks_executed"] == len(tasks)
    assert stats["makespan_cycles"] > 0
    assert 0.0 < stats["parallel_efficiency"] <= 1.0


def test_runtime_executes_blocked_cholesky_correctly(lap, rng):
    tile = 4
    n = 12
    g = rng.random((n, n))
    a = g @ g.T + n * np.eye(n)
    runtime = LAPRuntime(lap, tile)
    # All operand names alias the same tile dictionary: the factorization
    # updates A in place (CHOL/TRSM produce L tiles, the alpha = -1 updates
    # subtract the outer products of the panel).
    a_tiles = LAPRuntime.tile_matrix(a, tile)
    tiles = {"A": a_tiles, "B": a_tiles, "C": a_tiles, "L": a_tiles}
    tasks = runtime.library.cholesky_tasks(n)
    stats = runtime.execute(tasks, tiles)
    assert stats["tasks_executed"] == len(tasks)
    assert stats["makespan_cycles"] >= max(stats["per_core_busy_cycles"])
    result = np.tril(LAPRuntime.untile_matrix(a_tiles, tile))
    np.testing.assert_allclose(result, np.linalg.cholesky(a), rtol=1e-8, atol=1e-9)


def test_runtime_uses_multiple_cores(lap, rng):
    tile = 8
    runtime = LAPRuntime(lap, tile)
    a, b, c = rng.random((32, 16)), rng.random((16, 32)), np.zeros((32, 32))
    tiles = {"A": LAPRuntime.tile_matrix(a, tile), "B": LAPRuntime.tile_matrix(b, tile),
             "C": LAPRuntime.tile_matrix(c, tile)}
    tasks = runtime.library.gemm_tasks(32, 32, 16)
    stats = runtime.execute(tasks, tiles)
    busy = stats["per_core_busy_cycles"]
    assert len(busy) == 2
    assert all(cycles > 0 for cycles in busy)
    # Independent C tiles should spread across the two cores reasonably evenly.
    assert min(busy) > 0.3 * max(busy)


def test_runtime_detects_circular_dependencies(lap):
    runtime = LAPRuntime(lap, 8)
    t0 = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0), inputs=[(0, 0), (0, 0)],
                        depends_on=[1])
    t1 = TaskDescriptor(1, TaskKind.GEMM, output=(0, 0), inputs=[(0, 0), (0, 0)],
                        depends_on=[0])
    with pytest.raises(RuntimeError, match="deadlock"):
        runtime.execute([t0, t1], {"A": {}, "B": {}, "C": {}})


def test_runtime_detects_unsatisfiable_dependency(lap):
    """A dependency on a task id that is not in the graph can never clear;
    wrapping the task list in a TaskGraph rejects it up front."""
    runtime = LAPRuntime(lap, 8)
    orphan = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0),
                            inputs=[(0, 0), (0, 0)], depends_on=[99])
    with pytest.raises(ValueError, match="unknown task id"):
        runtime.execute([orphan], {"A": {}, "B": {}, "C": {}})


@pytest.mark.parametrize("collecting", [True, False])
def test_execute_restores_the_garbage_collector(lap, monkeypatch, collecting):
    """The loop pauses the cyclic collector.  After a normal execute, the
    deadlock error and a kernel raising mid-loop, the collector is on
    exactly when it was on before the call."""
    from repro.lap import runtime as runtime_module

    runtime = LAPRuntime(lap, 8, local_store_kb=1.0)
    graph = runtime.library.cholesky_tasks(16)

    def operand():
        blocks = LAPRuntime.tile_matrix(16 * np.eye(16) + 1.0, 8)
        return {"A": blocks, "B": blocks, "C": blocks, "L": blocks}

    cycle = [TaskDescriptor(k, TaskKind.GEMM, output=(0, 0),
                            inputs=[(0, 0), (0, 0)], depends_on=[1 - k])
             for k in range(2)]

    def failing_trsm(core, l, b):
        raise ArithmeticError("TRSM kernel fault")

    was_on = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        runtime.execute(graph, operand())
        assert gc.isenabled() is collecting
        with pytest.raises(RuntimeError, match="deadlock"):
            runtime.execute(cycle, {"A": {}, "B": {}, "C": {}})
        assert gc.isenabled() is collecting
        # The first task, the tile Cholesky, runs; the solve after it raises.
        monkeypatch.setattr(runtime_module, "lac_trsm", failing_trsm)
        with pytest.raises(ArithmeticError, match="TRSM kernel fault"):
            runtime.execute(graph, operand())
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_on else gc.disable)()


@pytest.mark.parametrize("algorithm", ["gemm", "cholesky", "lu", "qr"])
def test_execute_leaves_no_cyclic_garbage(lap, algorithm):
    """Functional, memoized-verified and shape-only executes with local
    stores leave nothing for the cyclic collector, so pausing it for the
    loop defers no garbage."""
    for timing, verify in (("functional", True), ("memoized", True),
                           ("memoized", False)):
        runtime = LAPRuntime(lap, 8, policy="affinity", timing=timing,
                             on_chip_kb=3.0, local_store_kb=1.0)
        gc.collect()
        stats = runtime.run_workload(algorithm, 24, np.random.default_rng(0),
                                     verify=verify)
        assert stats["tasks_executed"] > 0
        assert gc.collect() == 0, (timing, verify)


def test_trsm_task_kind_solves_lower_triangular_tile(lap, rng):
    """The plain TRSM kind (B := L^{-1} B) executes and verifies."""
    tile = 8
    runtime = LAPRuntime(lap, tile)
    l = np.tril(rng.random((tile, tile))) + tile * np.eye(tile)
    b = rng.random((tile, tile))
    tiles = {"L": {(0, 0): l}, "B": {(0, 0): b.copy()}}
    task = TaskDescriptor(0, TaskKind.TRSM, output=(0, 0), inputs=[(0, 0)])
    stats = runtime.execute([task], tiles)
    assert stats["tasks_executed"] == 1
    assert stats["makespan_cycles"] > 0
    np.testing.assert_allclose(tiles["B"][(0, 0)], np.linalg.solve(l, b),
                               rtol=1e-10, atol=1e-12)


def test_empty_graph_has_zero_makespan_and_efficiency(lap):
    """An empty / zero-makespan graph reports 0 efficiency, not a crash."""
    runtime = LAPRuntime(lap, 8)
    stats = runtime.execute([], {"A": {}, "B": {}, "C": {}})
    assert stats["makespan_cycles"] == 0
    assert stats["parallel_efficiency"] == 0.0
    assert stats["tasks_executed"] == 0
    assert stats["per_core_busy_cycles"] == [0, 0]
    assert runtime.executions == []


@pytest.mark.parametrize("timing", ["functional", "memoized"])
def test_non_square_operand_tile_is_rejected(lap, rng, timing):
    """Every operand tile must be ``tile x tile``: the per-group cycle table
    and the memory model's byte counts rest on it (this two-task GEMM moves
    4,096 operand bytes, but 8 x 8 tiles would count 2,560)."""
    tasks = [TaskDescriptor(0, TaskKind.GEMM, output=(0, 0),
                            inputs=[(0, 0), (0, 0)]),
             TaskDescriptor(1, TaskKind.GEMM, output=(0, 1),
                            inputs=[(0, 0), (0, 1)])]
    tiles = {"A": {(0, 0): rng.random((8, 16))},
             "B": {(0, j): rng.random((16, 8)) for j in range(2)},
             "C": {(0, j): rng.random((8, 8)) for j in range(2)}}
    runtime = LAPRuntime(lap, 8, timing=timing)
    with pytest.raises(ValueError,
                       match=r"operand A tile \(0, 0\) has shape \(8, 16\)"):
        runtime.execute(tasks, tiles)


@pytest.mark.parametrize("timing", ["functional", "memoized"])
def test_one_dimensional_tau_entries_are_not_checked(lap, rng, timing):
    graph = AlgorithmsByBlocks(8).qr_tasks(16)
    tiles = {"A": LAPRuntime.tile_matrix(rng.random((16, 16)), 8),
             "TAU": {(1, 1): np.zeros(8)}}
    stats = LAPRuntime(lap, 8, timing=timing).execute(graph, tiles)
    assert stats["tasks_executed"] == len(graph)
    assert len(tiles["TAU"][(0, 0)]) == 8


@pytest.mark.parametrize("kwargs", [
    {"offchip_pj_per_byte": float("nan")},
    {"offchip_pj_per_byte": float("inf")},
    {"core_frequencies_ghz": [1.0, float("nan")]},
    {"core_frequencies_ghz": [1.0, float("inf")]},
])
def test_runtime_rejects_non_finite_energy_and_clocks(lap, kwargs):
    with pytest.raises(ValueError, match=r"finite number.*got (nan|inf)"):
        LAPRuntime(lap, 8, **kwargs)


def test_runtime_names_a_negative_offchip_energy(lap):
    """The same message a ``lap_runtime`` sweep point gets (one check)."""
    with pytest.raises(ValueError) as info:
        LAPRuntime(lap, 8, offchip_pj_per_byte=-1)
    assert str(info.value) == ("offchip_pj_per_byte must be a non-negative "
                               "finite number of pJ/byte, got -1.0")


def test_tile_and_untile_round_trip(rng):
    m = rng.random((16, 24))
    tiles = LAPRuntime.tile_matrix(m, 8)
    assert len(tiles) == 2 * 3
    back = LAPRuntime.untile_matrix(tiles, 8)
    np.testing.assert_array_equal(back, m)
    with pytest.raises(ValueError):
        LAPRuntime.tile_matrix(rng.random((10, 8)), 8)
    with pytest.raises(ValueError):
        LAPRuntime.untile_matrix({}, 8)
