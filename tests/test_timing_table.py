"""The process-wide memoized-timing table and the precondition it rests on.

Memoized timing charges every task of a signature the cycle count of one
functional warm-up, and :mod:`repro.lap.timing` shares those counts across
every execute of a process, keyed by the running core's configuration.
This suite pins:

* the precondition: on dense, well-conditioned operands of one shape,
  every task kind the algorithms-by-blocks emit takes one cycle count per
  (signature, core config), on a fresh core and on a core with history --
  and the one known exception (GEQRT of a tile with zero sub-columns);
* the all-or-nothing sharing rule: warm graphs are charged from the table
  without an operand, cold ones warm up as in a fresh process, and a
  warm-up that disagrees with the table raises;
* one memoized path: ``verify`` changes no schedule and no count, and the
  simulator runs once per group whether or not it is on;
* cold ``verify=False`` points: they warm on a 3 x 3-tile instance of the
  same workload, never build their operand, and give the rows a warm-up
  on their own operand gives;
* that sweep rows do not depend on what ran earlier in the process.
"""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scheduler_oracle import resimulated_row

from repro.engine import SweepSpec, execute_jobs
from repro.engine.runners import _REPLAY_MEMO, get_runner
from repro.lap import runtime as runtime_module
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import (LAPRuntime, _NumPyKernels, _simulate_task,
                                _update_tiles)
from repro.lap.taskgraph import (AlgorithmsByBlocks, TaskDescriptor,
                                 TaskGraph, TaskKind, clear_graph_cache)
from repro.lap.timing import (MemoizedTiming, clear_timing_cache,
                              group_signatures)
from repro.reference.factorizations import ref_householder_qr_factored


def make_runtime(num_cores=2, tile=8, nr=4, frequency_ghz=1.0):
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=num_cores, nr=nr,
                                           onchip_memory_mbytes=1.0,
                                           frequency_ghz=frequency_ghz))
    return LAPRuntime(lap, tile, timing="memoized")


# ------------------------------------------------------ memo precondition
def _dense(rng, t):
    return rng.random((t, t))


def _spd(rng, t):
    g = rng.random((t, t))
    return g @ g.T + t * np.eye(t)


def _dominant(rng, t):
    return rng.random((t, t)) + t * np.eye(t)


def _blas3(rng, t):
    return {"A": {(0, 0): _dense(rng, t)}, "B": {(0, 0): _dense(rng, t)},
            "C": {(0, 0): _dense(rng, t)}}


def _triangular_solve(rng, t):
    return {"L": {(0, 0): _dominant(rng, t)}, "B": {(0, 0): _dense(rng, t)}}


def _unmqr(rng, t):
    factored, taus = ref_householder_qr_factored(_dense(rng, t))
    return {"A": {(0, 0): factored, (0, 1): _dense(rng, t)},
            "TAU": {(0, 0): taus}}


def _tsmqr(rng, t):
    stacked = np.vstack([np.triu(_dense(rng, t)), _dense(rng, t)])
    factored, taus = ref_householder_qr_factored(stacked)
    return {"A": {(1, 0): factored[t:], (0, 1): _dense(rng, t),
                  (1, 1): _dense(rng, t)},
            "TAU": {(1, 0): taus}}


def _task(kind, output=(0, 0), inputs=((0, 0),), **kwargs):
    return TaskDescriptor(0, kind, output=output, inputs=list(inputs), **kwargs)


def _table_key(runtime, task):
    """The process-table key ``task`` warms up under on ``runtime``."""
    group_keys = TaskGraph([task]).fast_arrays().group_keys
    return (runtime._core_key,
            group_signatures(group_keys, runtime.tile, runtime._precision)[0])


#: Every task kind the algorithms-by-blocks emit (plus the plain TRSM and
#: the unit-alpha SYRK path), each with a function that draws its operands
#: for one tile shape.
KIND_CASES = [
    (_task(TaskKind.GEMM, inputs=[(0, 0), (0, 0)]), _blas3),
    (_task(TaskKind.GEMM, inputs=[(0, 0), (0, 0)], alpha=-1.0,
           transpose_b=True), _blas3),
    (_task(TaskKind.GEMM, inputs=[(0, 0), (0, 0)], alpha=-1.0), _blas3),
    (_task(TaskKind.SYRK), _blas3),
    (_task(TaskKind.SYRK, alpha=-1.0, transpose_b=True), _blas3),
    (_task(TaskKind.TRSM), _triangular_solve),
    (_task(TaskKind.TRSM_RIGHT_T), _triangular_solve),
    (_task(TaskKind.TRSM_LOWER), _triangular_solve),
    (_task(TaskKind.TRSM_UPPER_RIGHT), _triangular_solve),
    (_task(TaskKind.CHOLESKY), lambda rng, t: {"A": {(0, 0): _spd(rng, t)}}),
    (_task(TaskKind.LU), lambda rng, t: {"A": {(0, 0): _dominant(rng, t)}}),
    (_task(TaskKind.GEQRT), lambda rng, t: {"A": {(0, 0): _dense(rng, t)}}),
    (_task(TaskKind.TSQRT, output=(1, 0)),
     lambda rng, t: {"A": {(0, 0): _dense(rng, t), (1, 0): _dense(rng, t)}}),
    (_task(TaskKind.UNMQR, output=(0, 1)), _unmqr),
    (_task(TaskKind.TSMQR, output=(1, 1), inputs=[(1, 0), (0, 1), (1, 1)]),
     _tsmqr),
]


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=2,
                      unique=True),
       core=st.sampled_from([(2, 4), (4, 4), (2, 8), (4, 8)]),
       order=st.permutations(range(len(KIND_CASES))))
def test_signature_and_core_config_fix_the_cycle_count(seeds, core, order):
    """Random dense operands, on a fresh core and on one that already ran
    other kernels (in a random order), give one count per signature."""
    nr, tile = core
    used = make_runtime(nr=nr, tile=tile)
    counts = {}
    for index in order:
        task, build = KIND_CASES[index]
        for seed in seeds:
            for runtime in (used, make_runtime(nr=nr, tile=tile)):
                tiles = build(np.random.default_rng(seed), tile)
                cycles = _simulate_task(task, tiles, runtime.lap.cores[0])
                counts.setdefault(_table_key(runtime, task), set()).add(cycles)
    assert len(counts) == len(KIND_CASES)
    assert all(len(cycles) == 1 for cycles in counts.values()), counts


def test_geqrt_of_zero_subcolumns_is_the_known_exception():
    """QR skips the reflector of an all-zero sub-column, so an upper
    triangular tile factors in a fraction of a dense tile's cycles: the
    reason no stand-in operand may ever feed a warm-up."""
    core = make_runtime(nr=4, tile=8).lap.cores[0]
    task = _task(TaskKind.GEQRT)
    rng = np.random.default_rng(0)
    dense = _simulate_task(task, {"A": {(0, 0): _dense(rng, 8)}}, core)
    upper = np.triu(_dense(rng, 8)) + np.eye(8)
    zero_subcolumns = _simulate_task(task, {"A": {(0, 0): upper}}, core)
    assert (dense, zero_subcolumns) == (870, 12)


def test_lac_and_numpy_kernel_sets_agree_per_kind():
    """Every kind and path updates the same tiles (and ``TAU``) to the same
    values on the LAC simulator and through its NumPy formulas, which
    memoized timing applies under ``verify``.  SYRK with unit alpha and no
    transpose updates the lower triangle only on both."""
    core = make_runtime().lap.cores[0]
    for index, (task, build) in enumerate(KIND_CASES):
        lac_tiles = build(np.random.default_rng(index), 8)
        numpy_tiles = copy.deepcopy(lac_tiles)
        _simulate_task(task, lac_tiles, core)
        _update_tiles(task, numpy_tiles, _NumPyKernels)
        assert lac_tiles.keys() == numpy_tiles.keys()
        for name, lac in lac_tiles.items():
            assert lac.keys() == numpy_tiles[name].keys()
            for coord, value in lac.items():
                np.testing.assert_allclose(
                    numpy_tiles[name][coord], value, rtol=1e-9, atol=1e-9,
                    err_msg=f"case {index} ({task.kind.value}): {name}{coord}")


# ------------------------------------------------------ all-or-nothing rule
def test_second_runtime_is_warm_and_other_configs_warm_again():
    clear_timing_cache()
    first = make_runtime()
    stats = first.run_blocked_cholesky(32, np.random.default_rng(0),
                                       verify=False)
    assert first.timing.warm_runs == 4  # chol, trsm_rt, syrk, gemm
    second = make_runtime()
    again = second.run_blocked_cholesky(32, np.random.default_rng(1),
                                        verify=False)
    assert second.timing.warm_runs == 0
    assert second.timing.hits == stats["tasks_executed"]
    assert again == stats
    for other in (make_runtime(nr=2), make_runtime(frequency_ghz=1.4)):
        other.run_blocked_cholesky(32, np.random.default_rng(0), verify=False)
        assert other.timing.warm_runs == 4


def test_warm_point_builds_no_operand_and_verify_always_warms():
    clear_timing_cache()
    make_runtime().run_blocked_cholesky(32, np.random.default_rng(0),
                                        verify=False)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    warm = make_runtime()
    stats = warm.run_blocked_cholesky(32, rng, verify=False)
    assert rng.bit_generator.state == state  # nothing drawn
    assert stats["residual"] is None and not stats["data_valid"]
    verified = make_runtime()
    checked = verified.run_blocked_cholesky(32, rng, verify=True)
    assert verified.timing.warm_runs == 4
    assert checked["residual"] < 1e-8
    assert checked["makespan_cycles"] == stats["makespan_cycles"]


def test_qr_memo_reuse_on_one_runtime():
    """A second, larger QR graph on a reused runtime used to be a partial
    cache hit: its GEQRT never ran, so no reflector scalars were written
    and the first UNMQR warm-up raised ``KeyError: (0, 0)``."""
    clear_timing_cache()
    reused = make_runtime()
    reused.run_blocked_qr(8, np.random.default_rng(0), verify=False)
    stats = reused.run_blocked_qr(16, np.random.default_rng(0), verify=False)
    clear_timing_cache()
    fresh = make_runtime().run_blocked_qr(16, np.random.default_rng(0),
                                          verify=False)
    assert stats == fresh
    assert stats["makespan_cycles"] == 2947


def test_qr_memo_reuse_through_the_runner():
    runner = get_runner("lap_runtime")
    base = {"algorithm": "qr", "tile": 8, "timing": "memoized", "verify": 0}
    clear_timing_cache()
    assert runner({**base, "n": 8})["makespan_cycles"] == 870
    assert runner({**base, "n": 16})["makespan_cycles"] == 2947


def test_warmup_that_disagrees_with_the_table_raises():
    clear_timing_cache()
    make_runtime().run_blocked_qr(8, np.random.default_rng(0), verify=False)
    graph = AlgorithmsByBlocks(8).qr_tasks(8)  # one GEQRT
    upper = np.triu(np.random.default_rng(1).random((8, 8))) + np.eye(8)
    with pytest.raises(RuntimeError, match="must not depend on the tile"):
        make_runtime().execute(graph, {"A": {(0, 0): upper}}, verify=True)


def test_cold_execute_warms_a_workload_graph_on_its_own_instance():
    """A cold ``verify=False`` execute of a builder's graph warms its groups
    on the seeded 3 x 3-tile instance, never on the tiles it is handed:
    identity stand-ins take GEQRT 12 cycles (870 on dense data), and a
    later cold QR row in the same process used to be charged from them
    (makespan 1231 instead of 2947).  A hand-built graph names no workload,
    so it still warms on its caller's tiles."""
    eye = np.eye(8)
    stand_ins = {"A": {(i, j): eye.copy() for i in range(2) for j in range(2)}}
    clear_timing_cache()
    runtime = make_runtime()
    graph = runtime.library.qr_tasks(16)
    runtime.execute(graph, stand_ins, verify=False)
    assert runtime.timing.warm_runs == 4
    assert all(tile.tolist() == eye.tolist()
               for tile in stand_ins["A"].values())
    stats = make_runtime().run_blocked_qr(16, np.random.default_rng(0),
                                          verify=False)
    assert stats["makespan_cycles"] == 2947
    clear_timing_cache()
    try:
        hand_built = make_runtime().execute(TaskGraph(list(graph)), stand_ins,
                                            verify=False)
        assert hand_built["makespan_cycles"] != 2947
    finally:
        clear_timing_cache()


# ------------------------------------------------------ one memoized path
@pytest.mark.parametrize("algorithm", ["gemm", "cholesky", "lu", "qr"])
def test_verify_changes_no_schedule_and_warms_once_per_group(monkeypatch,
                                                             algorithm):
    """From an empty table, memoized ``verify=True`` and ``verify=False``
    give the same executions and warm-ups, and both call
    ``MemoizedTiming.task_cycles`` once per group: a 256^2, tile-32
    Cholesky (120 tasks) makes 4 calls.  ``verify=True`` warms on its own
    operand, so its warm-ups are not hits; ``verify=False`` warms on the
    3 x 3-tile instance first and charges every task of the point from
    the table."""
    calls = []
    task_cycles = MemoizedTiming.task_cycles

    def counting(self, *args, **kwargs):
        calls.append(args)
        return task_cycles(self, *args, **kwargs)

    monkeypatch.setattr(MemoizedTiming, "task_cycles", counting)
    runs = {}
    for verify in (True, False):
        clear_timing_cache()
        calls.clear()
        runtime = make_runtime(num_cores=4, tile=32)
        stats = runtime.run_workload(algorithm, 256, np.random.default_rng(0),
                                     verify=verify)
        assert (stats["residual"] is not None) == verify
        groups = len(runtime._last_graph.fast_arrays().group_keys)
        assert len(calls) == runtime.timing.warm_runs == groups
        runs[verify] = (runtime.executions, runtime.timing.warm_runs,
                        runtime.timing.hits)
    assert runs[True][:2] == runs[False][:2]
    executions, warm_runs, hits = runs[True]
    assert warm_runs + hits == len(executions)
    assert runs[False][2] == len(executions)
    if algorithm == "cholesky":
        assert (len(executions), warm_runs) == (120, 4)


# ------------------------------------------------------ cold shape-only points
@pytest.mark.parametrize("blocks", [1, 2, 4])
@pytest.mark.parametrize("setting", [
    {"policy": "greedy", "nr": 2},
    {"policy": "memory_aware", "nr": 4, "local_store_kb": 2, "on_chip_kb": 4}])
@pytest.mark.parametrize("algorithm", AlgorithmsByBlocks.WORKLOADS)
def test_cold_verify_off_row_equals_the_row_after_a_warm_up(algorithm,
                                                            setting, blocks):
    """A cold ``verify=False`` row warms on the 3 x 3-tile instance; the
    same row charged from a table that the point's own verified run filled
    is identical, also for points smaller than their warm instance.  Every
    row is simulated, none replayed."""
    params = {"algorithm": algorithm, "n": 8 * blocks, "tile": 8,
              "num_cores": 2, "timing": "memoized", "verify": 0, **setting}
    clear_timing_cache()
    cold = resimulated_row(params)
    clear_timing_cache()
    assert resimulated_row({**params, "verify": 1})["residual"] < 1e-8
    assert resimulated_row(params) == cold


def test_cold_verify_off_point_allocates_less_than_its_operand():
    """A cold 2048^2, tile-128 Cholesky row never builds its operand: the
    traced allocation peak stays below one 2048^2 float64 matrix (32 MiB),
    where building it peaked at about 100 MiB."""
    params = {"algorithm": "cholesky", "n": 2048, "tile": 128,
              "num_cores": 4, "timing": "memoized", "verify": 0}
    clear_timing_cache()
    clear_graph_cache()
    tracemalloc.start()
    try:
        row = resimulated_row(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row["tasks_executed"] == 816 and row["residual"] is None
    assert peak < 2048 * 2048 * 8, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_warm_instance_that_lacks_a_group_of_the_point_raises(monkeypatch):
    """The small instance must hold every group of the point; a 1 x 1-tile
    Cholesky has only the diagonal factorization, which is enough for a
    1 x 1-tile point alone."""
    monkeypatch.setattr(runtime_module, "WARM_TILES", 1)
    clear_timing_cache()
    with pytest.raises(RuntimeError, match="lacks the memoization group"):
        make_runtime().run_blocked_cholesky(16, np.random.default_rng(0),
                                            verify=False)
    clear_timing_cache()
    runtime = make_runtime()
    runtime.run_blocked_cholesky(8, np.random.default_rng(0), verify=False)
    assert runtime.timing.warm_runs == 1


# ------------------------------------------------------ history independence
def test_sweep_rows_do_not_depend_on_process_history(monkeypatch):
    """Serial in one process, a process pool, and job by job from an empty
    table give byte-identical rows, every one simulated: with the replay
    memo's bound at zero nothing is memoized, no result cache holds replay
    records, and the pool's forked workers inherit the bound."""
    from repro.engine import runners
    from repro.lap.replay import REPLAY_STATS

    jobs = (SweepSpec()
            .constants(n=16, num_cores=2, seed=3, timing="memoized")
            .grid(algorithm=("gemm", "cholesky", "lu", "qr"), tile=(4, 8),
                  nr=(2, 4), verify=(0, 1), frequency_ghz=(1.0, 1.4))
            .jobs("lap_runtime"))
    monkeypatch.setattr(runners, "REPLAY_MEMO_TASKS", 0)
    _REPLAY_MEMO.clear()
    before = dict(REPLAY_STATS)
    serial = execute_jobs(jobs, mode="serial").rows
    assert REPLAY_STATS["recorded"] == before["recorded"] + 64
    assert REPLAY_STATS["replayed"] == before["replayed"]
    assert not _REPLAY_MEMO
    pooled = execute_jobs(jobs, mode="process", max_workers=2,
                          batch_size=8).rows
    isolated = []
    for job in jobs:
        clear_timing_cache()
        recorded = REPLAY_STATS["recorded"]
        isolated.extend(execute_jobs([job], mode="serial").rows)
        assert REPLAY_STATS["recorded"] == recorded + 1
    assert len(serial) == len(jobs) == 64
    assert json.dumps(serial) == json.dumps(isolated)
    assert json.dumps(pooled) == json.dumps(isolated)
