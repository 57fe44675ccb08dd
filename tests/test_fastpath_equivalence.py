"""Byte-identical equivalence of the scheduler loop against the oracle.

``LAPRuntime.execute`` is one inlined structure-of-arrays loop; the plain
reference implementation it replaced lives on as a test oracle
(``scheduler_oracle.reference_execute``).  The product must produce
*exactly* the oracle's rows -- same stats dict, same :class:`TaskExecution`
records field by field (values and Python types), same cycle attribution,
same schedule trace and per-task energy triples -- or downstream sweeps
silently fork.  This suite pins that contract:

* the full matrix of all four algorithms-by-blocks workloads and a
  tie-heavy wide graph on 8 cores x all five scheduling policies x
  {single-level, two-level} hierarchies under constrained capacity
  (spills, stalls and writebacks exercised);
* random DAGs of GEMM/CHOLESKY/TRSM tasks over a 3x3 tile grid, under
  every policy, hierarchy shape, core count and capacities below one
  footprint: the loop is the only implementation of the residency and
  priority decisions, so this property is what pins them;
* verify=True on every workload (the product's per-group table with
  NumPy tile updates on its hits, against the oracle's own per-task
  timing: same rows and bit-identical tiles) and heterogeneous-frequency /
  prefetch-overlap / functional-timing variants;
* the ``lap_runtime`` runner rows against the oracle's rows and the
  committed PR-4/PR-5 goldens, and replayed delta-sweep rows against
  re-simulation, plus the strict sidecar header of the replay record.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scheduler_oracle import reference_execute, resimulated_row

from repro.engine.runners import get_runner
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import (AlgorithmsByBlocks, TaskDescriptor,
                                 TaskGraph, TaskKind)

TILE = 8
SIZES = {"cholesky": 40, "gemm": 32, "lu": 40, "qr": 32}
POLICIES = ["greedy", "critical_path", "locality", "memory_aware", "affinity"]
#: local_store_kb=None is the single-level hierarchy, 1.0 the two-level one.
LEVELS = [None, 1.0]

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"


def make_runtime(policy="greedy", local_store_kb=None, timing="memoized",
                 on_chip_kb=3.0, bandwidth_gbs=16.0, stall_overlap=0.0,
                 frequencies=None, num_cores=4):
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=num_cores, nr=4,
                                           onchip_memory_mbytes=1.0))
    return LAPRuntime(lap, TILE, policy=policy, timing=timing,
                      on_chip_kb=on_chip_kb, bandwidth_gbs=bandwidth_gbs,
                      local_store_kb=local_store_kb,
                      stall_overlap=stall_overlap,
                      core_frequencies_ghz=frequencies)


def make_tiles(nb=6):
    """Operand tile dicts of one dense, symmetric, diagonally dominant
    block: SPD for Cholesky, pivot-free for LU, and without zero
    sub-columns, whose reflectors tiled QR would skip (cheaper warm-ups
    than the memoized counts of dense operands).  Without ``verify`` only
    the warm-ups read tile values."""
    noise = np.random.default_rng(0).random((TILE, TILE))
    block = noise + noise.T + 2 * TILE * np.eye(TILE)
    blocks = {(i, j): block.copy() for i in range(nb) for j in range(nb)}
    return {name: {k: v.copy() for k, v in blocks.items()}
            for name in ("A", "B", "C", "L")}


def assert_stats_identical(ref, fast):
    assert set(ref) == set(fast)
    for key in sorted(ref):
        rv, fv = ref[key], fast[key]
        assert type(rv) is type(fv), f"{key}: {type(rv)} vs {type(fv)}"
        assert rv == fv, f"{key}: {rv!r} != {fv!r}"


def assert_executions_identical(ref_rt, fast_rt):
    ref_rows, fast_rows = ref_rt.executions, fast_rt.executions
    assert len(ref_rows) == len(fast_rows)
    fields = [f.name for f in dataclasses.fields(ref_rows[0])]
    for a, b in zip(ref_rows, fast_rows):
        for name in fields:
            rv, fv = getattr(a, name), getattr(b, name)
            assert type(rv) is type(fv), f"{name}: {type(rv)} vs {type(fv)}"
            assert rv == fv, f"task {a.task_id} {name}: {rv!r} != {fv!r}"


def assert_runs_identical(ref_rt, fast_rt, graph, verify=False, tiles=None):
    ref_tiles, fast_tiles = tiles or (make_tiles(), make_tiles())
    ref_stats = reference_execute(ref_rt, graph, ref_tiles, verify=verify)
    fast_stats = fast_rt.execute(graph, fast_tiles, verify=verify)
    assert_stats_identical(ref_stats, fast_stats)
    assert_executions_identical(ref_rt, fast_rt)
    ref_att, fast_att = ref_rt.attribution(), fast_rt.attribution()
    assert ref_att.as_dict() == fast_att.as_dict()
    fast_att.check()
    ref_trace, fast_trace = ref_rt.schedule_trace(), fast_rt.schedule_trace()
    assert ref_trace.total_spill_bytes == fast_trace.total_spill_bytes
    assert ref_trace.total_movement_cycles == fast_trace.total_movement_cycles
    assert ref_trace.makespan_cycles == fast_trace.makespan_cycles
    assert ref_trace.frequency_ghz == fast_trace.frequency_ghz
    assert ref_trace.homogeneous_cores == fast_trace.homogeneous_cores
    assert ref_trace.energy_constants == fast_trace.energy_constants
    assert ref_trace.flush_writeback_bytes == fast_trace.flush_writeback_bytes
    # The product's per-task energy triples (derived from its rows and the
    # graph arrays) equal the oracle's per-task memory events and re-key the
    # energy column bit for bit at the recorded constants -- the identity
    # every replay delta builds on.
    events = ref_rt.last_memory.events
    assert fast_trace.energy_triples() == [
        (e.flops, e.onchip_bytes, e.offchip_bytes) for e in events]
    assert (fast_trace.rekey_energy_j(*fast_trace.energy_constants)
            == ref_stats["energy_j"])
    return ref_stats


def wide_graph():
    """A tie-heavy graph: four tile factors, each fanning out to six solves
    that become ready together, and 24 independent updates.  On 8
    homogeneous cores many cores can start a task at the same cycle, so
    the core picks' tie rules decide: the output tile's owner first, then
    the first index, comparing ``max(free, ready)``."""
    tasks = []
    for r in range(4):
        root = len(tasks)
        tasks.append(TaskDescriptor(root, TaskKind.CHOLESKY, output=(r, r)))
        for j in range(6):
            tasks.append(TaskDescriptor(len(tasks), TaskKind.TRSM,
                                        output=(j, r), inputs=[(r, r)],
                                        depends_on=[root]))
    for j in range(24):
        tasks.append(TaskDescriptor(len(tasks), TaskKind.GEMM,
                                    output=(j % 6, 4),
                                    inputs=[(j % 4, 5), (5, j % 3)]))
    return TaskGraph(tasks)


# ------------------------------------------------- full workload x policy matrix
@pytest.mark.parametrize("algorithm", sorted(SIZES) + ["wide"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("local_store_kb", LEVELS)
def test_fast_matches_reference(algorithm, policy, local_store_kb):
    if algorithm == "wide":
        graph, num_cores = wide_graph(), 8
    else:
        graph = AlgorithmsByBlocks(TILE).build(algorithm, SIZES[algorithm])
        num_cores = 4
    ref_rt, fast_rt = (make_runtime(policy=policy, local_store_kb=local_store_kb,
                                    num_cores=num_cores) for _ in range(2))
    stats = assert_runs_identical(ref_rt, fast_rt, graph)
    # The constrained capacity must actually exercise the eviction machinery,
    # otherwise the matrix pins only the trivially-resident regime.
    assert stats["spill_bytes"] > 0


@pytest.mark.parametrize("algorithm", sorted(SIZES))
def test_verify_true_keeps_tiles_exact_and_identical(algorithm):
    """Memoized verify=True: the product charges every task from its
    per-group table and applies the NumPy update on each hit (QR's
    reflector scalars included); the oracle times each task by its own
    per-task signature.  Rows and every final tile agree exactly."""
    graph = AlgorithmsByBlocks(TILE).build(algorithm, SIZES[algorithm])
    ref_rt = make_runtime(local_store_kb=1.0)
    fast_rt = make_runtime(local_store_kb=1.0)
    ref_tiles, fast_tiles = make_tiles(), make_tiles()
    assert_runs_identical(ref_rt, fast_rt, graph, verify=True,
                          tiles=(ref_tiles, fast_tiles))
    assert ref_tiles.keys() == fast_tiles.keys()
    for name, ref in ref_tiles.items():
        assert ref.keys() == fast_tiles[name].keys()
        for coord, value in ref.items():
            assert np.array_equal(fast_tiles[name][coord], value), (name, coord)


def test_generic_fast_loop_variants_identical():
    """Heterogeneous clocks / prefetch overlap / functional timing each
    stay byte-identical to the oracle."""
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    for kwargs in ({"frequencies": [1.0, 2.0, 1.0, 2.0]},
                   {"stall_overlap": 0.5, "local_store_kb": 1.0},
                   {"timing": "functional", "on_chip_kb": None}):
        ref_rt = make_runtime(**kwargs)
        fast_rt = make_runtime(**kwargs)
        assert_runs_identical(ref_rt, fast_rt, graph)


@pytest.mark.parametrize("kwargs", [
    {"policy": "memory_aware", "local_store_kb": 1.0, "stall_overlap": 0.5},
    {"policy": "critical_path", "frequencies": [1.0, 2.0, 1.0, 2.0]},
    {"policy": "affinity"},
])
def test_post_loop_trace_matches_instrumented_oracle(kwargs):
    """The trace events built from the execution rows after the loop
    (spans, counters and idle gaps) equal the ones the oracle records
    inside its loop, in order, with the same keys and value types."""
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    ref_rt, fast_rt = make_runtime(**kwargs), make_runtime(**kwargs)
    ref_events = []
    reference_execute(ref_rt, graph, make_tiles(), verify=False,
                      trace=ref_events)
    fast_rt.execute(graph, make_tiles(), verify=False)
    assert (json.dumps(list(fast_rt.trace_events("LAP")))
            == json.dumps(ref_events))
    assert any(e.get("cat") == "idle" for e in ref_events)
    assert any(e["ph"] == "C" for e in ref_events)


def test_execute_accepts_plain_task_lists():
    """A plain list of descriptors and the same tasks as a TaskGraph give
    identical stats and executions."""
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    as_graph = make_runtime(policy="memory_aware", local_store_kb=1.0)
    as_list = make_runtime(policy="memory_aware", local_store_kb=1.0)
    graph_stats = as_graph.execute(graph, make_tiles(), verify=False)
    list_stats = as_list.execute(list(graph), make_tiles(), verify=False)
    assert_stats_identical(graph_stats, list_stats)
    assert_executions_identical(as_graph, as_list)


# ---------------------------------------------------------------- goldens
#: The committed PR-4 golden cases (kept in sync with
#: tests/test_lap_memory.py::GOLDEN_CASES); the runner must reproduce the
#: golden rows -- not merely match a fresh oracle run.
MEMORY_GOLDEN_CASES = [
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


def test_runner_fast_rows_match_memory_goldens(monkeypatch):
    """`lap_runtime` rows reproduce the committed golden sweep (and equal
    the rows of the oracle loop exactly, not just to tolerance)."""
    golden = json.loads(
        (GOLDEN_DIR / "runtime" / "lap_runtime_memory.json").read_text())
    runner = get_runner("lap_runtime")
    assert len(golden) == len(MEMORY_GOLDEN_CASES)
    fast_rows = [resimulated_row(case) for case in MEMORY_GOLDEN_CASES]
    monkeypatch.setattr(LAPRuntime, "execute", reference_execute)
    # The oracle warms every signature, so it always needs the real operand.
    monkeypatch.setattr(LAPRuntime, "_execute_shape_only",
                        lambda self, graph, n, verify: None)
    for case, fast_row, expected in zip(MEMORY_GOLDEN_CASES, fast_rows, golden):
        assert resimulated_row(case) == fast_row
        assert set(fast_row) == set(expected)
        for key, value in expected.items():
            if isinstance(value, float):
                assert fast_row[key] == pytest.approx(value, rel=1e-6,
                                                      abs=1e-15), key
            else:
                assert fast_row[key] == value, key


def test_runner_policy_golden_rows_survive_fast():
    """The PR-3 policy-comparison golden (makespans per policy/core count)
    is reproduced by the runner."""
    golden = json.loads((GOLDEN_DIR / "runtime_policies.json").read_text())
    for row in golden[:6]:
        fast_row = resimulated_row({
            "algorithm": "cholesky", "n": row["n"], "tile": row["tile"],
            "num_cores": row["num_cores"], "nr": 4, "seed": 0,
            "timing": "memoized", "verify": False, "policy": row["policy"]})
        assert fast_row["makespan_cycles"] == row["makespan_cycles"]
        assert fast_row["tasks_executed"] == row["tasks"]


# ------------------------------------------------ random graphs vs the oracle
#: Kinds random graphs draw from, with their input-tile counts: a 3-tile
#: update, a 1-tile factor and a 2-tile solve, whose footprints overlap
#: across the A/B/C/L operand names.
RANDOM_KINDS = {TaskKind.GEMM: 2, TaskKind.CHOLESKY: 0, TaskKind.TRSM: 1}
coords = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def random_graphs(draw):
    """A DAG of up to 24 tasks over a 3x3 tile grid, with shuffled task ids
    so that graph position, id order and tie-breaks all differ."""
    n = draw(st.integers(1, 24))
    ids = draw(st.permutations(range(n)))
    tasks = []
    for k in range(n):
        kind = draw(st.sampled_from(list(RANDOM_KINDS)))
        inputs = [draw(coords) for _ in range(RANDOM_KINDS[kind])]
        deps = draw(st.lists(st.integers(0, k - 1), max_size=3)) if k else []
        tasks.append(TaskDescriptor(
            ids[k], kind, output=draw(coords), inputs=inputs,
            depends_on=[ids[d] for d in deps]))
    return TaskGraph(tasks)


@given(graph=random_graphs(), policy=st.sampled_from(POLICIES),
       local_store_kb=st.sampled_from([None, 0.5, 1.0, 2.0]),
       on_chip_kb=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
       num_cores=st.sampled_from([1, 2, 3, 8]))
@settings(max_examples=200, deadline=None)
def test_loop_matches_oracle_on_random_graphs(graph, policy, local_store_kb,
                                              on_chip_kb, num_cores):
    """The scheduler loop is the only implementation of the residency and
    priority decisions, so it is pinned to the oracle on random graphs.  A
    tile is 0.5 KiB, so the capacities include 1 and 2 tiles, less than a
    GEMM's 3-tile footprint, where only the pin rule keeps a footprint
    resident.  The loop reads local membership only through the holder
    masks, so after a two-level run bit ``k`` of a tile's mask must be set
    exactly when core ``k``'s oracle store holds the tile; eight cores
    (``fine_cholesky``'s count) use every bit."""
    kwargs = dict(policy=policy, local_store_kb=local_store_kb,
                  on_chip_kb=on_chip_kb, num_cores=num_cores)
    ref_rt, fast_rt = make_runtime(**kwargs), make_runtime(**kwargs)
    assert_runs_identical(ref_rt, fast_rt, graph)
    if local_store_kb is None:
        return
    # Dense tile ids are first-seen positions over each task's reads+writes.
    names = list(dict.fromkeys(access for task in graph
                               for access in task.read_tiles() + task.write_tiles()))
    holders = fast_rt.last_memory.local_holders
    stores = ref_rt.last_memory.local_stores
    assert len(holders) == len(names)
    for tid, mask in enumerate(holders):
        assert mask >> num_cores == 0
        for k in range(num_cores):
            assert bool(mask >> k & 1) == stores[k].is_resident(names[tid])


# ----------------------------------------------------------------- replay
def _trace_header(**overrides):
    """Every header field of a `ScheduleTrace`, with overrides."""
    header = dict(stall_overlap=0.0, effective_bandwidth_gbs=16.0,
                  total_spill_bytes=0.0, total_movement_cycles=0.0,
                  makespan_cycles=100.0, frequency_ghz=1.0,
                  homogeneous_cores=True,
                  energy_constants=(1e-12, 2e-12, 60e-12),
                  flush_writeback_bytes=0.0)
    header.update(overrides)
    return header


def test_schedule_trace_payload_roundtrip():
    """The sidecar header round-trips everything `exact_for` depends on."""
    import json

    from repro.lap.replay import ScheduleTrace

    trace = ScheduleTrace(**_trace_header(stall_overlap=0.25,
                                          effective_bandwidth_gbs=12.5,
                                          total_spill_bytes=4096.0))
    payload = json.loads(json.dumps(trace.to_payload()))  # disk round-trip
    loaded = ScheduleTrace.from_payload(payload)
    assert loaded == trace
    assert loaded.to_payload() == trace.to_payload()
    # Each field is read back as its annotated type.
    coerced = ScheduleTrace.from_payload({**payload, "makespan_cycles": 100,
                                          "homogeneous_cores": 1,
                                          "energy_constants": [1, 2, 60]})
    assert type(coerced.makespan_cycles) is float
    assert coerced.homogeneous_cores is True
    assert coerced.energy_constants == (1.0, 2.0, 60.0)
    assert {type(value) for value in coerced.energy_constants} == {float}
    for bandwidth in (12.5, 64.0):
        for overlap in (0.25, 0.75):
            for epoff in (60e-12, 30e-12):
                assert (loaded.exact_for(bandwidth, overlap, 1.0, True, epoff)
                        == trace.exact_for(bandwidth, overlap, 1.0, True, epoff))


def test_schedule_trace_leaves_executions_unmaterialised():
    """Recording reads the loop's raw execution rows: neither
    `schedule_trace()` nor an energy re-key builds the runtime's
    `TaskExecution` records, and the triples still cover every task."""
    runtime = make_runtime(policy="memory_aware", local_store_kb=1.0)
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    stats = runtime.execute(graph, make_tiles(), verify=False)
    trace = runtime.schedule_trace()
    assert runtime._executions is None
    assert trace.rekey_energy_j(*trace.energy_constants) == stats["energy_j"]
    assert runtime._executions is None
    assert len(trace.energy_triples()) == len(runtime.executions) == len(graph)


def test_fastpath_reexports_the_replay_objects():
    """`perfbench/` binds `repro.lap.fastpath.ScheduleTrace` and
    `REPLAY_STATS` by name: they must be the product's replay objects, or
    the benchmark's replay spans and counts miss every product replay."""
    from repro.lap import fastpath, replay

    assert fastpath.ScheduleTrace is replay.ScheduleTrace
    assert fastpath.REPLAY_STATS is replay.REPLAY_STATS


def test_replay_delta_rows_equal_resimulation():
    """A bandwidth/overlap delta point replayed from a recorded schedule is
    byte-identical to re-simulating it, and replay refuses (re-simulates)
    when spills make the delta schedule-visible."""
    from repro.lap.replay import REPLAY_STATS

    runner = get_runner("lap_runtime")
    base = {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
            "nr": 4, "seed": 11, "timing": "memoized", "verify": False}
    # Unconstrained capacity: zero spill traffic, so a bandwidth delta is
    # provably schedule-invariant and must be replayed.
    runner(dict(base))  # records the trace
    before = dict(REPLAY_STATS)
    replayed = runner({**base, "bandwidth_gbs": 64.0})
    assert REPLAY_STATS["replayed"] == before["replayed"] + 1
    assert replayed == resimulated_row({**base, "bandwidth_gbs": 64.0})
    # Constrained capacity: spills couple bandwidth to the schedule, so the
    # delta must force a re-simulation, which equals a fresh one.
    tight = {**base, "seed": 12, "on_chip_kb": 4.0}
    first = runner(dict(tight))
    assert first["spill_bytes"] > 0
    before = dict(REPLAY_STATS)
    forced = runner({**tight, "bandwidth_gbs": 64.0})
    assert REPLAY_STATS["forced"] == before["forced"] + 1
    assert forced == resimulated_row({**tight, "bandwidth_gbs": 64.0})


def test_frequency_and_energy_replay_equal_resimulation():
    """Chip-clock and off-chip-energy delta points replayed from a recorded
    schedule are byte-identical (keys, order, values, types) to
    re-simulating them, across non-greedy policies and both hierarchies --
    including the re-keyed makespan_ns / energy_j / gflops_per_w columns."""
    from repro.lap.replay import REPLAY_STATS

    runner = get_runner("lap_runtime")
    for policy, local_store_kb in (("memory_aware", None), ("affinity", 1.0)):
        base = {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
                "nr": 4, "seed": 21, "timing": "memoized", "verify": False,
                "policy": policy}
        if local_store_kb is not None:
            base["local_store_kb"] = local_store_kb
        for delta in ({"frequency_ghz": 2.0},
                      {"offchip_pj_per_byte": 30.0},
                      {"frequency_ghz": 0.5, "offchip_pj_per_byte": 120.0,
                       "bandwidth_gbs": 64.0}):
            resimulated_row(base)  # records the trace
            before = dict(REPLAY_STATS)
            replayed = runner({**base, **delta})
            assert REPLAY_STATS["replayed"] == before["replayed"] + 1, delta
            resim = resimulated_row({**base, **delta})
            assert list(replayed) == list(resim), delta
            for key in resim:
                assert type(replayed[key]) is type(resim[key]), (delta, key)
                assert replayed[key] == resim[key], (delta, key)


def test_frequency_replay_rejections_force_resimulation():
    """Heterogeneous clocks and spill-coupled stalls both disqualify the
    frequency axis; the forced re-simulation still matches a fresh one."""
    from repro.lap.replay import REPLAY_STATS

    runner = get_runner("lap_runtime")
    base = {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
            "nr": 4, "seed": 27, "timing": "memoized", "verify": False}
    # Heterogeneous per-core clocks (either side) reject the delta.
    het = {**base, "core_frequencies_ghz": "1.0:2.0"}
    runner(dict(het))
    before = dict(REPLAY_STATS)
    forced = runner({**het, "frequency_ghz": 2.0})
    assert REPLAY_STATS["forced"] == before["forced"] + 1
    assert forced == resimulated_row({**het, "frequency_ghz": 2.0})
    # Spill traffic enters the cycle domain through clock-dependent stalls.
    tight = {**base, "seed": 28, "on_chip_kb": 4.0}
    first = runner(dict(tight))
    assert first["spill_bytes"] > 0
    before = dict(REPLAY_STATS)
    forced = runner({**tight, "frequency_ghz": 2.0})
    assert REPLAY_STATS["forced"] == before["forced"] + 1
    assert forced == resimulated_row({**tight, "frequency_ghz": 2.0})


def test_exact_for_energy_and_frequency_gates():
    """`exact_for` widens only with full provenance: an energy-constant
    delta needs the recorded constants plus per-task triples, a frequency
    delta a homogeneous recorded clock; header-only round trips (which drop
    the triples) reject every re-keying delta, and a header missing any
    field does not load at all."""
    from repro.lap.replay import ScheduleTrace

    triples = [(10.0, 100.0, 50.0)]
    full = ScheduleTrace(**_trace_header(flush_writeback_bytes=64.0),
                         triples=lambda: triples)
    # Unchanged constants replay without re-keying; a changed off-chip
    # constant or clock is exact only because the triples allow re-keying.
    assert full.exact_for(16.0, 0.0, 1.0, True, 60e-12)
    assert full.exact_for(16.0, 0.0, 1.0, True, 30e-12)
    assert full.exact_for(16.0, 0.0, 2.0, True, 60e-12)
    assert full.rekey_energy_j(2e-12, 1e-12, 30e-12) == (
        (10.0 * 2e-12 + 100.0 * 1e-12) + 50.0 * 30e-12 + 64.0 * 30e-12)
    # Heterogeneity on either side rejects the frequency axis.
    assert not full.exact_for(16.0, 0.0, 2.0, False, 60e-12)
    het = ScheduleTrace(**_trace_header(homogeneous_cores=False),
                        triples=lambda: triples)
    assert not het.exact_for(16.0, 0.0, 2.0, True, 60e-12)
    # The sidecar header drops the triples: the same deltas now reject,
    # re-keying raises, and the unchanged point still replays.
    header = ScheduleTrace.from_payload(full.to_payload())
    assert not header.has_energy_triples
    assert header.exact_for(16.0, 0.0, 1.0, True, 60e-12)
    assert not header.exact_for(16.0, 0.0, 1.0, True, 30e-12)
    assert not header.exact_for(16.0, 0.0, 2.0, True, 60e-12)
    with pytest.raises(ValueError):
        header.rekey_energy_j(1e-12, 2e-12, 60e-12)
    # A sidecar record missing any field raises in from_payload, which the
    # sidecar loader treats as a miss: the point re-simulates.
    payload = full.to_payload()
    for field in payload:
        with pytest.raises(KeyError):
            ScheduleTrace.from_payload(
                {k: v for k, v in payload.items() if k != field})
