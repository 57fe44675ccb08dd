"""Tests for the LAP-runtime, blocked-factorization and analytical runners.

The LAP-runtime and blocked-factorization runner families drive the
cycle-level simulators, so the core property checked here is that their
jobs round-trip through the serial and the parallel executors with
identical results, and that every row is functionally verified (small
residual against the numpy reference).
"""

import json
import math
import os
import pathlib
import re

import pytest

from repro.engine import (HEAVY_RUNNERS, KNOWN_PARAMS, PARETO_OBJECTIVES,
                          ResultCache, SweepSpec, execute_jobs, get_runner,
                          runner_names)
from repro.engine.runners import DELTA_PARAMS, _REPLAY_MEMO, configure_worker
from repro.engine.spec import Job
from repro.lap.replay import REPLAY_STATS
from scheduler_oracle import resimulated_row

NEW_RUNNERS = ("chip_gemm_onchip", "blas", "fact_kernel", "lap_runtime",
               "blocked_fact")


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_new_runners_registered(self):
        names = runner_names()
        for name in NEW_RUNNERS:
            assert name in names
            assert name in KNOWN_PARAMS
            assert name in PARETO_OBJECTIVES

    def test_simulator_backed_runners_are_heavy(self):
        assert "lap_runtime" in HEAVY_RUNNERS
        assert "blocked_fact" in HEAVY_RUNNERS
        # The analytical models must stay serial under mode="auto".
        assert "blas" not in HEAVY_RUNNERS
        assert "fact_kernel" not in HEAVY_RUNNERS
        assert "chip_gemm_onchip" not in HEAVY_RUNNERS


class _ReadNames(dict):
    """Job parameters that record each name a runner reads through ``get``
    or ``[]`` (not ``items()``, which the replay key iterates)."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("runner", runner_names())
def test_known_params_are_the_names_each_runner_reads(runner):
    """``KNOWN_PARAMS``, from which ``repro sweep`` and ``repro trace`` warn
    about unused parameters, lists exactly what a default job reads."""
    assert set(KNOWN_PARAMS) == set(runner_names())
    params = _ReadNames()
    get_runner(runner)(params)
    assert params.read == KNOWN_PARAMS[runner]


#: Each runner's integer parameters (``pe`` has none).
INTEGER_PARAMS = {
    "design": ("cores", "nr"),
    "simulate": ("size", "nr", "seed"),
    "chip_gemm": ("num_cores", "nr", "n"),
    "chip_gemm_onchip": ("num_cores", "nr", "n", "kc", "mc"),
    "core_gemm": ("nr", "n", "kc", "mc"),
    "blas": ("nr", "n", "kc", "mc"),
    "fact_kernel": ("k", "nr"),
    "lap_runtime": ("n", "tile", "num_cores", "nr", "seed"),
    "blocked_fact": ("n", "nr", "seed"),
}


@pytest.mark.parametrize("runner, name", [
    (runner, name) for runner, names in INTEGER_PARAMS.items()
    for name in names])
def test_integer_parameters_are_checked_not_truncated(runner, name):
    """Bugfix: a bare ``int()`` ran ``n=32.5`` as the n=32 point, and an
    infinite value raised an error that named no parameter."""
    for value in (4.5, float("inf"), float("nan"), "4.5", None):
        with pytest.raises(ValueError, match=(
                f"parameter '{name}' must be an integer, got "
                f"{re.escape(repr(value))}$")):
            get_runner(runner)({name: value})


def test_integral_values_convert_as_before():
    """Every value a bare ``int()`` converted without loss still gives the
    same point: an integral float, a numeric string, a bool."""
    base = {"algorithm": "cholesky", "n": 32, "tile": 8, "num_cores": 2,
            "timing": "memoized", "verify": False}
    row = get_runner("lap_runtime")(dict(base))
    for n, tile, cores in ((32.0, 8.0, 2.0), ("32", "8", " 2 ")):
        assert get_runner("lap_runtime")(
            {**base, "n": n, "tile": tile, "num_cores": cores}) == row
    design = get_runner("design")
    assert design({"cores": 8.0, "nr": "4"}) == design({"cores": 8, "nr": 4})
    assert design({"cores": True}) == design({"cores": 1})


#: Each runner's real parameters.
REAL_PARAMS = {
    "design": ("frequency_ghz", "local_store_kbytes", "onchip_mbytes",
               "utilization"),
    "pe": ("frequency_ghz", "local_store_kbytes"),
    "simulate": ("frequency_ghz",),
    "chip_gemm": ("offchip_bw_bytes_per_cycle", "frequency_ghz"),
    "chip_gemm_onchip": ("frequency_ghz", "onchip_bw_words_per_cycle"),
    "core_gemm": ("bandwidth_bytes_per_cycle",),
    "blas": ("bandwidth_bytes_per_cycle",),
    "fact_kernel": ("frequency_ghz", "local_store_kbytes"),
    "lap_runtime": ("onchip_mbytes", "on_chip_kb", "bandwidth_gbs",
                    "local_store_kb", "stall_overlap", "frequency_ghz",
                    "offchip_pj_per_byte", "core_frequencies_ghz"),
    "blocked_fact": ("frequency_ghz",),
}


@pytest.mark.parametrize("runner, name", [
    (runner, name) for runner, names in REAL_PARAMS.items()
    for name in names] + [
    (runner, "seed") for runner in ("simulate", "lap_runtime", "blocked_fact")])
def test_real_and_seed_parameters_are_checked_by_name(runner, name):
    """Bugfix: ``bandwidth_gbs=16GB`` failed with ``could not convert
    string to float: '16GB'`` and ``seed=-1`` with NumPy's ``expected
    non-negative integer``, naming no parameter."""
    if name == "seed":
        cases = [(-1, "a non-negative integer, got -1")]
    else:
        cases = [(value, f"a number, got {value!r}")
                 for value in ("16GB", "abc", {})]
    for value, expected in cases:
        with pytest.raises(ValueError, match=re.escape(
                f"parameter '{name}' must be {expected}")):
            get_runner(runner)({name: value})


def test_real_values_convert_as_before():
    """Every value a bare ``float()`` converted still gives the same point:
    an integer, a numeric string, a bool, and each clock of a delimited
    ``core_frequencies_ghz``."""
    design = get_runner("design")
    assert design({"frequency_ghz": "1", "utilization": True}) == design(
        {"frequency_ghz": 1.0, "utilization": 1.0})
    base = {"algorithm": "cholesky", "n": 32, "tile": 8, "num_cores": 2,
            "timing": "memoized", "verify": False}
    row = get_runner("lap_runtime")(
        {**base, "on_chip_kb": 4.0, "core_frequencies_ghz": [1.0, 2.0]})
    assert get_runner("lap_runtime")(
        {**base, "on_chip_kb": "4", "core_frequencies_ghz": "1:2"}) == row


# ------------------------------------------------------- analytical runners
class TestChipGemmOnchip:
    def test_matches_model_with_required_bandwidth(self):
        from repro.models.chip_model import ChipGEMMModel

        row = get_runner("chip_gemm_onchip")(
            {"num_cores": 8, "nr": 4, "n": 1024, "kc": 128, "full_overlap": True})
        model = ChipGEMMModel(num_cores=8, nr=4)
        bw = model.onchip_bandwidth_words_per_cycle(128, 128, 1024, True)
        res = model.cycles_onchip(128, 128, 1024, bw, True)
        assert row["onchip_bw_words_per_cycle"] == pytest.approx(bw)
        assert row["total_cycles"] == pytest.approx(res.total_cycles)
        assert row["utilization"] == pytest.approx(res.utilization)

    def test_explicit_bandwidth_limits_utilization(self):
        runner = get_runner("chip_gemm_onchip")
        starved = runner({"num_cores": 8, "nr": 4, "n": 1024, "kc": 128,
                          "onchip_bw_words_per_cycle": 0.5})
        fed = runner({"num_cores": 8, "nr": 4, "n": 1024, "kc": 128})
        assert starved["utilization"] < fed["utilization"]


class TestBlasRunner:
    def test_matches_model(self):
        from repro.models.blas_model import BlasCoreModel, Level3Operation

        row = get_runner("blas")({"operation": "syrk", "nr": 4, "kc": 96,
                                  "n": 512, "bandwidth_bytes_per_cycle": 2})
        res = BlasCoreModel(nr=4).utilization(
            Level3Operation.SYRK, mc=96, kc=96, n=512,
            bandwidth_elements_per_cycle=2 / 8.0)
        assert row["utilization"] == pytest.approx(res.utilization)
        assert row["local_store_kbytes_per_pe"] == pytest.approx(
            res.local_store_kbytes_per_pe)

    def test_unknown_operation_raises(self):
        with pytest.raises(ValueError):
            get_runner("blas")({"operation": "gemv"})


class TestFactKernelRunner:
    def test_matches_model_and_derives_core_area(self):
        from repro.arch.lap_design import build_pe
        from repro.hw.fpu import Precision
        from repro.hw.sfu import SFUPlacement
        from repro.models.fact_model import (FactorizationKernel,
                                             FactorizationKernelModel,
                                             MACExtension)

        row = get_runner("fact_kernel")({"kernel": "lu", "k": 128, "nr": 4,
                                         "sfu": "diag",
                                         "mac_extension": "comparator"})
        model = FactorizationKernelModel(nr=4)
        res = model.evaluate(FactorizationKernel.LU, 128, SFUPlacement.DIAGONAL,
                             MACExtension.COMPARATOR)
        core_area = 16 * build_pe(Precision.DOUBLE, 1.0, 16.0).area_mm2
        eff = model.efficiency(res, core_area)
        assert row["cycles"] == pytest.approx(res.cycles)
        assert row["core_area_mm2"] == pytest.approx(core_area)
        assert row["gflops_per_w"] == pytest.approx(eff.gflops_per_watt)
        assert row["gflops_per_mm2"] == pytest.approx(eff.gflops_per_mm2)

    def test_extension_helps_vector_norm(self):
        runner = get_runner("fact_kernel")
        base = runner({"kernel": "vnorm", "k": 256, "mac_extension": "none"})
        extended = runner({"kernel": "vnorm", "k": 256,
                           "mac_extension": "exponent"})
        assert extended["cycles"] < base["cycles"]


# ------------------------------------------------------- simulator runners
class TestLapRuntimeRunner:
    def test_gemm_row_is_verified_and_balanced(self):
        row = get_runner("lap_runtime")({"algorithm": "gemm", "n": 16,
                                         "tile": 8, "num_cores": 2, "nr": 4,
                                         "seed": 3})
        assert row["tasks_executed"] == 8
        assert row["residual"] < 1e-9
        assert 0.0 < row["parallel_efficiency"] <= 1.0
        assert row["makespan_cycles"] >= row["max_core_busy_cycles"]
        assert row["static_load_balance"] == pytest.approx(1.0)

    def test_cholesky_row_is_verified(self):
        row = get_runner("lap_runtime")({"algorithm": "cholesky", "n": 12,
                                         "tile": 4, "num_cores": 2, "nr": 4,
                                         "seed": 3})
        assert row["tasks_executed"] == 10
        assert row["residual"] < 1e-6
        # The static GEMM panel distribution does not describe a
        # factorization's task graph, so the metric must be null here.
        assert row["static_load_balance"] is None

    @pytest.mark.parametrize("algorithm", ["lu", "qr"])
    def test_lu_and_qr_rows_are_verified(self, algorithm):
        row = get_runner("lap_runtime")({"algorithm": algorithm, "n": 16,
                                         "tile": 8, "num_cores": 2, "nr": 4,
                                         "seed": 3})
        assert row["residual"] < 1e-10
        assert row["makespan_cycles"] > 0
        assert row["critical_path_tasks"] >= 1
        assert row["graph_width"] >= 1
        assert row["static_load_balance"] is None

    @pytest.mark.parametrize("policy", ["greedy", "critical_path", "locality",
                                        "memory_aware"])
    def test_policy_rows_schedule_and_verify(self, policy):
        row = get_runner("lap_runtime")({"algorithm": "cholesky", "n": 16,
                                         "tile": 4, "num_cores": 2, "nr": 4,
                                         "seed": 3, "policy": policy,
                                         "timing": "memoized"})
        assert row["policy"] == policy and row["timing"] == "memoized"
        assert row["residual"] < 1e-8

    def test_memoized_unverified_row_matches_functional_makespan(self):
        runner = get_runner("lap_runtime")
        base = {"algorithm": "cholesky", "n": 16, "tile": 4, "num_cores": 2,
                "seed": 3}
        functional = runner(dict(base))
        memoized = runner({**base, "timing": "memoized", "verify": False})
        assert memoized["makespan_cycles"] == functional["makespan_cycles"]
        assert memoized["residual"] is None

    def test_heterogeneous_core_frequencies(self):
        runner = get_runner("lap_runtime")
        base = {"algorithm": "cholesky", "n": 16, "tile": 4, "num_cores": 2,
                "seed": 3}
        homo = runner(dict(base))
        hetero = runner({**base, "core_frequencies_ghz": "1.0,2.0"})
        assert hetero["core_frequencies_ghz"] == "1,2"
        assert hetero["makespan_cycles"] < homo["makespan_cycles"]
        # The colon form (CLI-friendly: commas split sweep axes) and a real
        # sequence parse to the same clocks; a single value is homogeneous.
        colon = runner({**base, "core_frequencies_ghz": "1.0:2.0"})
        listed = runner({**base, "core_frequencies_ghz": (1.0, 2.0)})
        assert colon == hetero == listed
        single = runner({**base, "core_frequencies_ghz": "1.0"})
        assert single["core_frequencies_ghz"] == "1,1"
        assert single["makespan_cycles"] == homo["makespan_cycles"]

    def test_memory_axes_constrain_the_schedule(self):
        """The on_chip_kb / bandwidth_gbs axes drive spills and stalls."""
        runner = get_runner("lap_runtime")
        base = {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
                "seed": 0, "timing": "memoized", "verify": False}
        free = runner(dict(base))
        tight = runner({**base, "on_chip_kb": 4.0, "bandwidth_gbs": 16.0})
        assert free["spill_bytes"] == 0 and free["stall_cycles"] == 0.0
        assert tight["spill_bytes"] > 0 and tight["stall_cycles"] > 0.0
        assert tight["traffic_bytes"] > free["traffic_bytes"]
        assert tight["on_chip_kb"] == 4.0 and tight["bandwidth_gbs"] == 16.0
        assert tight["gflops_per_w"] < free["gflops_per_w"]
        aware = runner({**base, "on_chip_kb": 4.0, "bandwidth_gbs": 16.0,
                        "policy": "memory_aware"})
        assert aware["traffic_bytes"] < tight["traffic_bytes"]

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="lap_runtime algorithm"):
            get_runner("lap_runtime")({"algorithm": "svd"})

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            get_runner("lap_runtime")({"algorithm": "gemm", "policy": "random"})

    def test_is_deterministic(self):
        params = {"algorithm": "gemm", "n": 16, "tile": 8, "num_cores": 2,
                  "seed": 11}
        runner = get_runner("lap_runtime")
        assert runner(dict(params)) == runner(dict(params))


#: A point without spill or movement cycles: every bandwidth, overlap and
#: off-chip energy delta of it replays.
REPLAY_BASE = {"algorithm": "cholesky", "n": 32, "tile": 8, "seed": 0,
               "timing": "memoized", "verify": False}

#: Delta values a simulation rejects.
INVALID_DELTAS = [("bandwidth_gbs", -5.0), ("bandwidth_gbs", 0.0),
                  ("stall_overlap", 2.5), ("stall_overlap", -0.5),
                  ("offchip_pj_per_byte", math.inf)]


class TestReplayChecksThePoint:
    """Schedule replay serves only points a simulation accepts: an invalid
    delta after a recorded valid point raises what it raises alone."""

    @pytest.fixture(autouse=True)
    def no_recordings(self):
        configure_worker(None)
        _REPLAY_MEMO.clear()
        yield
        configure_worker(None)
        _REPLAY_MEMO.clear()

    @staticmethod
    def raised(params):
        with pytest.raises(ValueError) as info:
            get_runner("lap_runtime")(params)
        return str(info.value)

    @pytest.mark.parametrize("name, value", INVALID_DELTAS)
    def test_after_a_point_recorded_in_process(self, name, value):
        point = {**REPLAY_BASE, name: value}
        alone = self.raised(point)
        get_runner("lap_runtime")(dict(REPLAY_BASE))
        assert self.raised(point) == alone

    # An off-chip energy delta needs the per-task energy triples, which a
    # replay record does not keep, so it re-simulates after a record.
    @pytest.mark.parametrize("name, value", INVALID_DELTAS[:4])
    def test_after_a_point_recorded_in_the_cache(self, name, value, tmp_path):
        point = {**REPLAY_BASE, name: value}
        alone = self.raised(point)
        cache = ResultCache(tmp_path, code_version="v1")
        execute_jobs([Job.create("lap_runtime", REPLAY_BASE)], mode="serial",
                     cache=cache)
        assert len(cache) == 2  # the row and its replay record
        _REPLAY_MEMO.clear()  # a later process reads the record
        configure_worker(cache.config())
        assert self.raised(point) == alone


#: A second valid value of every ``lap_runtime`` parameter outside
#: DELTA_PARAMS, except ``memory``, which accepts only true.
STRUCTURAL_CHANGES = {
    "algorithm": "lu", "n": 48, "tile": 16, "num_cores": 3, "nr": 2,
    "onchip_mbytes": 2.0, "seed": 1, "policy": "critical_path",
    "timing": "functional", "verify": True,
    "core_frequencies_ghz": "1.0:2.0", "on_chip_kb": 4.0,
    "local_store_kb": 1.0}


class TestReplayKey:
    """A job's replay key is its parameters minus DELTA_PARAMS: a change
    in any other parameter re-simulates, and a delta alone replays."""

    @pytest.fixture(autouse=True)
    def no_recordings(self):
        configure_worker(None)
        _REPLAY_MEMO.clear()
        yield
        configure_worker(None)
        _REPLAY_MEMO.clear()

    def test_every_other_runner_parameter_is_structural(self):
        assert DELTA_PARAMS <= KNOWN_PARAMS["lap_runtime"]
        assert set(STRUCTURAL_CHANGES) == (
            KNOWN_PARAMS["lap_runtime"] - DELTA_PARAMS - {"memory"})

    @pytest.mark.parametrize("name", sorted(STRUCTURAL_CHANGES))
    def test_a_structural_change_resimulates(self, name):
        point = {**REPLAY_BASE, name: STRUCTURAL_CHANGES[name]}
        get_runner("lap_runtime")(dict(REPLAY_BASE))
        replayed = REPLAY_STATS["replayed"]
        row = get_runner("lap_runtime")(dict(point))
        assert REPLAY_STATS["replayed"] == replayed
        assert row == resimulated_row(point)

    # perfbench passes ``fast=1``, which the runner ignores.
    @pytest.mark.parametrize("ignored", [{}, {"fast": 1}])
    @pytest.mark.parametrize("name, value", [
        ("bandwidth_gbs", 64.0), ("stall_overlap", 0.5),
        ("frequency_ghz", 1.4), ("offchip_pj_per_byte", 30.0)])
    def test_a_delta_alone_replays(self, name, value, ignored):
        base = {**REPLAY_BASE, **ignored}
        point = {**base, name: value}
        get_runner("lap_runtime")(dict(base))
        replayed = REPLAY_STATS["replayed"]
        row = get_runner("lap_runtime")(dict(point))
        assert REPLAY_STATS["replayed"] == replayed + 1
        # Equal values in the same column order.
        assert list(row.items()) == list(resimulated_row(point).items())


class TestBlockedFactRunner:
    @pytest.mark.parametrize("method", ["cholesky", "lu", "qr"])
    def test_factorization_is_verified(self, method):
        row = get_runner("blocked_fact")({"method": method, "n": 8, "nr": 4,
                                          "seed": 1})
        assert row["residual"] < 1e-8
        assert row["cycles"] > 0
        assert row["model_panel_cycles"] > 0
        assert 0.0 < row["utilization"] <= 1.0

    def test_comparator_extension_saves_lu_cycles(self):
        runner = get_runner("blocked_fact")
        with_ext = runner({"method": "lu", "n": 8, "seed": 0,
                           "use_extension": True})
        without = runner({"method": "lu", "n": 8, "seed": 0,
                          "use_extension": False})
        assert with_ext["cycles"] < without["cycles"]
        assert with_ext["residual"] < 1e-9 and without["residual"] < 1e-9

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="blocked_fact method"):
            get_runner("blocked_fact")({"method": "svd"})


# ---------------------------------------------------- executor round-trips
def _new_runner_jobs():
    """A mixed job list touching both new simulator runner families."""
    jobs = (SweepSpec()
            .constants(tile=8, num_cores=2, nr=4, seed=0)
            .grid(algorithm=("gemm",), n=(16, 24))
            .jobs("lap_runtime"))
    jobs += (SweepSpec()
             .constants(algorithm="cholesky", tile=4, num_cores=2, nr=4, seed=0)
             .grid(n=(8, 12))
             .jobs("lap_runtime"))
    jobs += (SweepSpec()
             .constants(tile=8, num_cores=2, nr=4, seed=0, n=16,
                        timing="memoized")
             .grid(algorithm=("lu", "qr"),
                   policy=("critical_path", "locality"))
             .jobs("lap_runtime"))
    jobs += (SweepSpec()
             .constants(nr=4, seed=0)
             .grid(method=("cholesky", "lu", "qr"), n=(8,))
             .jobs("blocked_fact"))
    return jobs


def test_serial_and_process_rows_identical():
    """Acceptance: new runner families round-trip through every executor."""
    jobs = _new_runner_jobs()
    serial = execute_jobs(jobs, mode="serial")
    process = execute_jobs(jobs, mode="process", max_workers=2, batch_size=2)
    assert json.dumps(serial.rows, sort_keys=True) == \
        json.dumps(process.rows, sort_keys=True)


def test_new_runners_cache_roundtrip(tmp_path):
    from repro.engine.cache import ResultCache

    jobs = _new_runner_jobs()
    cache = ResultCache(tmp_path, code_version="v1")
    cold = execute_jobs(jobs, mode="serial", cache=cache)
    warm = execute_jobs(jobs, mode="serial", cache=cache)
    assert cold.executed == len(jobs)
    assert warm.executed == 0 and warm.cached == len(jobs)
    assert json.dumps(cold.rows) == json.dumps(warm.rows)


def test_auto_mode_picks_pool_for_new_heavy_runners():
    from repro.engine.executor import SweepExecutor

    jobs = [Job.create("lap_runtime", {"algorithm": "gemm", "n": 16, "tile": 8,
                                       "num_cores": 2, "seed": s})
            for s in range(3)]
    executor = SweepExecutor(mode="auto")
    mode = executor._resolve_mode([(i, j) for i, j in enumerate(jobs)], workers=4)
    assert mode == "process"


def test_auto_mode_sizes_the_pool_from_cpu_affinity(monkeypatch):
    """A process allowed one CPU gets one worker, so a heavy two-job sweep
    runs serially in it however many CPUs the host has."""
    from repro.engine.executor import SweepExecutor

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    jobs = [Job.create("lap_runtime", {"seed": seed}) for seed in range(2)]
    executor = SweepExecutor(mode="auto")
    assert executor._resolve_workers() == 1
    assert execute_jobs(jobs, mode="auto").mode == "serial"


# ------------------------------------------------ simulator runner golden
SIMULATOR_GOLDEN = (pathlib.Path(__file__).resolve().parent / "goldens"
                    / "runtime" / "simulator_runners.json")


def _simulator_runner_jobs():
    """The ``simulate`` sweep over every kernel and the ``blocked_fact``
    sweep over every method, at sizes 8-64 on 2x2 and 4x4 cores (96 jobs,
    the same grids as ``repro sweep --runner simulate --grid
    kernel=gemm,syrk,trsm,cholesky,lu,fft --grid size=8,16,32,64 --grid
    nr=2,4`` and ``repro sweep --runner blocked_fact --grid
    method=cholesky,lu,qr --grid n=8,16,32,64 --grid nr=2,4 --grid
    use_extension=0,1``)."""
    jobs = (SweepSpec()
            .grid(kernel=("gemm", "syrk", "trsm", "cholesky", "lu", "fft"),
                  size=(8, 16, 32, 64), nr=(2, 4))
            .jobs("simulate"))
    jobs += (SweepSpec()
             .grid(method=("cholesky", "lu", "qr"), n=(8, 16, 32, 64),
                   nr=(2, 4), use_extension=(0, 1))
             .jobs("blocked_fact"))
    return jobs


def test_simulator_runner_rows_match_golden():
    """Every ``simulate`` and ``blocked_fact`` row is pinned exactly, float
    columns (utilisation, GFLOPS, residuals) included.  Regenerate only for
    an intended change, with ``REPRO_UPDATE_GOLDENS=1``."""
    rows = [get_runner(job.runner)(job.params_dict) for job in
            _simulator_runner_jobs()]
    text = json.dumps(rows, indent=1, sort_keys=True) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        SIMULATOR_GOLDEN.write_text(text)
        pytest.skip("golden regenerated")
    assert len(rows) == 96
    assert text == SIMULATOR_GOLDEN.read_text()
