"""Adapters turning the repo's evaluation code paths into engine runners.

A *runner* is a pure, picklable function ``params_dict -> row_dict``; the
executor looks runners up by name so that jobs can be shipped to worker
processes without serialising code.  The adapters cover every evaluation
code path the paper figures sweep:

``design``
    chip-level area/power/efficiency of a LAP design point (``build_lap``),
``pe``
    one processing element across frequency / precision / local store,
``simulate``
    a kernel run on the cycle-level LAC simulator with seeded operands,
``chip_gemm``
    the analytical multi-core GEMM model with off-chip transfers
    (cores x bandwidth x problem size),
``chip_gemm_onchip``
    the on-chip side of the same model: one ``C += A_p B_p`` update under a
    given (or the required) aggregate on-chip bandwidth (Figs. 4.2/4.3),
``core_gemm``
    the analytical single-core GEMM model (local store x bandwidth),
``blas``
    the level-3 BLAS utilisation model (GEMM/TRSM/SYRK/SYR2K/...;
    Figs. 5.8-5.10),
``fact_kernel``
    the analytical factorization inner-kernel cycle/energy model across
    SFU placements and MAC extensions (Figs. 6.6/6.7, A.3-A.8),
``lap_runtime``
    a blocked GEMM / Cholesky / LU / QR task graph scheduled by the LAP
    runtime onto the cycle-level multi-core simulator (block sizes x core
    counts x scheduling policies x timing models),
``blocked_fact``
    a full blocked Cholesky/LU/QR factorization on the cycle-level LAC
    simulator, cross-checked against the analytical panel model.

Rows contain only JSON-serialisable scalars so results cache cleanly and
compare byte-identically across serial and process execution.
``lap_runtime`` also files schedule replay records in the result cache
(see :func:`configure_worker`), each under its job's parameters minus
:data:`DELTA_PARAMS`.
"""

from __future__ import annotations

import json
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Tuple)

from repro.engine.analysis import DEFAULT_OBJECTIVES
from repro.engine.spec import Params
from repro.lap.taskgraph import BoundedCache

#: Runners that do enough work per job for a process pool to pay off; the
#: analytical models run in microseconds and stay serial under mode="auto".
HEAVY_RUNNERS = frozenset({"simulate", "lap_runtime", "blocked_fact"})

#: Parameters each runner understands; anything else in a job's params is
#: silently unused, so the CLI warns when a sweep axis is not listed here.
KNOWN_PARAMS: Dict[str, frozenset] = {
    "design": frozenset({"cores", "nr", "precision", "frequency_ghz",
                         "local_store_kbytes", "onchip_mbytes", "utilization"}),
    "pe": frozenset({"precision", "frequency_ghz", "local_store_kbytes"}),
    "simulate": frozenset({"kernel", "size", "nr", "frequency_ghz", "seed"}),
    "chip_gemm": frozenset({"num_cores", "nr", "n", "offchip_bw_bytes_per_cycle",
                            "frequency_ghz"}),
    "chip_gemm_onchip": frozenset({"num_cores", "nr", "n", "kc", "mc",
                                   "onchip_bw_words_per_cycle", "full_overlap",
                                   "frequency_ghz"}),
    "core_gemm": frozenset({"nr", "n", "kc", "mc", "bandwidth_bytes_per_cycle"}),
    "blas": frozenset({"operation", "nr", "n", "kc", "mc",
                       "bandwidth_bytes_per_cycle", "full_overlap"}),
    "fact_kernel": frozenset({"kernel", "k", "nr", "sfu", "mac_extension",
                              "precision", "frequency_ghz", "local_store_kbytes"}),
    "lap_runtime": frozenset({"algorithm", "n", "tile", "num_cores", "nr",
                              "onchip_mbytes", "seed", "policy", "timing",
                              "verify", "core_frequencies_ghz", "memory",
                              "on_chip_kb", "bandwidth_gbs", "local_store_kb",
                              "stall_overlap", "frequency_ghz",
                              "offchip_pj_per_byte"}),
    "blocked_fact": frozenset({"method", "n", "nr", "seed", "use_extension",
                               "frequency_ghz"}),
}

#: ``lap_runtime`` parameters a delta point may change around a recorded
#: schedule (see :mod:`repro.lap.replay`).  A job's replay key is the
#: sorted JSON of its other parameters, so any other parameter, known to
#: the runner or not, keeps two jobs' schedules apart.
DELTA_PARAMS = frozenset({"bandwidth_gbs", "stall_overlap", "frequency_ghz",
                          "offchip_pj_per_byte"})

#: Gated ``lap_runtime`` columns: each appears only when its parameter is
#: set, right after the column it is filed under here.
_GATED_AFTER = {"core_frequencies_ghz": "frequency_ghz",
                "memory": "stall_overlap",
                "bandwidth_gbs": "offchip_pj_per_byte"}


#: Bound on the memoized schedules together, in tasks.  A fresh recording
#: keeps its execution rows alive for the energy re-key: tracemalloc
#: measured 359 bytes per task (Cholesky 2048^2, tile 32, ``memory_aware``)
#: and 443-455 with local stores, whose rows hold more distinct floats.
#: Each entry also keeps its row dict, trace header, closure and key: 2,520
#: to 3,624 bytes for a 1-task schedule (a row with every optional column
#: the most), so it is charged :data:`REPLAY_MEMO_ENTRY_TASKS` tasks more
#: than it ran.  At 488 bytes per charged task (8 of them are 3,904
#: bytes), 550,000 keep the memo under 256 MiB, the graph cache's budget,
#: however small its schedules.
REPLAY_MEMO_TASKS = 550_000
REPLAY_MEMO_ENTRY_TASKS = 8


def _memo_charge(recorded: tuple) -> int:
    """Tasks a memo entry is charged: its schedule's plus the fixed cost.
    An entry loaded from a replay record, which holds no rows, is charged
    the same."""
    return recorded[1]["tasks_executed"] + REPLAY_MEMO_ENTRY_TASKS


#: Per-process memo of recorded schedules for ``lap_runtime`` schedule
#: replay: replay key (see :data:`DELTA_PARAMS`) -> (ScheduleTrace, fresh
#: row without its gated columns), bounded by :data:`REPLAY_MEMO_TASKS`,
#: oldest out; a schedule over the bound alone is not memoized.  Worker
#: processes each keep their own (replay is an optimisation, never a
#: correctness dependency -- a miss just re-simulates).
_REPLAY_MEMO = BoundedCache(_memo_charge)

#: Replay records of the result cache the executor runs against (a
#: :class:`repro.engine.cache.SidecarStore` over the cache's directory),
#: built from the cache's ``config()`` by :func:`configure_worker`, which
#: keeps that config in ``_WORKER_CACHE_CONFIG``; ``None`` keeps replay
#: purely in-process.  Worker processes each build their own handle from
#: the config shipped with every micro-batch.
_WORKER_SIDECAR = None
_WORKER_CACHE_CONFIG: Optional[dict] = None

#: Record kind of persisted ``lap_runtime`` schedule recordings.
_REPLAY_SIDECAR_KIND = "lap_runtime/schedule_trace"


def configure_worker(cache_config: Optional[Mapping] = None) -> None:
    """Point replay at the records of the cache ``cache_config`` describes.

    ``cache_config`` is :meth:`repro.engine.cache.ResultCache.config`
    (directory, code version, budget); ``None`` resets to purely
    in-process replay.  Idempotent: the same config keeps the same store.
    Called by the executor before every micro-batch, in-process for serial
    runs and inside every pool worker.
    """
    global _WORKER_SIDECAR, _WORKER_CACHE_CONFIG
    config = dict(cache_config) if cache_config else None
    if config == _WORKER_CACHE_CONFIG:
        return
    from repro.engine.cache import SidecarStore

    _WORKER_CACHE_CONFIG = config
    _WORKER_SIDECAR = None if config is None else SidecarStore(**config)


def _recorded_schedule(key: str) -> Optional[tuple]:
    """The ``(ScheduleTrace, row)`` recorded under a replay key, if any.

    Looks in the in-process memo first, then among the cache's replay
    records (another worker, or an earlier run, may have published the
    schedule there); a record hit seeds the memo.  A record that does not
    parse is a miss.
    """
    recorded = _REPLAY_MEMO.get(key)
    if recorded is not None or _WORKER_SIDECAR is None:
        return recorded
    from repro.lap.replay import REPLAY_STATS, ScheduleTrace

    payload = _WORKER_SIDECAR.get(_REPLAY_SIDECAR_KIND, key)
    if payload is None:
        return None
    try:
        recorded = (ScheduleTrace.from_payload(payload["trace"]),
                    payload["row"])
        if not isinstance(recorded[1], dict):
            raise TypeError("sidecar replay row must be a dict")
        _REPLAY_MEMO.put(key, recorded, REPLAY_MEMO_TASKS)
    except (KeyError, TypeError, ValueError):
        return None
    REPLAY_STATS["sidecar_loaded"] += 1
    return recorded


def _record_schedule(key: str, trace, row: dict) -> None:
    """Memoize a fresh recording and publish it to the cache (best effort)."""
    from repro.lap.replay import REPLAY_STATS

    _REPLAY_MEMO.put(key, (trace, row), REPLAY_MEMO_TASKS)
    REPLAY_STATS["recorded"] += 1
    if _WORKER_SIDECAR is not None and _WORKER_SIDECAR.put(
            _REPLAY_SIDECAR_KIND, key,
            {"trace": trace.to_payload(), "row": row}) is not None:
        REPLAY_STATS["sidecar_stored"] += 1


def _gated(row: Mapping, values: Mapping[str, Optional[float]]) -> dict:
    """``row`` with each gated column set in ``values`` placed right after
    the column :data:`_GATED_AFTER` files it under."""
    out = {}
    for key, value in row.items():
        out[key] = value
        name = _GATED_AFTER.get(key)
        if name is not None and values[name] is not None:
            out[name] = values[name]
    return out


def _precision(params: Mapping) -> "Precision":
    from repro.hw.fpu import Precision

    name = str(params.get("precision", "double")).lower()
    if name in ("single", "sp"):
        return Precision.SINGLE
    if name in ("double", "dp"):
        return Precision.DOUBLE
    raise ValueError(f"unknown precision '{name}' (use 'single' or 'double')")


def _integer(params: Mapping, name: str, default: int) -> int:
    """An integer job parameter: a value ``int()`` converts without loss.

    A non-integral or non-finite number, or anything else ``int()``
    rejects, raises ``ValueError`` naming the parameter and the value:
    ``int(32.5)`` is 32, so a bare conversion would run another point.
    """
    value = params.get(name, default)
    try:
        number = int(value)
        if isinstance(value, str) or number == value:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"parameter '{name}' must be an integer, got {value!r}")


def _seed(params: Mapping) -> int:
    """The ``seed`` job parameter: a non-negative integer (NumPy's
    generators take no negative seed), else ``ValueError`` naming it."""
    seed = _integer(params, "seed", 0)
    if seed < 0:
        raise ValueError(f"parameter 'seed' must be a non-negative integer, "
                         f"got {seed!r}")
    return seed


def _real(params: Mapping, name: str,
          default: Optional[float] = None) -> Optional[float]:
    """A real job parameter as a float; ``None`` when it is absent or null
    and has no default.

    Anything ``float()`` rejects raises ``ValueError`` naming the parameter
    and the value (a bare conversion names neither); every value it
    accepts, numeric strings and bools included, converts as before.
    """
    value = params.get(name, default)
    if value is None and default is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"parameter '{name}' must be a number, "
                         f"got {value!r}") from None


def _flag(params: Mapping, name: str, default: bool) -> bool:
    """A boolean job parameter: a bool or the integer 0 or 1.

    Anything else raises ``ValueError`` naming the parameter and the value:
    ``bool("off")`` is true, so a truthiness test would turn ``off`` on.
    """
    value = params.get(name, default)
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ValueError(f"parameter '{name}' must be true, false, 0 or 1, "
                     f"got {value!r}")


def run_design_point(params: Params) -> dict:
    """Evaluate one LAP chip design point (area / power / efficiency)."""
    from repro.arch.lap_design import build_lap

    precision = _precision(params)
    cores = _integer(params, "cores", 8)
    nr = _integer(params, "nr", 4)
    frequency = _real(params, "frequency_ghz", 1.0)
    local_store = _real(params, "local_store_kbytes", 16.0)
    onchip = _real(params, "onchip_mbytes", 4.0)
    utilization = _real(params, "utilization", 0.9)
    design = build_lap(num_cores=cores, nr=nr, precision=precision,
                       frequency_ghz=frequency, local_store_kbytes=local_store,
                       onchip_memory_mbytes=onchip)
    eff = design.efficiency(utilization=utilization)
    return {
        "cores": cores,
        "nr": nr,
        "precision": precision.value,
        "frequency_ghz": frequency,
        "local_store_kbytes": local_store,
        "onchip_mbytes": onchip,
        "utilization": utilization,
        "area_mm2": design.area_mm2,
        "power_w": design.power_w(),
        "peak_gflops": design.peak_gflops,
        "gflops": eff.gflops,
        "gflops_per_w": eff.gflops_per_watt,
        "gflops_per_mm2": eff.gflops_per_mm2,
    }


def run_pe_point(params: Params) -> dict:
    """Evaluate one processing-element design point."""
    from repro.arch.lap_design import build_pe

    precision = _precision(params)
    frequency = _real(params, "frequency_ghz", 1.0)
    local_store = _real(params, "local_store_kbytes", 16.0)
    pe = build_pe(precision=precision, frequency_ghz=frequency,
                  local_store_kbytes=local_store)
    eff = pe.efficiency()
    return {
        "precision": precision.value,
        "frequency_ghz": frequency,
        "local_store_kbytes": local_store,
        "pe_area_mm2": pe.area_mm2,
        "store_area_mm2": pe.store_a.area_mm2 + pe.store_b.area_mm2,
        "fpu_area_mm2": pe.fmac.area_mm2,
        "memory_power_w": pe.memory_power_w,
        "fmac_power_w": pe.fmac_power_w,
        "pe_power_w": pe.total_power_w,
        "peak_gflops": pe.peak_gflops,
        "mm2_per_gflop": eff.mm2_per_gflop,
        "mw_per_gflop": eff.mw_per_gflop,
        "energy_delay": eff.energy_delay,
        "gflops_per_w": eff.gflops_per_watt,
        "gflops_per_mm2": eff.gflops_per_mm2,
    }


def run_kernel_simulation(params: Params) -> dict:
    """Run one kernel on the cycle-level LAC simulator with seeded operands."""
    import numpy as np

    from repro.kernels.dispatch import check_size, get_kernel, simulate_kernel
    from repro.lac import LACConfig, LinearAlgebraCore

    kernel = str(params.get("kernel", "gemm"))
    size = _integer(params, "size", 16)
    nr = _integer(params, "nr", 4)
    frequency = _real(params, "frequency_ghz", 1.0)
    seed = _seed(params)
    spec = get_kernel(kernel)
    check_size(kernel, size, nr)
    core = LinearAlgebraCore(LACConfig(nr=nr, frequency_ghz=frequency))
    rng = np.random.default_rng(seed)
    result = simulate_kernel(core, kernel, size, rng)
    return {
        "kernel": kernel,
        "size": size,
        "effective_size": spec.effective_size(size, nr),
        "nr": nr,
        "frequency_ghz": frequency,
        "seed": seed,
        "cycles": int(result.cycles),
        "mac_ops": int(result.counters.mac_ops),
        "flops": int(result.flops),
        "utilization": float(result.utilization),
        "gflops": float(result.gflops(frequency)),
    }


def run_chip_gemm(params: Params) -> dict:
    """Evaluate the analytical multi-core GEMM model at one design point."""
    from repro.models.chip_model import ChipGEMMModel

    num_cores = _integer(params, "num_cores", 8)
    nr = _integer(params, "nr", 4)
    n = _integer(params, "n", 2048)
    bw_bytes = _real(params, "offchip_bw_bytes_per_cycle", 16.0)
    frequency = _real(params, "frequency_ghz", 1.0)
    model = ChipGEMMModel(num_cores=num_cores, nr=nr)
    res = model.cycles_offchip(n, offchip_bandwidth_words_per_cycle=bw_bytes / 8.0)
    return {
        "num_cores": num_cores,
        "nr": nr,
        "n": n,
        "offchip_bw_bytes_per_cycle": bw_bytes,
        "frequency_ghz": frequency,
        "onchip_memory_mbytes": res.onchip_memory_mbytes(),
        "total_cycles": res.total_cycles,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
        "gflops": res.gflops(frequency),
    }


def run_core_gemm(params: Params) -> dict:
    """Evaluate the analytical single-core GEMM model at one design point."""
    from repro.models.core_model import CoreGEMMModel

    nr = _integer(params, "nr", 4)
    n = _integer(params, "n", 512)
    kc = _integer(params, "kc", 128)
    mc = _integer(params, "mc", kc)
    bw_bytes = _real(params, "bandwidth_bytes_per_cycle", 4.0)
    model = CoreGEMMModel(nr=nr)
    res = model.cycles(mc=mc, kc=kc, n=n,
                       bandwidth_elements_per_cycle=max(bw_bytes / 8.0, 1e-3))
    return {
        "nr": nr,
        "n": n,
        "mc": mc,
        "kc": kc,
        "bandwidth_bytes_per_cycle": bw_bytes,
        "local_store_kbytes_per_pe": res.local_store_bytes_per_pe / 1024.0,
        "total_cycles": res.total_cycles,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
    }


def run_chip_gemm_onchip(params: Params) -> dict:
    """Evaluate the on-chip side of the multi-core GEMM model at one point.

    With ``onchip_bw_words_per_cycle`` unset, the model's *required*
    aggregate bandwidth for the blocking is used (the Fig. 4.2 operating
    point); with it set, the update runs bandwidth-limited (Fig. 4.3).
    """
    from repro.models.chip_model import ChipGEMMModel

    num_cores = _integer(params, "num_cores", 8)
    nr = _integer(params, "nr", 4)
    n = _integer(params, "n", 1024)
    kc = _integer(params, "kc", 128)
    mc = _integer(params, "mc", kc)
    full_overlap = _flag(params, "full_overlap", False)
    frequency = _real(params, "frequency_ghz", 1.0)
    model = ChipGEMMModel(num_cores=num_cores, nr=nr)
    bw = _real(params, "onchip_bw_words_per_cycle")
    if bw is None:
        bw = float(model.onchip_bandwidth_words_per_cycle(mc, kc, n,
                                                          full_overlap))
    res = model.cycles_onchip(mc, kc, n, bw, full_overlap)
    mem_words = model.onchip_memory_words(mc, kc, n, full_overlap)
    element_bytes = model.element_bytes
    return {
        "num_cores": num_cores,
        "nr": nr,
        "n": n,
        "mc": mc,
        "kc": kc,
        "full_overlap": full_overlap,
        "frequency_ghz": frequency,
        "onchip_bw_words_per_cycle": bw,
        "onchip_bandwidth_bytes_per_cycle": bw * element_bytes,
        "onchip_memory_words": mem_words,
        "onchip_memory_mbytes": mem_words * element_bytes / 2 ** 20,
        "total_cycles": res.total_cycles,
        "peak_cycles": res.peak_cycles,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
        "gflops": res.gflops(frequency),
    }


def run_blas_point(params: Params) -> dict:
    """Evaluate the level-3 BLAS utilisation model at one design point."""
    from repro.models.blas_model import BlasCoreModel, Level3Operation

    operation = Level3Operation(str(params.get("operation", "gemm")).lower())
    nr = _integer(params, "nr", 4)
    n = _integer(params, "n", 512)
    kc = _integer(params, "kc", 128)
    mc = _integer(params, "mc", kc)
    bw_bytes = _real(params, "bandwidth_bytes_per_cycle", 4.0)
    full_overlap = _flag(params, "full_overlap", False)
    model = BlasCoreModel(nr=nr)
    res = model.utilization(operation, mc=mc, kc=kc, n=n,
                            bandwidth_elements_per_cycle=bw_bytes / 8.0,
                            full_overlap=full_overlap)
    return {
        "operation": operation.value,
        "nr": nr,
        "n": n,
        "mc": mc,
        "kc": kc,
        "bandwidth_bytes_per_cycle": bw_bytes,
        "bandwidth_elements_per_cycle": bw_bytes / 8.0,
        "local_store_kbytes_per_pe": res.local_store_kbytes_per_pe,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
    }


def run_fact_kernel(params: Params) -> dict:
    """Evaluate the factorization inner-kernel model at one configuration.

    The reference core area (for GFLOPS/mm^2) is derived inside the runner
    from the same precision / frequency / local-store parameters, so the
    whole row is a pure function of the job parameters and cache keys stay
    stable across calls.
    """
    from repro.arch.lap_design import build_pe
    from repro.hw.sfu import SFUPlacement
    from repro.models.fact_model import (FactorizationKernel,
                                         FactorizationKernelModel, MACExtension)

    precision = _precision(params)
    kernel = FactorizationKernel(str(params.get("kernel", "lu")).lower())
    k = _integer(params, "k", 128)
    nr = _integer(params, "nr", 4)
    placement = SFUPlacement(str(params.get("sfu", "isolate")).lower())
    extension = MACExtension(str(params.get("mac_extension", "none")).lower())
    frequency = _real(params, "frequency_ghz", 1.0)
    local_store = _real(params, "local_store_kbytes", 16.0)
    model = FactorizationKernelModel(nr=nr, precision=precision,
                                     frequency_ghz=frequency,
                                     local_store_kbytes_per_pe=local_store)
    core_area = nr * nr * build_pe(precision, frequency, local_store).area_mm2
    res = model.evaluate(kernel, k, placement, extension)
    eff = model.efficiency(res, core_area)
    return {
        "kernel": kernel.value,
        "k": k,
        "nr": nr,
        "sfu": placement.value,
        "mac_extension": extension.value,
        "precision": precision.value,
        "frequency_ghz": frequency,
        "core_area_mm2": core_area,
        "cycles": res.cycles,
        "useful_flops": res.useful_flops,
        "utilization": res.utilization,
        "gflops": eff.gflops,
        "gflops_per_w": eff.gflops_per_watt,
        "gflops_per_mm2": eff.gflops_per_mm2,
        "inverse_energy_delay": eff.inverse_energy_delay,
    }


class LapRuntimePoint(NamedTuple):
    """One ``lap_runtime`` job as :func:`parse_lap_runtime` reads it: the
    runner's names and defaults applied, plus the chip, off-chip interface
    and prefetch-overlap fraction that a simulation of the point runs on
    and that replay reads."""

    algorithm: str
    n: int
    tile: int
    seed: int
    policy: str
    timing: str
    verify: bool
    frequencies: Optional[List[float]]
    on_chip_kb: Optional[float]
    bandwidth_gbs: Optional[float]
    local_store_kb: Optional[float]
    offchip_pj_per_byte: Optional[float]
    overlap: float
    config: "LAPConfig"
    interface: "OffChipInterface"
    #: The gated columns' values (see :data:`_GATED_AFTER`).
    gated: Dict[str, Optional[float]]


def parse_lap_runtime(params: Mapping) -> LapRuntimePoint:
    """Read and check one ``lap_runtime`` job: the one place that states
    the runner's parameter names (:data:`KNOWN_PARAMS` lists the same set),
    their defaults and their checks.

    The point's delta constants pass the checks a simulation applies (the
    chip clock in :class:`~repro.lap.chip.LAPConfig`, bandwidth and
    off-chip energy in :func:`repro.lap.memory.offchip_interface`, and
    :func:`repro.lap.runtime.check_stall_overlap`), so replay serves only
    points a simulation accepts.  The flags ``verify`` and ``memory`` take
    true, false, 0 or 1 (see :func:`_flag`); ``memory`` may only be true.
    """
    from repro.lap.chip import LAPConfig
    from repro.lap.memory import offchip_interface
    from repro.lap.runtime import check_stall_overlap
    from repro.lap.taskgraph import AlgorithmsByBlocks

    algorithm = str(params.get("algorithm", "gemm")).lower()
    if algorithm not in AlgorithmsByBlocks.WORKLOADS:
        raise ValueError(f"unknown lap_runtime algorithm '{algorithm}' "
                         f"(use one of {', '.join(AlgorithmsByBlocks.WORKLOADS)})")
    n = _integer(params, "n", 16)
    tile = _integer(params, "tile", 8)
    num_cores = _integer(params, "num_cores", 2)
    nr = _integer(params, "nr", 4)
    onchip_mbytes = _real(params, "onchip_mbytes", 1.0)
    seed = _seed(params)
    policy = str(params.get("policy", "greedy"))
    timing = str(params.get("timing", "functional"))
    verify = _flag(params, "verify", True)
    if not _flag(params, "memory", True):
        raise ValueError("lap_runtime parameter 'memory' must be true: "
                         "data-movement accounting is always on")
    on_chip_kb = _real(params, "on_chip_kb")
    bandwidth_gbs = _real(params, "bandwidth_gbs")
    local_store_kb = _real(params, "local_store_kb")
    stall_overlap = _real(params, "stall_overlap")
    frequency_ghz = _real(params, "frequency_ghz")
    offchip_pj = _real(params, "offchip_pj_per_byte")
    name = "core_frequencies_ghz"
    frequencies = params.get(name)
    if isinstance(frequencies, str):
        frequencies = [p for p in frequencies.replace(":", ",").split(",")
                       if p.strip()]
        if len(frequencies) == 1:
            frequencies = frequencies * num_cores
    elif frequencies is not None and not isinstance(frequencies, (list, tuple)):
        frequencies = [frequencies] * num_cores
    if frequencies is not None:
        # Each clock converts as the parameter's one value would.
        frequencies = [_real({name: f}, name) for f in frequencies]
    config = LAPConfig(num_cores=num_cores, nr=nr,
                       onchip_memory_mbytes=onchip_mbytes,
                       frequency_ghz=1.0 if frequency_ghz is None else frequency_ghz)
    interface = offchip_interface(config.offchip(), bandwidth_gbs, offchip_pj)
    overlap = check_stall_overlap(0.0 if stall_overlap is None
                                  else stall_overlap)
    return LapRuntimePoint(
        algorithm, n, tile, seed, policy, timing, verify, frequencies,
        on_chip_kb, bandwidth_gbs, local_store_kb, offchip_pj, overlap,
        config, interface,
        {"frequency_ghz": frequency_ghz, "stall_overlap": stall_overlap,
         "offchip_pj_per_byte": offchip_pj})


def simulate_lap_runtime(point: LapRuntimePoint) -> Tuple["LAPRuntime", dict]:
    """Simulate one parsed ``lap_runtime`` point; returns the runtime that
    ran it (its schedule, attribution and trace events) and the row."""
    import numpy as np

    from repro.lap.chip import LinearAlgebraProcessor
    from repro.lap.runtime import LAPRuntime

    runtime = LAPRuntime(LinearAlgebraProcessor(point.config), point.tile,
                         policy=point.policy, timing=point.timing,
                         core_frequencies_ghz=point.frequencies,
                         on_chip_kb=point.on_chip_kb,
                         bandwidth_gbs=point.bandwidth_gbs,
                         local_store_kb=point.local_store_kb,
                         stall_overlap=point.overlap,
                         offchip_pj_per_byte=point.offchip_pj_per_byte)
    n, tile, num_cores = point.n, point.tile, point.config.num_cores
    stats = runtime.run_workload(point.algorithm, n,
                                 np.random.default_rng(point.seed),
                                 verify=point.verify)
    if point.algorithm == "gemm":
        # Figure 4.1's static distribution deals the n // tile row panels
        # of C round robin over the cores: the lightest core's panels over
        # the busiest's.  A factorization's shrinking trailing matrix has
        # no such static assignment, so the metric is null otherwise.
        panels = n // tile
        static_balance = (panels // num_cores) / -(-panels // num_cores)
    else:
        static_balance = None
    busy = stats["per_core_busy_cycles"]
    graph = stats["graph"]
    residual = stats["residual"]
    frequencies = point.frequencies
    row = {
        "algorithm": point.algorithm,
        "n": n,
        "tile": tile,
        "num_cores": num_cores,
        "nr": point.config.nr,
        "seed": point.seed,
        "policy": point.policy,
        "timing": point.timing,
        "verify": point.verify,
        "core_frequencies_ghz": (",".join(f"{f:g}" for f in frequencies)
                                 if frequencies else None),
        "tasks_executed": int(stats["tasks_executed"]),
        "critical_path_tasks": int(graph["critical_path_tasks"]),
        "graph_width": int(graph["width"]),
        "graph_levels": int(graph["num_levels"]),
        "makespan_cycles": int(round(stats["makespan_cycles"])),
        "makespan_ns": float(stats["makespan_ns"]),
        "total_busy_cycles": int(sum(busy)),
        "max_core_busy_cycles": int(max(busy)),
        "min_core_busy_cycles": int(min(busy)),
        "parallel_efficiency": float(stats["parallel_efficiency"]),
        "static_load_balance": static_balance,
        "residual": None if residual is None else float(residual),
        "memory": True,
        "on_chip_kb": float(stats["on_chip_capacity_bytes"]) / 1024.0,
        "bandwidth_gbs": float(stats["bandwidth_gbs"]),
        "traffic_bytes": int(round(stats["offchip_traffic_bytes"])),
        "compulsory_bytes": int(round(stats["compulsory_bytes"])),
        "spill_bytes": int(round(stats["spill_bytes"])),
        "writeback_bytes": int(round(stats["writeback_bytes"])),
        "stall_cycles": float(stats["stall_cycles"]),
        "energy_j": float(stats["energy_j"]),
        "total_flops": float(stats["total_flops"]),
        "arithmetic_intensity": float(stats["arithmetic_intensity"]),
        "gflops_per_w": float(stats["gflops_per_w"]),
        "peak_resident_kb": float(stats["peak_resident_bytes"]) / 1024.0,
    }
    if point.local_store_kb is not None:
        row.update({
            "local_store_kb": float(stats["local_store_kb"]),
            "local_hit_bytes": int(round(stats["local_hit_bytes"])),
            "shared_to_local_bytes": int(round(stats["shared_to_local_bytes"])),
            "c2c_bytes": int(round(stats["c2c_bytes"])),
            "local_hit_rate": float(stats["local_hit_rate"]),
            "local_transfer_cycles": float(stats["local_transfer_cycles"]),
            "peak_local_resident_kb": (
                float(stats["peak_local_resident_bytes"]) / 1024.0),
        })
    return runtime, _gated(row, point.gated)


def run_lap_runtime(params: Params) -> dict:
    """Schedule one blocked algorithm through the LAP runtime simulator.

    Decomposes an ``n x n`` problem into ``tile x tile`` tasks with the
    algorithms-by-blocks library (GEMM, Cholesky, tiled LU or tiled QR),
    executes the task graph on the cores of a cycle-level LAP under the
    requested scheduling policy and timing model, and reports makespan /
    load-balance / graph analytics / correctness.  The job is read by
    :func:`parse_lap_runtime` and simulated by :func:`simulate_lap_runtime`
    (which ``repro trace`` calls too, so a trace's row is this row).

    ``policy`` selects the scheduler (greedy / critical_path / locality /
    memory_aware / affinity), ``timing`` the timing model (functional /
    memoized), ``verify`` keeps the tile data exact under memoized timing
    (residual available; a memoized ``verify=False`` row never builds its
    ``n x n`` operand), and ``core_frequencies_ghz`` accepts per-core clocks for
    heterogeneous-tile studies: a sequence, a single number (applied to
    every core), or a delimited string -- ``"1.0,2.0"`` or ``"1.0:2.0"``
    (the colon form survives the sweep CLI's comma-separated axis syntax,
    e.g. ``--set core_frequencies_ghz=1.0:2.0``).

    Data movement is always simulated through the runtime's memory-hierarchy
    layer (``memory`` may only be true, and the row's ``memory`` column
    says so): ``on_chip_kb`` constrains the tile working set below the
    chip's physical on-chip memory and ``bandwidth_gbs`` overrides the
    sustained off-chip bandwidth; rows carry traffic / spill / stall /
    energy / GFLOPS-per-W columns.

    ``local_store_kb`` enables the two-level hierarchy (a per-core local
    store above the shared on-chip level); rows then additionally split the
    on-chip movement into local-hit / shared-to-local / core-to-core bytes
    and report the local hit rate and transfer cycles.  ``stall_overlap``
    exposes the prefetch-overlap fraction (0 = data-movement cycles fully
    serialised, 1 = fully hidden) as a sweep axis.  Both columns appear
    only when their parameter is given, so existing single-level rows stay
    byte-identical.

    ``frequency_ghz`` sets the chip clock (all cores, default 1.0) and
    ``offchip_pj_per_byte`` overrides the DRAM interface's access energy
    in pJ/byte; both appear as gated row columns only when given, so
    existing rows stay byte-identical.

    Delta sweeps are costed by schedule replay: every simulated point
    records a :class:`repro.lap.replay.ScheduleTrace` under its replay key,
    the sorted JSON of its parameters minus :data:`DELTA_PARAMS`, and a
    later point with the same key (one that differs only in
    ``bandwidth_gbs`` / ``stall_overlap`` / ``frequency_ghz`` /
    ``offchip_pj_per_byte``) reuses the recorded row, re-keyed, whenever
    :func:`repro.lap.replay.replayed_row` proves the schedule unchanged
    (the row then equals its re-simulation); anything else re-simulates.
    The job is parsed and checked before that decision.  Fresh and
    replayed rows get their gated columns from one helper.
    """
    from repro.lap.replay import replayed_row

    point = parse_lap_runtime(params)
    key = json.dumps({name: value for name, value in params.items()
                      if name not in DELTA_PARAMS}, sort_keys=True)
    replayed = replayed_row(_recorded_schedule(key), point.config,
                            point.interface, point.overlap, point.frequencies)
    if replayed is not None:
        return _gated(replayed, point.gated)
    runtime, row = simulate_lap_runtime(point)
    # The memo and the replay records keep the row without gated columns.
    _record_schedule(key, runtime.schedule_trace(),
                     {name: value for name, value in row.items()
                      if name not in point.gated})
    return row


def run_blocked_factorization(params: Params) -> dict:
    """Run one blocked factorization end to end on the LAC simulator.

    Executes blocked Cholesky / LU (partial pivoting) / Householder QR on a
    seeded ``n x n`` operand, verifies the factors against the input and
    reports the simulator counters next to the analytical panel-model cycle
    estimate of :class:`repro.models.fact_model.FactorizationKernelModel`.
    """
    import numpy as np

    from repro.hw.sfu import SFUPlacement
    from repro.kernels.blocked_factorizations import (lac_cholesky_blocked,
                                                      lac_lu_blocked,
                                                      lac_qr_blocked,
                                                      lu_blocked_reconstruct,
                                                      qr_blocked_q)
    from repro.lac import LACConfig, LinearAlgebraCore
    from repro.models.fact_model import (FactorizationKernel,
                                         FactorizationKernelModel, MACExtension)

    method = str(params.get("method", "lu")).lower()
    n = _integer(params, "n", 8)
    nr = _integer(params, "nr", 4)
    seed = _seed(params)
    use_extension = _flag(params, "use_extension", True)
    frequency = _real(params, "frequency_ghz", 1.0)
    core = LinearAlgebraCore(LACConfig(nr=nr, frequency_ghz=frequency))
    rng = np.random.default_rng(seed)
    model = FactorizationKernelModel(nr=nr, frequency_ghz=frequency)

    if method == "cholesky":
        g = rng.random((n, n))
        a = g @ g.T + n * np.eye(n)
        result = lac_cholesky_blocked(core, a)
        factor = result.output
        residual = float(np.max(np.abs(factor @ factor.T - a)))
        model_cycles = model.cholesky_cycles(SFUPlacement.ISOLATED)
        model_kernel = FactorizationKernel.CHOLESKY
    elif method == "lu":
        a = rng.random((n, n))
        result = lac_lu_blocked(core, a, use_comparator_extension=use_extension)
        lower, upper = lu_blocked_reconstruct(result.output)
        permuted = a[result.extra["permutation"]]
        residual = float(np.max(np.abs(permuted - lower @ upper)))
        model_cycles = model.lu_panel_cycles(
            n, SFUPlacement.ISOLATED,
            MACExtension.COMPARATOR if use_extension else MACExtension.NONE)
        model_kernel = FactorizationKernel.LU
    elif method == "qr":
        a = rng.random((n, n))
        result = lac_qr_blocked(core, a, use_exponent_extension=use_extension)
        q = qr_blocked_q(result.output, result.extra["tau"])
        r = np.triu(result.output)
        residual = float(np.max(np.abs(q @ r - a)))
        model_cycles = model.qr_panel_cycles(
            n, SFUPlacement.ISOLATED,
            MACExtension.EXPONENT if use_extension else MACExtension.NONE)
        model_kernel = FactorizationKernel.QR_HOUSEHOLDER
    else:
        raise ValueError(f"unknown blocked_fact method '{method}' "
                         f"(use 'cholesky', 'lu' or 'qr')")
    return {
        "method": method,
        "model_kernel": model_kernel.value,
        "n": n,
        "nr": nr,
        "seed": seed,
        "use_extension": use_extension,
        "frequency_ghz": frequency,
        "cycles": int(result.cycles),
        "mac_ops": int(result.counters.mac_ops),
        "flops": int(result.flops),
        "utilization": float(result.utilization),
        "gflops": float(result.gflops(frequency)),
        "residual": residual,
        "model_panel_cycles": float(model_cycles),
    }


RUNNERS: Dict[str, Callable[[Params], dict]] = {
    "design": run_design_point,
    "pe": run_pe_point,
    "simulate": run_kernel_simulation,
    "chip_gemm": run_chip_gemm,
    "chip_gemm_onchip": run_chip_gemm_onchip,
    "core_gemm": run_core_gemm,
    "blas": run_blas_point,
    "fact_kernel": run_fact_kernel,
    "lap_runtime": run_lap_runtime,
    "blocked_fact": run_blocked_factorization,
}

#: Default Pareto objectives per runner (used by the ``sweep`` CLI when the
#: user does not pass ``--objectives``).
PARETO_OBJECTIVES: Dict[str, Tuple[str, ...]] = {
    "design": DEFAULT_OBJECTIVES,
    "pe": ("gflops_per_w", "gflops_per_mm2"),
    "simulate": ("gflops", "utilization"),
    "chip_gemm": ("gflops", "utilization_pct"),
    "chip_gemm_onchip": ("utilization_pct",),
    "core_gemm": ("utilization_pct",),
    "blas": ("utilization_pct",),
    "fact_kernel": ("gflops_per_w", "gflops_per_mm2"),
    "lap_runtime": ("parallel_efficiency",),
    "blocked_fact": ("gflops", "utilization"),
}


def runner_names() -> List[str]:
    """Names accepted by ``Job.runner`` / the ``sweep`` CLI."""
    return list(RUNNERS)


def get_runner(name: str) -> Callable[[Params], dict]:
    """Look up one runner by name."""
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(f"unknown runner '{name}'; known runners: "
                       f"{sorted(RUNNERS)}") from None

