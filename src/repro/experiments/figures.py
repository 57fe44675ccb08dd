"""Generators for the figure data series of the evaluation chapters.

Each function returns the data points a figure plots (as lists of dicts or
dicts of series), without any plotting dependency; ``repro experiments``
prints the series, the paper-claim tests assert their qualitative shape,
and examples can feed them to matplotlib if available.

Every multi-point sweep (core/chip GEMM utilisation, PE frequency and
local-store sweeps, on-chip bandwidth vs memory, level-3 BLAS utilisation,
factorization-kernel efficiency, the runtime sweeps) expands through
:mod:`repro.engine` and runs serially without a cache: together they take
a fraction of a second, so neither a cache nor a worker pool pays for
itself.  The remaining generators are single-point constructions
(breakdowns, comparisons) with nothing to fan out.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.arch.breakdowns import (cpu_penryn_breakdown, efficiency_comparison,
                                   gpu_fermi_breakdown, gpu_tesla_breakdown, lap_breakdown)
from repro.arch.hybrid import hybrid_design_comparison
from repro.arch.lap_design import build_lap, build_pe
from repro.engine import SweepSpec, sweep
from repro.hw.fpu import Precision
from repro.hw.memory import NUCACache, OnChipMemory
from repro.hw.sfu import SFUPlacement, SpecialFunctionUnit
from repro.models.blas_model import Level3Operation
from repro.models.chip_model import ChipGEMMModel
from repro.models.core_model import CoreGEMMModel
from repro.models.fact_model import FactorizationKernel, MACExtension
from repro.models.fft_model import FFTCoreModel, FFTProblem, FFTVariant


# ----------------------------------------------------------------- Fig. 3.4
def fig_3_4_core_utilization_vs_local_store(n: int = 512) -> List[Dict]:
    """Core utilisation vs local store size for several on-chip bandwidths."""
    spec = (SweepSpec()
            .constants(n=n)
            .grid(nr=(4, 8),
                  bandwidth_bytes_per_cycle=(1, 2, 3, 4, 8),
                  kc=(16, 32, 48, 64, 96, 128, 192, 256, 320, 384, 448, 512))
            .filter(lambda p: p["kc"] <= p["n"]))
    result = sweep(spec.jobs("core_gemm"), mode="serial")
    return [{
        "nr": row["nr"],
        "bandwidth_bytes_per_cycle": int(row["bandwidth_bytes_per_cycle"]),
        "local_store_kbytes_per_pe": row["local_store_kbytes_per_pe"],
        "utilization_pct": row["utilization_pct"],
    } for row in result.rows]


# ----------------------------------------------------------------- Fig. 3.5
def fig_3_5_peak_bandwidth_vs_local_store(n: int = 512) -> List[Dict]:
    """Bandwidth needed for peak performance vs resulting local store size."""
    rows: List[Dict] = []
    for nr in (4, 8):
        model = CoreGEMMModel(nr=nr)
        rows.extend(model.peak_bandwidth_vs_local_store(
            kc_values=[16, 32, 64, 96, 128, 192, 256, 384, 512], n=n))
    return rows


# ----------------------------------------------------------- Figs. 3.6/3.7
def fig_3_6_pe_efficiency_vs_frequency(precision: Precision = Precision.DOUBLE) -> List[Dict]:
    """PE efficiency metrics (mm^2/GFLOP, mW/GFLOP, energy-delay) vs frequency."""
    spec = (SweepSpec()
            .constants(precision=precision.value, local_store_kbytes=16.0)
            .grid(frequency_ghz=(0.2, 0.33, 0.5, 0.75, 0.95, 1.0, 1.2,
                                 1.4, 1.6, 1.81, 2.08)))
    result = sweep(spec.jobs("pe"), mode="serial")
    return [{
        "frequency_ghz": row["frequency_ghz"],
        "mm2_per_gflop": row["mm2_per_gflop"],
        "mw_per_gflop": row["mw_per_gflop"],
        "energy_delay": row["energy_delay"],
        "gflops_per_w": row["gflops_per_w"],
        "gflops_per_mm2": row["gflops_per_mm2"],
    } for row in result.rows]


# ----------------------------------------------------------------- Fig. 4.2
def fig_4_2_onchip_bw_vs_memory() -> List[Dict]:
    """On-chip bandwidth vs memory size for (S=8, nr=4) and (S=2, nr=8)."""
    kc_values = (32, 64, 96, 128, 192, 256, 384, 512)
    jobs = []
    for num_cores, nr in ((8, 4), (2, 8)):
        spec = (SweepSpec()
                .constants(num_cores=num_cores, nr=nr, full_overlap=True)
                .grid(n=(512, 1024, 2048), kc=kc_values)
                # The S cores each hold an mc x kc block of A covering
                # disjoint row panels of C, so S * kc cannot exceed n.
                .filter(lambda p: p["kc"] <= p["n"]
                        and p["num_cores"] * p["kc"] <= p["n"]))
        jobs.extend(spec.jobs("chip_gemm_onchip"))
    result = sweep(jobs, mode="serial")
    return [{
        "n": row["n"],
        "num_cores": row["num_cores"],
        "nr": row["nr"],
        "kc": row["kc"],
        "onchip_memory_mbytes": row["onchip_memory_mbytes"],
        "onchip_bandwidth_bytes_per_cycle": row["onchip_bandwidth_bytes_per_cycle"],
        "utilization": row["utilization"],
    } for row in result.rows]


# ----------------------------------------------------------------- Fig. 4.3
def fig_4_3_performance_vs_cores_and_bw(n: int = 1024) -> List[Dict]:
    """Relative LAP performance vs number of cores, on-chip BW and memory.

    The (num_cores, bandwidth) pairs follow the figure's four sets of curves
    with constant S/BW ratios: {S=4 BW=1, S=8 BW=2, ...} up to
    {S=4 BW=8, ..., S=16 BW=32}; bandwidths are total on-chip words/cycle.
    Performance is relative to the best single-core design point, whose
    jobs ride along in the same engine run (the first four rows).
    """
    kc_values = (32, 64, 128, 256)
    base_jobs = (SweepSpec()
                 .constants(num_cores=1, nr=4, n=n)
                 .grid(kc=kc_values)
                 .jobs("chip_gemm_onchip"))
    jobs = list(base_jobs)
    for num_cores, bw_total in ((4, 1), (8, 2), (12, 3), (16, 4),
                                (4, 2), (8, 4), (12, 6), (16, 8),
                                (4, 4), (8, 8), (12, 12), (16, 16),
                                (4, 8), (8, 16), (12, 24), (16, 32)):
        spec = (SweepSpec()
                .constants(num_cores=num_cores, nr=4, n=n,
                           onchip_bw_words_per_cycle=float(bw_total))
                .grid(kc=kc_values)
                .filter(lambda p: p["num_cores"] * p["kc"] <= p["n"]))
        jobs.extend(spec.jobs("chip_gemm_onchip"))
    result = sweep(jobs, mode="serial")
    base = min(row["total_cycles"] for row in result.rows[:len(base_jobs)])
    return [{
        "num_cores": row["num_cores"],
        "bw_words_per_cycle": int(row["onchip_bw_words_per_cycle"]),
        "onchip_memory_mbytes": row["onchip_memory_mbytes"],
        "relative_performance_pct": 100.0 * base / row["total_cycles"] if base else 0.0,
        "utilization_pct": row["utilization_pct"],
    } for row in result.rows[len(base_jobs):]]


# ----------------------------------------------------------------- Fig. 4.5
def fig_4_5_offchip_bw_vs_onchip_memory() -> List[Dict]:
    """External bandwidth vs on-chip memory size for several problem sizes."""
    rows: List[Dict] = []
    model = ChipGEMMModel(num_cores=8, nr=4)
    for n in (512, 1024, 2048):
        for divisor in (1, 2, 4, 8):
            ns = n // divisor
            if ns < 64:
                continue
            k = 1
            bw_words = model.offchip_bandwidth_blocked(n, ns, k)
            onchip_words = model.onchip_words_for_subblock(ns, mc=min(256, ns), kc=min(256, ns))
            rows.append({
                "n": n,
                "ns": ns,
                "onchip_memory_mbytes": onchip_words * 8 / 2 ** 20,
                "offchip_bandwidth_bytes_per_cycle": bw_words * 8,
            })
    return rows


# ----------------------------------------------------------------- Fig. 4.6
def fig_4_6_performance_vs_offchip_bw(frequency_ghz: float = 1.4) -> List[Dict]:
    """LAP GFLOPS vs off-chip bandwidth and on-chip memory size."""
    spec = (SweepSpec()
            .constants(nr=4, frequency_ghz=frequency_ghz)
            .grid(num_cores=(4, 8, 16),
                  n=(256, 512, 768, 1024),
                  offchip_bw_bytes_per_cycle=(4, 8, 16, 24)))
    result = sweep(spec.jobs("chip_gemm"), mode="serial")
    return [{
        "num_cores": row["num_cores"],
        "n": row["n"],
        "onchip_memory_mbytes": row["n"] * row["n"] * 8 / 2 ** 20,
        "offchip_bw_bytes_per_cycle": int(row["offchip_bw_bytes_per_cycle"]),
        "gflops": row["gflops"],
        "utilization_pct": row["utilization_pct"],
    } for row in result.rows]


# ----------------------------------------------------------- Figs. 4.7/4.8
def fig_4_7_4_8_pe_area_power_vs_local_store() -> List[Dict]:
    """PE area and power efficiency vs local store size at 45 nm."""
    spec = (SweepSpec()
            .constants(precision=Precision.DOUBLE.value, frequency_ghz=1.0)
            .grid(local_store_kbytes=(2, 4, 6, 8, 10, 12, 14, 16, 18, 20)))
    result = sweep(spec.jobs("pe"), mode="serial")
    return [{
        "local_store_kbytes": int(row["local_store_kbytes"]),
        "pe_area_mm2": row["pe_area_mm2"],
        "store_area_mm2": row["store_area_mm2"],
        "fpu_area_mm2": row["fpu_area_mm2"],
        "pe_mw_per_gflop": row["mw_per_gflop"],
        "store_mw_per_gflop": 1e3 * row["memory_power_w"] / row["peak_gflops"],
        "fpu_mw_per_gflop": 1e3 * row["fmac_power_w"] / row["peak_gflops"],
        "leakage_mw_per_gflop": 1e3 * 0.25 * (row["fmac_power_w"] + row["memory_power_w"])
        / row["peak_gflops"],
    } for row in result.rows]


# -------------------------------------------------------- Figs. 4.9 - 4.12
def fig_4_9_to_4_12_system_area_power_vs_onchip_memory(use_nuca: bool = False) -> List[Dict]:
    """Area and power of a 128-MAC system vs on-chip memory size (SRAM or NUCA)."""
    rows: List[Dict] = []
    num_cores, nr, n = 8, 4, 2048
    chip_model = ChipGEMMModel(num_cores=num_cores, nr=nr)
    for mbytes in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        design = build_lap(num_cores=num_cores, nr=nr, precision=Precision.DOUBLE,
                           frequency_ghz=1.0, onchip_memory_mbytes=mbytes)
        # Bandwidth the memory must sustain to keep utilisation high shrinks
        # as the memory grows (Fig. 4.5): a smaller memory forces a smaller
        # resident block of C and smaller streamed panels, so the cores pull
        # proportionally more words per cycle out of the on-chip banks.
        ns = min(n, int((mbytes * 2 ** 20 / 8) ** 0.5))
        ns = max(64, (ns // nr) * nr)
        kc_eff = max(16, min(256, (ns // 8 // nr) * nr))
        required_bw_words = chip_model.onchip_bandwidth_words_per_cycle(kc_eff, kc_eff, ns)
        cores_area = num_cores * design.core.area_mm2
        cores_power = num_cores * design.core.power_w
        if use_nuca:
            memory = NUCACache(capacity_bytes=int(mbytes * 2 ** 20), banks=num_cores,
                               frequency_ghz=1.0,
                               required_bandwidth_bytes_per_cycle=required_bw_words * 8)
            mem_area = memory.area_mm2
            mem_power = memory.dynamic_power_w(min(required_bw_words, num_cores)) \
                + memory.leakage_power_w
        else:
            memory = design.onchip_memory
            mem_area = memory.area_mm2
            mem_power = memory.dynamic_power_w(min(required_bw_words, memory.banks)) \
                + memory.leakage_power_w
        peak_gflops = design.peak_gflops
        rows.append({
            "memory_type": "nuca" if use_nuca else "sram",
            "onchip_memory_mbytes": mbytes,
            "cores_area_mm2": cores_area,
            "memory_area_mm2": mem_area,
            "chip_area_mm2": cores_area + mem_area,
            "cores_mw_per_gflop": 1e3 * cores_power / peak_gflops,
            "memory_mw_per_gflop": 1e3 * mem_power / peak_gflops,
            "chip_mw_per_gflop": 1e3 * (cores_power + mem_power) / peak_gflops,
        })
    return rows


# --------------------------------------------------------- Figs. 4.13-4.15
def fig_4_13_to_4_15_power_breakdowns() -> Dict[str, Dict[str, float]]:
    """Normalised (W/GFLOPS) power breakdowns of GPUs/CPU vs equal-throughput LAPs."""
    comparisons = {
        "GTX280_SGEMM": gpu_tesla_breakdown(),
        "LAP_vs_GTX280": lap_breakdown(410.0, Precision.SINGLE),
        "GTX480_SGEMM": gpu_fermi_breakdown(Precision.SINGLE),
        "LAP_vs_GTX480_SP": lap_breakdown(940.0, Precision.SINGLE),
        "GTX480_DGEMM": gpu_fermi_breakdown(Precision.DOUBLE),
        "LAP_vs_GTX480_DP": lap_breakdown(470.0, Precision.DOUBLE),
        "Penryn_DGEMM": cpu_penryn_breakdown(),
        "LAP_vs_Penryn": lap_breakdown(20.0, Precision.DOUBLE, frequency_ghz=1.4),
    }
    return {name: bd.normalized_by_performance() for name, bd in comparisons.items()}


# ---------------------------------------------------------------- Fig. 4.16
def fig_4_16_efficiency_comparison() -> List[Dict]:
    """GFLOPS/W of GPUs/CPU vs equal-throughput LAPs (core and chip level)."""
    return efficiency_comparison()


# ----------------------------------------------------------- Figs. 5.8/5.9
def fig_5_8_5_9_syrk_trsm_utilization(mc: int = 256) -> List[Dict]:
    """SYRK and TRSM utilisation vs local store and bandwidth."""
    spec = (SweepSpec()
            .constants(n=512)
            .grid(nr=(4, 8),
                  operation=(Level3Operation.SYRK.value, Level3Operation.TRSM.value),
                  bandwidth_bytes_per_cycle=(1, 2, 3, 4, 8),
                  kc=(16, 32, 64, 96, 128, 192, 256, 320, 384, 448, 512)))
    result = sweep(spec.jobs("blas"), mode="serial")
    return [{
        "operation": row["operation"],
        "nr": row["nr"],
        "bandwidth_bytes_per_cycle": int(row["bandwidth_bytes_per_cycle"]),
        "local_store_kbytes_per_pe": row["local_store_kbytes_per_pe"],
        "utilization_pct": row["utilization_pct"],
    } for row in result.rows]


# ---------------------------------------------------------------- Fig. 5.10
def fig_5_10_blas_utilization_comparison() -> List[Dict]:
    """Utilisation of GEMM/TRSM/SYRK/SYR2K at matched design points."""
    operations = (Level3Operation.GEMM.value, Level3Operation.TRSM.value,
                  Level3Operation.SYRK.value, Level3Operation.SYR2K.value)
    jobs = []
    for nr, bw_bytes in ((4, 4), (8, 8)):
        spec = (SweepSpec()
                .constants(nr=nr, bandwidth_bytes_per_cycle=bw_bytes, n=512)
                .grid(kc=(16, 32, 64, 96, 128, 192, 256, 320, 384, 448, 512),
                      operation=operations))
        jobs.extend(spec.jobs("blas"))
    result = sweep(jobs, mode="serial")
    return [{
        "operation": row["operation"],
        "nr": row["nr"],
        "bandwidth_bytes_per_cycle": int(row["bandwidth_bytes_per_cycle"]),
        "local_store_kbytes_per_pe": row["local_store_kbytes_per_pe"],
        "utilization_pct": row["utilization_pct"],
    } for row in result.rows]


# ----------------------------------------------------------------- Fig. 6.5
def fig_6_5_lac_area_breakdown() -> List[Dict]:
    """LAC area breakdown for the three divide/square-root options."""
    rows = []
    # The PE (and hence the MAC array area) does not depend on the SFU
    # placement, so build it once outside the sweep.
    pe = build_pe(precision=Precision.DOUBLE, frequency_ghz=1.0, local_store_kbytes=16.0)
    pes_area = 16 * pe.area_mm2
    for placement in SFUPlacement:
        sfu = SpecialFunctionUnit(placement=placement, precision=Precision.DOUBLE, nr=4)
        rows.append({
            "option": placement.value,
            "pes_area_mm2": pes_area,
            "sfu_area_mm2": sfu.area_mm2,
            "total_area_mm2": pes_area + sfu.area_mm2,
            "overhead_pct": 100.0 * sfu.area_mm2 / pes_area,
        })
    return rows


# ------------------------------------------------- Figs. 6.6/6.7, A.3-A.8
def fig_6_6_6_7_factorization_efficiency(sizes: Sequence[int] = (64, 128, 256)) -> List[Dict]:
    """Power efficiency of the vector-norm and LU inner kernels vs options.

    The ``fact_kernel`` runner derives the reference core area from the job
    parameters itself, so no per-point ``build_pe`` instantiation happens
    here and the cache keys depend only on the swept options.
    """
    placements = tuple(p.value for p in SFUPlacement)
    cases = [
        (FactorizationKernel.VECTOR_NORM,
         (MACExtension.NONE, MACExtension.COMPARATOR, MACExtension.EXPONENT)),
        (FactorizationKernel.LU, (MACExtension.NONE, MACExtension.COMPARATOR)),
    ]
    jobs = []
    for kernel, extensions in cases:
        spec = (SweepSpec()
                .constants(kernel=kernel.value, nr=4)
                .grid(k=tuple(int(k) for k in sizes),
                      sfu=placements,
                      mac_extension=tuple(e.value for e in extensions)))
        jobs.extend(spec.jobs("fact_kernel"))
    result = sweep(jobs, mode="serial")
    return [{
        "kernel": row["kernel"],
        "k": row["k"],
        "sfu": row["sfu"],
        "mac_extension": row["mac_extension"],
        "gflops_per_w": row["gflops_per_w"],
        "gflops_per_mm2": row["gflops_per_mm2"],
        "inverse_energy_delay": row["inverse_energy_delay"],
        "cycles": row["cycles"],
    } for row in result.rows]


# ----------------------------------------------------------------- Fig. 6.9
def fig_6_9_hybrid_efficiency_normalized() -> List[Dict]:
    """Efficiency of the FFT / hybrid designs normalised to the original LAC."""
    return hybrid_design_comparison()


# ------------------------------------------------------------ Figs. B.5-B.7
def fig_b_5_to_b_7_fft_requirements() -> List[Dict]:
    """FFT bandwidth / local store / average communication load."""
    model = FFTCoreModel(nr=4)
    rows: List[Dict] = []
    for block in (16, 64, 256, 1024):
        for overlap in (False, True):
            rows.append({
                "block_points": block,
                "overlap": overlap,
                "required_bw_words_per_cycle": model.required_bandwidth_words_per_cycle(
                    block, overlap),
                "local_store_words_per_pe": model.local_store_words_per_pe(block, overlap),
                "max_external_bw_words_per_cycle": model.max_external_bandwidth_words_per_cycle(),
            })
    big = FFTProblem(points=65536, variant=FFTVariant.ONE_D)
    rows.append({
        "block_points": 64,
        "overlap": True,
        "avg_comm_load_words_per_cycle": model.average_communication_load(big, 64),
        "problem": "64K 1D FFT",
    })
    return rows


# ------------------------------------------------- Runtime policy comparison
def runtime_policy_comparison(sizes: Sequence[int] = (32, 64),
                              core_counts: Sequence[int] = (1, 2, 4),
                              tile: int = 8) -> List[Dict]:
    """Makespan and parallel efficiency vs scheduling policy x cores x size.

    Schedules blocked Cholesky task graphs through the LAP runtime under
    every *registered* scheduling policy (greedy earliest-core,
    critical-path priority, locality-aware, memory-aware, affinity -- the
    sweep follows ``policy_names()``, so registering a new policy
    intentionally grows this experiment's rows and its golden), with
    memoized timing so the sweep scales to larger graphs; the
    ``speedup_vs_greedy`` column quantifies what a smarter policy buys at
    each design point.  Expands through :mod:`repro.engine` like every
    other multi-point figure (serially, without a cache).
    """
    from repro.lap.policies import policy_names

    spec = (SweepSpec()
            .constants(algorithm="cholesky", tile=tile, nr=4, seed=0,
                       timing="memoized", verify=False)
            .grid(policy=tuple(policy_names()),
                  num_cores=tuple(core_counts),
                  n=tuple(sizes)))
    result = sweep(spec.jobs("lap_runtime"), mode="serial")
    greedy_makespan = {(row["n"], row["num_cores"]): row["makespan_cycles"]
                       for row in result.rows if row["policy"] == "greedy"}
    return [{
        "policy": row["policy"],
        "n": int(row["n"]),
        "num_cores": int(row["num_cores"]),
        "tile": int(row["tile"]),
        "tasks": int(row["tasks_executed"]),
        "critical_path_tasks": int(row["critical_path_tasks"]),
        "graph_width": int(row["graph_width"]),
        "makespan_cycles": int(row["makespan_cycles"]),
        "parallel_efficiency": row["parallel_efficiency"],
        "speedup_vs_greedy": (greedy_makespan[(row["n"], row["num_cores"])]
                              / row["makespan_cycles"]),
    } for row in result.rows]


# ------------------------------------------- Runtime memory-capacity sweep
def runtime_memory_capacity_sweep(on_chip_kb: Sequence[float] = (64.0, 6.0, 3.0),
                                  policies: Sequence[str] = ("greedy",
                                                             "memory_aware"),
                                  n: int = 48, tile: int = 8,
                                  num_cores: int = 2) -> List[Dict]:
    """Off-chip traffic / stalls / energy vs on-chip capacity x policy.

    The data-movement experiment of the memory-hierarchy layer: a blocked
    Cholesky task graph is scheduled under shrinking on-chip capacity (the
    first point holds the whole working set, the others force spills) with
    the plain ``greedy`` scheduler and the residency-driven ``memory_aware``
    one.  Rows report the quantities the paper optimises -- off-chip bytes,
    bandwidth-stall cycles, per-schedule energy and GFLOPS/W -- plus the
    traffic ratio against greedy at the same capacity.
    """
    spec = (SweepSpec()
            .constants(algorithm="cholesky", n=n, tile=tile, nr=4, seed=0,
                       num_cores=num_cores, timing="memoized", verify=False)
            .grid(policy=tuple(policies), on_chip_kb=tuple(on_chip_kb)))
    result = sweep(spec.jobs("lap_runtime"), mode="serial")
    greedy_traffic = {row["on_chip_kb"]: row["traffic_bytes"]
                      for row in result.rows if row["policy"] == "greedy"}

    def _vs_greedy(row):
        baseline = greedy_traffic.get(row["on_chip_kb"])
        return row["traffic_bytes"] / baseline if baseline else None

    return [{
        "policy": row["policy"],
        "on_chip_kb": float(row["on_chip_kb"]),
        "n": int(row["n"]),
        "tile": int(row["tile"]),
        "num_cores": int(row["num_cores"]),
        "traffic_bytes": int(row["traffic_bytes"]),
        "compulsory_bytes": int(row["compulsory_bytes"]),
        "spill_bytes": int(row["spill_bytes"]),
        "stall_cycles": float(row["stall_cycles"]),
        "makespan_cycles": int(row["makespan_cycles"]),
        "energy_j": float(row["energy_j"]),
        "gflops_per_w": float(row["gflops_per_w"]),
        "arithmetic_intensity": float(row["arithmetic_intensity"]),
        "traffic_vs_greedy": _vs_greedy(row),
    } for row in result.rows]


# ------------------------------------------- Runtime energy/runtime Pareto
def _memory_subsystem_leakage_w(on_chip_kb: float, local_store_kb: float,
                                num_cores: int) -> float:
    """Static power of the swept memory configuration.

    The shared level is modelled as the banked on-chip SRAM at the swept
    capacity; each per-core local store is a single-bank SRAM of its
    budget.  This is the capacity cost that trades against the dynamic
    data-movement savings of a bigger memory: leaky capacity must earn its
    keep by removing spill traffic and stalls.
    """
    shared = OnChipMemory(capacity_bytes=int(on_chip_kb * 1024))
    total = shared.leakage_power_w
    if local_store_kb > 0:
        local = OnChipMemory(capacity_bytes=int(local_store_kb * 1024), banks=1)
        total += num_cores * local.leakage_power_w
    return total


def runtime_energy_pareto(on_chip_kb: Sequence[float] = (64.0, 6.0, 3.0),
                          bandwidth_gbs: Sequence[float] = (16.0, 64.0),
                          policies: Sequence[str] = ("greedy", "memory_aware",
                                                     "affinity"),
                          stall_overlap: Sequence[float] = (0.0, 1.0),
                          core_counts: Sequence[int] = (1, 2, 4),
                          local_store_kb: float = 2.0,
                          n: int = 48, tile: int = 8) -> List[Dict]:
    """Energy/runtime Pareto frontier over capacity x bandwidth x policy x overlap.

    The co-design question of the memory hierarchy: each swept point
    schedules one blocked Cholesky through the two-level runtime and is
    scored on two axes -- total energy (the dynamic data-movement energy of
    the schedule plus the leakage of the swept memory capacities integrated
    over the makespan) and runtime (makespan cycles).  ``core_counts``
    spans the parallelism/energy trade the per-core stores create: more
    cores finish sooner but leak more local-store capacity and move more
    tiles core to core.  The engine's Pareto analysis marks the
    non-dominated points (``on_frontier``), i.e. the capacity / bandwidth /
    policy / prefetch / core-count combinations where spending more memory
    or smarter scheduling actually buys efficiency instead of just burning
    leakage.
    """
    spec = (SweepSpec()
            .constants(algorithm="cholesky", n=n, tile=tile, nr=4, seed=0,
                       timing="memoized", verify=False,
                       local_store_kb=local_store_kb)
            .grid(policy=tuple(policies), on_chip_kb=tuple(on_chip_kb),
                  bandwidth_gbs=tuple(bandwidth_gbs),
                  stall_overlap=tuple(stall_overlap),
                  num_cores=tuple(int(c) for c in core_counts)))
    result = sweep(spec.jobs("lap_runtime"), mode="serial")
    rows = []
    for row in result.rows:
        leakage_w = _memory_subsystem_leakage_w(float(row["on_chip_kb"]),
                                                float(row["local_store_kb"]),
                                                int(row["num_cores"]))
        seconds = float(row["makespan_ns"]) * 1e-9
        static_energy_j = leakage_w * seconds
        rows.append({
            "policy": row["policy"],
            "on_chip_kb": float(row["on_chip_kb"]),
            "bandwidth_gbs": float(row["bandwidth_gbs"]),
            "stall_overlap": float(row["stall_overlap"]),
            "local_store_kb": float(row["local_store_kb"]),
            "n": int(row["n"]),
            "tile": int(row["tile"]),
            "num_cores": int(row["num_cores"]),
            "makespan_cycles": int(row["makespan_cycles"]),
            "spill_bytes": int(row["spill_bytes"]),
            "local_hit_rate": float(row["local_hit_rate"]),
            "dynamic_energy_j": float(row["energy_j"]),
            "static_energy_j": static_energy_j,
            "total_energy_j": float(row["energy_j"]) + static_energy_j,
            "gflops_per_w": float(row["gflops_per_w"]),
        })
    from repro.engine import pareto_frontier

    frontier = pareto_frontier(rows,
                               objectives=("total_energy_j", "makespan_cycles"),
                               minimize=("total_energy_j", "makespan_cycles"))
    frontier_ids = {id(row) for row in frontier}
    for row in rows:
        row["on_frontier"] = id(row) in frontier_ids
    return rows
