#!/usr/bin/env python
"""Design-space exploration: size a LAP for a target GEMM workload.

This is the workflow of Chapters 3 and 4: pick the core dimension and local
store, then size the number of cores, the on-chip memory and the off-chip
bandwidth of the chip, and finally compare the resulting design against
published CPUs and GPUs.

The chip-level sweeps run through the :mod:`repro.engine` sweep engine, so
they can fan out over worker processes (``--mode process``) and reuse
previous results from an on-disk cache (``--cache-dir .sweep-cache``).

Run with:  python examples/design_space_exploration.py [--target-gflops 600]
"""

from __future__ import annotations

import argparse

from repro.arch.database import chip_level_specs
from repro.arch.lap_design import build_pe, find_sweet_spot_frequency
from repro.engine import (SweepSpec, best_per_metric, pareto_frontier, sweep,
                          usable_cache_dir)
from repro.experiments.report import render_table
from repro.hw.fpu import Precision
from repro.models.core_model import CoreGEMMModel


def explore_core(frequency: float) -> dict:
    """Pick the smallest local store that sustains peak at 4 bytes/cycle."""
    model = CoreGEMMModel(nr=4)
    bw_elements = 4.0 / 8.0
    kc = model.smallest_kc_for_peak(bw_elements, n=512)
    store_kb = model.local_store_bytes_per_pe(kc, kc, full_overlap=True) / 1024.0
    pe = build_pe(Precision.DOUBLE, frequency, local_store_kbytes=store_kb)
    return {"kc": kc, "local_store_kbytes": round(store_kb, 1),
            "pe_area_mm2": round(pe.area_mm2, 3),
            "pe_power_mw": round(1e3 * pe.total_power_w, 1)}


def explore_chip(target_gflops: float, frequency: float, mode: str,
                 cache_dir: str) -> list:
    """Sweep core counts and off-chip bandwidths to hit the target throughput."""
    spec = (SweepSpec()
            .constants(nr=4, n=2048, frequency_ghz=frequency)
            .grid(num_cores=(4, 8, 12, 16, 24, 32),
                  offchip_bw_bytes_per_cycle=(8, 16, 24, 32)))
    result = sweep(spec.jobs("chip_gemm"), mode=mode, cache_dir=cache_dir)
    print(f"   engine: {result.summary()}")
    return [{
        "cores": row["num_cores"],
        "offchip_B_per_cycle": int(row["offchip_bw_bytes_per_cycle"]),
        "onchip_MB": round(row["onchip_memory_mbytes"], 1),
        "utilization_pct": round(row["utilization_pct"], 1),
        "gflops": round(row["gflops"], 1),
        "meets_target": row["gflops"] >= target_gflops,
    } for row in result.rows]


def evaluate_designs(rows: list, frequency: float, local_store_kbytes: float,
                     mode: str, cache_dir: str) -> list:
    """Evaluate area/power/efficiency of every feasible chip configuration."""
    spec = (SweepSpec()
            .constants(nr=4, precision="double", frequency_ghz=frequency,
                       local_store_kbytes=local_store_kbytes)
            .zip(cores=[r["cores"] for r in rows],
                 onchip_mbytes=[max(0.5, r["onchip_MB"]) for r in rows],
                 utilization=[r["utilization_pct"] / 100.0 for r in rows]))
    result = sweep(spec.jobs("design"), mode=mode, cache_dir=cache_dir)
    return result.rows


def verify_runtime_and_factorizations(mode: str, cache_dir: str) -> list:
    """Cross-check the chosen design with the cycle-level schedulers.

    Runs blocked GEMM task graphs through the LAP runtime (sweeping core
    counts), the Cholesky/LU/QR tile graphs under every scheduling policy,
    and the three blocked factorizations on the LAC simulator; every row
    carries a ``residual`` against the numpy reference, so the analytical
    sweep above is backed by verified executions.
    """
    runtime_jobs = (SweepSpec()
                    .constants(tile=8, nr=4, n=16, seed=0)
                    .grid(algorithm=("gemm",), num_cores=(1, 2, 4))
                    .jobs("lap_runtime"))
    # Every factorization workload of the task-graph runtime under every
    # scheduling policy (memoized timing: one functional warm-up per tile
    # kernel shape, the rest is pure scheduling).
    policy_jobs = (SweepSpec()
                   .constants(tile=8, nr=4, n=16, seed=0, num_cores=2,
                              timing="memoized")
                   .grid(algorithm=("cholesky", "lu", "qr"),
                         policy=("greedy", "critical_path", "locality"))
                   .jobs("lap_runtime"))
    fact_jobs = (SweepSpec()
                 .constants(nr=4, n=8, seed=0)
                 .grid(method=("cholesky", "lu", "qr"))
                 .jobs("blocked_fact"))
    result = sweep(runtime_jobs + policy_jobs + fact_jobs, mode=mode,
                   cache_dir=cache_dir)
    print(f"   engine: {result.summary()}")
    rows = []
    for row in result.rows[:len(runtime_jobs)]:
        rows.append({"what": f"gemm tasks on {row['num_cores']} core(s)",
                     "cycles": row["makespan_cycles"],
                     "efficiency_pct": round(100 * row["parallel_efficiency"], 1),
                     "residual": f"{row['residual']:.1e}"})
    for row in result.rows[len(runtime_jobs):len(runtime_jobs) + len(policy_jobs)]:
        rows.append({"what": f"{row['algorithm']} graph, {row['policy']} policy",
                     "cycles": row["makespan_cycles"],
                     "efficiency_pct": round(100 * row["parallel_efficiency"], 1),
                     "residual": f"{row['residual']:.1e}"})
    for row in result.rows[len(runtime_jobs) + len(policy_jobs):]:
        rows.append({"what": f"blocked {row['method']}",
                     "cycles": row["cycles"],
                     "efficiency_pct": round(100 * row["utilization"], 1),
                     "residual": f"{row['residual']:.1e}"})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target-gflops", type=float, default=600.0,
                        help="target double-precision GEMM throughput")
    parser.add_argument("--mode", choices=["auto", "serial", "process"],
                        default="auto", help="sweep engine execution backend")
    parser.add_argument("--cache-dir", default=None,
                        help="reuse sweep results from this directory")
    args = parser.parse_args()
    args.cache_dir = usable_cache_dir(args.cache_dir)

    sweet = find_sweet_spot_frequency(Precision.DOUBLE)
    print(f"1. PE sweet-spot frequency: {sweet:.2f} GHz")
    core_choice = explore_core(sweet)
    print(f"2. Core design point: {core_choice}")
    print()

    print(f"3. Chip-level sweep toward {args.target_gflops:.0f} DP GFLOPS:")
    rows = explore_chip(args.target_gflops, sweet, args.mode, args.cache_dir)
    feasible = [r for r in rows if r["meets_target"]]
    print(render_table(rows, max_rows=16))
    print()
    if not feasible:
        print("   no configuration meets the target; increase cores or bandwidth")
        return
    best = min(feasible, key=lambda r: (r["cores"], r["offchip_B_per_cycle"]))
    print(f"   smallest feasible configuration: {best}")
    print()

    designs = evaluate_designs(feasible, sweet, core_choice["local_store_kbytes"],
                               args.mode, args.cache_dir)
    chosen = next(d for d in designs if d["cores"] == best["cores"])
    print("4. Resulting LAP design point:")
    print(f"   area        : {chosen['area_mm2']:8.1f} mm^2")
    print(f"   power       : {chosen['power_w']:8.1f} W")
    print(f"   throughput  : {chosen['gflops']:8.1f} GFLOPS")
    print(f"   efficiency  : {chosen['gflops_per_w']:8.1f} GFLOPS/W, "
          f"{chosen['gflops_per_mm2']:.1f} GFLOPS/mm^2")
    print()

    frontier = pareto_frontier(designs)
    print(f"   Pareto frontier of the {len(designs)} feasible designs "
          f"(GFLOPS, GFLOPS/W, GFLOPS/mm^2): {len(frontier)} points")
    print(render_table(frontier,
                       columns=["cores", "onchip_mbytes", "area_mm2", "power_w",
                                "gflops", "gflops_per_w", "gflops_per_mm2"]))
    winners = best_per_metric(designs)
    for metric, row in winners.items():
        print(f"   best {metric:<15s}: cores={row['cores']}, "
              f"{row[metric]:.1f}")
    print()

    print("5. Published chips running DGEMM (45 nm scaled), for comparison:")
    comparison = [{"architecture": s.name, "gflops": s.gflops,
                   "gflops_per_w": s.gflops_per_watt,
                   "gflops_per_mm2": s.gflops_per_mm2}
                  for s in chip_level_specs("double") if not s.is_lap]
    print(render_table(comparison))
    print()

    print("6. Cycle-level verification (LAP runtime + blocked factorizations):")
    checks = verify_runtime_and_factorizations(args.mode, args.cache_dir)
    print(render_table(checks))


if __name__ == "__main__":
    main()
