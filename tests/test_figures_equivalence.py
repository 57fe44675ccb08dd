"""Equivalence proofs for the figure generators migrated onto repro.engine.

Each ``_legacy_*`` function below is the pre-migration serial
implementation of a figure generator, preserved verbatim (modulo local
imports).  The tests assert that the engine-backed generators return the
same rows — same order, same keys, every value within 1e-9 relative.
"""

from typing import Dict, List

import pytest

from repro.experiments import figures


# --------------------------------------------------- legacy implementations
def _legacy_fig_4_2() -> List[Dict]:
    from repro.models.chip_model import ChipGEMMModel

    rows: List[Dict] = []
    kc_values = [32, 64, 96, 128, 192, 256, 384, 512]
    for num_cores, nr in ((8, 4), (2, 8)):
        model = ChipGEMMModel(num_cores=num_cores, nr=nr)
        rows.extend(model.sweep_onchip_memory_vs_bandwidth(
            n_values=[512, 1024, 2048], kc_values=kc_values))
    return rows


def _legacy_fig_4_3(n: int = 1024) -> List[Dict]:
    from repro.models.chip_model import ChipGEMMModel

    rows: List[Dict] = []
    single_core = ChipGEMMModel(num_cores=1, nr=4)
    kc_values = [32, 64, 128, 256]
    base = None
    for kc in kc_values:
        res = single_core.cycles_onchip(kc, kc, n,
                                        single_core.onchip_bandwidth_words_per_cycle(kc, kc, n))
        if base is None or res.total_cycles < base:
            base = res.total_cycles
    for num_cores, bw_total in ((4, 1), (8, 2), (12, 3), (16, 4),
                                (4, 2), (8, 4), (12, 6), (16, 8),
                                (4, 4), (8, 8), (12, 12), (16, 16),
                                (4, 8), (8, 16), (12, 24), (16, 32)):
        model = ChipGEMMModel(num_cores=num_cores, nr=4)
        for kc in kc_values:
            if num_cores * kc > n:
                continue
            mem_words = model.onchip_memory_words(kc, kc, n)
            res = model.cycles_onchip(kc, kc, n, float(bw_total))
            rows.append({
                "num_cores": num_cores,
                "bw_words_per_cycle": bw_total,
                "onchip_memory_mbytes": mem_words * 8 / 2 ** 20,
                "relative_performance_pct": 100.0 * base / res.total_cycles if base else 0.0,
                "utilization_pct": 100.0 * res.utilization,
            })
    return rows


def _legacy_fig_5_8_5_9() -> List[Dict]:
    from repro.models.blas_model import BlasCoreModel, Level3Operation

    rows: List[Dict] = []
    kc_values = [16, 32, 64, 96, 128, 192, 256, 320, 384, 448, 512]
    for nr in (4, 8):
        model = BlasCoreModel(nr=nr)
        for op in (Level3Operation.SYRK, Level3Operation.TRSM):
            for bw_bytes in (1, 2, 3, 4, 8):
                for kc in kc_values:
                    res = model.utilization(op, mc=kc, kc=kc, n=512,
                                            bandwidth_elements_per_cycle=bw_bytes / 8.0)
                    rows.append({
                        "operation": op.value,
                        "nr": nr,
                        "bandwidth_bytes_per_cycle": bw_bytes,
                        "local_store_kbytes_per_pe": res.local_store_kbytes_per_pe,
                        "utilization_pct": 100.0 * res.utilization,
                    })
    return rows


def _legacy_fig_5_10() -> List[Dict]:
    from repro.models.blas_model import BlasCoreModel

    rows: List[Dict] = []
    kc_values = [16, 32, 64, 96, 128, 192, 256, 320, 384, 448, 512]
    for nr, bw_bytes in ((4, 4), (8, 8)):
        model = BlasCoreModel(nr=nr)
        for kc in kc_values:
            for res in model.compare_operations(mc=kc, kc=kc, n=512,
                                                bandwidth_elements_per_cycle=bw_bytes / 8.0):
                rows.append({
                    "operation": res.operation.value,
                    "nr": nr,
                    "bandwidth_bytes_per_cycle": bw_bytes,
                    "local_store_kbytes_per_pe": res.local_store_kbytes_per_pe,
                    "utilization_pct": 100.0 * res.utilization,
                })
    return rows


def _legacy_fig_6_6_6_7() -> List[Dict]:
    from repro.arch.lap_design import build_pe
    from repro.hw.fpu import Precision
    from repro.hw.sfu import SFUPlacement
    from repro.models.fact_model import (FactorizationKernel,
                                         FactorizationKernelModel, MACExtension)

    model = FactorizationKernelModel(nr=4)
    core_area = 16 * build_pe(Precision.DOUBLE, 1.0, 16.0).area_mm2
    rows: List[Dict] = []
    cases = [
        (FactorizationKernel.VECTOR_NORM,
         [MACExtension.NONE, MACExtension.COMPARATOR, MACExtension.EXPONENT]),
        (FactorizationKernel.LU, [MACExtension.NONE, MACExtension.COMPARATOR]),
    ]
    for kernel, extensions in cases:
        for k in (64, 128, 256):
            for placement in SFUPlacement:
                for ext in extensions:
                    res = model.evaluate(kernel, k, placement, ext)
                    eff = model.efficiency(res, core_area)
                    rows.append({
                        "kernel": kernel.value,
                        "k": k,
                        "sfu": placement.value,
                        "mac_extension": ext.value,
                        "gflops_per_w": eff.gflops_per_watt,
                        "gflops_per_mm2": eff.gflops_per_mm2,
                        "inverse_energy_delay": eff.inverse_energy_delay,
                        "cycles": res.cycles,
                    })
    return rows


CASES = {
    "fig_4_2": (figures.fig_4_2_onchip_bw_vs_memory, _legacy_fig_4_2),
    "fig_4_3": (figures.fig_4_3_performance_vs_cores_and_bw, _legacy_fig_4_3),
    "fig_5_8_5_9": (figures.fig_5_8_5_9_syrk_trsm_utilization, _legacy_fig_5_8_5_9),
    "fig_5_10": (figures.fig_5_10_blas_utilization_comparison, _legacy_fig_5_10),
    "fig_6_6_6_7": (figures.fig_6_6_6_7_factorization_efficiency, _legacy_fig_6_6_6_7),
}


def _assert_rows_equivalent(new_rows, legacy_rows):
    assert len(new_rows) == len(legacy_rows)
    for index, (new, legacy) in enumerate(zip(new_rows, legacy_rows)):
        assert set(new) == set(legacy), f"row {index}: key mismatch"
        for key, legacy_value in legacy.items():
            value = new[key]
            if isinstance(legacy_value, (int, float)) and not isinstance(legacy_value, bool):
                assert value == pytest.approx(legacy_value, rel=1e-9, abs=1e-12), \
                    f"row {index}, metric '{key}'"
            else:
                assert value == legacy_value, f"row {index}, metric '{key}'"


@pytest.mark.parametrize("name", sorted(CASES))
def test_migrated_generator_matches_legacy_rows(name):
    migrated, legacy = CASES[name]
    _assert_rows_equivalent(migrated(), legacy())
