"""The dissertation's qualitative claims, checked on the regenerated data.

Each test regenerates one table, figure or ablation of the evaluation and
asserts the claim it supports (delayed normalization saves ~15% of MAC
power, SYRK passes 85% utilisation at 20 KB/PE and 4 B/cycle, the LAP beats
GPUs and CPUs in GFLOPS/W, ...).  The goldens pin the numbers; these tests
pin what the numbers must show, so a regenerated golden cannot quietly
break a claim.  A claim that a model or architecture test already asserts
with the same or a tighter bound lives only there.
"""

import dataclasses
import functools

import pytest

from repro.arch.lap_design import build_pe
from repro.experiments.registry import run_experiment
from repro.hw.bus import BroadcastBus
from repro.hw.fpu import FMACUnit, Precision
from repro.hw.memory import NUCACache, OnChipMemory
from repro.hw.sfu import SFUPlacement, SpecialFunctionUnit
from repro.hw.sram import SRAMConfig, SRAMModel, pe_store_b
from repro.models.core_model import CoreGEMMModel
from repro.models.fact_model import (FactorizationKernel, FactorizationKernelModel,
                                     MACExtension)


@pytest.fixture(scope="module")
def experiment():
    """``experiment(exp_id)``: the experiment's data, regenerated once per module."""
    return functools.lru_cache(maxsize=None)(run_experiment)


# ------------------------------------------------------ ablations (Ch. 3-6)
def test_ablation_delayed_normalization():
    """Single-cycle accumulation with delayed normalization saves ~15% MAC power."""
    with_dn = FMACUnit(precision=Precision.DOUBLE, delayed_normalization=True)
    without = FMACUnit(precision=Precision.DOUBLE, delayed_normalization=False)
    saving = 1.0 - with_dn.dynamic_power_w / without.dynamic_power_w
    assert 0.10 <= saving <= 0.20


def test_ablation_replicated_b_enables_full_overlap():
    """Replicating B in MEM B (freeing the column buses) buys peak utilisation.

    Without the replicated copy the column buses must carry the B broadcasts,
    so prefetching of the next operands cannot overlap with computation --
    modelled as the partial-overlap variant of the core model.
    """
    model = CoreGEMMModel(nr=4)
    partial = model.cycles(mc=128, kc=128, n=512, bandwidth_elements_per_cycle=0.6,
                           full_overlap=False)
    full = model.cycles(mc=128, kc=128, n=512, bandwidth_elements_per_cycle=0.6,
                        full_overlap=True)
    assert full.utilization > partial.utilization
    assert full.utilization > 0.95
    # The price of replication: a second (small, dual-ported) PE store.
    replicated_store = pe_store_b(2 * 1024)
    pe = build_pe(Precision.DOUBLE, 1.0, local_store_kbytes=16.0)
    assert replicated_store.area_mm2 < 0.25 * pe.area_mm2


def test_ablation_accumulator_avoids_register_file_traffic():
    """Keeping C in the MAC accumulator removes two RF accesses per MAC.

    A conventional SIMD datapath reads and writes the accumulating register
    through the register file every cycle; the LAC touches its accumulator
    register inside the MAC unit instead.  Even this conservative estimate
    (only the C read + write, SRAM-like cell energy) is ~10% of the MAC
    energy on every cycle; a real multi-ported SIMD register file with
    operand reads pays several times more.
    """
    mac_energy = FMACUnit(precision=Precision.DOUBLE, frequency_ghz=1.0).energy_per_mac_j
    rf = SRAMModel(SRAMConfig(capacity_bytes=2048, ports=4, word_bytes=8))
    rf_energy = 2.0 * rf.energy_per_access_j      # one read + one write
    assert rf_energy > 0.08 * mac_energy


@pytest.mark.parametrize("kernel", [FactorizationKernel.LU, FactorizationKernel.VECTOR_NORM])
def test_ablation_sfu_placement(kernel):
    """Hardware divide/sqrt costs <5% core area but speeds inner kernels up a lot."""
    model = FactorizationKernelModel(nr=4)
    sw = model.evaluate(kernel, 128, SFUPlacement.SOFTWARE, MACExtension.NONE)
    diag = model.evaluate(kernel, 128, SFUPlacement.DIAGONAL, MACExtension.NONE)
    assert sw.cycles / diag.cycles > 1.05
    area_overhead = SpecialFunctionUnit(placement=SFUPlacement.DIAGONAL, nr=4).area_mm2
    core_area = 16 * build_pe(Precision.DOUBLE, 1.0, 16.0).area_mm2
    assert area_overhead < 0.05 * core_area


def test_ablation_sram_vs_nuca_onchip_memory():
    """The plain banked SRAM beats the NUCA cache in both area and access energy."""
    sram = OnChipMemory(capacity_bytes=4 * 2 ** 20, banks=8)
    nuca = NUCACache(capacity_bytes=4 * 2 ** 20, banks=8,
                     required_bandwidth_bytes_per_cycle=32.0)
    assert nuca.area_mm2 > 1.1 * sram.area_mm2
    assert nuca.energy_per_access_j() > 1.5 * sram.energy_per_access_j()


def test_ablation_core_dimension_scaling():
    """Growing the mesh from 4x4 to 8x8 quadruples compute for 2x bus length.

    The quadrupled peak and bandwidth demand are asserted in
    ``test_models_core.py``, and the 8-PE bus's clock in ``test_hw_bus.py``.
    """
    assert BroadcastBus(span_pes=8).length_mm == pytest.approx(
        2.0 * BroadcastBus(span_pes=4).length_mm)


def test_ablation_mac_extensions_cost_vs_benefit():
    """The comparator / exponent MAC extensions cost a few percent, save many cycles."""
    model = FactorizationKernelModel(nr=4)
    base_unit = FMACUnit(precision=Precision.DOUBLE)
    ext_unit = dataclasses.replace(base_unit, has_comparator=True, extended_exponent=True)
    assert ext_unit.area_mm2 < 1.06 * base_unit.area_mm2

    def cycles(kernel, extension):
        return model.evaluate(kernel, 256, SFUPlacement.DIAGONAL, extension).cycles

    assert (cycles(FactorizationKernel.LU, MACExtension.COMPARATOR)
            < cycles(FactorizationKernel.LU, MACExtension.NONE))
    assert (cycles(FactorizationKernel.VECTOR_NORM, MACExtension.EXPONENT)
            < 0.75 * cycles(FactorizationKernel.VECTOR_NORM, MACExtension.NONE))


# ---------------------------------------------------------- core (Ch. 3)
def test_table_3_1(experiment):
    """PE design points: DP power efficiency tens of GFLOPS/W, SP ~2x better."""
    rows = experiment("table_3_1")
    sp = [r for r in rows if r["precision"] == "SP"]
    dp = [r for r in rows if r["precision"] == "DP"]
    assert len(sp) == 4 and len(dp) == 4
    # Every design point: positive area, power, efficiency.
    assert all(r["area_mm2"] > 0 and r["pe_mw"] > 0 and r["gflops_per_w"] > 0 for r in rows)
    # SP is substantially more power-efficient than DP at comparable clocks.
    sp_1ghz = next(r for r in sp if abs(r["frequency_ghz"] - 0.98) < 0.1)
    dp_1ghz = next(r for r in dp if abs(r["frequency_ghz"] - 0.95) < 0.1)
    assert sp_1ghz["gflops_per_w"] > 1.8 * dp_1ghz["gflops_per_w"]
    # DP at ~1 GHz sits in the tens of GFLOPS/W (paper: ~46 GFLOPS/W per PE).
    assert 25.0 <= dp_1ghz["gflops_per_w"] <= 70.0
    # Power efficiency falls monotonically with frequency within a precision.
    effs = [r["gflops_per_w"] for r in sorted(dp, key=lambda r: r["frequency_ghz"])]
    assert all(a >= b for a, b in zip(effs, effs[1:]))


def test_fig_3_4(experiment):
    """Core utilisation vs local store & bandwidth: more of either never hurts."""
    rows = experiment("fig_3_4")
    assert all(0.0 < r["utilization_pct"] <= 100.0 for r in rows)
    # At 8 B/cycle and a generous local store the nr=4 core reaches ~100%.
    best = [r for r in rows if r["nr"] == 4 and r["bandwidth_bytes_per_cycle"] == 8
            and r["local_store_kbytes_per_pe"] > 15]
    assert best and all(r["utilization_pct"] > 95.0 for r in best)
    # At a fixed bandwidth, utilisation is monotone in the local store size.
    series = sorted((r for r in rows if r["nr"] == 4 and r["bandwidth_bytes_per_cycle"] == 2),
                    key=lambda r: r["local_store_kbytes_per_pe"])
    utils = [r["utilization_pct"] for r in series]
    assert all(b >= a - 1e-9 for a, b in zip(utils, utils[1:]))
    # Starved bandwidth (1 B/cycle) with a small store cannot reach peak.
    starved = [r for r in rows if r["nr"] == 4 and r["bandwidth_bytes_per_cycle"] == 1
               and r["local_store_kbytes_per_pe"] < 4]
    assert starved and all(r["utilization_pct"] < 95.0 for r in starved)


def test_fig_3_5(experiment):
    """Bandwidth needed for peak falls as the local store grows; nr=8 needs more."""
    rows = experiment("fig_3_5")
    for nr in (4, 8):
        series = sorted((r for r in rows if r["nr"] == nr),
                        key=lambda r: r["local_store_kbytes_per_pe"])
        bws = [r["bandwidth_bytes_per_cycle"] for r in series]
        assert all(a >= b - 1e-9 for a, b in zip(bws, bws[1:]))
    # At matched local store, the 8x8 core demands more bandwidth than the 4x4.
    by_kc_4 = {round(r["local_store_kbytes_per_pe"]): r["bandwidth_bytes_per_cycle"]
               for r in rows if r["nr"] == 4}
    for r in rows:
        if r["nr"] == 8:
            partner = by_kc_4.get(round(r["local_store_kbytes_per_pe"]))
            if partner is not None:
                assert r["bandwidth_bytes_per_cycle"] > partner


def test_fig_3_6_3_7(experiment):
    """PE metric sweep: ~1 GHz is the sweet spot between the competing metrics.

    Where ``find_sweet_spot_frequency`` lands is asserted in ``test_arch.py``.
    """
    by_f = {r["frequency_ghz"]: r for r in experiment("fig_3_6")}
    # Energy-delay keeps improving with frequency; area efficiency too.
    assert by_f[1.0]["energy_delay"] < by_f[0.33]["energy_delay"]
    assert by_f[1.0]["mm2_per_gflop"] < by_f[0.33]["mm2_per_gflop"]
    # Power efficiency degrades sharply beyond ~1 GHz (40%+ worse at 1.81 GHz).
    assert by_f[1.81]["gflops_per_w"] < 0.75 * by_f[0.95]["gflops_per_w"]


def test_table_3_2(experiment):
    """Core-level comparison: the LAC leads every competitor in GFLOPS/W."""
    rows = experiment("table_3_2")
    lac_sp = next(r for r in rows if r["architecture"] == "LAC (SP)")
    lac_dp = next(r for r in rows if r["architecture"] == "LAC (DP)")
    competitors_sp = [r for r in rows if not r["is_lap"] and r["precision"] == "single"]
    competitors_dp = [r for r in rows if not r["is_lap"] and r["precision"] == "double"]
    assert all(lac_sp["gflops_per_w"] > r["gflops_per_w"] for r in competitors_sp)
    assert all(lac_dp["gflops_per_w"] > r["gflops_per_w"] for r in competitors_dp)
    # An order of magnitude against GPU streaming multiprocessors.
    gtx280 = next(r for r in rows if r["architecture"] == "Nvidia GTX280 SM")
    assert lac_sp["gflops_per_w"] > 10 * gtx280["gflops_per_w"]
    # Area efficiency (GFLOPS/mm^2) of the LAC is also the best in class.
    assert all(lac_sp["gflops_per_mm2"] >= r["gflops_per_mm2"] for r in competitors_sp)


# ---------------------------------------------------------- chip (Ch. 4)
def test_table_4_1(experiment):
    """Hierarchy requirements: full overlap needs more memory, less stall."""
    by_key = {(r["level"], r["overlap"]): r for r in experiment("table_4_1")}
    # Full overlap doubles the resident C / A storage at core and chip level.
    assert by_key[("core", "full")]["memory_words"] > by_key[("core", "partial")]["memory_words"]
    assert by_key[("chip", "full")]["memory_words"] > by_key[("chip", "partial")]["memory_words"]
    # Off-chip bandwidth demand for full overlap is exactly twice the partial one.
    assert by_key[("off-chip", "full")]["bandwidth_words_per_cycle"] == pytest.approx(
        2.0 * by_key[("off-chip", "partial")]["bandwidth_words_per_cycle"])
    # The chip-level on-chip memory is dominated by the n x n block of C.
    assert by_key[("chip", "partial")]["memory_words"] >= 2048 * 2048


def test_fig_4_2(experiment):
    """On-chip BW vs memory: demand grows steeply as the memory shrinks."""
    rows = experiment("fig_4_2")
    assert all(r["utilization"] > 0.9 for r in rows)
    series = sorted((r for r in rows if r["num_cores"] == 8 and r["n"] == 2048),
                    key=lambda r: r["onchip_memory_mbytes"])
    bws = [r["onchip_bandwidth_bytes_per_cycle"] for r in series]
    assert all(a >= b - 1e-9 for a, b in zip(bws, bws[1:]))
    # For the same blocking (same bandwidth demand), bigger problems need more
    # on-chip memory: the n = 2048 curve lies to the right of the n = 512 one.
    for num_cores in (8, 2):
        per_kc = {}
        for r in rows:
            if r["num_cores"] == num_cores:
                per_kc.setdefault(r["kc"], {})[r["n"]] = r["onchip_memory_mbytes"]
        for kc, by_n in per_kc.items():
            sizes = [by_n[n] for n in sorted(by_n)]
            assert all(b > a for a, b in zip(sizes, sizes[1:])), (num_cores, kc)
    # The fewer-but-bigger-cores organisation (S=2, nr=8) reaches the same
    # aggregate bandwidth demand with far less of the memory spent on resident
    # A blocks (2 blocks instead of 8), i.e. a smaller footprint at equal kc.
    s8 = {r["kc"]: r["onchip_memory_mbytes"] for r in rows
          if r["num_cores"] == 8 and r["n"] == 2048}
    s2 = {r["kc"]: r["onchip_memory_mbytes"] for r in rows
          if r["num_cores"] == 2 and r["n"] == 2048}
    common = set(s8) & set(s2)
    assert common and all(s2[kc] < s8[kc] for kc in common)


def test_fig_4_3(experiment):
    """Scaling cores without superlinear bandwidth growth stalls utilisation."""
    rows = experiment("fig_4_3")
    # At the smallest blocking (least on-chip memory), configurations with the
    # same S/BW ratio show essentially the same utilisation: scaling the core
    # count with only a linear bandwidth increase buys no efficiency.
    smallest_mem = {}
    for r in rows:
        if r["bw_words_per_cycle"] * 4 != r["num_cores"]:
            continue
        best = smallest_mem.get(r["num_cores"])
        if best is None or r["onchip_memory_mbytes"] < best["onchip_memory_mbytes"]:
            smallest_mem[r["num_cores"]] = r
    utils = [r["utilization_pct"] for r in smallest_mem.values()]
    assert len(utils) >= 3
    assert (max(utils) - min(utils)) / max(utils) < 0.20
    # For a fixed core count, more bandwidth raises utilisation.
    s16 = [r for r in rows if r["num_cores"] == 16]
    low_bw = min(s16, key=lambda r: r["bw_words_per_cycle"])
    high_bw = max(s16, key=lambda r: r["bw_words_per_cycle"])
    assert high_bw["utilization_pct"] > low_bw["utilization_pct"]
    # With generous bandwidth, 16 cores clearly outperform 4 cores.
    rich = [r for r in rows if r["bw_words_per_cycle"] >= 2 * r["num_cores"]]
    p16 = max(r["relative_performance_pct"] for r in rich if r["num_cores"] == 16)
    p4 = max(r["relative_performance_pct"] for r in rich if r["num_cores"] == 4)
    assert p16 > 2.5 * p4


def test_fig_4_5(experiment):
    """Off-chip BW vs on-chip memory trade-off for several problem sizes."""
    rows = experiment("fig_4_5")
    for n in (512, 1024, 2048):
        series = sorted((r for r in rows if r["n"] == n),
                        key=lambda r: r["onchip_memory_mbytes"])
        bws = [r["offchip_bandwidth_bytes_per_cycle"] for r in series]
        # Bandwidth demand grows as the resident fraction of C shrinks.
        assert all(a >= b - 1e-9 for a, b in zip(bws, bws[1:]))
    # Bigger problems need less off-chip bandwidth at the same memory size.
    big = [r for r in rows if r["n"] == 2048 and r["ns"] == 512][0]
    small = [r for r in rows if r["n"] == 1024 and r["ns"] == 512][0]
    assert big["offchip_bandwidth_bytes_per_cycle"] <= small["offchip_bandwidth_bytes_per_cycle"]


def test_fig_4_6(experiment):
    """LAP GFLOPS vs off-chip bandwidth and memory size (headline ~600 GFLOPS)."""
    rows = experiment("fig_4_6")
    # With 16 cores, a large on-chip block and 16 B/cycle the LAP sustains
    # >80% of its 716-GFLOPS peak (the paper quotes ~600 of 700 GFLOPS).
    best = [r for r in rows if r["num_cores"] == 16 and r["n"] == 1024
            and r["offchip_bw_bytes_per_cycle"] >= 16]
    assert best and all(r["gflops"] > 550.0 for r in best)
    # Small on-chip memory (small n) limits achievable utilisation.
    starved = [r for r in rows if r["num_cores"] == 16 and r["n"] == 256
               and r["offchip_bw_bytes_per_cycle"] == 4]
    rich = [r for r in rows if r["num_cores"] == 16 and r["n"] == 1024
            and r["offchip_bw_bytes_per_cycle"] == 4]
    assert starved[0]["utilization_pct"] < rich[0]["utilization_pct"]


# ------------------------------------------------- power / area (Sec. 4.4)
def test_fig_4_7_4_8(experiment):
    """PE area/power vs local store size: store dominates area, FPU dominates power."""
    rows = experiment("fig_4_7_4_8")
    # Area grows monotonically with the local store size.
    areas = [r["pe_area_mm2"] for r in rows]
    assert all(b >= a for a, b in zip(areas, areas[1:]))
    big = rows[-1]
    # At ~18-20 KB the local store occupies the majority (up to ~2/3) of the PE.
    assert big["store_area_mm2"] > 0.5 * big["pe_area_mm2"]
    # The overall PE power is dominated by the FPU, not the store.
    assert all(r["fpu_mw_per_gflop"] > r["store_mw_per_gflop"] for r in rows)
    # Smaller local stores consume (slightly) less PE power.
    assert rows[0]["pe_mw_per_gflop"] <= rows[-1]["pe_mw_per_gflop"] * 1.05


def test_fig_4_9_4_10(experiment):
    """With domain-specific SRAM, the cores dominate chip power at every size."""
    rows = experiment("fig_4_9_4_10")
    assert all(r["memory_type"] == "sram" for r in rows)
    for r in rows:
        assert r["cores_mw_per_gflop"] > r["memory_mw_per_gflop"]
        assert r["chip_area_mm2"] == pytest.approx(r["cores_area_mm2"] + r["memory_area_mm2"])
    # Memory area overtakes core area only for the largest configurations.
    assert rows[0]["memory_area_mm2"] < rows[0]["cores_area_mm2"]


def test_fig_4_11_4_12(experiment):
    """With a NUCA cache, the memory dominates area and (at small sizes) power."""
    nuca = experiment("fig_4_11_4_12")
    sram = experiment("fig_4_9_4_10")
    by_size_sram = {r["onchip_memory_mbytes"]: r for r in sram}
    for r in nuca:
        partner = by_size_sram[r["onchip_memory_mbytes"]]
        # NUCA costs strictly more area and power than the plain SRAM design
        # at every capacity (tags, associative lookup, bandwidth pressure),
        # and the penalty is steepest where fast banks are forced (small sizes).
        assert r["memory_area_mm2"] > partner["memory_area_mm2"]
        assert r["memory_mw_per_gflop"] > 1.2 * partner["memory_mw_per_gflop"]
        if r["onchip_memory_mbytes"] <= 1.0:
            assert r["memory_mw_per_gflop"] > 1.5 * partner["memory_mw_per_gflop"]
        assert r["chip_area_mm2"] > partner["chip_area_mm2"]
    # Beyond a few MB the NUCA memory occupies more area than the compute cores.
    large_caps = [r for r in nuca if r["onchip_memory_mbytes"] >= 8.0]
    assert large_caps and all(r["memory_area_mm2"] > r["cores_area_mm2"] for r in large_caps)
    # In the SRAM organisation the cores dominate the chip area up to ~8 MB.
    sram_small = [r for r in sram if r["onchip_memory_mbytes"] <= 4.0]
    assert sram_small and all(r["memory_area_mm2"] < r["cores_area_mm2"] for r in sram_small)


# -------------------------------------------- CPU/GPU comparison (Sec. 4.5)
def test_fig_4_13_to_4_15(experiment):
    """Normalised power breakdowns: GPUs/CPUs are overhead-dominated, the LAP is not."""
    data = experiment("fig_4_13_4_15")
    # Every breakdown is W/GFLOPS per component, all positive.
    for arch, series in data.items():
        assert all(v >= 0.0 for v in series.values()), arch
    # Register files are a dominant consumer on both GPUs (> FPU share).
    for gpu in ("GTX280_SGEMM", "GTX480_SGEMM", "GTX480_DGEMM"):
        assert data[gpu]["Register File"] > data[gpu]["FPUs"]
    # Each LAP consumes an order of magnitude less W/GFLOPS than its counterpart.
    pairs = [("GTX280_SGEMM", "LAP_vs_GTX280"), ("GTX480_SGEMM", "LAP_vs_GTX480_SP"),
             ("GTX480_DGEMM", "LAP_vs_GTX480_DP"), ("Penryn_DGEMM", "LAP_vs_Penryn")]
    for reference, lap in pairs:
        assert sum(data[lap].values()) < sum(data[reference].values()) / 8.0, (reference, lap)


def test_fig_4_16(experiment):
    """GFLOPS/W at equal throughput: LAP wins by roughly an order of magnitude.

    The four rows and the 8x advantage are asserted in ``test_arch.py``.
    """
    rows = experiment("fig_4_16")
    assert all(row["lap_gflops_per_w"] > row["reference_gflops_per_w"] for row in rows)
    # Single-precision comparisons show the largest margins.
    sp_rows = [r for r in rows if "SGEMM" in r["reference"]]
    assert all(r["advantage"] > 15.0 for r in sp_rows)


def test_table_4_2(experiment):
    """Chip-level comparison: LAP leads GFLOPS/W and inverse energy-delay."""
    rows = experiment("table_4_2")
    laps = [r for r in rows if r["is_lap"]]
    others = [r for r in rows if not r["is_lap"]]
    assert len(laps) == 2
    for lap in laps:
        peers = [r for r in others if r["precision"] == lap["precision"]]
        assert all(lap["gflops2_per_w"] > r["gflops2_per_w"] for r in peers)
        assert all(lap["gflops_per_w"] >= r["gflops_per_w"] for r in peers)
    # The double-precision LAP achieves >= 15 GFLOPS/W (paper: 15-25 range).
    lap_dp = next(r for r in laps if r["precision"] == "double")
    assert lap_dp["gflops_per_w"] >= 15.0
    # Power density of the LAP stays low (most area is SRAM).
    assert all(r["w_per_mm2"] <= 0.5 for r in laps)


def test_table_4_3(experiment):
    """Qualitative design-choice table: LAP removes instructions and big RFs."""
    rows = experiment("table_4_3")
    by_aspect = {r["aspect"]: r for r in rows}
    assert "no instructions" in by_aspect["Instruction pipeline"]["lap"].lower()
    assert "single-ported" in by_aspect["Register file"]["lap"].lower()
    assert "sram" in by_aspect["On-chip memory"]["lap"].lower()
    assert len(rows) >= 6


# -------------------------------------------------- level-3 BLAS (Ch. 5)
def test_fig_5_8(experiment):
    """SYRK utilisation vs local store & bandwidth: approaches peak with both."""
    syrk = [r for r in experiment("fig_5_8_5_9") if r["operation"] == "syrk"]
    assert syrk
    # Monotone in local store size at fixed bandwidth.
    series = sorted((r for r in syrk if r["nr"] == 4 and r["bandwidth_bytes_per_cycle"] == 4),
                    key=lambda r: r["local_store_kbytes_per_pe"])
    utils = [r["utilization_pct"] for r in series]
    assert all(b >= a - 1e-9 for a, b in zip(utils, utils[1:]))
    # Reaches ~90% with 20 KB/PE and 4 B/cycle.
    good = [r for r in series if r["local_store_kbytes_per_pe"] >= 20]
    assert good and all(r["utilization_pct"] > 85.0 for r in good)


def test_fig_5_9(experiment):
    """TRSM utilisation: close to GEMM for reasonable design points."""
    trsm = [r for r in experiment("fig_5_8_5_9") if r["operation"] == "trsm"]
    assert trsm
    good = [r for r in trsm if r["nr"] == 4 and r["bandwidth_bytes_per_cycle"] >= 4
            and r["local_store_kbytes_per_pe"] >= 20]
    assert good and all(r["utilization_pct"] > 90.0 for r in good)
    # Starved configurations are visibly worse.
    starved = [r for r in trsm if r["nr"] == 4 and r["bandwidth_bytes_per_cycle"] == 1
               and r["local_store_kbytes_per_pe"] < 3]
    assert starved and all(r["utilization_pct"] < 90.0 for r in starved)


def test_fig_5_10(experiment):
    """Utilisation ordering GEMM >= TRSM >= SYRK >= SYR2K at matched design points."""
    rows = experiment("fig_5_10")
    # Group by (nr, local store) and check the ordering of operations.
    groups = {}
    for r in rows:
        key = (r["nr"], round(r["local_store_kbytes_per_pe"], 3))
        groups.setdefault(key, {})[r["operation"]] = r["utilization_pct"]
    checked = 0
    for group in groups.values():
        if len(group) == 4:
            assert group["gemm"] >= group["trsm"] - 1e-9
            assert group["trsm"] >= group["syrk"] - 1.0
            assert group["syrk"] >= group["syr2k"] - 1e-9
            checked += 1
    assert checked >= 8
    # At generous design points everything is above 75% (paper: 85%+).
    generous = [r for r in rows if r["local_store_kbytes_per_pe"] >= 25]
    assert generous and all(r["utilization_pct"] > 75.0 for r in generous)


def test_table_5_1(experiment):
    """LAC efficiency for level-3 BLAS at 1.1 GHz: tens of DP GFLOPS/W for all."""
    rows = experiment("table_5_1")
    assert {r["operation"] for r in rows} == {"gemm", "trsm", "syrk", "syr2k"}
    for r in rows:
        assert r["utilization_pct"] > 70.0
        assert r["gflops_per_w"] > 20.0
        assert r["w_per_mm2"] < 1.0
    # GEMM remains the most efficient operation for both core sizes.
    for nr in (4, 8):
        group = {r["operation"]: r for r in rows if r["nr"] == nr}
        assert all(group["gemm"]["gflops_per_w"] >= group[op]["gflops_per_w"] - 1e-9
                   for op in ("trsm", "syrk", "syr2k"))


# ------------------------------------- factorizations (Ch. 6.1 / App. A)
def test_fig_6_5(experiment):
    """LAC area breakdown: the divide/sqrt extensions cost only a few percent."""
    by_option = {r["option"]: r for r in experiment("fig_6_5")}
    assert by_option["sw"]["sfu_area_mm2"] == 0.0
    assert by_option["isolate"]["sfu_area_mm2"] > 0.0
    assert by_option["diag"]["sfu_area_mm2"] > 0.0
    # Hardware options add well under 5% to the core area.
    for option in ("isolate", "diag"):
        assert by_option[option]["overhead_pct"] < 5.0


def _factorization_row(rows, kernel, k, sfu, mac_extension):
    return next(r for r in rows if r["kernel"] == kernel and r["k"] == k
                and r["sfu"] == sfu and r["mac_extension"] == mac_extension)


def test_fig_6_6(experiment):
    """Vector-norm efficiency: hardware sqrt and the exponent extension help."""
    rows = experiment("fig_6_6_6_7")
    # For every size, diagonal-PE hardware beats the software option.
    for k in {r["k"] for r in rows if r["kernel"] == "vnorm"}:
        sw = _factorization_row(rows, "vnorm", k, "sw", "none")
        diag = _factorization_row(rows, "vnorm", k, "diag", "none")
        assert diag["gflops_per_w"] > sw["gflops_per_w"]
    # The exponent extension improves efficiency at fixed placement and size.
    base = _factorization_row(rows, "vnorm", 256, "diag", "none")
    ext = _factorization_row(rows, "vnorm", 256, "diag", "exponent")
    assert ext["gflops_per_w"] > base["gflops_per_w"]
    assert ext["cycles"] < base["cycles"]


def test_fig_6_7(experiment):
    """LU efficiency: the comparator extension and bigger panels help."""
    rows = experiment("fig_6_6_6_7")
    lu = [r for r in rows if r["kernel"] == "lu"]
    # Comparator beats the baseline at every placement and size.
    for placement in ("sw", "isolate", "diag"):
        for k in {r["k"] for r in lu}:
            base = _factorization_row(lu, "lu", k, placement, "none")
            cmp_ = _factorization_row(lu, "lu", k, placement, "comparator")
            assert cmp_["gflops_per_w"] >= base["gflops_per_w"]
    # Efficiency grows with the panel height (more work amortises serial steps).
    diag_cmp = sorted((r for r in lu if r["sfu"] == "diag"
                       and r["mac_extension"] == "comparator"), key=lambda r: r["k"])
    effs = [r["gflops_per_w"] for r in diag_cmp]
    assert all(b >= a for a, b in zip(effs, effs[1:]))


def test_fig_a4_a8_area_and_energy_delay(experiment):
    """Area efficiency and inverse energy-delay follow the same ordering."""
    rows = experiment("fig_6_6_6_7")
    for kernel in ("lu", "vnorm"):
        sw = _factorization_row(rows, kernel, 256, "sw", "none")
        diag = _factorization_row(rows, kernel, 256, "diag", "none")
        assert diag["gflops_per_mm2"] > sw["gflops_per_mm2"]
        assert diag["inverse_energy_delay"] > sw["inverse_energy_delay"]


def test_table_a_2(experiment):
    """Cycle counts / energy across architecture options and problem sizes."""
    rows = experiment("table_a_2")
    assert {"cholesky", "lu", "vnorm"} <= {r["kernel"] for r in rows}
    assert all(r["cycles"] > 0 and r["dynamic_energy_nj"] > 0 for r in rows)
    # LU with larger panels costs more cycles and more energy.
    lu_diag = sorted((r for r in rows if r["kernel"] == "lu" and r["sfu"] == "diag"
                      and r["mac_extension"] == "comparator"), key=lambda r: r["k"])
    assert lu_diag[0]["cycles"] < lu_diag[-1]["cycles"]
    assert lu_diag[0]["dynamic_energy_nj"] < lu_diag[-1]["dynamic_energy_nj"]
    # The software divide/sqrt option is always the slowest for the same kernel/size.
    for kernel in ("lu", "vnorm"):
        for k in {r["k"] for r in rows if r["kernel"] == kernel}:
            options = {r["sfu"]: r["cycles"] for r in rows
                       if r["kernel"] == kernel and r["k"] == k and r["mac_extension"] == "none"}
            assert options["sw"] >= options["isolate"]
            assert options["sw"] >= options["diag"]


# ------------------------------------- FFT / hybrid core (Ch. 6.2 / App. B)
def test_table_6_2(experiment):
    """Cache-contained DP FFT: the LAC designs lead CPUs/GPUs by a wide margin.

    The margins over CPUs and GPUs are asserted in ``test_arch.py``.
    """
    by_design = {r["design"]: r["gflops_per_w"] for r in experiment("table_6_2")}
    assert by_design["LAC-fft"] >= by_design["LAC-hybrid"] * 0.9


def test_fig_6_9(experiment):
    """Hybrid design: both workloads supported with modest efficiency loss.

    The hybrid's GEMM and FFT efficiency and the FFT design's missing GEMM
    are asserted in ``test_arch.py``.
    """
    by_variant = {r["variant"]: r for r in experiment("fig_6_9")}
    # The dedicated LAC only supports its own workload.
    assert by_variant["lac"]["fft_gflops_per_w"] == 0.0


def test_table_b_1(experiment):
    """FFT core requirements: overlap trades local store for bandwidth headroom."""
    rows = experiment("table_b_1")
    assert {r["variant"] for r in rows} == {"1d", "2d"}
    overlapped = [r for r in rows if r["overlap"]]
    serial = [r for r in rows if not r["overlap"]]
    assert len(overlapped) == len(serial)
    for o, s in zip(sorted(overlapped, key=lambda r: (r["points"], r["variant"])),
                    sorted(serial, key=lambda r: (r["points"], r["variant"]))):
        assert o["local_store_words_per_pe"] > s["local_store_words_per_pe"]
        assert o["compute_cycles"] <= s["compute_cycles"]


def test_fig_b_5_to_b_7(experiment):
    """Bandwidth for full overlap stays under the 4-doubles/cycle column-bus cap."""
    rows = experiment("fig_b_5_b_7")
    capped = [r for r in rows if "required_bw_words_per_cycle" in r]
    assert capped
    for r in capped:
        if r["block_points"] >= 64 and r["overlap"]:
            assert r["required_bw_words_per_cycle"] <= r["max_external_bw_words_per_cycle"]
    load_row = next(r for r in rows if "avg_comm_load_words_per_cycle" in r)
    assert 0.0 < load_row["avg_comm_load_words_per_cycle"] <= 8.0


def test_table_b_2(experiment):
    """PE SRAM options: dual porting costs area, banking buys bandwidth."""
    rows = experiment("table_b_2")
    by_option = {r["option"]: r for r in rows}
    assert by_option["16KB dual-ported"]["area_mm2"] > by_option["16KB single-ported"]["area_mm2"]
    assert by_option["8KB single-ported"]["area_mm2"] < by_option["16KB single-ported"]["area_mm2"]
    assert by_option["2 x 8KB single-ported"]["peak_bw_bytes_per_cycle"] == \
        2 * by_option["16KB single-ported"]["peak_bw_bytes_per_cycle"]
    assert all(r["max_frequency_ghz"] > 1.0 for r in rows)


def test_table_b_3(experiment):
    """PE design variants: the hybrid supports both workloads at bounded extra cost.

    Which variant supports which workload, and that the hybrid is at least
    as large as the FFT design, are asserted in ``test_arch.py``.
    """
    rows = experiment("table_b_3")
    by_variant = {r["variant"]: r for r in rows}
    # Hybrid area stays within ~40% of the LAC design.
    assert by_variant["hybrid"]["area_mm2"] <= 1.4 * by_variant["lac"]["area_mm2"]
    # Peak power of each design is bounded by a small number of watts per PE.
    assert all(r["max_power_w"] < 0.2 for r in rows)
