"""Chip-level analytical GEMM model for the multi-core LAP (Chapter 4).

The LAP integrates ``S`` cores with a shared on-chip memory that mainly holds
an ``n x n`` block of ``C`` plus the panels of ``A`` and ``B`` currently being
streamed, and connects to external memory with a limited sustained bandwidth.
This module reproduces:

* the memory-size and bandwidth requirement formulas of Table 4.1 (partial
  and full overlap variants),
* the cycle/utilisation model for a whole ``C += A_p B_p`` update distributed
  over ``S`` cores with limited on-chip bandwidth (Section 4.1),
* the off-chip bandwidth model including the extra blocking layer used when
  the on-chip memory is smaller than the problem (Section 4.2.3, Fig. 4.4),
  and
* the end-to-end performance estimate as a function of off-chip bandwidth and
  on-chip memory size (Fig. 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.models.core_model import CoreGEMMModel


@dataclass(frozen=True)
class HierarchyRequirements:
    """Memory-size and bandwidth requirements of one hierarchy layer (Table 4.1)."""

    level: str
    overlap: str
    memory_words: float
    bandwidth_words_per_cycle: float

    def memory_bytes(self, element_bytes: int = 8) -> float:
        """Requirement converted to bytes."""
        return self.memory_words * element_bytes

    def bandwidth_bytes_per_cycle(self, element_bytes: int = 8) -> float:
        """Bandwidth requirement converted to bytes per cycle."""
        return self.bandwidth_words_per_cycle * element_bytes


@dataclass(frozen=True)
class ChipModelResult:
    """Result of evaluating the chip-level model at one design point."""

    num_cores: int
    nr: int
    mc: int
    kc: int
    n: int
    onchip_memory_words: float
    onchip_bandwidth_words_per_cycle: float
    offchip_bandwidth_words_per_cycle: float
    total_cycles: float
    peak_cycles: float
    utilization: float

    def gflops(self, frequency_ghz: float) -> float:
        """Achieved GFLOPS at the given clock frequency."""
        peak = 2.0 * self.num_cores * self.nr * self.nr * frequency_ghz
        return peak * self.utilization

    def onchip_memory_mbytes(self, element_bytes: int = 8) -> float:
        """On-chip memory requirement in MB."""
        return self.onchip_memory_words * element_bytes / (1024.0 * 1024.0)


class ChipGEMMModel:
    """Analytical model of a multi-core LAP running GEMM.

    Parameters
    ----------
    num_cores:
        Number of LACs on the chip (``S``).
    nr:
        Dimension of each core.
    element_bytes:
        Element size in bytes.
    """

    def __init__(self, num_cores: int = 8, nr: int = 4, element_bytes: int = 8):
        if num_cores < 1:
            raise ValueError("the LAP needs at least one core")
        self.num_cores = num_cores
        self.core = CoreGEMMModel(nr=nr, element_bytes=element_bytes)
        self.nr = nr
        self.element_bytes = element_bytes

    # --------------------------------------------------- Table 4.1 formulas
    def hierarchy_requirements(self, mc: int, kc: int, n: int) -> List[HierarchyRequirements]:
        """Memory/bandwidth requirements of every hierarchy layer (Table 4.1)."""
        self._check(mc, kc, n)
        nr = self.nr
        nr2 = nr * nr
        s = self.num_cores
        rows: List[HierarchyRequirements] = []

        # Core level, per-PE local memory in words and intra-core bus words/cycle.
        rows.append(HierarchyRequirements(
            level="core",
            overlap="partial",
            memory_words=mc * kc / nr2 + 2 * kc,
            bandwidth_words_per_cycle=nr * (1 + (2.0 / kc + 1.0 / mc)),
        ))
        rows.append(HierarchyRequirements(
            level="core",
            overlap="full",
            memory_words=2 * mc * kc / nr2 + 2 * kc,
            bandwidth_words_per_cycle=nr * (1 + (2.0 / kc + 1.0 / mc + 1.0 / n)),
        ))
        # Core <-> on-chip memory bandwidth.
        rows.append(HierarchyRequirements(
            level="core-chip",
            overlap="partial",
            memory_words=0.0,
            bandwidth_words_per_cycle=(2.0 / kc + 1.0 / mc) * nr2,
        ))
        rows.append(HierarchyRequirements(
            level="core-chip",
            overlap="full",
            memory_words=0.0,
            bandwidth_words_per_cycle=(2.0 / kc + 1.0 / mc + 1.0 / n) * nr2,
        ))
        # Chip level: on-chip memory capacity and aggregate intra-chip bandwidth.
        rows.append(HierarchyRequirements(
            level="chip",
            overlap="partial",
            memory_words=n * n + s * mc * kc + 2.0 * kc * n,
            bandwidth_words_per_cycle=(2.0 * s / kc + s / mc) * nr2,
        ))
        rows.append(HierarchyRequirements(
            level="chip",
            overlap="full",
            memory_words=2.0 * n * n + s * mc * kc + 2.0 * kc * n,
            bandwidth_words_per_cycle=(2.0 * s / kc + s / mc + s / n) * nr2,
        ))
        # Off-chip bandwidth.
        rows.append(HierarchyRequirements(
            level="off-chip",
            overlap="partial",
            memory_words=0.0,
            bandwidth_words_per_cycle=2.0 * s * nr2 / n,
        ))
        rows.append(HierarchyRequirements(
            level="off-chip",
            overlap="full",
            memory_words=0.0,
            bandwidth_words_per_cycle=4.0 * s * nr2 / n,
        ))
        return rows

    def onchip_memory_words(self, mc: int, kc: int, n: int, full_overlap: bool = False) -> float:
        """Required shared on-chip memory in words."""
        self._check(mc, kc, n)
        c_factor = 2.0 if full_overlap else 1.0
        return c_factor * n * n + self.num_cores * mc * kc + 2.0 * kc * n

    def onchip_bandwidth_words_per_cycle(self, mc: int, kc: int, n: Optional[int] = None,
                                         full_overlap: bool = False) -> float:
        """Aggregate core <-> on-chip-memory bandwidth for peak (words/cycle)."""
        if mc <= 0 or kc <= 0:
            raise ValueError("blocking parameters must be positive")
        s = self.num_cores
        nr2 = self.nr * self.nr
        bw = (2.0 * s / kc + s / mc) * nr2
        if full_overlap and n:
            bw += s * nr2 / float(n)
        return bw

    def offchip_bandwidth_words_per_cycle(self, n: int, full_overlap: bool = False) -> float:
        """Off-chip bandwidth needed to keep the cores fed (words/cycle)."""
        if n <= 0:
            raise ValueError("problem size must be positive")
        s_nr2 = self.num_cores * self.nr * self.nr
        return (4.0 if full_overlap else 2.0) * s_nr2 / n

    # ----------------------------------------------------------- cycle model
    def cycles_onchip(self, mc: int, kc: int, n: int,
                      onchip_bandwidth_words_per_cycle: float,
                      full_overlap: bool = False) -> ChipModelResult:
        """Cycle model of one ``C += A_p B_p`` update distributed over S cores.

        Section 4.1: with ``n / (S*mc)`` row-panel groups, each group costs
        ``S*mc*kc / y`` cycles to fetch the blocks of A plus the maximum of
        streaming ``(2*S*mc + kc) * n / y`` and computing
        ``mc * n * kc / nr^2`` cycles, where ``y`` is the aggregate on-chip
        bandwidth in words per cycle.  With ``full_overlap`` the fetch of the
        next group's A blocks is also hidden behind the computation (the
        doubled-local-store design), so only the combined transfer time can
        expose a bandwidth limit.
        """
        self._check(mc, kc, n)
        if onchip_bandwidth_words_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        y = onchip_bandwidth_words_per_cycle
        s = self.num_cores
        nr2 = self.nr * self.nr

        groups = n / float(s * mc)
        load_a = (s * mc * kc) / y
        stream = (2.0 * s * mc + kc) * n / y
        compute = (mc * n * kc) / nr2
        if full_overlap:
            per_group = max(load_a + stream, compute)
        else:
            per_group = load_a + max(stream, compute)
        total = groups * per_group
        peak = (n * n * kc) / (s * nr2)
        util = min(1.0, peak / total) if total > 0 else 0.0
        return ChipModelResult(
            num_cores=s, nr=self.nr, mc=mc, kc=kc, n=n,
            onchip_memory_words=self.onchip_memory_words(mc, kc, n),
            onchip_bandwidth_words_per_cycle=y,
            offchip_bandwidth_words_per_cycle=self.offchip_bandwidth_words_per_cycle(n),
            total_cycles=total,
            peak_cycles=peak,
            utilization=util,
        )

    def cycles_offchip(self, n: int, offchip_bandwidth_words_per_cycle: float,
                       mc: Optional[int] = None, kc: Optional[int] = None) -> ChipModelResult:
        """Cycle model of the full ``C += A B`` including off-chip transfers.

        Section 4.1: with ``z`` words/cycle of external bandwidth and overlap
        of the transfers of A and B (but not C) with computation, the whole
        multiplication takes ``2 n^2 / z + max(2 n^2 / z, n^3 / (S nr^2))``
        cycles.
        """
        if n <= 0:
            raise ValueError("problem size must be positive")
        if offchip_bandwidth_words_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        z = offchip_bandwidth_words_per_cycle
        s = self.num_cores
        nr2 = self.nr * self.nr
        mc = mc if mc is not None else max(self.nr, n // (4 * s))
        kc = kc if kc is not None else mc

        total = 2.0 * n * n / z + max(2.0 * n * n / z, float(n) ** 3 / (s * nr2))
        peak = float(n) ** 3 / (s * nr2)
        util = min(1.0, peak / total) if total > 0 else 0.0
        return ChipModelResult(
            num_cores=s, nr=self.nr, mc=mc, kc=kc, n=n,
            onchip_memory_words=self.onchip_memory_words(mc, kc, n),
            onchip_bandwidth_words_per_cycle=self.onchip_bandwidth_words_per_cycle(mc, kc, n),
            offchip_bandwidth_words_per_cycle=z,
            total_cycles=total,
            peak_cycles=peak,
            utilization=util,
        )

    # ------------------------------------------- blocking for small memories
    def offchip_bandwidth_blocked(self, n: int, ns: int, k_subblocks: Optional[int] = None) -> float:
        """Off-chip bandwidth when only part of C fits on chip (Sec. 4.2.3).

        The original ``n x n`` problem is blocked into ``ns x ns`` sub-blocks
        with ``d = n / ns``; ``k <= d`` sub-blocks of ``C`` are kept on chip at
        a time.  The required external bandwidth in words per cycle is::

            (2*k + (k+1)*d) / (k * n)   per nr^2 MACs/cycle of compute,

        i.e. multiplied by ``S * nr^2`` for the whole chip.
        """
        if n <= 0 or ns <= 0:
            raise ValueError("problem and block sizes must be positive")
        if ns > n:
            raise ValueError("sub-block cannot exceed the problem size")
        d = n / float(ns)
        k = k_subblocks if k_subblocks is not None else 1
        if k < 1 or k > max(1, int(d)):
            raise ValueError(f"number of resident sub-blocks k={k} must lie in [1, d={d:.0f}]")
        per_mac_column = (2.0 * k + (k + 1) * d) / (k * n)
        return per_mac_column * self.num_cores * self.nr * self.nr

    def onchip_words_for_subblock(self, ns: int, mc: int, kc: int) -> float:
        """On-chip memory words needed to keep one ns x ns block of C resident."""
        if ns <= 0:
            raise ValueError("block size must be positive")
        return float(ns) * ns + self.num_cores * mc * kc + 2.0 * kc * ns

    # ----------------------------------------------------------- sweep utils
    def sweep_onchip_memory_vs_bandwidth(self, n_values: Sequence[int],
                                         kc_values: Iterable[int]) -> List[dict]:
        """Data behind Fig. 4.2: on-chip BW vs memory size at >90% utilisation."""
        rows = []
        for n in n_values:
            for kc in kc_values:
                # The S cores each hold an mc x kc block of A covering disjoint
                # row panels of C, so S * mc cannot exceed the problem size.
                if kc > n or self.num_cores * kc > n:
                    continue
                mc = kc
                mem = self.onchip_memory_words(mc, kc, n, full_overlap=True)
                bw = self.onchip_bandwidth_words_per_cycle(mc, kc, n, full_overlap=True)
                res = self.cycles_onchip(mc, kc, n, bw, full_overlap=True)
                rows.append({
                    "n": n,
                    "num_cores": self.num_cores,
                    "nr": self.nr,
                    "kc": kc,
                    "onchip_memory_mbytes": mem * self.element_bytes / 2 ** 20,
                    "onchip_bandwidth_bytes_per_cycle": bw * self.element_bytes,
                    "utilization": res.utilization,
                })
        return rows

    # --------------------------------------------------------------- helpers
    def _check(self, mc: int, kc: int, n: int) -> None:
        if mc <= 0 or kc <= 0 or n <= 0:
            raise ValueError(f"all of mc, kc, n must be positive (mc={mc}, kc={kc}, n={n})")
