"""Core-level analytical GEMM performance model (Chapter 3).

The LAC computes ``Ci += Ai,p @ Bp`` with an ``mc x kc`` block of ``A``
resident in the PE local stores, ``kc x nr`` panels of ``B`` replicated down
PE columns, and ``nr x nr`` sub-blocks of ``C`` living in the MAC
accumulators.  Section 3.4 derives the cycle count for one such update when
the core sees an effective bandwidth of ``x`` elements per cycle from the
on-chip memory:

* reading ``Ai,p`` costs ``mc*kc / x`` cycles (not overlapped in the
  partial-overlap variant),
* reading/writing the panels of ``C`` and reading ``Bp`` costs
  ``(2*mc + kc) * n / x`` cycles, and
* the computation itself at peak costs ``mc * kc * n / nr^2`` cycles,

with the transfer of ``C``/``B`` overlapping the computation.  The attainable
utilisation is the ratio of the peak-compute cycle count to the achieved
total.  The fully-overlapped variant also hides the load of the *next* block
of ``A`` behind the current computation at the cost of doubling the ``A``
store.

The same section sizes the PE local store: ``(mc + 2*nr^2) * kc`` elements for
the partial-overlap design and ``2*(mc + nr^2)*kc`` for full overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional


@dataclass(frozen=True)
class CoreModelResult:
    """Result of evaluating the core model at one design point."""

    nr: int
    mc: int
    kc: int
    n: int
    bandwidth_elements_per_cycle: float
    local_store_elements_per_pe: float
    total_cycles: float
    peak_cycles: float
    utilization: float
    full_overlap: bool

    @property
    def local_store_bytes_per_pe(self) -> float:
        """Local store requirement per PE in bytes (double precision)."""
        return self.local_store_elements_per_pe * 8.0


class CoreGEMMModel:
    """Analytical model of a single LAC running GEMM.

    Parameters
    ----------
    nr:
        Core dimension (the core has ``nr x nr`` PEs).
    element_bytes:
        Storage size of one matrix element (8 for double precision).
    """

    def __init__(self, nr: int = 4, element_bytes: int = 8):
        if nr < 2:
            raise ValueError("core dimension nr must be >= 2")
        if element_bytes not in (4, 8):
            raise ValueError("element_bytes must be 4 (SP) or 8 (DP)")
        self.nr = nr
        self.element_bytes = element_bytes

    # ------------------------------------------------------------ local store
    def local_store_elements_per_pe(self, mc: int, kc: int, full_overlap: bool = False) -> float:
        """Aggregate local store per PE in elements.

        The aggregate requirement over the whole core is
        ``mc*kc + 2*kc*nr^2`` elements (current ``A`` plus current and next
        ``B``) for the partial-overlap design and ``2*mc*kc + 2*kc*nr^2`` for
        the fully-overlapped design; dividing by ``nr^2`` PEs gives the per-PE
        figure.
        """
        self._check_blocking(mc, kc)
        nr2 = self.nr * self.nr
        if full_overlap:
            aggregate = 2 * mc * kc + 2 * kc * nr2
        else:
            aggregate = mc * kc + 2 * kc * nr2
        return aggregate / nr2

    def local_store_bytes_per_pe(self, mc: int, kc: int, full_overlap: bool = False) -> float:
        """Per-PE local store requirement in bytes."""
        return self.local_store_elements_per_pe(mc, kc, full_overlap) * self.element_bytes

    # ------------------------------------------------------------ cycle model
    def cycles(self, mc: int, kc: int, n: int, bandwidth_elements_per_cycle: float,
               full_overlap: bool = False) -> CoreModelResult:
        """Evaluate the cycle count for one ``Ci += Ai,p Bp`` update.

        Parameters
        ----------
        mc, kc:
            Blocking parameters (the resident block of ``A`` is ``mc x kc``).
        n:
            Width of the panel of ``B``/``C`` processed per update.
        bandwidth_elements_per_cycle:
            Effective bandwidth between the core and the on-chip memory in
            *elements* per cycle.
        full_overlap:
            Whether prefetching of the next ``A`` block is overlapped with
            computation (requires the doubled local store).
        """
        self._check_blocking(mc, kc)
        if n <= 0:
            raise ValueError("panel width n must be positive")
        if bandwidth_elements_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")

        x = bandwidth_elements_per_cycle
        nr2 = self.nr * self.nr

        load_a_cycles = (mc * kc) / x
        stream_cycles = (2.0 * mc + kc) * n / x
        compute_cycles = (mc * kc * n) / nr2

        if full_overlap:
            # Loading the next A block is hidden behind computation as well;
            # only the streaming of B/C can still expose bandwidth limits.
            total = max(stream_cycles + load_a_cycles, compute_cycles)
        else:
            total = load_a_cycles + max(stream_cycles, compute_cycles)

        peak = compute_cycles
        utilization = peak / total if total > 0 else 0.0
        return CoreModelResult(
            nr=self.nr,
            mc=mc,
            kc=kc,
            n=n,
            bandwidth_elements_per_cycle=x,
            local_store_elements_per_pe=self.local_store_elements_per_pe(mc, kc, full_overlap),
            total_cycles=total,
            peak_cycles=peak,
            utilization=min(1.0, utilization),
            full_overlap=full_overlap,
        )

    # ------------------------------------------------- bandwidth requirements
    def required_bandwidth_for_peak(self, mc: int, kc: int, n: Optional[int] = None,
                                    full_overlap: bool = True) -> float:
        """Bandwidth (elements/cycle) needed to sustain peak performance.

        Table 4.1 gives the per-core requirement as
        ``(2/kc + 1/mc) * nr^2`` elements/cycle for the partial-overlap design
        and ``(2/kc + 1/mc + 1/n) * nr^2`` with full overlap (the extra term
        streams the next block of ``A``).  When ``n`` is omitted the full
        overlap expression drops the ``1/n`` term (it vanishes for large
        problems).
        """
        self._check_blocking(mc, kc)
        nr2 = self.nr * self.nr
        req = (2.0 / kc + 1.0 / mc) * nr2
        if full_overlap and n is not None and n > 0:
            req += nr2 / float(n)
        return req

    # ------------------------------------------------------- sweep utilities

    def peak_bandwidth_vs_local_store(self, kc_values: Iterable[int], n: int = 512) -> List[dict]:
        """Bandwidth needed for peak vs. resulting local store size (Fig. 3.5)."""
        rows = []
        for kc in kc_values:
            bw = self.required_bandwidth_for_peak(mc=kc, kc=kc, n=n, full_overlap=True)
            store = self.local_store_bytes_per_pe(mc=kc, kc=kc, full_overlap=True)
            rows.append({
                "nr": self.nr,
                "kc": kc,
                "local_store_kbytes_per_pe": store / 1024.0,
                "bandwidth_bytes_per_cycle": bw * self.element_bytes,
            })
        return rows

    def smallest_kc_for_peak(self, bandwidth_elements_per_cycle: float, n: int = 512,
                             kc_limit: int = 4096, full_overlap: bool = True) -> Optional[int]:
        """Smallest square blocking that reaches peak at the given bandwidth."""
        if bandwidth_elements_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        for kc in range(self.nr, kc_limit + 1, self.nr):
            req = self.required_bandwidth_for_peak(mc=kc, kc=kc, n=n, full_overlap=full_overlap)
            if req <= bandwidth_elements_per_cycle:
                return kc
        return None

    # --------------------------------------------------------------- helpers
    def _check_blocking(self, mc: int, kc: int) -> None:
        if mc <= 0 or kc <= 0:
            raise ValueError(f"blocking parameters must be positive (mc={mc}, kc={kc})")

    def peak_gflops(self, frequency_ghz: float) -> float:
        """Peak GFLOPS of one core at the given frequency."""
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        return 2.0 * self.nr * self.nr * frequency_ghz
