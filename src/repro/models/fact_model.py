"""Cycle and energy models for the matrix-factorization inner kernels.

Chapter 6 / Appendix A map the inner kernels of Cholesky, LU with partial
pivoting and Householder QR (via its vector-norm building block) onto the
LAC and study two orthogonal sets of hardware extensions:

* **MAC-unit extensions** -- a comparator for pivot search and an extra
  accumulator exponent bit that removes the overflow-guarding scaling pass of
  the vector norm;
* **divide/square-root options** -- software Goldschmidt on the PE MACs, an
  isolated per-core unit, or extended MAC units on the diagonal PEs
  (:class:`repro.hw.sfu.SFUPlacement`).

The models below produce inner-kernel cycle counts for ``k x nr`` panels
(LU, vector norm) and ``nr x nr`` diagonal blocks (Cholesky, TRSM-style
updates), the corresponding dynamic energy (Table A.2), and the efficiency
metrics plotted in Figures 6.5-6.7 and A.3-A.8.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hw.fpu import FMACUnit, Precision
from repro.hw.sfu import SFUPlacement, SpecialFunctionUnit, SpecialOp
from repro.hw.sram import pe_store_a
from repro.models.efficiency import EfficiencyMetrics


class MACExtension(enum.Enum):
    """MAC-unit extension options studied for the factorization kernels."""

    NONE = "none"                #: baseline MAC unit
    COMPARATOR = "comparator"    #: adds pivot-search comparator (LU)
    EXPONENT = "exponent"        #: adds an extra exponent bit (vector norm)


class FactorizationKernel(enum.Enum):
    """Inner kernels analysed in Chapter 6 / Appendix A."""

    CHOLESKY = "cholesky"
    LU = "lu"
    QR_HOUSEHOLDER = "qr"
    VECTOR_NORM = "vnorm"


@dataclass(frozen=True)
class KernelCostResult:
    """Cycle count and energy for one factorization inner kernel."""

    kernel: FactorizationKernel
    k: int
    nr: int
    placement: SFUPlacement
    extension: MACExtension
    cycles: float
    useful_flops: float
    dynamic_energy_j: float

    @property
    def utilization(self) -> float:
        """Useful MAC throughput relative to peak over the kernel duration."""
        peak_flops = 2.0 * self.nr * self.nr * self.cycles
        return min(1.0, self.useful_flops / peak_flops) if peak_flops > 0 else 0.0

    def gflops(self, frequency_ghz: float) -> float:
        """Achieved GFLOPS at a given frequency."""
        seconds = self.cycles / (frequency_ghz * 1e9)
        return self.useful_flops / seconds / 1e9 if seconds > 0 else 0.0

    def gflops_per_watt(self, frequency_ghz: float) -> float:
        """Power efficiency of the kernel at a given frequency."""
        seconds = self.cycles / (frequency_ghz * 1e9)
        if seconds <= 0 or self.dynamic_energy_j <= 0:
            return 0.0
        power = self.dynamic_energy_j / seconds
        return self.gflops(frequency_ghz) / power


class FactorizationKernelModel:
    """Analytical cycle/energy model of the factorization inner kernels.

    Parameters
    ----------
    nr:
        Core dimension.
    precision:
        Operating precision (the chapter evaluates double precision).
    mac_pipeline_stages:
        MAC pipeline depth ``p``; the dependency-bound kernels pay this
        latency on every serialised step.
    frequency_ghz:
        Clock frequency used for the energy model.
    local_store_kbytes_per_pe:
        Per-PE local store assumed when computing SRAM access energy.
    """

    def __init__(self, nr: int = 4, precision: Precision = Precision.DOUBLE,
                 mac_pipeline_stages: int = 8, frequency_ghz: float = 1.0,
                 local_store_kbytes_per_pe: float = 16.0):
        if nr < 2:
            raise ValueError("core dimension must be >= 2")
        self.nr = nr
        self.precision = precision
        self.p = mac_pipeline_stages
        self.frequency_ghz = frequency_ghz
        self.local_store_kbytes_per_pe = local_store_kbytes_per_pe

    # ------------------------------------------------------------ components
    def _fmac(self, extension: MACExtension) -> FMACUnit:
        return FMACUnit(
            precision=self.precision,
            pipeline_stages=self.p,
            frequency_ghz=self.frequency_ghz,
            has_comparator=extension is MACExtension.COMPARATOR,
            extended_exponent=extension is MACExtension.EXPONENT,
        )

    def _sfu(self, placement: SFUPlacement) -> SpecialFunctionUnit:
        return SpecialFunctionUnit(placement=placement, precision=self.precision,
                                   frequency_ghz=self.frequency_ghz, nr=self.nr,
                                   mac_pipeline_stages=self.p)

    def _sram_energy_per_access(self) -> float:
        store = pe_store_a(int(self.local_store_kbytes_per_pe * 1024))
        return store.energy_per_access_j

    # --------------------------------------------------------- cycle models
    def cholesky_cycles(self, placement: SFUPlacement) -> float:
        """Cycles of an unblocked ``nr x nr`` Cholesky factorization.

        Section 6.1.1: ``2 p (nr - 1) + q nr`` where ``q`` is the latency of
        the inverse-square-root unit.
        """
        q = self._sfu(placement).latency_cycles(SpecialOp.INV_SQRT)
        return 2.0 * self.p * (self.nr - 1) + q * self.nr

    def lu_panel_cycles(self, k: int, placement: SFUPlacement,
                        extension: MACExtension) -> float:
        """Cycles of a ``k x nr`` LU factorization with partial pivoting.

        Each of the ``nr`` iterations performs: a pivot search down a column
        of ``k`` elements (overlapped with the rank-1 update when the MAC has
        the comparator extension, otherwise a separate reduction pass), a
        reciprocal of the pivot, a column scale and a rank-1 update of the
        trailing ``k x nr`` panel distributed over the ``nr x nr`` PEs.
        """
        if k < self.nr:
            raise ValueError(f"panel height k={k} must be at least nr={self.nr}")
        recip = self._sfu(placement).latency_cycles(SpecialOp.RECIPROCAL)
        cycles = 0.0
        for i in range(self.nr):
            rows_below = k - i - 1
            # Pivot search: with the comparator the max-tracking rides along the
            # normal column traversal; without it an explicit reduction over the
            # column (log-depth over the PE rows, linear over the local chunk)
            # must be issued first.
            traversal = rows_below / float(self.nr) + self.p
            if extension is MACExtension.COMPARATOR:
                search = traversal
            else:
                search = 2.0 * traversal + self.nr
            swap = 2.0  # pivot row broadcast + exchange over the buses
            scale = rows_below / float(self.nr) + self.p
            update = rows_below * (self.nr - i - 1) / float(self.nr * self.nr) + self.p
            cycles += search + recip + swap + scale + update
        return cycles

    def vector_norm_cycles(self, k: int, placement: SFUPlacement,
                           extension: MACExtension) -> float:
        """Cycles of a length-``k`` overflow-safe vector norm (Sec. 6.1.3).

        Without the exponent extension the kernel needs a max-search pass and
        a scaling pass before the inner product (two-pass algorithm); with it,
        a single accumulation pass suffices.  The final square root and the
        reduce-all over the owning column add the SFU latency plus ``nr``
        broadcast steps.
        """
        if k < 1:
            raise ValueError("vector length must be positive")
        sqrt_lat = self._sfu(placement).latency_cycles(SpecialOp.SQRT)
        # The vector lives in one PE column; it is shared with the neighbouring
        # column so 2*nr PEs cooperate on the inner product.
        chunk = k / float(2 * self.nr)
        accumulate = chunk + self.p
        reduce_partial = self.nr + self.p          # reduce back to owner column
        reduce_all = self.nr + self.p              # broadcast-combine in column
        cycles = accumulate + reduce_partial + reduce_all + sqrt_lat
        if extension is not MACExtension.EXPONENT:
            max_search = chunk + self.p + self.nr  # find max |x_i|
            scale_pass = chunk + self.p            # multiply by 1/t
            recip = self._sfu(placement).latency_cycles(SpecialOp.RECIPROCAL)
            cycles += max_search + scale_pass + recip
        return cycles

    def qr_panel_cycles(self, k: int, placement: SFUPlacement,
                        extension: MACExtension) -> float:
        """Cycles of a ``k x nr`` Householder QR panel factorization.

        Each of the ``nr`` iterations computes a Householder vector (one
        vector norm plus a scale) and applies the reflector to the trailing
        panel (a matrix-vector product and a rank-1 update).
        """
        if k < self.nr:
            raise ValueError(f"panel height k={k} must be at least nr={self.nr}")
        div = self._sfu(placement).latency_cycles(SpecialOp.DIVIDE)
        cycles = 0.0
        for i in range(self.nr):
            rows_below = max(k - i, 1)
            cols_right = self.nr - i - 1
            norm = self.vector_norm_cycles(rows_below, placement, extension)
            scale = rows_below / float(self.nr) + self.p + div
            matvec = rows_below * max(cols_right, 1) / float(self.nr * self.nr) + self.p
            rank1 = rows_below * max(cols_right, 1) / float(self.nr * self.nr) + self.p
            cycles += norm + scale + matvec + rank1
        return cycles

    # -------------------------------------------------------- useful flops
    @staticmethod
    def _useful_flops(kernel: FactorizationKernel, k: int, nr: int) -> float:
        if kernel is FactorizationKernel.CHOLESKY:
            return nr ** 3 / 3.0 + nr ** 2
        if kernel is FactorizationKernel.LU:
            return 2.0 * k * nr * nr - nr ** 3 / 3.0
        if kernel is FactorizationKernel.QR_HOUSEHOLDER:
            return 4.0 * k * nr * nr
        if kernel is FactorizationKernel.VECTOR_NORM:
            return 2.0 * k
        raise ValueError(f"unknown kernel {kernel}")

    # -------------------------------------------------------------- energy
    def _kernel_energy(self, kernel: FactorizationKernel, k: int, cycles: float,
                       placement: SFUPlacement, extension: MACExtension) -> float:
        """Dynamic energy of the kernel: MAC ops + SRAM traffic + SFU ops."""
        fmac = self._fmac(extension)
        sram_access = self._sram_energy_per_access()
        flops = self._useful_flops(kernel, k, self.nr)
        macs = flops / 2.0
        mac_energy = macs * fmac.energy_per_mac_j
        # Roughly one operand read per MAC from the local stores plus the
        # streaming of the panel once.
        sram_energy = (macs + k * self.nr) * sram_access
        sfu = self._sfu(placement)
        special_ops = {
            FactorizationKernel.CHOLESKY: self.nr,
            FactorizationKernel.LU: self.nr,
            FactorizationKernel.QR_HOUSEHOLDER: 2 * self.nr,
            FactorizationKernel.VECTOR_NORM: 1,
        }[kernel]
        op = {
            FactorizationKernel.CHOLESKY: SpecialOp.INV_SQRT,
            FactorizationKernel.LU: SpecialOp.RECIPROCAL,
            FactorizationKernel.QR_HOUSEHOLDER: SpecialOp.DIVIDE,
            FactorizationKernel.VECTOR_NORM: SpecialOp.SQRT,
        }[kernel]
        sfu_energy = special_ops * sfu.energy_per_op_j(op)
        # Idle power of the (mostly waiting) MAC array over the kernel run.
        seconds = cycles / (self.frequency_ghz * 1e9)
        idle_energy = self.nr * self.nr * fmac.idle_power_w * seconds
        return mac_energy + sram_energy + sfu_energy + idle_energy

    # ------------------------------------------------------------ evaluate
    def evaluate(self, kernel: FactorizationKernel, k: int,
                 placement: SFUPlacement = SFUPlacement.ISOLATED,
                 extension: MACExtension = MACExtension.NONE) -> KernelCostResult:
        """Evaluate cycles, flops and energy for one kernel configuration."""
        if kernel is FactorizationKernel.CHOLESKY:
            cycles = self.cholesky_cycles(placement)
        elif kernel is FactorizationKernel.LU:
            cycles = self.lu_panel_cycles(k, placement, extension)
        elif kernel is FactorizationKernel.QR_HOUSEHOLDER:
            cycles = self.qr_panel_cycles(k, placement, extension)
        elif kernel is FactorizationKernel.VECTOR_NORM:
            cycles = self.vector_norm_cycles(k, placement, extension)
        else:  # pragma: no cover - enum exhaustive
            raise ValueError(f"unknown kernel {kernel}")
        flops = self._useful_flops(kernel, k, self.nr)
        energy = self._kernel_energy(kernel, k, cycles, placement, extension)
        return KernelCostResult(kernel=kernel, k=k, nr=self.nr, placement=placement,
                                extension=extension, cycles=cycles, useful_flops=flops,
                                dynamic_energy_j=energy)

    # ----------------------------------------------------- efficiency rows
    def efficiency(self, result: KernelCostResult, core_area_mm2: float) -> EfficiencyMetrics:
        """Wrap a kernel result in the standard efficiency-metric container."""
        seconds = result.cycles / (self.frequency_ghz * 1e9)
        power = result.dynamic_energy_j / seconds if seconds > 0 else float("inf")
        return EfficiencyMetrics(
            label=f"{result.kernel.value}[k={result.k},{result.placement.value},"
                  f"{result.extension.value}]",
            gflops=result.gflops(self.frequency_ghz),
            power_w=max(power, 1e-9),
            area_mm2=core_area_mm2,
            utilization=max(result.utilization, 1e-6),
            frequency_ghz=self.frequency_ghz,
            precision=self.precision.value,
        )
