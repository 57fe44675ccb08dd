"""FFT bandwidth / storage / cycle models (Chapter 6.2 and Appendix B).

The dissertation maps a radix-4, FMA-optimised FFT onto the LAC: each PE
executes radix-4 butterflies on locally stored points, stage-2 exchanges use
only row buses and stage-3 exchanges only column buses, and larger 1D/2D
transforms stream blocks of points through the core with (optionally) fully
overlapped pre-fetch/post-store.

The quantities reproduced here are:

* per-butterfly operation counts of the FMA-optimised radix-4 DAG
  (8 complex = 24 FMA operations per butterfly),
* cycle counts for a core-contained 64/256/...-point FFT,
* local-store and bandwidth requirements for overlapped vs. non-overlapped
  operation and for 1D ``N^2``-point vs. 2D ``N x N`` transforms (Table B.1),
* the average communication load on the core for large 1D transforms
  (Fig. B.7) and the bandwidth needed for full overlap (Fig. B.5).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence


#: FMA operations of the optimised radix-4 butterfly DAG (Appendix B.2.1):
#: three twiddle multiplies (4 FMAs each as complex multiply-adds) and the
#: add/subtract network folded into FMAs -- 24 FMA ops per butterfly in the
#: fused mapping.
FMA_OPS_PER_RADIX4_BUTTERFLY = 24


class FFTVariant(enum.Enum):
    """Transform organisations analysed in Appendix B."""

    ONE_D = "1d"      #: a single large 1D transform of N^2 points
    TWO_D = "2d"      #: an N x N 2D transform (row FFTs then column FFTs)


@dataclass(frozen=True)
class FFTProblem:
    """An FFT workload mapped onto the LAC.

    Parameters
    ----------
    points:
        Total number of complex points in the transform.
    variant:
        1D or 2D organisation (2D transforms of ``N x N`` points perform two
        passes of N-point FFTs).
    precision_bytes:
        Bytes per real scalar (8 for double precision).
    """

    points: int
    variant: FFTVariant = FFTVariant.ONE_D
    precision_bytes: int = 8

    def __post_init__(self) -> None:
        if self.points < 4:
            raise ValueError("FFT needs at least 4 points")
        if self.points & (self.points - 1) != 0:
            raise ValueError("point count must be a power of two")

    @property
    def stages_radix4(self) -> int:
        """Number of radix-4 stages (log4 of the point count)."""
        return int(round(math.log(self.points, 4)))

    @property
    def total_flops(self) -> float:
        """Standard 5 N log2 N flop count of the transform."""
        return 5.0 * self.points * math.log2(self.points)


class FFTCoreModel:
    """Cycle / bandwidth / storage model of FFT on an ``nr x nr`` LAC.

    Parameters
    ----------
    nr:
        Core dimension; the core holds ``nr*nr`` PEs each running radix-4
        butterflies.
    mac_pipeline_stages:
        MAC pipeline depth (the optimised DAG is scheduled to avoid pipeline
        hazards, so throughput is one FMA per cycle per PE).
    """

    def __init__(self, nr: int = 4, mac_pipeline_stages: int = 8):
        if nr < 2:
            raise ValueError("core dimension must be >= 2")
        self.nr = nr
        self.p = mac_pipeline_stages

    # ------------------------------------------------------------ butterfly
    def butterflies_per_stage(self, points: int) -> int:
        """Number of radix-4 butterflies per stage of a ``points``-point FFT."""
        if points % 4 != 0:
            raise ValueError("point count must be divisible by 4")
        return points // 4

    def core_fft_cycles(self, points: int, overlap_io: bool = True) -> float:
        """Cycles for a core-contained FFT of ``points`` complex points.

        Each stage executes ``points/4`` butterflies distributed over the
        ``nr^2`` PEs at 24 FMAs each; inter-stage data exchanges ride the row
        buses (stage 2) and column buses (stage 3) and overlap with
        computation.  Without I/O overlap the initial load and final store of
        the points over the column buses are added.
        """
        problem = FFTProblem(points)
        stages = problem.stages_radix4
        pes = self.nr * self.nr
        per_stage = self.butterflies_per_stage(points) * FMA_OPS_PER_RADIX4_BUTTERFLY / pes
        compute = stages * (per_stage + self.p)
        if overlap_io:
            return compute
        io_words = 2.0 * points * 2  # load + store, 2 words per complex point
        io_cycles = io_words / self.nr  # nr column buses, one word each per cycle
        return compute + io_cycles

    # --------------------------------------------------- storage / bandwidth
    def local_store_words_per_pe(self, block_points: int, overlap: bool = True) -> float:
        """Local store (in 8-byte words) per PE for a streamed block of points.

        The core holds one block of points (2 words per complex point spread
        over ``nr^2`` PEs) plus the twiddle factors for the current stages;
        the overlapped design double-buffers the block so the next one can be
        prefetched while the current one is computed.
        """
        if block_points < 1:
            raise ValueError("block must contain at least one point")
        pes = self.nr * self.nr
        data_words = 2.0 * block_points / pes
        twiddle_words = 2.0 * block_points / pes
        factor = 2.0 if overlap else 1.0
        return factor * data_words + twiddle_words

    def required_bandwidth_words_per_cycle(self, block_points: int, overlap: bool = True) -> float:
        """Off-core bandwidth (words/cycle) to sustain a streamed block FFT.

        A block of ``B`` points is loaded and stored (``4 B`` words total)
        while the core spends ``stages(B) * 24 * B / (4 * nr^2)`` cycles
        computing on it; full overlap requires the transfers to finish within
        the compute time.  The paper notes four doubles per cycle is the
        maximum a 4x4 core can accept over its column buses.
        """
        cycles = self.core_fft_cycles(block_points, overlap_io=True)
        words = 4.0 * block_points
        if not overlap:
            # Transfers serialised with compute: average over the total time.
            return words / (cycles + words / self.nr)
        return words / cycles

    def max_external_bandwidth_words_per_cycle(self) -> float:
        """Column-bus ceiling on external transfers (words/cycle)."""
        return float(self.nr)

    # -------------------------------------------------------- large FFTs
    def large_fft_requirements(self, problem: FFTProblem, block_points: int = 64,
                               overlap: bool = True) -> dict:
        """Storage/bandwidth/cycle requirements for a large 1D or 2D FFT.

        Large transforms are decomposed into passes of core-sized FFTs
        (four-step / transpose algorithms): a 1D transform of ``N^2`` points
        performs two passes of ``N``-point FFTs plus a twiddle scaling and a
        transpose through the on-chip memory; an ``N x N`` 2D transform
        performs the row-FFT pass and the column-FFT pass (Table B.1).
        """
        if block_points < 4:
            raise ValueError("block must contain at least 4 points")
        n_side = int(round(math.sqrt(problem.points)))
        passes = 2
        ffts_per_pass = problem.points // block_points
        cycles_per_fft = self.core_fft_cycles(block_points, overlap_io=overlap)
        io_words_per_fft = 4.0 * block_points
        compute_cycles = passes * ffts_per_pass * cycles_per_fft
        io_words = passes * ffts_per_pass * io_words_per_fft
        bw = self.required_bandwidth_words_per_cycle(block_points, overlap)
        onchip_words = 2.0 * problem.points * (2 if overlap else 1)
        return {
            "variant": problem.variant.value,
            "points": problem.points,
            "n_side": n_side,
            "block_points": block_points,
            "passes": passes,
            "core_ffts": passes * ffts_per_pass,
            "compute_cycles": compute_cycles,
            "io_words": io_words,
            "required_bw_words_per_cycle": bw,
            "local_store_words_per_pe": self.local_store_words_per_pe(block_points, overlap),
            "onchip_memory_words": onchip_words,
            "overlap": overlap,
        }

    def average_communication_load(self, problem: FFTProblem, block_points: int = 64) -> float:
        """Average words/cycle crossing the core boundary for a large FFT (Fig. B.7)."""
        req = self.large_fft_requirements(problem, block_points, overlap=True)
        return req["io_words"] / req["compute_cycles"] if req["compute_cycles"] > 0 else 0.0

    def gflops(self, problem: FFTProblem, frequency_ghz: float, block_points: int = 64,
               overlap: bool = True) -> float:
        """Achieved GFLOPS (5 N log2 N convention) for a large FFT."""
        if frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        req = self.large_fft_requirements(problem, block_points, overlap)
        bw_limited = req["required_bw_words_per_cycle"] > self.max_external_bandwidth_words_per_cycle()
        cycles = req["compute_cycles"]
        if bw_limited or not overlap:
            cycles = max(cycles, req["io_words"] / self.max_external_bandwidth_words_per_cycle())
            if not overlap:
                cycles = req["compute_cycles"] + req["io_words"] / self.max_external_bandwidth_words_per_cycle()
        seconds = cycles / (frequency_ghz * 1e9)
        return problem.total_flops / seconds / 1e9 if seconds > 0 else 0.0

    # ----------------------------------------------------------- table B.1
    def table_b1_requirements(self, n_values: Sequence[int]) -> List[dict]:
        """Core requirements for N x N 2D and N^2-point 1D FFTs (Table B.1)."""
        rows = []
        for n in n_values:
            for variant in (FFTVariant.TWO_D, FFTVariant.ONE_D):
                for overlap in (False, True):
                    problem = FFTProblem(points=n * n, variant=variant)
                    req = self.large_fft_requirements(problem, block_points=min(n, 64),
                                                      overlap=overlap)
                    rows.append(req)
        return rows
