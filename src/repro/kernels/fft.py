"""Radix-4 FFT on the LAC (Chapter 6.2 and Appendix B).

The FFT kernel keeps the complex points distributed across the ``nr x nr``
PEs, runs FMA-optimised radix-4 butterflies locally in every PE, and performs
the inter-stage data exchanges over the broadcast buses: one stage's exchange
pattern uses only the row buses and the next stage's only the column buses,
so communication overlaps naturally with butterfly computation.

The functional implementation below computes a decimation-in-time radix-4
FFT whose butterflies are executed "on" the PEs (each butterfly is assigned
to the PE that owns its first input point), counting the 24 FMA operations of
the optimised butterfly DAG and the bus transfers of the exchange patterns.
Larger transforms are handled by the four-step decomposition that streams
core-sized blocks through the on-chip memory
(:func:`repro.models.fft_model.FFTCoreModel.large_fft_requirements` provides
the matching analytical view).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.kernels.common import KernelResult, counters_delta
from repro.lac.core import LinearAlgebraCore
from repro.models.fft_model import FMA_OPS_PER_RADIX4_BUTTERFLY


def _bit_reverse_radix4(values: np.ndarray) -> np.ndarray:
    """Digit-reverse (base-4) permutation used by the in-place DIT schedule."""
    n = values.size
    digits = int(round(math.log(n, 4)))
    out = np.empty_like(values)
    for idx in range(n):
        rev = 0
        tmp = idx
        for _ in range(digits):
            rev = rev * 4 + (tmp % 4)
            tmp //= 4
        out[rev] = values[idx]
    return out


def lac_fft(core: LinearAlgebraCore, x: np.ndarray,
            block_points: Optional[int] = None) -> KernelResult:
    """Forward FFT of a complex vector on the LAC.

    Parameters
    ----------
    x:
        Input vector; its length must be a power of 4 (the radix-4 kernel of
        the paper; power-of-two-but-not-four sizes would add a radix-2
        epilogue that the dissertation does not evaluate).
    block_points:
        Size of the core-resident block for large transforms.  Defaults to
        the whole problem when it fits (<= 4096 points) and to 64 otherwise,
        matching the 64-point per-core FFT of Figure B.2.

    Returns the transform (matching ``numpy.fft.fft``) together with the
    cycle/access counters of the run.
    """
    start = core.counters.copy()
    x = np.asarray(x, dtype=complex).ravel()
    n = x.size
    if n < 4 or (n & (n - 1)) != 0 or int(round(math.log(n, 4))) != math.log(n, 4):
        raise ValueError(f"FFT length must be a power of 4, got {n}")

    if block_points is None:
        block_points = n if n <= 4096 else 64

    if n <= block_points:
        result = _core_fft(core, x)
    else:
        result = _four_step_fft(core, x, block_points)

    delta = counters_delta(core.counters, start)
    return KernelResult(name="fft", output=result, counters=delta, num_pes=core.num_pes)


def _core_fft(core: LinearAlgebraCore, x: np.ndarray) -> np.ndarray:
    """Core-contained radix-4 DIT FFT with per-stage cycle accounting."""
    n = x.size
    nr = core.nr
    pes = nr * nr
    stages = int(round(math.log(n, 4)))
    data = _bit_reverse_radix4(x)

    # Initial load of the points over the column buses (2 words per point).
    core.counters.external_loads += 2 * n
    core.tick(int(math.ceil(2 * n / nr)))

    size = 4
    for stage in range(stages):
        quarter = size // 4
        num_groups = n // size
        for group in range(num_groups):
            base = group * size
            for j in range(quarter):
                idx = [base + j + q * quarter for q in range(4)]
                w = np.exp(-2j * np.pi * j / size)
                t0 = data[idx[0]]
                t1 = w * data[idx[1]]
                t2 = (w * w) * data[idx[2]]
                t3 = (w * w * w) * data[idx[3]]
                data[idx[0]] = t0 + t1 + t2 + t3
                data[idx[1]] = t0 - 1j * t1 - t2 + 1j * t3
                data[idx[2]] = t0 - t1 + t2 - t3
                data[idx[3]] = t0 + 1j * t1 - t2 - 1j * t3
        # Each butterfly is one FMA-optimised DAG executed by the PE owning
        # its first point: 24 FMAs, 4 complex inputs read from and 4 complex
        # outputs written to its local store.
        butterflies = n // 4
        core.counters.mac_ops += butterflies * FMA_OPS_PER_RADIX4_BUTTERFLY
        core.counters.store_a_reads += butterflies * 8
        core.counters.store_a_writes += butterflies * 8
        # Butterfly issue cycles for this stage: (n/4) butterflies spread over
        # the PEs at 24 FMAs each, one FMA per cycle per PE.
        core.tick(int(math.ceil(butterflies * FMA_OPS_PER_RADIX4_BUTTERFLY / pes)))
        # Inter-stage exchange: alternate row-bus and column-bus patterns.
        exchanged_words = 2 * n  # every point moves once between stages
        if stage % 2 == 0:
            core.counters.row_broadcasts += exchanged_words // 2
        else:
            core.counters.column_broadcasts += exchanged_words // 2
        size *= 4

    # Final store over the column buses.
    core.counters.external_stores += 2 * n
    core.tick(int(math.ceil(2 * n / nr)))
    return data


def _four_step_fft(core: LinearAlgebraCore, x: np.ndarray, block_points: int) -> np.ndarray:
    """Four-step (transpose) decomposition for transforms larger than a block.

    ``N = N1 * N2`` with ``N2 = block_points``: column FFTs of length N1,
    twiddle scaling, row FFTs of length N2, with the transposes handled by
    the on-chip memory between passes.
    """
    n = x.size
    n2 = block_points
    n1 = n // n2
    if n1 * n2 != n:
        raise ValueError("block size must divide the transform length")
    matrix = x.reshape(n1, n2)

    # Pass 1: FFT down the columns (length n1 transforms).
    stage1 = np.empty_like(matrix)
    for col in range(n2):
        stage1[:, col] = _core_fft(core, matrix[:, col]) if n1 >= 4 else matrix[:, col]
    # Twiddle scaling between the two passes.
    j1 = np.arange(n1).reshape(-1, 1)
    j2 = np.arange(n2).reshape(1, -1)
    stage1 = stage1 * np.exp(-2j * np.pi * j1 * j2 / n)
    core.counters.mac_ops += 4 * n      # one complex multiply per point
    core.tick(int(math.ceil(4 * n / (core.nr * core.nr))))
    # Pass 2: FFT along the rows (length n2 transforms).
    out = np.empty_like(stage1)
    for row in range(n1):
        out[row, :] = _core_fft(core, stage1[row, :])
    # Result in transposed (decimated) order: X[k1 + n1*k2] = out[k1, k2].
    result = np.empty(n, dtype=complex)
    for k1 in range(n1):
        for k2 in range(n2):
            result[k1 + n1 * k2] = out[k1, k2]
    return result
