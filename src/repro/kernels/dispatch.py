"""Kernel dispatch table shared by the CLI and the sweep engine.

Maps a kernel name to an operand builder and a simulator entry point so
callers (``repro.cli simulate``, :mod:`repro.engine.runners`) do not have to
duplicate the per-kernel ``if/elif`` chain.  Operands are generated from a
seeded :class:`numpy.random.Generator`, so a (kernel, size, nr, seed) tuple
fully determines the simulated problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.kernels.cholesky import lac_cholesky
from repro.kernels.common import KernelResult
from repro.kernels.fft import lac_fft
from repro.kernels.gemm import lac_gemm
from repro.kernels.lu import lac_lu_panel
from repro.kernels.syrk import lac_syrk
from repro.kernels.trsm import lac_trsm
from repro.lac import LinearAlgebraCore, PEConfig

OperandBuilder = Callable[[np.random.Generator, int, int], Tuple]


def fft_point_count(size: int) -> int:
    """Radix-4 transform length simulated for a requested ``--size``.

    The FFT kernel works on ``4**k``-point transforms; a matrix-style size
    ``n`` is interpreted as an ``n*n``-element signal rounded to the nearest
    radix-4 length.  Callers should report this rounding to the user rather
    than remapping silently.
    """
    if size < 1:
        raise ValueError("size must be positive")
    return 4 ** max(1, int(round(math.log(max(size, 4) ** 2, 4))))


@dataclass(frozen=True)
class KernelSpec:
    """How to build operands for, and run, one kernel on a LAC."""

    name: str
    build_operands: OperandBuilder
    run: Callable[[LinearAlgebraCore, Tuple], KernelResult]
    #: Effective problem description simulated for a requested size (used to
    #: report roundings such as the FFT's radix-4 point count).
    effective_size: Callable[[int, int], int] = lambda n, nr: n
    #: Whether the requested size must be a multiple of the core dimension
    #: (matrix kernels); the FFT derives its own radix-4 point count instead.
    requires_nr_alignment: bool = True
    #: Words per PE the operands of ``(size, nr)`` occupy in ``MEM A`` and
    #: ``MEM B``: an ``n x n`` block of A takes ``ceil(n/nr)^2`` words, a
    #: replicated ``n x nr`` panel of B ``n`` (the FFT uses neither store).
    store_words: Callable[[int, int], Tuple[int, int]] = lambda n, nr: (0, 0)


def check_size(kernel: str, size: int, nr: int) -> None:
    """Validate a requested problem size for ``kernel`` (raises ValueError).

    The size must be positive, a multiple of ``nr`` for the matrix kernels,
    and small enough that the operands fit the default PE stores.  Shared
    by the CLI and the engine's ``simulate`` runner so both entry points
    agree on which jobs are valid.
    """
    spec = get_kernel(kernel)
    if size < 1:
        raise ValueError("size must be positive")
    if spec.requires_nr_alignment and size % nr:
        raise ValueError(f"size must be a multiple of nr={nr}")
    pe = PEConfig()
    for store, words, capacity in zip(("MEM A", "MEM B"), spec.store_words(size, nr),
                                      (pe.store_a_words, pe.store_b_words)):
        if words > capacity:
            raise ValueError(f"{kernel} at size {size} needs {words} words of {store} "
                             f"per PE at nr={nr}; the store holds {capacity}")


def _gemm_operands(rng: np.random.Generator, n: int, nr: int) -> Tuple:
    return (rng.random((n, n)), rng.random((n, n)), rng.random((n, n)))


def _syrk_operands(rng: np.random.Generator, n: int, nr: int) -> Tuple:
    return (rng.random((n, n)), rng.random((n, n)))


def _trsm_operands(rng: np.random.Generator, n: int, nr: int) -> Tuple:
    lower = np.tril(rng.random((n, n))) + n * np.eye(n)
    return (lower, rng.random((n, n)))


def _cholesky_operands(rng: np.random.Generator, n: int, nr: int) -> Tuple:
    m = rng.random((n, n))
    return (m @ m.T + n * np.eye(n),)


def _lu_operands(rng: np.random.Generator, n: int, nr: int) -> Tuple:
    return (rng.random((max(n, nr), nr)),)


def _fft_operands(rng: np.random.Generator, n: int, nr: int) -> Tuple:
    points = fft_point_count(n)
    return (rng.standard_normal(points) + 1j * rng.standard_normal(points),)


KERNEL_DISPATCH: Dict[str, KernelSpec] = {
    "gemm": KernelSpec("gemm", _gemm_operands,
                       lambda core, ops: lac_gemm(core, ops[0], ops[1], ops[2]),
                       store_words=lambda n, nr: (math.ceil(n / nr) ** 2, n)),
    "syrk": KernelSpec("syrk", _syrk_operands,
                       lambda core, ops: lac_syrk(core, ops[0], ops[1]),
                       store_words=lambda n, nr: (math.ceil(n / nr) ** 2, 0)),
    "trsm": KernelSpec("trsm", _trsm_operands,
                       lambda core, ops: lac_trsm(core, ops[0], ops[1]),
                       store_words=lambda n, nr: (math.ceil(n / nr) ** 2, 0)),
    "cholesky": KernelSpec("cholesky", _cholesky_operands,
                           lambda core, ops: lac_cholesky(core, ops[0]),
                           store_words=lambda n, nr: (math.ceil(n / nr) ** 2, 0)),
    "lu": KernelSpec("lu", _lu_operands,
                     lambda core, ops: lac_lu_panel(core, ops[0]),
                     store_words=lambda n, nr: (math.ceil(max(n, nr) / nr), 0)),
    "fft": KernelSpec("fft", _fft_operands,
                      lambda core, ops: lac_fft(core, ops[0]),
                      effective_size=lambda n, nr: fft_point_count(n),
                      requires_nr_alignment=False),
}


def kernel_names() -> List[str]:
    """Names accepted by the CLI and the ``simulate`` sweep runner."""
    return list(KERNEL_DISPATCH)


def get_kernel(name: str) -> KernelSpec:
    """Look up one kernel spec by name."""
    try:
        return KERNEL_DISPATCH[name]
    except KeyError:
        raise KeyError(f"unknown kernel '{name}'; known kernels: "
                       f"{sorted(KERNEL_DISPATCH)}") from None


def simulate_kernel(core: LinearAlgebraCore, kernel: str, size: int,
                    rng: np.random.Generator) -> KernelResult:
    """Build seeded operands for ``kernel`` and run it on ``core``."""
    spec = get_kernel(kernel)
    operands = spec.build_operands(rng, size, core.config.nr)
    return spec.run(core, operands)
