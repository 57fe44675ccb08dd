"""The array-level LAC simulator against the per-PE oracle.

Every kernel of :mod:`repro.kernels` runs on random shapes, core sizes and
operands through the product (:class:`repro.lac.core.LinearAlgebraCore`,
one array operation per step, counters charged in closed form) and through
``tests/lac_oracle.py`` (one PE method call per MAC, counters charged per
event).  The outputs must be bit-identical, every
:class:`~repro.lac.stats.AccessCounters` field equal, and the final contents
of ``MEM A``, ``MEM B`` and the accumulators equal.  The local stores are
drawn small enough that some blocks overflow them; those must raise the same
``IndexError`` on both.

Run this file after any kernel or core edit:
``PYTHONPATH=src python -m pytest -q tests/test_lac_oracle.py``.
"""

from typing import Callable, Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lac_oracle
from repro.hw.sfu import SFUPlacement
from repro.kernels import blocked_factorizations, cholesky, fft, gemm, lu, qr, syrk, trsm
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.lac.pe import PEConfig

#: Module the product's kernels live in, by kernel name.
PRODUCT = {
    "lac_gemm": gemm, "lac_syrk": syrk, "lac_syr2k": syrk, "lac_trsm": trsm,
    "lac_cholesky": cholesky, "lac_lu_panel": lu,
    "lac_lu_blocked": blocked_factorizations,
    "lac_householder_qr_panel": qr, "lac_qr_blocked": blocked_factorizations,
    "lac_apply_reflectors": qr, "lac_vector_norm": qr, "lac_fft": fft,
}


def _blocks(data, nr: int, most: int = 3) -> int:
    """A dimension of 1..``most`` core-sized blocks (fewer at ``nr=8``)."""
    return nr * data.draw(st.integers(1, 2 if nr == 8 else most))


def _zero_sub_columns(data, rng, a: np.ndarray) -> np.ndarray:
    """Zero the sub-diagonal part of some columns (the QR skip path)."""
    if data.draw(st.booleans()):
        for j in range(a.shape[1]):
            if rng.random() < 0.5:
                a[j + 1:, j] = 0.0
    return a


def _gemm(data, rng, nr):
    mc, kc, n = (_blocks(data, nr) for _ in range(3))
    distribute = data.draw(st.booleans())
    return "lac_gemm", (rng.random((mc, n)), rng.random((mc, kc)), rng.random((kc, n))), \
        {"distribute_operands": distribute}


def _syrk(data, rng, nr):
    mc, kc = _blocks(data, nr), _blocks(data, nr)
    return "lac_syrk", (rng.random((mc, mc)), rng.random((mc, kc))), {}


def _syr2k(data, rng, nr):
    mc, kc = _blocks(data, nr), _blocks(data, nr)
    return "lac_syr2k", (rng.random((mc, mc)), rng.random((mc, kc)),
                         rng.random((mc, kc))), {}


def _trsm(data, rng, nr):
    k, m = _blocks(data, nr), _blocks(data, nr)
    variant = data.draw(st.sampled_from(["basic", "stacked", "software_pipelined"]))
    lower = np.tril(rng.random((k, k))) + k * np.eye(k)
    return "lac_trsm", (lower, rng.random((k, m))), {"variant": variant}


def _cholesky(data, rng, nr):
    n = _blocks(data, nr)
    g = rng.random((n, n))
    return "lac_cholesky", (g @ g.T + n * np.eye(n),), {}


def _lu_panel(data, rng, nr):
    k = data.draw(st.integers(nr, 3 * nr))
    return "lac_lu_panel", (rng.random((k, nr)),), \
        {"use_comparator_extension": data.draw(st.booleans())}


def _lu_blocked(data, rng, nr):
    n = _blocks(data, nr)
    return "lac_lu_blocked", (rng.random((n, n)),), \
        {"use_comparator_extension": data.draw(st.booleans())}


def _qr_panel(data, rng, nr):
    k = data.draw(st.integers(nr, 3 * nr))
    return "lac_householder_qr_panel", (_zero_sub_columns(data, rng, rng.random((k, nr))),), \
        {"use_exponent_extension": data.draw(st.booleans())}


def _qr_blocked(data, rng, nr):
    n = _blocks(data, nr)
    m = n + data.draw(st.integers(0, nr))
    return "lac_qr_blocked", (_zero_sub_columns(data, rng, rng.random((m, n))),), \
        {"use_exponent_extension": data.draw(st.booleans())}


def _apply_reflectors(data, rng, nr):
    m = data.draw(st.integers(1, 3 * nr))
    p = data.draw(st.integers(1, m))
    q = data.draw(st.integers(1, 3 * nr))
    taus = [float("inf") if rng.random() < 0.25 else 1.0 + rng.random()
            for _ in range(p)]
    return "lac_apply_reflectors", (rng.random((m, p)), taus, rng.random((m, q))), {}


def _vector_norm(data, rng, nr):
    k = data.draw(st.integers(1, 6 * nr))
    x = rng.standard_normal(k) * 10.0 ** data.draw(st.integers(-3, 3))
    if data.draw(st.integers(0, 5)) == 0:
        x[:] = 0.0
    return "lac_vector_norm", (x,), {
        "owner_column": data.draw(st.integers(0, nr - 1)),
        "use_exponent_extension": data.draw(st.booleans())}


def _fft(data, rng, nr):
    n = 4 ** data.draw(st.integers(1, 3))
    block = data.draw(st.sampled_from([None] + [b for b in (4, 16) if b < n]))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return "lac_fft", (x,), {"block_points": block}


CASES: Dict[str, Callable] = {
    "gemm": _gemm, "syrk": _syrk, "syr2k": _syr2k, "trsm": _trsm,
    "cholesky": _cholesky, "lu_panel": _lu_panel, "lu_blocked": _lu_blocked,
    "qr_panel": _qr_panel, "qr_blocked": _qr_blocked,
    "apply_reflectors": _apply_reflectors, "vector_norm": _vector_norm, "fft": _fft,
}


def _same_bits(actual, expected) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


def _run(kernel: str, core, args: Tuple, kwargs: dict, module):
    """``(result, None)``, or ``(None, message)`` when a store overflows."""
    try:
        return getattr(module, kernel)(core, *args, **kwargs), None
    except IndexError as exc:
        return None, str(exc)


def check_against_oracle(config: LACConfig, kernel: str, args: Tuple, kwargs: dict):
    """Run ``kernel`` on the product and the oracle; assert they agree."""
    product_core, oracle_core = LinearAlgebraCore(config), lac_oracle.OracleCore(config)
    product, product_error = _run(kernel, product_core, args, kwargs, PRODUCT[kernel])
    oracle, oracle_error = _run(kernel, oracle_core, args, kwargs, lac_oracle)
    assert product_error == oracle_error
    if oracle_error is not None:
        return None
    assert _same_bits(product.output, oracle.output), kernel
    assert product.counters.as_dict() == oracle.counters.as_dict(), kernel
    assert product_core.counters.as_dict() == oracle_core.counters.as_dict()
    for key, value in (oracle.extra or {}).items():
        assert _same_bits(product.extra[key], value), key
    assert set(product.extra or {}) == set(oracle.extra or {})
    for product_state, oracle_state in (("store_a", "store_a"), ("store_b", "store_b"),
                                        ("accumulators", "accumulator")):
        assert np.array_equal(getattr(product_core, product_state),
                              oracle_core.state(oracle_state)), product_state
    return product


@pytest.mark.parametrize("case", sorted(CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_array_simulator_matches_per_pe_oracle(case, data):
    nr = data.draw(st.sampled_from([2, 3, 4, 8]), label="nr")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    kernel, args, kwargs = CASES[case](data, rng, nr)
    # Stores sized around the blocks' words, so that some examples overflow.
    words = 4 * max(1, int(np.prod(np.shape(args[-1]))) // (nr * nr))
    tight = data.draw(st.booleans(), label="tight")
    pe = PEConfig(store_a_words=data.draw(st.integers(1, words)) if tight else 2048,
                  store_b_words=data.draw(st.integers(1, words)) if tight else 256,
                  mac_pipeline_stages=data.draw(st.integers(1, 8)))
    config = LACConfig(nr=nr, pe=pe, sfu_placement=data.draw(st.sampled_from(SFUPlacement)))
    check_against_oracle(config, kernel, args, kwargs)


@pytest.mark.parametrize("tile,expected", [(np.triu, 12), (lambda a: a, 870)])
def test_geqrt_skips_zero_sub_columns_on_both(tile, expected):
    """GEQRT of a tile whose sub-columns are zero: 12 cycles at tile 8 on an
    ``nr=4`` core, against 870 for a dense tile."""
    a = tile(np.random.default_rng(3).random((8, 8)))
    result = check_against_oracle(LACConfig(), "lac_qr_blocked", (a,), {})
    assert result.cycles == expected


def test_store_overflow_raises_the_oracle_error():
    config = LACConfig(nr=4, pe=PEConfig(store_a_words=4, store_b_words=4))
    cases = [("distribute_a", np.ones((12, 8)), base, f"store A address {address}")
             for base, address in ((0, 4), (-1, -1), (5, 5))]
    cases += [("distribute_b_replicated", np.ones((6, 4)), base, f"store B address {address}")
              for base, address in ((0, 4), (-2, -2), (4, 4))]
    for method, block, base, message in cases:
        for core in (LinearAlgebraCore(config), lac_oracle.OracleCore(config)):
            with pytest.raises(IndexError) as info:
                getattr(core, method)(block, base_address=base)
            assert str(info.value) == f"{message} out of range [0, 4)"
