"""Golden-value regression suite for every registered experiment.

Each registered experiment (figures, tables and the validation summary) has
a JSON snapshot under ``tests/goldens/``; the tests regenerate its data and
compare it against the snapshot with per-metric relative tolerances, so any
refactor that drifts a reproduced number fails mechanically instead of
silently.

Refreshing the snapshots after an intentional model change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_figures_golden.py

The updated files under ``tests/goldens/`` are then reviewed and committed
like any other code change.
"""

import json
import math
import os
import pathlib

import numpy as np
import pytest

from repro.experiments.registry import REGISTRY, run_experiment

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"

UPDATE_ENV = "REPRO_UPDATE_GOLDENS"

#: Default relative tolerance for numeric comparisons.  The generators are
#: deterministic, so this only has to absorb cross-platform floating-point
#: differences (libm, FMA contraction, summation order in BLAS).
DEFAULT_RTOL = 1e-6

#: Per-metric overrides: looser bounds for metrics derived from long
#: floating-point reductions or ratios of near-equal quantities.
METRIC_RTOL = {
    "relative_performance_pct": 1e-5,
    "prediction_error_pct": 1e-5,
    "inverse_energy_delay": 1e-5,
    "energy_delay": 1e-5,
}

EXPERIMENT_IDS = sorted(REGISTRY)


def _golden_path(exp_id: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{exp_id}.json"


def _sanitize(value):
    """Make generator output JSON-serialisable (numpy scalars -> Python)."""
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _assert_matches(actual, golden, path=""):
    """Recursive comparison with per-metric relative tolerances."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: expected mapping"
        assert set(actual) == set(golden), \
            f"{path}: key mismatch {sorted(set(actual) ^ set(golden))}"
        for key in golden:
            _assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list), f"{path}: expected list"
        assert len(actual) == len(golden), \
            f"{path}: {len(actual)} rows vs golden {len(golden)}"
        for index, (a, g) in enumerate(zip(actual, golden)):
            _assert_matches(a, g, f"{path}[{index}]")
    elif isinstance(golden, bool) or golden is None or isinstance(golden, str):
        assert actual == golden, f"{path}: {actual!r} != golden {golden!r}"
    elif isinstance(golden, (int, float)):
        metric = path.rsplit(".", 1)[-1].split("[", 1)[0]
        rtol = METRIC_RTOL.get(metric, DEFAULT_RTOL)
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), \
            f"{path}: {actual!r} is not numeric"
        if math.isnan(float(golden)):
            assert math.isnan(float(actual)), f"{path}: expected NaN"
        else:
            assert actual == pytest.approx(golden, rel=rtol, abs=1e-12), \
                f"{path}: {actual!r} != golden {golden!r} (rtol={rtol})"
    else:  # pragma: no cover - goldens only hold JSON types
        raise TypeError(f"{path}: unsupported golden type {type(golden).__name__}")


def test_every_figure_has_a_golden():
    """Registering an experiment requires snapshotting it as well."""
    if os.environ.get(UPDATE_ENV):
        pytest.skip("goldens are being regenerated")
    missing = [exp_id for exp_id in EXPERIMENT_IDS
               if not _golden_path(exp_id).is_file()]
    assert not missing, (f"experiments without goldens: {missing}; run "
                         f"{UPDATE_ENV}=1 pytest tests/test_figures_golden.py")


def test_no_stale_goldens():
    """A golden whose experiment was removed/renamed must be deleted with it."""
    known = {f"{exp_id}.json" for exp_id in EXPERIMENT_IDS}
    stale = [p.name for p in GOLDEN_DIR.glob("*.json") if p.name not in known]
    assert not stale, f"goldens without experiments: {stale}"


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_figure_matches_golden(exp_id):
    data = _sanitize(run_experiment(exp_id))
    path = _golden_path(exp_id)
    if os.environ.get(UPDATE_ENV):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True, allow_nan=False)
            handle.write("\n")
        return
    if not path.is_file():
        pytest.fail(f"missing golden {path.name}; run {UPDATE_ENV}=1 "
                    f"pytest tests/test_figures_golden.py to create it")
    with path.open() as handle:
        golden = json.load(handle)
    _assert_matches(data, golden, exp_id)
