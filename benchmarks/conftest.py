"""Shared fixtures of the performance and gate benchmarks.

Benchmarks that track a perf trajectory across PRs emit machine-readable
``BENCH_<name>.json`` files through the :func:`bench_json` fixture
(directory: ``$REPRO_BENCH_JSON_DIR``, default ``benchmarks/results/``), so
CI runs can be diffed mechanically.  The paper's claims are tier-1 tests
(``tests/test_paper_claims.py``), not benchmarks.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time

import pytest


@pytest.fixture(scope="session")
def bench_environment():
    """Where this pytest run's records were measured: the git SHA and
    dirty flag of the checkout (``None`` outside a git checkout), the
    Python and numpy versions and the CPU count."""
    import numpy

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(root), *args], env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


@pytest.fixture
def bench_json(request, bench_environment):
    """Callable fixture: ``bench_json(name, payload)`` persists one result.

    Writes ``BENCH_<name>.json`` (JSON: bench name, originating test, repro
    version, unix timestamp, the :func:`bench_environment`, payload) into
    ``$REPRO_BENCH_JSON_DIR`` or ``benchmarks/results/`` and returns the
    path, so the perf trajectory of a benchmark can be compared across PRs
    without scraping pytest output.
    """
    from repro import __version__

    def _write(name: str, payload: dict) -> pathlib.Path:
        out_dir = pathlib.Path(os.environ.get(
            "REPRO_BENCH_JSON_DIR",
            pathlib.Path(__file__).resolve().parent / "results"))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{name}.json"
        record = {
            "bench": name,
            "test": request.node.nodeid,
            "repro_version": __version__,
            "timestamp": time.time(),
            "environment": bench_environment,
            "payload": payload,
        }
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return path

    return _write
