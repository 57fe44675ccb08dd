"""Parallel, cached design-space sweep engine with Pareto analysis.

The engine turns the repo's hand-rolled sweep loops into declarative,
incremental, parallel runs:

* :mod:`repro.engine.spec` -- :class:`SweepSpec` (grid / zip / filter
  combinators) expanding into hashable :class:`Job` objects,
* :mod:`repro.engine.cache` -- one content-addressed on-disk store: result
  rows keyed by job parameters plus a code version derived from the
  package source, and the schedule replay records filed beside them under
  the same atomic writes, LRU budget (``REPRO_CACHE_MAX_MB`` and an
  explicit ``prune()``), ``clear()`` and lifetime stats,
* :mod:`repro.engine.executor` -- a streaming work-stealing executor over
  ``concurrent.futures``: ``stream()`` yields rows as they land,
  ``run()`` collects them with deterministic (job-order) result ordering,
* :mod:`repro.engine.analysis` -- Pareto-frontier extraction (one streaming
  fold, also run over whole row lists) and best-per-metric selection,
* :mod:`repro.engine.runners` -- adapters exposing the existing design
  evaluation, analytical models and cycle-level simulations as runners.

Quickstart
----------
>>> from repro.engine import SweepSpec, sweep
>>> spec = SweepSpec().constants(nr=4).grid(cores=(4, 8), frequency_ghz=(1.0, 1.4))
>>> result = sweep(spec.jobs("design"), mode="serial")
>>> len(result.rows)
4
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.engine.analysis import (DEFAULT_OBJECTIVES, IncrementalPareto,
                                   best_per_metric, frontier_report,
                                   pareto_frontier)
from repro.engine.cache import (CACHE_MAX_MB_ENV, ResultCache, SidecarStore,
                                default_code_version, env_max_bytes,
                                usable_cache_dir)
from repro.engine.executor import (StreamRow, SweepExecutor, SweepResult,
                                   SweepStream, execute_jobs, stream_jobs)
from repro.engine.runners import (HEAVY_RUNNERS, KNOWN_PARAMS, PARETO_OBJECTIVES,
                                  RUNNERS, get_runner, runner_names)
from repro.engine.spec import Job, Params, SweepSpec, canonical_params, params_key

__all__ = [
    "SweepSpec", "Job", "Params", "canonical_params", "params_key",
    "ResultCache", "SidecarStore", "default_code_version", "usable_cache_dir",
    "CACHE_MAX_MB_ENV", "env_max_bytes",
    "SweepExecutor", "SweepResult", "SweepStream", "StreamRow",
    "execute_jobs", "stream_jobs",
    "pareto_frontier", "best_per_metric", "frontier_report",
    "IncrementalPareto",
    "DEFAULT_OBJECTIVES", "PARETO_OBJECTIVES", "RUNNERS", "HEAVY_RUNNERS",
    "KNOWN_PARAMS",
    "runner_names", "get_runner",
    "sweep",
]


def sweep(spec_or_jobs: Union[SweepSpec, Sequence[Job]], runner: Optional[str] = None,
          mode: str = "auto", max_workers: Optional[int] = None,
          batch_size: Optional[int] = None,
          cache_dir: Optional[str] = None) -> SweepResult:
    """Run a sweep end to end: expand, resolve from cache, fan out, collect.

    Accepts either a :class:`SweepSpec` (``runner`` required) or a
    pre-expanded job list.  When ``cache_dir`` is given, results are cached
    on disk under a namespace derived from the package source, so re-runs
    only execute jobs that are new or invalidated by a code edit.
    """
    if isinstance(spec_or_jobs, SweepSpec):
        if runner is None:
            raise ValueError("a runner name is required when passing a SweepSpec")
        jobs = spec_or_jobs.jobs(runner)
    else:
        jobs = list(spec_or_jobs)
        if runner is not None and any(job.runner != runner for job in jobs):
            raise ValueError("explicit runner does not match the jobs' runner")
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return execute_jobs(jobs, mode=mode, max_workers=max_workers,
                        batch_size=batch_size, cache=cache)
