"""Experiment registry: regenerate every table and figure of the evaluation.

* :mod:`repro.experiments.registry` -- metadata and lookup for all
  experiments (id, kind, paper location, generator).
* :mod:`repro.experiments.tables` -- generators for the numbered tables.
* :mod:`repro.experiments.figures` -- generators for the figure data series.
* :mod:`repro.experiments.report` -- plain-text rendering used by
  ``repro experiments`` and ``repro sweep``.
"""

from repro.experiments.registry import Experiment, REGISTRY, get_experiment, run_experiment

__all__ = [
    "Experiment",
    "REGISTRY",
    "get_experiment",
    "run_experiment",
]
