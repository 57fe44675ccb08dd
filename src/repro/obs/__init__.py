"""``repro.obs`` -- unified tracing, metrics and cycle attribution.

The observability layer every other subsystem reports through:

* :mod:`repro.obs.tracer` -- :class:`Tracer` / :class:`Span` /
  :class:`Counter`, the lightweight recording primitives;
* :mod:`repro.obs.chrome` -- Chrome trace-event JSON export
  (``chrome://tracing`` / Perfetto) and schema validation;
* :mod:`repro.obs.attribution` -- :class:`CycleAttribution`, the
  per-component cycle decomposition (compute / spill-stall / transfer /
  idle) whose parts provably sum to ``cores x makespan``;
* :mod:`repro.obs.manifest` -- structured run manifests persisting the
  sweep engine's per-shard wall times, per-job latency and cache hit-rate
  next to the sweep output.

The package imports nothing from :mod:`repro.lap` or :mod:`repro.engine`
(everything is duck-typed over their record shapes), so instrumenting a
subsystem never creates an import cycle.
"""

from repro.obs.attribution import CoreAttribution, CycleAttribution, idle_gaps
from repro.obs.chrome import (to_chrome_trace, tracer_events,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.manifest import (MANIFEST_SCHEMA, build_run_manifest,
                                manifest_path_for, write_run_manifest)
from repro.obs.tracer import Counter, Span, Tracer

__all__ = [
    "Counter", "Span", "Tracer",
    "CoreAttribution", "CycleAttribution", "idle_gaps",
    "to_chrome_trace", "tracer_events",
    "validate_chrome_trace", "write_chrome_trace",
    "MANIFEST_SCHEMA", "build_run_manifest", "manifest_path_for",
    "write_run_manifest",
]
