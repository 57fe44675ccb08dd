"""``repro.obs`` -- schedule traces, cycle attribution and run manifests.

The observability layer every other subsystem reports through:

* :mod:`repro.obs.chrome` -- Chrome trace-event JSON (``chrome://tracing``
  / Perfetto): a streaming writer that checks each event as it writes it,
  and schema validation of a parsed trace;
* :mod:`repro.obs.attribution` -- :class:`CycleAttribution`, the
  per-component cycle decomposition (compute / spill-stall / transfer /
  idle) whose parts provably sum to ``cores x makespan``;
* :mod:`repro.obs.manifest` -- structured run manifests persisting the
  sweep engine's per-shard wall times, per-job latency and cache hit-rate
  next to the sweep output.

A schedule's trace events come from
:meth:`repro.lap.runtime.LAPRuntime.trace_events`, a view over the rows its
scheduler loop recorded.  The package imports nothing from
:mod:`repro.lap` or :mod:`repro.engine` (everything is duck-typed over
their record shapes), so instrumenting a subsystem never creates an import
cycle.
"""

from repro.obs.attribution import CoreAttribution, CycleAttribution, idle_gaps
from repro.obs.chrome import validate_chrome_trace, write_chrome_trace
from repro.obs.manifest import (MANIFEST_SCHEMA, build_run_manifest,
                                manifest_path_for, write_run_manifest)

__all__ = [
    "CoreAttribution", "CycleAttribution", "idle_gaps",
    "validate_chrome_trace", "write_chrome_trace",
    "MANIFEST_SCHEMA", "build_run_manifest", "manifest_path_for",
    "write_run_manifest",
]
