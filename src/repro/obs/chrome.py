"""Chrome trace-event export: one JSON every trace viewer already reads.

The `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
is the lingua franca of ``chrome://tracing`` and Perfetto.  This module
renders a :class:`repro.obs.tracer.Tracer` into its JSON-object form::

    {"traceEvents": [...], "displayTimeUnit": "ns", "metadata": {...}}

Every span becomes a complete (``"ph": "X"``) event; every tracer track
becomes one named thread (``tid``) of a single process, so a runtime trace
opens with one horizontal lane per core.  Counters with timestamped series
become ``"ph": "C"`` counter tracks.  Timestamps are emitted verbatim: the
viewer labels them "µs", but for runtime traces one unit is one
reference-clock cycle (recorded in ``metadata.time_unit``) -- exact integers
beat lossy unit conversion for a cycle-accurate model.

:func:`validate_chrome_trace` checks the invariants the rest of the repo
relies on (required keys per event phase, numeric non-negative timestamps,
and per-track non-overlap of ``task``/``idle`` spans -- spans of other
categories may nest).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.tracer import Tracer

__all__ = [
    "to_chrome_trace", "tracer_events",
    "validate_chrome_trace", "write_chrome_trace",
]

#: Keys every trace event must carry (the spec's required set).
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid")

#: Additional required keys per phase type.
PHASE_REQUIRED_KEYS = {"X": ("dur", "tid"), "M": (), "C": ("args",)}

#: Span categories whose per-track events must not overlap (task/idle lanes
#: tile a core's timeline; spans of other categories may nest).
NON_OVERLAP_CATEGORIES = ("task", "idle")


def tracer_events(tracer: Tracer, pid: int = 0,
                  process_name: str = "LAP",
                  track_names: Optional[Mapping[int, str]] = None) -> List[dict]:
    """Chrome events of one tracer: metadata, span and counter events.

    ``track_names`` overrides the default ``"core <i>"`` thread names (the
    engine exporter passes worker labels instead).
    """
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
        "args": {"name": process_name},
    }]
    tracks = sorted(tracer.spans_by_track())
    for track in tracks:
        name = (track_names or {}).get(track, f"core {track}")
        events.append({"name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
                       "tid": track, "args": {"name": name}})
    for span in tracer.spans:
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start,
            "dur": span.duration,
            "pid": pid,
            "tid": span.track,
            "args": dict(span.args),
        })
    for counter in tracer.counters.values():
        for ts, value in counter.series:
            events.append({"name": counter.name, "ph": "C", "ts": ts,
                           "pid": pid, "args": {"value": value}})
    return events


def to_chrome_trace(source: Union[Tracer, Sequence[dict]],
                    metadata: Optional[Dict[str, object]] = None,
                    time_unit: str = "cycles",
                    process_name: str = "LAP",
                    track_names: Optional[Mapping[int, str]] = None) -> dict:
    """Build the JSON-object trace payload from a tracer or an event list."""
    if isinstance(source, Tracer):
        events = tracer_events(source, process_name=process_name,
                               track_names=track_names)
    else:
        events = list(source)
    payload: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "metadata": {"time_unit": time_unit, **(metadata or {})},
    }
    return payload


def write_chrome_trace(payload: Union[dict, Tracer, Sequence[dict]],
                       path) -> pathlib.Path:
    """Validate and write a trace payload as strict JSON (a NaN or infinite
    value raises ``ValueError``); returns the written path."""
    if not isinstance(payload, dict):
        payload = to_chrome_trace(payload)
    validate_chrome_trace(payload)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str,
                  allow_nan=False)
        handle.write("\n")
    return path


def validate_chrome_trace(payload: object, rel_tol: float = 1e-9) -> List[dict]:
    """Validate a trace payload; returns its events or raises ``ValueError``.

    Checks the envelope (``traceEvents`` list present), the required keys
    of every event (:data:`REQUIRED_EVENT_KEYS` plus the per-phase extras),
    numeric non-negative ``ts``/``dur``, and that ``task``/``idle`` spans
    on one ``(pid, tid)`` track never overlap (within ``rel_tol`` of the
    track's time span, absorbing float accumulation).
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object with "
                         "'traceEvents'")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload is missing the 'traceEvents' list")
    tracks: Dict[tuple, List[tuple]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                raise ValueError(f"traceEvents[{index}] ('{event.get('name')}') "
                                 f"is missing required key '{key}'")
        phase = event["ph"]
        for key in PHASE_REQUIRED_KEYS.get(phase, ()):
            if key not in event:
                raise ValueError(f"traceEvents[{index}] ('{event['name']}', "
                                 f"ph={phase}) is missing required key '{key}'")
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            raise ValueError(f"traceEvents[{index}] has invalid ts {ts!r}")
        if phase == "X":
            dur = event["dur"]
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                raise ValueError(f"traceEvents[{index}] has invalid dur {dur!r}")
            if event.get("cat") in NON_OVERLAP_CATEGORIES:
                tracks.setdefault((event["pid"], event["tid"]), []).append(
                    (float(ts), float(ts) + float(dur), event["name"]))
    for (pid, tid), spans in tracks.items():
        spans.sort()
        span_extent = max((end for _, end, _ in spans), default=0.0)
        tolerance = rel_tol * max(span_extent, 1.0)
        for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
            if s1 < e0 - tolerance:
                raise ValueError(
                    f"track (pid={pid}, tid={tid}): span '{n1}' starting at "
                    f"{s1} overlaps '{n0}' ending at {e0}")
    return events
