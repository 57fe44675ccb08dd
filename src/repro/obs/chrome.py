"""Chrome trace-event export: one JSON every trace viewer already reads.

The `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
is the lingua franca of ``chrome://tracing`` and Perfetto.
:func:`write_chrome_trace` streams an iterable of its events (such as
:meth:`repro.lap.runtime.LAPRuntime.trace_events`) into the JSON-object
form, one compact event per line::

    {"displayTimeUnit":"ns","metadata":{...},"traceEvents":[
    {"name":"process_name","ph":"M",...},
    ...
    ]}

A runtime trace has one named thread (``tid``) per core, so it opens with
one horizontal lane per core; complete (``"ph": "X"``) events are task
spans and idle gaps, ``"ph": "C"`` events counter tracks.  Timestamps are
emitted verbatim: the viewer labels them "µs", but for runtime traces one
unit is one reference-clock cycle (recorded in ``metadata.time_unit``) --
exact integers beat lossy unit conversion for a cycle-accurate model.

:func:`validate_chrome_trace` checks a parsed trace against the invariants
the rest of the repo relies on (required keys per event phase, numeric
non-negative timestamps, and per-track non-overlap of ``task``/``idle``
spans -- spans of other categories may nest); the writer applies the same
per-event check to every event it writes.  :func:`read_trace_metadata`
parses a written trace's ``metadata`` from its first line alone.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from typing import Dict, Iterable, List, Mapping

__all__ = ["read_trace_metadata", "validate_chrome_trace", "write_chrome_trace"]

#: Keys every trace event must carry (the spec's required set).
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid")

#: Additional required keys per phase type.
PHASE_REQUIRED_KEYS = {"X": ("dur", "tid"), "M": (), "C": ("args",)}

#: Span categories whose per-track events must not overlap (task/idle lanes
#: tile a core's timeline; spans of other categories may nest).
NON_OVERLAP_CATEGORIES = ("task", "idle")

#: Relative tolerance of the overlap checks: a span's end is rebuilt as
#: ``ts + dur``, which can miss the next span's start by float rounding.
REL_TOL = 1e-9


def _check_event(index: int, event: object) -> None:
    """Raise ``ValueError`` unless ``event`` is an object with the keys of
    its phase and a finite, non-negative numeric ``ts`` (and ``dur``)."""
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
    for key in ("ts", "dur") if phase == "X" else ("ts",):
        value = event[key]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 <= value < math.inf):
            raise ValueError(f"traceEvents[{index}] has invalid {key} "
                             f"{value!r}")


def write_chrome_trace(events: Iterable[dict], path,
                       metadata: Mapping[str, object]) -> int:
    """Stream ``events`` and ``metadata`` into the trace file ``path``;
    returns the number of events written.

    Each event passes the per-event check of :func:`validate_chrome_trace`
    and is written, C-encoded as strict JSON, before the next one is
    pulled; the writer keeps only the end of the last ``task``/``idle``
    span per track and category, so those spans must arrive in start order
    on each track, and one that starts before its predecessor ends is an
    overlap.  The file is written beside ``path`` and renamed into place
    once complete: a failed check, a NaN or infinite value anywhere, or an
    I/O error raises (``ValueError`` / ``OSError``) and leaves neither
    file.
    """
    path = pathlib.Path(path)
    encode = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode
    header = encode(metadata)
    ends: Dict[tuple, float] = {}
    count = 0
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as handle:
            handle.write('{"displayTimeUnit":"ns","metadata":' + header
                         + ',"traceEvents":[')
            for event in events:
                _check_event(count, event)
                if event["ph"] == "X" and event.get("cat") in NON_OVERLAP_CATEGORIES:
                    track = (event["pid"], event["tid"], event["cat"])
                    end = ends.get(track, 0.0)
                    if event["ts"] < end - REL_TOL * max(end, 1.0):
                        raise ValueError(
                            f"track (pid={event['pid']}, tid={event['tid']}): "
                            f"span '{event['name']}' starting at "
                            f"{event['ts']} overlaps the {event['cat']} span "
                            f"ending at {end}")
                    ends[track] = event["ts"] + event["dur"]
                handle.write(("\n" if count == 0 else ",\n") + encode(event))
                count += 1
            handle.write("\n]}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def read_trace_metadata(path) -> object:
    """The ``metadata`` of a trace :func:`write_chrome_trace` wrote, parsed
    from the file's first line alone (the header that opens
    ``traceEvents``); raises ``ValueError`` for a file in another layout,
    ``KeyError`` for a header without metadata and ``OSError`` if the file
    cannot be read."""
    with open(path) as handle:
        head = handle.readline().rstrip("\n")
    if not head.endswith(',"traceEvents":['):
        raise ValueError("its first line is not a trace header ending in "
                         "'\"traceEvents\":['")
    return json.loads(head + "]}")["metadata"]


def validate_chrome_trace(payload: object) -> List[dict]:
    """Validate a trace payload; returns its events or raises ``ValueError``.

    Checks the envelope (``traceEvents`` list present), the required keys
    of every event (:data:`REQUIRED_EVENT_KEYS` plus the per-phase extras),
    finite non-negative numeric ``ts``/``dur``, and that ``task``/``idle``
    spans on one ``(pid, tid)`` track never overlap (within
    :data:`REL_TOL` of the track's time span, absorbing float
    accumulation).
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object with "
                         "'traceEvents'")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload is missing the 'traceEvents' list")
    tracks: Dict[tuple, List[tuple]] = {}
    for index, event in enumerate(events):
        _check_event(index, event)
        if event["ph"] == "X" and event.get("cat") in NON_OVERLAP_CATEGORIES:
            ts = float(event["ts"])
            tracks.setdefault((event["pid"], event["tid"]), []).append(
                (ts, ts + float(event["dur"]), event["name"]))
    for (pid, tid), spans in tracks.items():
        spans.sort()
        span_extent = max((end for _, end, _ in spans), default=0.0)
        tolerance = REL_TOL * max(span_extent, 1.0)
        for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
            if s1 < e0 - tolerance:
                raise ValueError(
                    f"track (pid={pid}, tid={tid}): span '{n1}' starting at "
                    f"{s1} overlaps '{n0}' ending at {e0}")
    return events
