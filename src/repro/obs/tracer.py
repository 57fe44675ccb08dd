"""Lightweight span/counter tracing primitives for the runtime and engine.

The observability layer records *what happened when* without perturbing the
thing it observes: a :class:`Tracer` collects completed :class:`Span` records
(one per scheduled task, idle gap, or engine shard) and cumulative
:class:`Counter` series, both cheap appends.  No hot loop calls a tracer:
the LAP runtime rebuilds its spans from the recorded executions after the
scheduler loop, and ``tracer=None`` (the default everywhere) records
nothing.

Timestamps are dimensionless: the LAP runtime records reference-clock
cycles, the sweep engine records seconds.  One tracer should stick to one
unit (the Chrome exporter stamps the unit into the trace metadata).

>>> tracer = Tracer()
>>> tracer.span("GEMM#3", track=0, start=0.0, end=384.0,
...             args={"compute_cycles": 384.0})        # doctest: +ELLIPSIS
Span(...)
>>> tracer.counter("spill_bytes").add(4096, ts=384.0)
>>> len(tracer.spans), tracer.counter("spill_bytes").value
(1, 4096.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Span", "Tracer"]


@dataclass
class Span:
    """One completed, timestamped interval on a named track.

    ``track`` identifies the horizontal lane the span renders on (a core
    index for runtime traces, a worker/shard lane for engine traces);
    ``category`` groups spans for filtering (``"task"``, ``"idle"``,
    ``"phase"``, ``"shard"``); ``args`` carries the span's structured
    payload (e.g. a task's cycle decomposition).
    """

    name: str
    track: int
    start: float
    end: float
    category: str = "task"
    args: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span '{self.name}' ends before it starts "
                             f"({self.end} < {self.start})")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Counter:
    """A named cumulative counter with an optional timestamped series.

    ``add(delta)`` bumps the running total; ``add(delta, ts=...)`` also
    appends a ``(ts, running_total)`` sample so the exporter can render the
    counter as a track over time (Chrome ``"C"`` events).
    """

    __slots__ = ("name", "value", "series")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.series: List[Tuple[float, float]] = []

    def add(self, delta: float, ts: Optional[float] = None) -> None:
        self.value += delta
        if ts is not None:
            self.series.append((ts, self.value))


class Tracer:
    """Collects spans and counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}

    # ----------------------------------------------------------- recording
    def span(self, name: str, track: int, start: float, end: float,
             category: str = "task",
             args: Optional[Dict[str, object]] = None) -> Span:
        """Record one completed span; returns it."""
        span = Span(name=name, track=int(track), start=float(start),
                    end=float(end), category=category,
                    args={} if args is None else args)
        self.spans.append(span)
        return span

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    # ------------------------------------------------------------- queries
    def spans_by_track(self) -> Dict[int, List[Span]]:
        """Spans grouped per track, each group sorted by start time."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.track, []).append(span)
        for group in grouped.values():
            group.sort(key=lambda s: (s.start, s.end))
        return grouped
