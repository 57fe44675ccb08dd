"""Streaming work-stealing job executor with caching and deterministic results.

The executor takes :class:`~repro.engine.spec.Job` objects, resolves as many
as possible from the result cache and feeds the remainder to a
``concurrent.futures`` pool as a *stream* of adaptive micro-batches: instead
of pre-cutting the job list into ``ceil(n / shards)`` shards and blocking on
the slowest one, jobs are handed out a few at a time, every completed batch
immediately frees its worker for the next one, and the batch size shrinks as
the queue drains -- down to single jobs near the tail -- so one straggler job
(e.g. a cold 8k^2 simulation among hundreds of warm points) never holds a
batch of cheap jobs hostage and never leaves the other workers idle.

Two ways to consume a run:

* :meth:`SweepExecutor.stream` yields one :class:`StreamRow` per job *as the
  rows land* (cache hits first, in job order; executed rows in completion
  order), so callers can fold rows into incremental analyses
  (:class:`repro.engine.analysis.IncrementalPareto`) and print live progress
  while the sweep is still running.
* :meth:`SweepExecutor.run` drains the same stream and returns the classic
  batch :class:`SweepResult` -- rows in job order, byte-identical across
  serial and process execution and to the pre-streaming executor.

Workers receive only (runner name, parameter dicts, worker context); the
runner function is re-resolved inside the worker from
:mod:`repro.engine.runners`, which keeps batches trivially picklable.  The
worker context is the cache's :meth:`~repro.engine.cache.ResultCache.config`,
so worker processes load the :class:`~repro.lap.replay.ScheduleTrace`
records filed in the cache instead of re-scheduling.  Serial runs, and the
serial re-run after a process pool that cannot start or breaks, go through
one loop.

Every run also measures its own telemetry -- per-batch wall times, per-job
latency (measured inside the worker), time-to-first/last row and the cache's
hit/miss counters -- carried on the :class:`SweepResult` and exportable as a
structured run manifest through :mod:`repro.obs.manifest`.
"""

from __future__ import annotations

import concurrent.futures
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache
from repro.engine.spec import Job, Params

MODES = ("auto", "serial", "process")

#: Adaptive micro-batch sizing: target this many batches per worker over the
#: *remaining* queue, so batches start large enough to amortise pool chatter
#: and shrink to single jobs as the tail approaches (no straggler ever drags
#: a batch of cheap jobs with it).
_BATCHES_PER_WORKER = 4

#: Synthetic ``shard`` id of the zero-job cache entry recorded when a run
#: resolves jobs from the cache (so fully-cached runs still explain where
#: their rows came from instead of omitting the timing entry entirely).
CACHED_SHARD_ID = -1


def _run_shard(runner_name: str, params_list: List[Params],
               worker_context: Optional[dict] = None) -> Tuple[List[dict], List[float]]:
    """Execute one micro-batch of same-runner jobs (also the pool target).

    Returns the result rows plus the per-job wall seconds, measured in the
    worker so pool queueing never inflates a job's reported latency.
    ``worker_context`` (the cache's config, or ``None``) points the
    worker's schedule replay at the cache's records before the first job
    runs.
    """
    from repro.engine.runners import configure_worker, get_runner

    configure_worker(worker_context)
    runner = get_runner(runner_name)
    rows: List[dict] = []
    seconds: List[float] = []
    for params in params_list:
        started = time.perf_counter()
        rows.append(runner(params))
        seconds.append(time.perf_counter() - started)
    return rows, seconds


@dataclass(frozen=True)
class StreamRow:
    """One completed sweep row, yielded by :meth:`SweepExecutor.stream`.

    ``index`` is the row's position in the submitted job list (the order
    :attr:`SweepResult.rows` uses); ``elapsed_s`` is the wall time since the
    stream started when the row landed; ``latency_s`` is the worker-side
    execution time (``None`` for cache hits).
    """

    index: int
    job: Job
    row: dict
    cached: bool
    latency_s: Optional[float]
    elapsed_s: float


@dataclass
class SweepResult:
    """Outcome of one executor run.

    ``rows`` is aligned with ``jobs``: ``rows[i]`` is the result of
    ``jobs[i]`` regardless of cache state or completion order.  So is
    ``job_latency_s`` -- the worker-side wall seconds of each executed job,
    ``None`` for cache hits.  ``shard_timings`` records one entry per
    executed micro-batch (runner, job count, worker wall seconds); a run
    that resolved any jobs from the cache additionally records one zero-job
    entry (``shard == CACHED_SHARD_ID``, ``cached`` = hit count) so fully
    cached runs are not silently absent from the timing table.
    ``cache_stats`` snapshots the result cache's live hit/miss counters
    (``None`` when the run was uncached).  ``first_row_s`` / ``last_row_s``
    are the wall seconds from run start until the first / last row became
    available on the stream (``None`` for empty runs).
    """

    jobs: List[Job]
    rows: List[dict]
    executed: int
    cached: int
    mode: str
    elapsed_s: float
    shard_timings: List[dict] = field(default_factory=list)
    job_latency_s: List[Optional[float]] = field(default_factory=list)
    cache_stats: Optional[dict] = None
    first_row_s: Optional[float] = None
    last_row_s: Optional[float] = None

    @property
    def total(self) -> int:
        return len(self.jobs)

    def summary(self) -> str:
        text = (f"{self.total} jobs: {self.executed} executed, "
                f"{self.cached} cached [{self.mode}, {self.elapsed_s:.2f}s]")
        if self.cache_stats is not None:
            text += (f" | cache: {self.cache_stats['hits']} hits, "
                     f"{self.cache_stats['misses']} misses "
                     f"({100.0 * self.cache_stats['hit_rate']:.1f}% hit rate)")
        return text


class _StreamState:
    """Mutable accumulators one stream run shares with its SweepResult."""

    def __init__(self, jobs: List[Job]) -> None:
        self.jobs = jobs
        self.rows: List[Optional[dict]] = [None] * len(jobs)
        self.latencies: List[Optional[float]] = [None] * len(jobs)
        self.shard_timings: List[dict] = []
        self.cached = 0
        self.executed = 0
        self.mode = "serial"
        self.started = time.perf_counter()
        self.first_row_s: Optional[float] = None
        self.last_row_s: Optional[float] = None
        self.cache_stats: Optional[dict] = None
        #: Cleared by a failed cache write: the rest of this run stores no
        #: rows, but its counters are still reported and persisted.
        self.cache_writable = True

    def mark_row(self) -> float:
        elapsed = time.perf_counter() - self.started
        if self.first_row_s is None:
            self.first_row_s = elapsed
        self.last_row_s = elapsed
        return elapsed

    def result(self) -> SweepResult:
        return SweepResult(jobs=self.jobs, rows=list(self.rows),
                           executed=self.executed, cached=self.cached,
                           mode=self.mode,
                           elapsed_s=time.perf_counter() - self.started,
                           shard_timings=self.shard_timings,
                           job_latency_s=self.latencies,
                           cache_stats=self.cache_stats,
                           first_row_s=self.first_row_s,
                           last_row_s=self.last_row_s)


class SweepStream:
    """Iterator over a streaming sweep's rows plus its final result.

    Iterate to receive one :class:`StreamRow` per job as rows land;
    :meth:`result` drains any remaining rows and packages the run's
    :class:`SweepResult` (identical to what :meth:`SweepExecutor.run` on the
    same jobs returns).

    A stream can be abandoned early: :meth:`close` (or leaving a
    ``with stream:`` block) shuts the underlying worker pool down without
    waiting for in-flight batches, so breaking out of the row loop never
    hangs behind stragglers.  A closed stream's :meth:`result` reports only
    the rows that had landed.
    """

    def __init__(self, events: Iterator[StreamRow], state: _StreamState) -> None:
        self._events = events
        self._state = state
        self._exhausted = False

    def __iter__(self) -> "SweepStream":
        return self

    def __next__(self) -> StreamRow:
        try:
            return next(self._events)
        except StopIteration:
            self._exhausted = True
            raise

    def close(self) -> None:
        """Abandon the stream: cancel queued batches, don't wait for running ones."""
        self._exhausted = True
        self._events.close()

    def __enter__(self) -> "SweepStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def total(self) -> int:
        return len(self._state.jobs)

    def result(self) -> SweepResult:
        """Drain the stream (if needed) and return the batch result."""
        if not self._exhausted:
            for _ in self:
                pass
        return self._state.result()


class SweepExecutor:
    """Runs sweep jobs through an optional cache and a worker pool.

    Parameters
    ----------
    mode:
        ``"serial"``, ``"process"`` or ``"auto"``.  Auto picks
        a process pool for heavy runners (cycle-level simulations) with
        enough pending jobs, and serial execution for the cheap analytical
        models where pool overhead dominates.
    max_workers:
        Pool size (default: the CPUs this process may run on,
        ``os.sched_getaffinity`` where it exists, else ``os.cpu_count()``,
        capped at 8).
    batch_size:
        Fixed jobs per micro-batch; by default a pool's first round hands
        each worker one job (a serial run's first batch is one job too),
        then the size adapts to the remaining queue
        (about ``remaining / (workers * 4)``, floored at 1), which bounds
        pool chatter up front while the tail degrades to single-job
        hand-outs so stragglers never quantise the finish.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are written back as each micro-batch completes.  Its
        config is shipped to workers so recorded schedules are shared
        across processes.
    """

    def __init__(self, mode: str = "auto", max_workers: Optional[int] = None,
                 batch_size: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got '{mode}'")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.mode = mode
        self.max_workers = max_workers
        self.batch_size = batch_size
        self.cache = cache

    # ------------------------------------------------------------ internals
    def _resolve_workers(self) -> int:
        if self.max_workers is not None:
            return self.max_workers
        import os

        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        return max(1, min(cpus or 1, 8))

    def _resolve_mode(self, pending: Sequence[Tuple[int, Job]], workers: int) -> str:
        if self.mode != "auto":
            return self.mode
        if not pending:
            return "serial"
        from repro.engine.runners import HEAVY_RUNNERS

        heavy = any(job.runner in HEAVY_RUNNERS for _, job in pending)
        if heavy and len(pending) > 1 and workers > 1:
            return "process"
        return "serial"

    def _next_batch(self, queue: "deque[Tuple[int, Job]]", workers: int,
                    first_round: bool = False) -> List[Tuple[int, Job]]:
        """Pop the next same-runner micro-batch off the pending queue.

        With an explicit ``batch_size`` the size is fixed; otherwise it
        adapts to the remaining queue so early batches amortise dispatch
        overhead while the tail hands out single jobs (straggler-aware).
        The ``first_round`` (one batch per pool worker; a serial run's
        first batch) gets single jobs, so the first row lands one job after
        the run starts, not one batch, whatever the worker count.
        """
        size = self.batch_size or (1 if first_round else math.ceil(
            len(queue) / (workers * _BATCHES_PER_WORKER)))
        batch = [queue.popleft()]
        runner = batch[0][1].runner
        while queue and len(batch) < size and queue[0][1].runner == runner:
            batch.append(queue.popleft())
        return batch

    def _worker_context(self) -> Optional[dict]:
        """Per-worker configuration shipped with every micro-batch."""
        return None if self.cache is None else self.cache.config()

    # --------------------------------------------------------------- stream
    def stream(self, jobs: Iterable[Job]) -> SweepStream:
        """Execute all jobs, yielding rows as they land.

        Cache hits are yielded first (in job order), then executed rows in
        completion order.  Call :meth:`SweepStream.result` after (or instead
        of) iterating for the batch :class:`SweepResult`.
        """
        state = _StreamState(list(jobs))
        return SweepStream(self._events(state), state)

    def _events(self, state: _StreamState) -> Iterator[StreamRow]:
        jobs = state.jobs
        hits: List[Tuple[int, dict]] = []
        if self.cache is not None:
            for index, job in enumerate(jobs):
                hit = self.cache.get(job)
                if hit is not None:
                    state.rows[index] = hit
                    hits.append((index, hit))
        state.cached = len(hits)
        pending = [(i, job) for i, job in enumerate(jobs)
                   if state.rows[i] is None]
        state.executed = len(pending)
        if hits:
            # The zero-job shard entries: cache resolution is a real source
            # of rows and gets a timing-table line even when nothing
            # executed -- one entry per runner (in first-hit job order), so
            # mixed-runner sweeps attribute their hits to the right runner.
            cached_by_runner: Dict[str, int] = {}
            for index, _ in hits:
                runner = jobs[index].runner
                cached_by_runner[runner] = cached_by_runner.get(runner, 0) + 1
            for runner, count in cached_by_runner.items():
                state.shard_timings.append({
                    "shard": CACHED_SHARD_ID,
                    "runner": runner,
                    "jobs": 0,
                    "cached": count,
                    "elapsed_s": 0.0,
                })
        for index, row in hits:
            yield StreamRow(index=index, job=jobs[index], row=row, cached=True,
                            latency_s=None, elapsed_s=state.mark_row())

        workers = self._resolve_workers()
        mode = self._resolve_mode(pending, workers)
        queue = deque(pending)

        if mode == "serial" or not pending:
            # An explicitly requested pool mode is honoured even for a
            # single batch (worker isolation may be the point); only
            # "serial" and fully-cached runs execute in-process.
            state.mode = "serial"
            yield from self._serial_events(state, queue, workers)
        else:
            state.mode = mode
            yield from self._pool_events(state, queue, workers)

        if self.cache is not None:
            state.cache_stats = self.cache.counters()
            self.cache.persist_stats()

    def _serial_events(self, state: _StreamState, queue: "deque[Tuple[int, Job]]",
                       workers: int, shard_id: int = 0,
                       fallback: bool = False) -> Iterator[StreamRow]:
        """Run the queue in-process, one micro-batch after another."""
        context = self._worker_context()
        first_round = True
        while queue:
            batch = self._next_batch(queue, workers, first_round)
            first_round = False
            outcome = _run_shard(batch[0][1].runner,
                                 [job.params_dict for _, job in batch], context)
            yield from self._finish_batch(state, batch, outcome, shard_id,
                                          fallback)
            shard_id += 1

    def _fallback_events(self, state: _StreamState, workers: int,
                         shard_id: int) -> Iterator[StreamRow]:
        """Serial re-run of every job whose row is still missing."""
        state.mode = "serial"
        missing = deque((index, job) for index, job in enumerate(state.jobs)
                        if state.rows[index] is None)
        yield from self._serial_events(state, missing, workers, shard_id,
                                       fallback=True)

    def _pool_events(self, state: _StreamState, queue: "deque[Tuple[int, Job]]",
                     workers: int) -> Iterator[StreamRow]:
        pool_workers = min(workers, len(queue))
        try:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=pool_workers)
        except (OSError, ImportError):
            # Environments without working process spawning (restricted
            # sandboxes) run serially, as after a broken pool.
            yield from self._fallback_events(state, workers, 0)
            return
        context = self._worker_context()
        shard_id = 0
        inflight: Dict[concurrent.futures.Future, Tuple[int, List[Tuple[int, Job]]]] = {}

        def submit_next() -> None:
            nonlocal shard_id
            batch = self._next_batch(queue, workers, shard_id < pool_workers)
            future = pool.submit(_run_shard, batch[0][1].runner,
                                 [job.params_dict for _, job in batch], context)
            inflight[future] = (shard_id, batch)
            shard_id += 1

        try:
            try:
                while queue and len(inflight) < pool_workers:
                    submit_next()
                while inflight:
                    ready, _ = concurrent.futures.wait(
                        inflight, return_when=concurrent.futures.FIRST_COMPLETED)
                    for future in ready:
                        batch_id, batch = inflight.pop(future)
                        outcome = future.result()
                        # Refill the freed worker before yielding, so the
                        # pool never sits idle while the consumer works.
                        while queue and len(inflight) < pool_workers:
                            submit_next()
                        yield from self._finish_batch(state, batch, outcome,
                                                      batch_id)
            except concurrent.futures.BrokenExecutor:
                # A broken process pool (e.g. fork disallowed) degrades to a
                # serial re-run of every job whose row is still missing.
                yield from self._fallback_events(state, workers, shard_id)
        finally:
            # Never wait for stragglers here: on the normal path every
            # future has already completed, and when the consumer abandons
            # the stream mid-iteration (break / Ctrl-C closes this
            # generator) a blocking shutdown would hang the exit behind
            # every in-flight batch.  Queued-but-unstarted batches are
            # cancelled outright.
            pool.shutdown(wait=False, cancel_futures=True)

    def _finish_batch(self, state: _StreamState, batch: List[Tuple[int, Job]],
                      outcome: Tuple[List[dict], List[float]],
                      shard_id: int, fallback: bool = False) -> Iterator[StreamRow]:
        batch_rows, batch_seconds = outcome
        timing = {
            "shard": shard_id,
            "runner": batch[0][1].runner,
            "jobs": len(batch),
            "elapsed_s": float(sum(batch_seconds)),
        }
        if fallback:
            # Serial re-runs after a failed pool stay distinguishable from
            # regular shards in the timing table / run manifest.
            timing["fallback"] = True
        state.shard_timings.append(timing)
        for (index, job), row, seconds in zip(batch, batch_rows, batch_seconds):
            state.rows[index] = row
            state.latencies[index] = seconds
            if self.cache is not None and state.cache_writable:
                try:
                    self.cache.put(job, row)
                except OSError as exc:
                    # A mid-run write failure (disk full, cache dir removed)
                    # must not lose computed results: stop writing for the
                    # rest of this run and finish it.
                    import sys

                    print(f"warning: cache write failed ({exc}); "
                          f"caching disabled for the rest of this run",
                          file=sys.stderr)
                    state.cache_writable = False
            yield StreamRow(index=index, job=job, row=row, cached=False,
                            latency_s=seconds, elapsed_s=state.mark_row())

    # ------------------------------------------------------------------ run
    def run(self, jobs: Iterable[Job]) -> SweepResult:
        """Execute all jobs and return the batch result (rows in job order).

        A thin wrapper over :meth:`stream`: the rows, their ordering and the
        telemetry are identical whether the run was consumed incrementally
        or as one batch.
        """
        return self.stream(jobs).result()


def execute_jobs(jobs: Sequence[Job], mode: str = "auto",
                 max_workers: Optional[int] = None, batch_size: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> SweepResult:
    """One-shot convenience wrapper around :class:`SweepExecutor`."""
    executor = SweepExecutor(mode=mode, max_workers=max_workers,
                             batch_size=batch_size, cache=cache)
    return executor.run(jobs)


def stream_jobs(jobs: Sequence[Job], mode: str = "auto",
                max_workers: Optional[int] = None, batch_size: Optional[int] = None,
                cache: Optional[ResultCache] = None) -> SweepStream:
    """One-shot convenience wrapper around :meth:`SweepExecutor.stream`."""
    executor = SweepExecutor(mode=mode, max_workers=max_workers,
                             batch_size=batch_size, cache=cache)
    return executor.stream(jobs)
