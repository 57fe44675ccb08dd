"""Content-addressed on-disk store for sweep results and replay records.

One private fan-out core owns the on-disk format: JSON objects under
``<root>/??/<sha256>.json``, written atomically (one temp file, one
``os.replace``), read best effort (a corrupt entry reads as a miss and is
dropped), bounded by an LRU byte budget, and counted in an append-only
``_stats.log`` of lifetime hits, misses and evictions.  Two thin views
file their entries in the same directory: :class:`ResultCache` (one row
per executed job) and :class:`SidecarStore` (schedule replay records).
So one budget (``REPRO_CACHE_MAX_MB``), one LRU order and one
``clear``/``prune`` cover rows and records alike; hits and misses count
row lookups only.

Keys fold in a *code version* that defaults to
:func:`default_code_version`, a sha256 over the source of the whole
``repro`` package, so a cached or replayed row always comes from the code
that is running.  A source edit orphans the old entries: they are never
read again, and recency (entry mtimes, refreshed by reads) makes them age
out first under a budget.  ``prune()`` applies the LRU policy explicitly,
and the ``repro cache`` CLI sub-command exposes stats/clear/prune.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pathlib
import re
import sys
import tempfile
import threading
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.engine.spec import Job, params_key

PathLike = Union[str, pathlib.Path]

#: Shape of a valid content key (sha256 hex digest).  Every entry path is
#: built through a check against this, so a malformed key (e.g. one sent to
#: ``repro serve``) can never escape the fan-out dirs.
KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

#: Environment variable holding the default cache size budget in megabytes.
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Enforce the size budget only every this many writes, so large sweeps do
#: not pay a directory scan per job once the running estimate is warm.
_ENFORCE_EVERY_PUTS = 32

#: Per-process cap on the remembered set of mtime-refreshed entries; a sweep
#: touching more distinct entries than this simply refreshes them again.
_REFRESHED_KEYS_MAX = 65536

#: Automatic enforcement evicts down to this fraction of ``max_bytes`` (a
#: low-water mark), so a store sitting at its budget does not re-trigger a
#: full prune scan on every subsequent write.
_LOW_WATER_FRACTION = 0.9

#: Entries of a store, rows and replay records alike; the glob never
#: matches the stats log.
_ENTRY_GLOB = "??/*.json"

#: Append-only log of lifetime counter deltas in a store's root, one JSON
#: object per line, summed on read (see :meth:`_FanoutStore.persist_stats`).
_STATS_LOG = "_stats.log"

_COUNTER_KEYS = ("hits", "misses", "evictions")


def is_valid_key(key: object) -> bool:
    """Whether ``key`` is a well-formed content key (sha256 hex digest)."""
    return isinstance(key, str) and KEY_PATTERN.match(key) is not None


def _unlink(path: PathLike) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def env_max_bytes() -> Optional[int]:
    """Cache size budget from ``REPRO_CACHE_MAX_MB``, or ``None`` if unset.

    An unparsable, non-finite or non-positive value degrades to "no limit"
    with a warning, mirroring how the other engine environment knobs behave.
    """
    raw = os.environ.get(CACHE_MAX_MB_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        mbytes = float(raw)
    except ValueError:
        print(f"warning: {CACHE_MAX_MB_ENV}='{raw}' is not a number; "
              f"cache size is unlimited", file=sys.stderr)
        return None
    if not math.isfinite(mbytes) or mbytes <= 0:
        print(f"warning: {CACHE_MAX_MB_ENV}={mbytes} is not a positive finite "
              f"number; cache size is unlimited", file=sys.stderr)
        return None
    return int(mbytes * 1024 * 1024)


def usable_cache_dir(cache_dir: Optional[PathLike],
                     label: str = "cache directory") -> Optional[str]:
    """Validate a cache directory, degrading to ``None`` with a warning.

    Creates the directory if needed; when that fails (path is a file,
    read-only filesystem, ...), prints a warning to stderr and returns
    ``None`` so callers can run uncached instead of crashing.
    """
    if cache_dir is None:
        return None
    path = pathlib.Path(cache_dir).expanduser()
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"warning: {label} unusable ({exc}); running without cache",
              file=sys.stderr)
        return None
    return str(path)


def source_fingerprint(root: PathLike) -> str:
    """sha256 over every ``*.py`` file under ``root``.

    Files are taken in order of their ``root``-relative POSIX paths; each
    contributes its path, its length and its bytes, so adding, removing,
    renaming or editing any such file changes the digest, while other
    files and the location of ``root`` do not.
    """
    root = pathlib.Path(root)
    files = sorted((path.relative_to(root).as_posix(), path)
                   for path in root.rglob("*.py"))
    digest = hashlib.sha256()
    for relative, path in files:
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def default_code_version() -> str:
    """Default cache namespace: the source fingerprint of ``repro``.

    Hashes the whole package (see :func:`source_fingerprint`), once per
    process, so any source edit -- to a model, the runtime, a runner or
    anything else -- invalidates every row and replay record produced by
    the old code, including for callers that construct
    :class:`ResultCache` directly without passing ``code_version``.
    """
    import repro

    return source_fingerprint(pathlib.Path(repro.__file__).parent)


class _FanoutStore:
    """The fan-out core under :class:`ResultCache` and :class:`SidecarStore`.

    Stores one JSON object per content key at ``<directory>/??/<key>.json``
    and owns everything about those files: the atomic write, best-effort
    reads, the LRU byte budget (``max_bytes``; ``None`` reads
    ``REPRO_CACHE_MAX_MB``, and when that is unset too the store is
    unbounded), ``prune`` / ``size_bytes`` / ``len`` / ``clear`` over every
    entry in the directory, and the lifetime counters in
    ``<directory>/_stats.log``.  Evictions are counted here; hits and
    misses only by :class:`ResultCache`, whose lookups they describe.
    """

    def __init__(self, directory: PathLike, max_bytes: Optional[int]) -> None:
        if max_bytes is None:
            max_bytes = env_max_bytes()
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None for unlimited)")
        self.directory = pathlib.Path(directory).expanduser()
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Counter values already appended to the lifetime log, under a lock
        #: because the serve daemon prunes (and so persists) from concurrent
        #: request threads; a delta is never appended twice.
        self._persisted = dict.fromkeys(_COUNTER_KEYS, 0)
        self._persist_lock = threading.Lock()
        self._approx_bytes: Optional[int] = None
        self._puts_since_enforce = 0
        #: Entry filenames whose mtime this instance has already refreshed
        #: (bounded; cleared wholesale when full).
        self._refreshed: set = set()

    def _path(self, key: str) -> pathlib.Path:
        if not is_valid_key(key):
            raise ValueError(f"malformed content key {key!r}")
        return self.directory / key[:2] / f"{key}.json"

    # ------------------------------------------------------------- storage
    def _read(self, path: pathlib.Path, field: Optional[str] = None,
              refresh_once: bool = False) -> Optional[dict]:
        """The JSON object at ``path`` (or its ``field``), ``None`` on a miss.

        A truncated, corrupt or foreign-format entry is a miss and is
        dropped so the next write can replace it.  A hit refreshes the
        entry's mtime for LRU eviction; with ``refresh_once`` only this
        instance's first hit does, which spares a metadata write per repeat
        hit (~10% of the warm hit path on sweep re-runs).
        """
        try:
            with path.open("rb") as handle:
                payload = json.load(handle)
            if field is not None:
                payload = payload[field]
            if not isinstance(payload, dict):
                raise TypeError("a store entry must hold a JSON object")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            _unlink(path)
            return None
        if not (refresh_once and path.name in self._refreshed):
            try:
                os.utime(path, None)
            except OSError:
                pass
            if refresh_once:
                if len(self._refreshed) >= _REFRESHED_KEYS_MAX:
                    self._refreshed.clear()
                self._refreshed.add(path.name)
        return payload

    def _write(self, path: pathlib.Path, payload: Mapping) -> pathlib.Path:
        """Atomically store ``payload`` at ``path``; the module's only writer.

        Strict JSON: a value JSON cannot hold raises ``TypeError`` before
        any file exists.  The document goes to one temp file next to the
        entry and is renamed into place with one ``os.replace``; on any
        failure the temp file is removed and the error propagates.
        """
        data = json.dumps(dict(payload)).encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            _unlink(tmp_name)
            raise
        self._account_put(len(data))
        return path

    def _account_put(self, entry_bytes: int) -> None:
        """Track the approximate store size and enforce the LRU budget."""
        if self.max_bytes is None:
            return
        self._puts_since_enforce += 1
        if (self._approx_bytes is None
                or self._puts_since_enforce >= _ENFORCE_EVERY_PUTS):
            # Resync periodically: concurrent writers and external deletions
            # drift the running estimate.
            self._puts_since_enforce = 0
            self._approx_bytes = self.size_bytes()
        else:
            self._approx_bytes += entry_bytes
        if self._approx_bytes > self.max_bytes:
            self.prune(max_bytes=max(1, int(self.max_bytes * _LOW_WATER_FRACTION)))

    # ---------------------------------------------------------- management
    def _entries(self) -> List[Tuple[float, int, pathlib.Path]]:
        """``(mtime, size, path)`` of every entry (all code versions)."""
        entries = []
        for path in self.directory.glob(_ENTRY_GLOB):
            try:
                stat = path.stat()
            except OSError:
                continue  # removed by a concurrent pruner
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(_ENTRY_GLOB))

    def size_bytes(self) -> int:
        """Total on-disk size of all entries (all code versions)."""
        return sum(size for _, size, _ in self._entries())

    def clear(self) -> int:
        """Remove every entry (all code versions); returns the count removed."""
        removed = 0
        for path in list(self.directory.glob(_ENTRY_GLOB)):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self._approx_bytes = 0
        return removed

    def prune(self, max_bytes: Optional[int] = None,
              max_entries: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the store fits the limits.

        ``max_bytes`` defaults to the instance budget (``self.max_bytes``);
        ``max_entries`` additionally caps the entry count; with neither the
        call is a no-op.  Entries of every code version compete in one LRU
        order -- a stale-version entry is never refreshed by a read, so
        stale entries age out first.  Returns the number of entries
        removed; a prune that removes any persists the lifetime counters,
        so short-lived instances still report their evictions.
        """
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        if max_bytes is None and max_entries is None:
            return 0
        entries = sorted(self._entries(), key=lambda item: (item[0], str(item[2])))
        total_bytes = sum(size for _, size, _ in entries)
        total_entries = len(entries)
        removed = 0
        for _, size, path in entries:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_count = max_entries is not None and total_entries > max_entries
            if not over_bytes and not over_count:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total_bytes -= size
            total_entries -= 1
            removed += 1
        self.evictions += removed
        self._approx_bytes = total_bytes
        if removed:
            self.persist_stats()
        return removed

    # ----------------------------------------------------------- telemetry
    def persist_stats(self) -> None:
        """Append this instance's unpersisted counter deltas to ``_stats.log``.

        One JSON line by one ``O_APPEND`` ``os.write``: concurrent threads
        and processes never interleave or overwrite each other's appends,
        so no file lock is needed and no delta is lost.  Each delta is
        appended once; an unwritable directory leaves them pending.
        """
        with self._persist_lock:
            current = {key: getattr(self, key) for key in _COUNTER_KEYS}
            deltas = {key: value - self._persisted[key] for key, value
                      in current.items() if value != self._persisted[key]}
            if not deltas:
                return
            # The leading newline starts every record on a fresh line, so a
            # torn record (a full disk) can never swallow the next one.
            record = ("\n" + json.dumps(deltas)).encode("ascii")
            try:
                fd = os.open(self.directory / _STATS_LOG,
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                try:
                    os.write(fd, record)
                finally:
                    os.close(fd)
            except OSError:
                return
            self._persisted = current

    def _lifetime(self) -> Dict[str, int]:
        """The log's summed counters (torn lines skipped) plus pending deltas."""
        totals = {key: getattr(self, key) - self._persisted[key]
                  for key in _COUNTER_KEYS}
        try:
            with (self.directory / _STATS_LOG).open("rb") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                        deltas = [int(record.get(key, 0)) for key in _COUNTER_KEYS]
                    except (ValueError, TypeError, AttributeError):
                        continue
                    for key, delta in zip(_COUNTER_KEYS, deltas):
                        totals[key] += delta
        except OSError:
            pass
        return totals


class SidecarStore(_FanoutStore):
    """Replay records filed among a result cache's rows.

    Where :class:`ResultCache` stores final result *rows*, this view stores
    reusable *intermediates* -- the :class:`~repro.lap.replay.ScheduleTrace`
    replay records that let a warm sweep point skip the scheduler loop --
    as ordinary entries of the same directory, under the same budget;
    workers build it from :meth:`ResultCache.config`.  Keys hash a
    ``kind`` tag, an opaque ``material`` string (e.g. a schedule's
    replay key) and the cache's ``code_version``, so a source edit
    orphans records exactly like result rows.  Everything is best effort:
    an unwritable or corrupt record degrades to a miss, because it can be
    recomputed.  Record lookups are not counted as cache hits or misses.
    """

    def __init__(self, directory: PathLike, code_version: str = "",
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(directory, max_bytes)
        self.code_version = code_version

    def key_for(self, kind: str, material: str) -> str:
        blob = f"{kind}\n{material}\n{self.code_version}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def get(self, kind: str, material: str) -> Optional[dict]:
        """The stored payload, or ``None`` on miss/corruption (best effort)."""
        return self._read(self._path(self.key_for(kind, material)))

    def put(self, kind: str, material: str,
            payload: Mapping) -> Optional[pathlib.Path]:
        """Atomically store a payload; returns ``None`` when unwritable."""
        try:
            return self._write(self._path(self.key_for(kind, material)), payload)
        except (OSError, TypeError, ValueError):
            return None


class ResultCache(_FanoutStore):
    """Content-addressed store of one JSON row per executed job.

    Parameters
    ----------
    directory:
        Root of the two-level fan-out store (created if missing).
    code_version:
        Cache namespace; defaults to :func:`default_code_version`, the
        source fingerprint of the ``repro`` package.
    max_bytes:
        Size budget for LRU eviction, shared with the replay records in
        the same directory.  ``None`` (the default) reads
        ``REPRO_CACHE_MAX_MB`` from the environment; when that is also
        unset the cache grows without bound and only explicit ``prune()``
        or ``clear()`` calls remove entries.
    """

    def __init__(self, directory: PathLike, code_version: Optional[str] = None,
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(directory, max_bytes)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_version = (code_version if code_version is not None
                             else default_code_version())

    # ---------------------------------------------------------------- keys
    def key_for(self, job: Job) -> str:
        """Stable cache key of a job under the current code version."""
        return params_key(job.runner, job.params_dict, salt=self.code_version)

    def path_for(self, job: Job) -> pathlib.Path:
        return self._path(self.key_for(job))

    def entry_for(self, job: Job, row: Mapping) -> dict:
        """The document stored under ``job``'s key (and uploaded by tiers).

        It names the runner, params and code version next to the row, so a
        key-addressed reader can recompute the key it is filed under.
        """
        return {"runner": job.runner, "params": job.params_dict,
                "code_version": self.code_version, "row": dict(row)}

    def config(self) -> Dict[str, object]:
        """Picklable description (directory, code version, budget), shipped
        to workers, which build the cache's :class:`SidecarStore` from it."""
        return {"directory": str(self.directory),
                "code_version": self.code_version,
                "max_bytes": self.max_bytes}

    # ------------------------------------------------------------- storage
    def _counted(self, payload: Optional[dict]) -> Optional[dict]:
        """Count one row lookup as a hit or a miss; returns ``payload``."""
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def get(self, job: Job) -> Optional[dict]:
        """The cached result row for ``job``, or ``None`` on a miss."""
        return self._counted(self._read(self.path_for(job), field="row",
                                        refresh_once=True))

    def put(self, job: Job, row: Mapping) -> pathlib.Path:
        """Store the result row of an executed job (atomic write).

        Raises ``TypeError`` when the row holds a value JSON cannot
        represent (nothing is written), and ``OSError`` when the
        directory is unwritable.
        """
        return self._write(self.path_for(job), self.entry_for(job, row))

    # ------------------------------------------------------- key-addressed
    def get_by_key(self, key: str) -> Optional[dict]:
        """The full document (see :meth:`entry_for`) under a content key.

        For tiers that receive pre-hashed keys (the ``repro serve``
        daemon); ``None`` on a miss.  Counts hits and misses like
        :meth:`get`, and every hit refreshes recency.
        """
        return self._counted(self._read(self._path(key)))

    def put_by_key(self, key: str, payload: Mapping) -> Optional[pathlib.Path]:
        """Store a raw entry payload under a content key (atomic write).

        Returns ``None`` when the directory is unwritable (key-addressed
        writes are best-effort: the writer computed the row anyway).  The
        entry participates in the LRU budget exactly like job-keyed writes.
        """
        try:
            return self._write(self._path(key), payload)
        except OSError:
            return None

    # ----------------------------------------------------------- telemetry
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups this instance served from disk (0.0 if none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, object]:
        """This instance's live counters, without a directory scan (the
        snapshot every :class:`~repro.engine.executor.SweepResult` carries)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def lifetime_stats(self) -> Dict[str, object]:
        """Cross-process counters: persisted totals plus unpersisted deltas."""
        lifetime = self._lifetime()
        total = lifetime["hits"] + lifetime["misses"]
        return {**lifetime,
                "hit_rate": lifetime["hits"] / total if total else 0.0}

    def stats(self) -> Dict[str, object]:
        """This instance's :meth:`counters` plus on-disk sizes.

        The ``lifetime`` block aggregates the counters across every process
        that has used the directory (see :meth:`persist_stats`).
        """
        entries = self._entries()
        return {
            "directory": str(self.directory),
            "code_version": self.code_version,
            **self.counters(),
            "lifetime": self.lifetime_stats(),
            "entries": len(entries),
            "size_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
        }
