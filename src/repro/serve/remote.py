"""Read-through / write-behind cache tier over a ``repro serve`` daemon.

:class:`RemoteCache` *is a* :class:`~repro.engine.cache.ResultCache` (the
local on-disk tier keeps working exactly as before) composed with a shared
network store:

* ``get`` tries the local tier first; on a local miss it asks the server
  by content key, and a remote hit is written back into the local tier
  (read-through), so each entry crosses the network at most once per
  client;
* ``put`` stores locally first, then uploads the entry to the server
  (write-behind, best effort) so every worker's fresh rows deduplicate
  future work fleet-wide.

Robustness is the point of this tier: all remote traffic runs through a
:class:`~repro.serve.client.ServeClient` (per-request timeouts, bounded
retries with exponential backoff + jitter), and the first request that
stays down through its retry budget flips the tier into **degraded**
local-only mode with a single warning -- mirroring how the executor
handles a mid-run local ``cache.put`` failure.  A sweep never loses rows
and never fails because the server went away; it just stops deduplicating
across hosts.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, Mapping, Optional

from repro.engine.cache import PathLike, ResultCache
from repro.serve.client import ServeClient, ServerUnavailable

__all__ = ["RemoteCache"]


class RemoteCache(ResultCache):
    """A :class:`ResultCache` backed by a shared ``repro serve`` store.

    Parameters
    ----------
    directory:
        Local cache tier (same semantics as :class:`ResultCache`).
    server_url:
        Root URL of the ``repro serve`` daemon.
    code_version / max_bytes:
        Forwarded to the local tier.  The content keys sent to the server
        include ``code_version``, so clients and servers built from
        different code versions share a store without ever mixing rows.
    timeout_s / retries:
        Remote-request budget, forwarded to :class:`ServeClient` (default:
        the ``REPRO_REMOTE_TIMEOUT_S`` / ``REPRO_REMOTE_RETRIES`` knobs).
    client:
        Pre-built :class:`ServeClient` (overrides ``server_url`` /
        ``timeout_s`` / ``retries``); the seam tests use to inject fakes.
    """

    def __init__(self, directory: PathLike, server_url: str = "",
                 code_version: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 retries: Optional[int] = None,
                 client: Optional[ServeClient] = None) -> None:
        super().__init__(directory, code_version=code_version,
                         max_bytes=max_bytes)
        if client is None:
            if not server_url:
                raise ValueError("RemoteCache needs a server_url (or a "
                                 "pre-built client)")
            client = ServeClient(server_url, timeout_s=timeout_s,
                                 retries=retries)
        self.client = client
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_puts = 0
        #: True once the server has been written off for this run; all
        #: subsequent operations are local-only (no per-job retry storms).
        self.degraded = False

    # ----------------------------------------------------------- degradation
    def _degrade(self, exc: ServerUnavailable) -> None:
        """Flip to local-only mode with a single warning (idempotent)."""
        if self.degraded:
            return
        self.degraded = True
        print(f"warning: cache server unavailable ({exc}); "
              f"continuing with the local cache only", file=sys.stderr)

    @property
    def tier(self) -> str:
        """Human-readable tier description for manifests and stats."""
        return "local" if self.degraded else "local+remote"

    # -------------------------------------------------------------- storage
    def get(self, job) -> Optional[dict]:
        """Local tier first, then the server; remote hits fill the local tier."""
        row = super().get(job)
        if row is not None or self.degraded:
            return row
        try:
            payload = self.client.get_entry(self.key_for(job))
        except ServerUnavailable as exc:
            self._degrade(exc)
            return None
        remote_row = payload.get("row") if isinstance(payload, Mapping) else None
        if not isinstance(remote_row, dict):
            # Miss -- or a malformed entry, which is treated as one.
            self.remote_misses += 1
            return None
        self.remote_hits += 1
        # The lookup as a whole was a hit: undo the local tier's miss.
        self.misses -= 1
        self.hits += 1
        try:
            # Read-through fill: next time this entry is a pure disk read.
            ResultCache.put(self, job, remote_row)
        except OSError:
            pass
        return remote_row

    def put(self, job, row: Mapping) -> pathlib.Path:
        """Store locally, then upload to the shared store (write-behind).

        Local failures propagate (the executor handles them); remote
        failures only degrade the tier.
        """
        path = super().put(job, row)
        if not self.degraded:
            try:
                self.client.put_entry(self.key_for(job),
                                      self.entry_for(job, row))
                self.remote_puts += 1
            except ServerUnavailable as exc:
                self._degrade(exc)
        return path

    # ----------------------------------------------------------- telemetry
    @property
    def remote_hit_rate(self) -> float:
        """Fraction of remote lookups the server answered (0.0 if none)."""
        total = self.remote_hits + self.remote_misses
        return self.remote_hits / total if total else 0.0

    def counters(self) -> Dict[str, object]:
        """Live counters, extended with the remote tier's hit/put telemetry."""
        counters = super().counters()
        counters.update({
            "tier": self.tier,
            "remote_hits": self.remote_hits,
            "remote_misses": self.remote_misses,
            "remote_puts": self.remote_puts,
            "remote_hit_rate": self.remote_hit_rate,
            "degraded": self.degraded,
        })
        return counters

    def stats(self) -> Dict[str, object]:
        """Cache stats (with the remote counters) plus the server URL."""
        return {**super().stats(), "server": self.client.base_url}
