"""Shared result cache: one host's content-addressed store over HTTP.

``repro.serve`` turns one host's content-addressed result cache into a
shared fleet resource:

* :class:`ServeDaemon` -- the stdlib :mod:`http.server` daemon behind the
  ``repro serve`` CLI verb, exposing a :class:`~repro.engine.cache.ResultCache`
  over HTTP (ping, get/put one verified entry by content key, stats);
* :class:`ServeClient` -- the JSON-over-HTTP client with per-request
  timeouts and jittered-backoff retries;
* :class:`RemoteCache` -- a read-through / write-behind cache tier
  (local disk first, then the server) that degrades to local-only
  operation -- with a single warning, never a failure -- when the server
  goes away mid-sweep.

Tuning knobs: ``REPRO_REMOTE_TIMEOUT_S`` (per-request timeout, default
5 s) and ``REPRO_REMOTE_RETRIES`` (retries after the first attempt,
default 2).
"""

from repro.serve.client import (DEFAULT_RETRIES, DEFAULT_TIMEOUT_S,
                                REMOTE_RETRIES_ENV, REMOTE_TIMEOUT_ENV,
                                ServeClient, ServerUnavailable)
from repro.serve.remote import RemoteCache
from repro.serve.server import ServeDaemon

__all__ = ["ServeDaemon", "ServeClient", "RemoteCache", "ServerUnavailable",
           "REMOTE_TIMEOUT_ENV", "REMOTE_RETRIES_ENV", "DEFAULT_TIMEOUT_S",
           "DEFAULT_RETRIES"]
