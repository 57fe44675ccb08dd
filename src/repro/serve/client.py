"""HTTP client for a ``repro serve`` shared result cache.

:class:`ServeClient` wraps the daemon's JSON-over-HTTP protocol in plain
``urllib`` calls with production-grade failure handling:

* every request carries a hard **timeout** (``timeout_s``, defaulting to
  the ``REPRO_REMOTE_TIMEOUT_S`` environment knob), so a stalled server
  can never wedge a sweep;
* transient failures (connection refused/reset, timeouts, HTTP 5xx) are
  retried up to ``retries`` times (``REPRO_REMOTE_RETRIES``) with
  **exponential backoff plus jitter**, so a fleet of workers hammering a
  briefly-overloaded server does not retry in lockstep;
* a request that stays down through every retry raises
  :exc:`ServerUnavailable` -- a single exception type callers (the
  :class:`~repro.serve.remote.RemoteCache` tier) catch to degrade to
  local-only operation.

A ``GET`` that reaches the server but finds nothing (HTTP 404) returns
``None``: a cache miss is an answer, not a failure.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import sys
import time
import urllib.error
import urllib.request
from typing import Optional

__all__ = ["ServeClient", "ServerUnavailable", "DEFAULT_TIMEOUT_S",
           "DEFAULT_RETRIES", "REMOTE_TIMEOUT_ENV", "REMOTE_RETRIES_ENV",
           "env_remote_timeout_s", "env_remote_retries"]

#: Environment knob for the per-request timeout in seconds.
REMOTE_TIMEOUT_ENV = "REPRO_REMOTE_TIMEOUT_S"

#: Environment knob for the number of retries after the first attempt.
REMOTE_RETRIES_ENV = "REPRO_REMOTE_RETRIES"

#: Per-request timeout when neither the constructor nor the environment
#: sets one.  Generous enough for a loaded server streaming a large entry,
#: small enough that a dead server degrades a sweep within seconds.
DEFAULT_TIMEOUT_S = 5.0

#: Retries after the first attempt (3 attempts total by default).
DEFAULT_RETRIES = 2

#: First backoff sleep; attempt ``k`` sleeps ``backoff_s * 2**k`` scaled by
#: a uniform [1, 2) jitter factor.
DEFAULT_BACKOFF_S = 0.05


class ServerUnavailable(Exception):
    """The server could not be reached (or kept failing) through every retry."""


def _env_float(name: str, default: float, minimum: float) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        print(f"warning: {name}='{raw}' is not a number; using {default}",
              file=sys.stderr)
        return default
    if value < minimum:
        print(f"warning: {name}={value} is below {minimum}; using {default}",
              file=sys.stderr)
        return default
    return value


def env_remote_timeout_s() -> float:
    """Per-request timeout from ``REPRO_REMOTE_TIMEOUT_S`` (default 5.0)."""
    return _env_float(REMOTE_TIMEOUT_ENV, DEFAULT_TIMEOUT_S, minimum=1e-3)


def env_remote_retries() -> int:
    """Retry count from ``REPRO_REMOTE_RETRIES`` (default 2)."""
    return int(_env_float(REMOTE_RETRIES_ENV, float(DEFAULT_RETRIES),
                          minimum=0.0))


class ServeClient:
    """JSON-over-HTTP client for one ``repro serve`` daemon.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``http://127.0.0.1:8731`` (a trailing slash is
        tolerated).
    timeout_s / retries:
        Per-request timeout and retry budget; ``None`` reads the
        ``REPRO_REMOTE_TIMEOUT_S`` / ``REPRO_REMOTE_RETRIES`` environment
        knobs, falling back to 5 s / 2 retries.
    backoff_s:
        Base of the exponential backoff between retries (jittered).
    """

    def __init__(self, base_url: str, timeout_s: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff_s: float = DEFAULT_BACKOFF_S) -> None:
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout_s = (timeout_s if timeout_s is not None
                          else env_remote_timeout_s())
        self.retries = retries if retries is not None else env_remote_retries()
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        self.backoff_s = backoff_s
        #: Seam for tests: the sleep used between retries.
        self._sleep = time.sleep
        #: Total request attempts / retry sleeps performed (telemetry).
        self.attempts = 0
        self.retried = 0

    # ------------------------------------------------------------ transport
    def _url(self, path: str) -> str:
        return f"{self.base_url}/{path.lstrip('/')}"

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None):
        """One retried request; the parsed JSON response.

        Raises :exc:`ServerUnavailable` once the retry budget is exhausted;
        an HTTP 404 returns ``None`` (a miss, not a failure); any other
        4xx raises immediately (retrying a protocol error cannot help).
        """
        url = self._url(path)
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retried += 1
                self._sleep(self.backoff_s * (2 ** (attempt - 1))
                            * (1.0 + random.random()))
            self.attempts += 1
            request = urllib.request.Request(
                url, data=body, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request,
                                            timeout=self.timeout_s) as response:
                    data = response.read()
                return json.loads(data) if data else None
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return None
                if exc.code < 500:
                    detail = ""
                    try:
                        detail = exc.read().decode("utf-8", "replace").strip()
                    except OSError:
                        pass
                    raise ServerUnavailable(
                        f"{method} {url}: HTTP {exc.code}"
                        f"{' -- ' + detail if detail else ''}") from exc
                last_error = exc
            except (urllib.error.URLError, http.client.HTTPException,
                    TimeoutError, ConnectionError, OSError,
                    json.JSONDecodeError) as exc:
                last_error = exc
        raise ServerUnavailable(f"{method} {url}: {last_error}") from last_error

    # ----------------------------------------------------------- cache tier
    def ping(self) -> dict:
        """Server identity/liveness document (raises when unreachable)."""
        return self._request("GET", "/api/ping")

    def get_entry(self, key: str) -> Optional[dict]:
        """The raw cache entry payload under ``key``, or ``None`` on a miss."""
        return self._request("GET", f"/cache/{key}")

    def put_entry(self, key: str, payload: dict) -> None:
        """Upload one cache entry payload (idempotent by content key)."""
        self._request("PUT", f"/cache/{key}", payload=payload)

    def stats(self) -> dict:
        """Server-side cache statistics plus request counters."""
        return self._request("GET", "/stats")
