"""HTTP transports: live (polite, retrying), recorded-fixture, and recording.

web.archive.org asks clients to stay gentle, so the live transport
serializes requests per host with a minimum inter-request delay and
retries transient failures with exponential backoff. The fixture
transport replays responses from a directory keyed by a stable hash of
the full request URL, which keeps the whole pipeline runnable offline
and deterministic; the recording transport populates such a directory
from live traffic.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from urllib.parse import urlparse

import requests

USER_AGENT = "tweetback/0.1 (screenshot attribution research tool)"

MANIFEST_NAME = "manifest.json"

RETRYABLE_STATUSES = (502, 503, 504)


class TransportError(RuntimeError):
    """Base class for transport-level failures."""


class NetworkError(TransportError):
    """Request could not complete (connection failure, timeout, ...)."""

    def __init__(self, message: str, timed_out: bool = False):
        super().__init__(message)
        self.timed_out = timed_out


class HttpStatusError(TransportError):
    """Request completed with an unexpected HTTP status."""

    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} for {url}")
        self.status = status
        self.url = url


class RateLimitedError(TransportError):
    """Server signalled rate limiting (HTTP 429)."""

    def __init__(self, url: str, retry_after: float | None):
        super().__init__(f"rate limited on {url} (retry-after: {retry_after})")
        self.url = url
        self.retry_after = retry_after


class FixtureMissingError(TransportError):
    """No recorded fixture exists for the requested URL."""

    def __init__(self, url: str, directory: Path):
        super().__init__(f"no fixture for {url} under {directory}")
        self.url = url
        self.directory = directory


@dataclass
class HttpResponse:
    status: int
    body: str
    headers: dict[str, str] = field(default_factory=dict)


class HttpTransport:
    """Interface shared by live, fixture, and recording transports.

    ``get`` never follows redirects; callers that need redirect handling
    (replay fetching) implement their own bounded hop loop.
    """

    def get(self, url: str) -> HttpResponse:
        raise NotImplementedError

    def post(self, url: str, data: bytes, headers: dict[str, str]) -> HttpResponse:
        raise NotImplementedError


def fixture_key(url: str) -> str:
    """Stable fixture filename (sans extension) for a request URL."""
    return hashlib.sha256(url.encode("utf-8")).hexdigest()[:16]


# Recording may happen from parallel replay fetches; the manifest is a
# shared read-modify-write file and needs serializing within the process.
_MANIFEST_LOCK = threading.Lock()


def write_fixture(
    directory: str | Path,
    url: str,
    body: str,
    status: int = 200,
    headers: dict[str, str] | None = None,
) -> Path:
    """Store one recorded response under ``directory`` and index it.

    The body lands in ``<hash>.body``; ``manifest.json`` maps each hash to
    the original URL (for human inspection) plus status and headers.
    """
    directory = Path(directory)
    key = fixture_key(url)
    body_path = directory / f"{key}.body"
    manifest_path = directory / MANIFEST_NAME
    with _MANIFEST_LOCK:
        directory.mkdir(parents=True, exist_ok=True)
        body_path.write_text(body, encoding="utf-8")
        manifest: dict[str, dict] = {}
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest[key] = {"url": url, "status": status, "headers": headers or {}}
        tmp_path = manifest_path.with_suffix(".json.tmp")
        tmp_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        tmp_path.replace(manifest_path)
    return body_path


class LiveTransport(HttpTransport):
    """requests-backed transport with per-host politeness and retries."""

    def __init__(
        self,
        min_interval: float = 1.0,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
    ):
        self.min_interval = min_interval
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._session = requests.Session()
        self._session.headers["User-Agent"] = USER_AGENT
        self._lock = threading.Lock()
        self._last_request: dict[str, float] = {}

    def _wait_politely(self, url: str) -> None:
        host = urlparse(url).netloc
        while True:
            with self._lock:
                now = time.monotonic()
                last = self._last_request.get(host)
                if last is None or now - last >= self.min_interval:
                    self._last_request[host] = now
                    return
                wait = self.min_interval - (now - last)
            time.sleep(wait)

    def _send(self, method: str, url: str, **kwargs) -> HttpResponse:
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            self._wait_politely(url)
            try:
                resp = self._session.request(
                    method, url, timeout=self.timeout, allow_redirects=False, **kwargs
                )
            except requests.Timeout as err:
                last_error = NetworkError(f"timeout fetching {url}: {err}", timed_out=True)
                continue
            except requests.RequestException as err:
                last_error = NetworkError(f"request failed for {url}: {err}")
                continue
            if resp.status_code in RETRYABLE_STATUSES and attempt < self.max_retries:
                continue
            if resp.status_code == 429:
                retry_after = _parse_retry_after(resp.headers.get("Retry-After"))
                raise RateLimitedError(url, retry_after)
            return HttpResponse(
                status=resp.status_code, body=resp.text, headers=dict(resp.headers)
            )
        assert last_error is not None
        raise last_error

    def get(self, url: str) -> HttpResponse:
        return self._send("GET", url)

    def post(self, url: str, data: bytes, headers: dict[str, str]) -> HttpResponse:
        return self._send("POST", url, data=data, headers=headers)


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait from a ``Retry-After`` value (RFC 9110 §10.2.3).

    The value is either a number of seconds or an HTTP-date; a date
    becomes the seconds from now until then, floored at 0. Anything
    else gives None.
    """
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        pass
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class FixtureTransport(HttpTransport):
    """Replays responses recorded under a fixture directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._manifest: dict[str, dict] = {}
        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            self._manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    def get(self, url: str) -> HttpResponse:
        key = fixture_key(url)
        body_path = self.directory / f"{key}.body"
        if not body_path.exists():
            raise FixtureMissingError(url, self.directory)
        entry = self._manifest.get(key, {})
        return HttpResponse(
            status=int(entry.get("status", 200)),
            body=body_path.read_text(encoding="utf-8"),
            headers=dict(entry.get("headers", {})),
        )

    def post(self, url: str, data: bytes, headers: dict[str, str]) -> HttpResponse:
        raise FixtureMissingError(url, self.directory)


class RecordingTransport(HttpTransport):
    """Pass-through transport that records every GET for later replay."""

    def __init__(self, directory: str | Path, inner: HttpTransport | None = None):
        self.directory = Path(directory)
        self.inner = inner if inner is not None else LiveTransport()

    def get(self, url: str) -> HttpResponse:
        response = self.inner.get(url)
        headers = {
            k: v for k, v in response.headers.items() if k.lower() == "location"
        }
        write_fixture(self.directory, url, response.body, response.status, headers)
        return response

    def post(self, url: str, data: bytes, headers: dict[str, str]) -> HttpResponse:
        return self.inner.post(url, data, headers)
