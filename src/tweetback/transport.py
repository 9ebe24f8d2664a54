"""HTTP transports: live (polite, retrying), recorded-fixture, and recording.

web.archive.org asks clients to stay gentle, so the live transport
serializes requests per host with a minimum inter-request delay, retries
transient failures with exponential backoff, and waits out one short
``Retry-After`` before a 429 is final. The fixture
transport replays responses from a directory keyed by a stable hash of
the full request URL, which keeps the whole pipeline runnable offline
and deterministic; the recording transport populates such a directory
from live traffic.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import urlparse

USER_AGENT = "tweetback/0.1 (screenshot attribution research tool)"

MANIFEST_NAME = "manifest.json"

RETRYABLE_STATUSES = (502, 503, 504)
REQUEST_TIMEOUT_S = 30.0
MAX_RETRIES = 3
# Least time between two requests to one host, and the first retry's wait,
# which doubles with each further retry.
MIN_INTERVAL_S = 1.0
BACKOFF_BASE_S = 0.5
# Longest Retry-After that a 429 is waited out for, once, before it is
# final. A minute costs about what 60 paced requests do, a third of a
# busy-handle verify; a server that asks for longer is turning the client
# away, and the run says so instead of hanging.
MAX_RETRY_AFTER_S = 60.0


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

    def header(self, name: str) -> str | None:
        """The value of header ``name``, matched case-insensitively, or None.

        ``headers`` keeps the names as the server sent them; HTTP/2 sends
        them in lower case.
        """
        name = name.lower()
        for key, value in self.headers.items():
            if key.lower() == name:
                return value
        return None


class HttpTransport:
    """Interface shared by live, fixture, and recording transports.

    ``get`` is the only request a transport sends. It never follows
    redirects; callers that need redirect handling (replay fetching)
    implement their own bounded hop loop.

    ``paced`` says whether ``get`` waits between requests, as the live
    transport's politeness interval does. Only then does the pipeline put
    two replays in flight at once, so that one's transfer overlaps the
    other's wait; a transport that answers at once replays inline. It is a
    fact about the class, not a setting: a custom transport that waits
    between requests sets it to True.
    """

    paced = False

    def get(self, url: str) -> HttpResponse:
        raise NotImplementedError


def fixture_key(url: str) -> str:
    """Stable fixture filename (sans extension) for a request URL."""
    return hashlib.sha256(url.encode("utf-8")).hexdigest()[:16]


def _load_manifest(directory: Path) -> dict[str, dict]:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return {}
    return json.loads(manifest_path.read_text(encoding="utf-8"))


class LiveTransport(HttpTransport):
    """requests-backed transport with per-host politeness and retries.

    ``requests`` is imported when a LiveTransport is built, not when this
    module is, so offline runs (fixture replay, injected transports) never
    load the HTTP stack.
    """

    paced = True

    def __init__(self) -> None:
        import requests

        self._session = requests.Session()
        self._session.headers["User-Agent"] = USER_AGENT
        self._lock = threading.Lock()
        self._next_slot: dict[str, float] = {}
        self._held_until: dict[str, float] = {}

    def _wait_politely(self, url: str, delay: float = 0.0) -> None:
        """Reserve the next request slot of ``url``'s host and wait for it.

        Slots are at least MIN_INTERVAL_S apart and handed out in the order
        callers arrive. A caller that must also wait ``delay`` seconds (a
        server's Retry-After) reserves a slot no earlier than that and holds
        the host until it: one that reserved an earlier slot before the hold
        finds it when it wakes, and reserves again.
        """
        host = urlparse(url).netloc
        with self._lock:
            now = time.monotonic()
            slot = max(now + delay, self._next_slot.get(host, now))
            self._next_slot[host] = slot + MIN_INTERVAL_S
            if delay:
                self._held_until[host] = slot
        while slot > now:
            time.sleep(slot - now)
            with self._lock:
                now = time.monotonic()
                if self._held_until.get(host, slot) <= slot:
                    return
                slot = self._next_slot[host]
                self._next_slot[host] = slot + MIN_INTERVAL_S

    def get(self, url: str) -> HttpResponse:
        """GET ``url``; a 429 with a Retry-After of at most
        MAX_RETRY_AFTER_S is waited out once, and any other 429 raises."""
        response = self._send_with_retries(url)
        if response.status == 429:
            retry_after = _parse_retry_after(response.header("Retry-After"))
            if retry_after is None or retry_after > MAX_RETRY_AFTER_S:
                raise RateLimitedError(url, retry_after)
            response = self._send_with_retries(url, delay=retry_after)
            if response.status == 429:
                raise RateLimitedError(url, _parse_retry_after(response.header("Retry-After")))
        return response

    def _send_with_retries(self, url: str, *, delay: float = 0.0) -> HttpResponse:
        import requests

        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)))
            self._wait_politely(url, delay)
            delay = 0.0
            try:
                resp = self._session.request(
                    "GET", url, timeout=REQUEST_TIMEOUT_S, allow_redirects=False
                )
            except requests.Timeout as err:
                last_error = NetworkError(f"timeout fetching {url}: {err}", timed_out=True)
                continue
            except requests.RequestException as err:
                last_error = NetworkError(f"request failed for {url}: {err}")
                continue
            if resp.status_code in RETRYABLE_STATUSES and attempt < MAX_RETRIES:
                continue
            return HttpResponse(
                status=resp.status_code, body=resp.text, headers=dict(resp.headers)
            )
        assert last_error is not None
        raise last_error


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait from a ``Retry-After`` value (RFC 9110 §10.2.3).

    The value is either delay-seconds (``1*DIGIT``, ASCII digits only) or
    an HTTP-date; a date becomes the seconds from now until then, floored
    at 0. Anything else, a sign, exponent, ``nan``, non-ASCII digit or a
    number too large for a float included, gives None.
    """
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
        return seconds if math.isfinite(seconds) else None
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class FixtureTransport(HttpTransport):
    """Replays responses recorded under a fixture directory. A body without
    its manifest entry, as an interrupted recording leaves, is missing."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._manifest = _load_manifest(self.directory)

    def get(self, url: str) -> HttpResponse:
        key = fixture_key(url)
        body_path = self.directory / f"{key}.body"
        entry = self._manifest.get(key)
        if entry is None or not body_path.exists():
            raise FixtureMissingError(url, self.directory)
        return HttpResponse(
            status=int(entry["status"]),
            body=body_path.read_text(encoding="utf-8"),
            headers=dict(entry["headers"]),
        )


class RecordingTransport(HttpTransport):
    """Pass-through transport that records every GET for later replay.

    This is the one writer of the fixture format: each body lands in
    ``<fixture_key>.body``, and ``manifest.json`` maps the key to the URL,
    the status and the ``Location`` header, the only header replay reads.
    The manifest is read once, when the transport is built, and kept in
    memory; after each response the whole file is written again, to a tmp
    file that then replaces it, so an interrupted recording loses nothing.
    Only one live recorder per directory is supported: a second one
    writing to the same directory at the same time would overwrite the
    first one's new entries.
    """

    def __init__(self, directory: str | Path, inner: HttpTransport):
        self.directory = Path(directory)
        self.inner = inner
        self._lock = threading.Lock()
        self._manifest = _load_manifest(self.directory)

    @property
    def paced(self) -> bool:
        """Paced exactly when the transport it records is."""
        return self.inner.paced

    def get(self, url: str) -> HttpResponse:
        response = self.inner.get(url)
        key = fixture_key(url)
        headers = {
            k: v for k, v in response.headers.items() if k.lower() == "location"
        }
        manifest_path = self.directory / MANIFEST_NAME
        tmp_path = manifest_path.with_suffix(".json.tmp")
        with self._lock:
            self.directory.mkdir(parents=True, exist_ok=True)
            (self.directory / f"{key}.body").write_text(response.body, encoding="utf-8")
            self._manifest[key] = {"url": url, "status": response.status, "headers": headers}
            tmp_path.write_text(
                json.dumps(self._manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            tmp_path.replace(manifest_path)
        return response
