"""Wayback Machine CDX search: window construction, query building, row handling.

The screenshot timestamp is a wall clock in an unknown timezone, anywhere
from UTC-12 to UTC+14, so the tweet's true UTC creation time lies within
26 hours either side of it. The CDX query uses that window's left edge as
``from=`` (captures can only happen after posting) and an ID-prefix regex
derived from the window's Snowflake bounds to cut the result set down;
the right edge is enforced locally by decoding each row's tweet ID, since
a capture may be taken long after the tweet was posted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .extraction import ExtractedHandle, ScreenshotTimestamp
from .snowflake import IdPrefixFilter, PreSnowflakeIdError, id_to_time
from .transport import HttpStatusError, HttpTransport, RateLimitedError, _parse_retry_after

CDX_ENDPOINT = "http://web.archive.org/cdx/search/cdx"
REPLAY_BASE = "https://web.archive.org/web/"

CDX_FIELD_COUNT = 7

_STATUS_ID_RE = re.compile(r"/status/(\d+)(?:[/?#]|$)")


class IncompleteHandleError(ValueError):
    """A truncated handle cannot anchor an archive query."""


@dataclass(frozen=True)
class ArchiveWindow:
    """UTC interval that must contain the tweet's creation time."""

    center: datetime
    from_ts: datetime
    to_ts: datetime

    def __post_init__(self) -> None:
        if self.from_ts >= self.to_ts:
            raise ValueError("window start must precede window end")

    @property
    def from_cdx14(self) -> str:
        return self.from_ts.strftime("%Y%m%d%H%M%S")


@dataclass(frozen=True)
class CdxRecord:
    """One row of the CDX index (default space-separated output).

    The capture timestamp is parsed once, on construction; a malformed
    one raises ValueError.
    """

    urlkey: str
    timestamp14: str
    original_url: str
    mimetype: str
    statuscode: str
    digest: str
    length: str
    archived_at: datetime = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        archived_at = _parse_timestamp14(self.timestamp14)
        if archived_at is None:
            raise ValueError(f"bad capture timestamp {self.timestamp14!r}")
        object.__setattr__(self, "archived_at", archived_at)


@dataclass(frozen=True)
class CandidateRef:
    """An archived capture of a status URL whose tweet ID fits the window."""

    replay_url: str
    tweet_id: int
    archived_at: datetime


def build_window(ts: ScreenshotTimestamp, hours: int = 26) -> ArchiveWindow:
    """Bracket the screenshot timestamp with the timezone-slack window.

    The wall clock is read directly as UTC; the slack absorbs whatever the
    real offset was. A date-only timestamp widens to cover its whole day.
    """
    center = ts.as_datetime()
    slack = timedelta(hours=hours)
    if ts.has_time_of_day:
        return ArchiveWindow(center=center, from_ts=center - slack, to_ts=center + slack)
    day_start = datetime(ts.year, ts.month, ts.day, tzinfo=timezone.utc)
    day_end = day_start + timedelta(hours=23, minutes=59, seconds=59)
    return ArchiveWindow(center=center, from_ts=day_start - slack, to_ts=day_end + slack)


def build_cdx_query(
    handle: ExtractedHandle,
    window: ArchiveWindow,
    id_filter: IdPrefixFilter | None = None,
) -> str:
    """Build the prefix-match CDX query URL for a handle's status pages.

    The ID filter, when available, becomes a literal path fragment like
    ``152[2-3]`` (the CDX server treats it as a regex); the URL is built
    verbatim, without percent-encoding, to match what the server expects.
    """
    if not handle.complete:
        raise IncompleteHandleError(f"handle @{handle.handle} is truncated")
    path = f"https://twitter.com/{handle.handle}/status"
    if id_filter is not None:
        path += f"/{id_filter.render()}"
    return f"{CDX_ENDPOINT}?url={path}&from={window.from_cdx14}&matchType=prefix"


def _parse_timestamp14(value: str) -> datetime | None:
    """UTC datetime of a ``YYYYMMDDhhmmss`` string of ASCII digits, else None."""
    if len(value) != 14 or not value.isascii() or not value.isdigit():
        return None
    try:
        return datetime(
            int(value[:4]), int(value[4:6]), int(value[6:8]),
            int(value[8:10]), int(value[10:12]), int(value[12:]),
            tzinfo=timezone.utc,
        )
    except ValueError:
        return None


def parse_cdx_response(body: str) -> tuple[list[CdxRecord], list[str]]:
    """Split a CDX response into records, collecting malformed lines as warnings."""
    records: list[CdxRecord] = []
    warnings: list[str] = []
    for number, line in enumerate(body.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != CDX_FIELD_COUNT:
            warnings.append(f"cdx line {number}: expected 7 fields, got {len(fields)}")
            continue
        try:
            record = CdxRecord(*fields)
        except ValueError as err:
            warnings.append(f"cdx line {number}: {err}")
            continue
        if not record.original_url:
            warnings.append(f"cdx line {number}: empty original URL")
            continue
        records.append(record)
    return records, warnings


def dedup_candidates(
    records: list[CdxRecord], from_ts14: str | None = None
) -> list[CdxRecord]:
    """Keep one capture per original URL, sorted by URL.

    Preference goes to the earliest capture at or after the window start
    (most likely to replay the original content), falling back to the
    earliest capture overall.
    """
    best: dict[str, CdxRecord] = {}
    for record in records:
        current = best.get(record.original_url)
        if current is None or _capture_rank(record, from_ts14) < _capture_rank(current, from_ts14):
            best[record.original_url] = record
    return [best[url] for url in sorted(best)]


def _capture_rank(record: CdxRecord, from_ts14: str | None) -> tuple[int, str]:
    in_window = 0 if from_ts14 is None or record.timestamp14 >= from_ts14 else 1
    return in_window, record.timestamp14


def filter_by_window(
    records: list[CdxRecord], window: ArchiveWindow
) -> tuple[list[CandidateRef], list[str]]:
    """Keep records whose decoded tweet-ID creation time falls inside the window."""
    candidates: list[CandidateRef] = []
    warnings: list[str] = []
    for record in records:
        match = _STATUS_ID_RE.search(record.original_url)
        if match is None:
            warnings.append(f"no tweet ID in {record.original_url}")
            continue
        tweet_id = int(match.group(1))
        try:
            created_at = id_to_time(tweet_id)
        except PreSnowflakeIdError:
            warnings.append(f"pre-Snowflake tweet ID in {record.original_url}")
            continue
        if not window.from_ts <= created_at <= window.to_ts:
            continue
        candidates.append(
            CandidateRef(
                replay_url=f"{REPLAY_BASE}{record.timestamp14}/{record.original_url}",
                tweet_id=tweet_id,
                archived_at=record.archived_at,
            )
        )
    return candidates, warnings


def fetch_cdx(query: str, transport: HttpTransport) -> str:
    """Execute a CDX query and return the raw response body.

    Raises NetworkError (from the transport), RateLimitedError on HTTP
    429, and HttpStatusError for any other non-200 status.
    """
    response = transport.get(query)
    if response.status == 429:
        retry_after = _parse_retry_after(response.headers.get("Retry-After"))
        raise RateLimitedError(query, retry_after)
    if response.status != 200:
        raise HttpStatusError(response.status, query)
    return response.body
