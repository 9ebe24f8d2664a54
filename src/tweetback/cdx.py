"""Wayback Machine CDX search: window construction, query building, row handling.

The screenshot timestamp is a wall clock in an unknown timezone, so the
tweet's true UTC creation time lies within WINDOW_SLACK either side of
it. build_window also derives, once, the range of Snowflake tweet IDs
minted inside that window; the window derives from the range the decimal
ID prefix covering it. The CDX query uses the window's left edge as
``from=`` (captures can only happen after posting) and that prefix to cut
the result set down; rows are then kept by comparing their tweet ID with
the range, since the prefix admits more IDs and a capture may be taken
long after the tweet was posted. The server collapses the rows to one per
urlkey, so it sends only the row that dedup keeps.

A candidate is its CDX row plus its tweet ID, and its two replay URLs
derive from the row: the plain one, which the report cites for a human
to open, and the raw ``id_`` one, which is fetched, because it serves the
capture as recorded, without the archive's toolbar and rewritten links.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from . import snowflake
from .extraction import ExtractedHandle, ScreenshotTimestamp
from .transport import HttpStatusError, HttpTransport

CDX_ENDPOINT = "https://web.archive.org/cdx/search/cdx"
REPLAY_BASE = "https://web.archive.org/web/"

CDX_FIELD_COUNT = 7

# UTC offsets run from -12:00 to +14:00, so a wall clock read as UTC is
# at most 26 hours off the true instant, in either direction.
WINDOW_SLACK = timedelta(hours=26)

# re.ASCII: int() accepts any Unicode decimal digit, so without it a path
# in, say, Arabic-Indic digits would yield a tweet ID that its replay URL
# does not name.
_STATUS_ID_RE = re.compile(r"/status/(\d+)(?:[/?#]|$)", re.ASCII)


@dataclass(frozen=True)
class ArchiveWindow:
    """UTC interval that must contain the tweet's creation time, the tweet
    IDs that can have been minted inside it, [low_id, high_id], and the
    CDX regex fragment covering them (None when their lengths differ)."""

    from_ts: datetime
    to_ts: datetime
    low_id: int
    high_id: int
    id_filter: str | None = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.from_ts >= self.to_ts:
            raise ValueError("window start must precede window end")
        object.__setattr__(
            self, "id_filter", snowflake.common_prefix_filter(self.low_id, self.high_id))

    @property
    def from_cdx14(self) -> str:
        return self.from_ts.strftime("%Y%m%d%H%M%S")


@dataclass(frozen=True)
class CdxRecord:
    """The two fields read from one row of the CDX index: the capture
    timestamp and the original URL.

    A malformed capture timestamp raises ValueError on construction.
    """

    timestamp14: str
    original_url: str

    def __post_init__(self) -> None:
        if _parse_timestamp14(self.timestamp14) is None:
            raise ValueError(f"bad capture timestamp {self.timestamp14!r}")

    @property
    def archived_at(self) -> datetime:
        """The capture time, in UTC."""
        return _parse_timestamp14(self.timestamp14)


@dataclass(frozen=True)
class CandidateRef(CdxRecord):
    """A capture of a status URL whose tweet ID fits the window."""

    tweet_id: int

    @property
    def replay_url(self) -> str:
        """The plain replay URL, the one a report cites."""
        return f"{REPLAY_BASE}{self.timestamp14}/{self.original_url}"

    @property
    def raw_replay_url(self) -> str:
        """The raw ``id_`` replay URL, the one that is fetched."""
        return f"{REPLAY_BASE}{self.timestamp14}id_/{self.original_url}"


def build_window(ts: ScreenshotTimestamp) -> ArchiveWindow:
    """Bracket the screenshot timestamp with WINDOW_SLACK on each side.

    The wall clock is read directly as UTC; the slack absorbs whatever the
    real offset was. A date-only timestamp widens to cover its whole day.
    A window that starts before the Snowflake epoch takes its low ID from
    the epoch; one that ends before it raises TimeBeforeEpochError.
    """
    start = end = ts.as_datetime()
    if not ts.has_time_of_day:
        end = start + timedelta(hours=23, minutes=59, seconds=59)
    from_ts, to_ts = start - WINDOW_SLACK, end + WINDOW_SLACK
    # Both edges are whole seconds, which time_to_id_bounds maps without
    # rounding: the range holds exactly the IDs minted inside the window.
    low_id, _ = snowflake.time_to_id_bounds(max(from_ts, snowflake.SNOWFLAKE_EPOCH))
    _, high_id = snowflake.time_to_id_bounds(to_ts)
    return ArchiveWindow(from_ts, to_ts, low_id, high_id)


def build_cdx_query(handle: ExtractedHandle, window: ArchiveWindow) -> str:
    """Build the prefix-match CDX query URL for a handle's status pages.

    The window's ID filter, when it has one, ends the path as is: a
    fragment like ``152[2-3]``, which the CDX server treats as a regex.
    The URL is built verbatim, without percent-encoding, to match what the
    server expects. The handle is used as given; run_pipeline never passes
    a truncated one.

    ``collapse=urlkey`` makes the server send only the first row of each
    urlkey. Rows come sorted by urlkey, then timestamp, and ``from=`` drops
    earlier captures, so that row is the earliest in-window capture, the
    one dedup_candidates keeps. The urlkey ignores the scheme and case, so
    ``http://``/``https://`` and handle-case variants of one status merge.
    """
    path = f"https://twitter.com/{handle.handle}/status"
    if window.id_filter is not None:
        path += f"/{window.id_filter}"
    return f"{CDX_ENDPOINT}?url={path}&from={window.from_cdx14}&matchType=prefix&collapse=urlkey"


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
            warnings.append(
                f"cdx line {number}: expected {CDX_FIELD_COUNT} fields, got {len(fields)}")
            continue
        try:
            record = CdxRecord(fields[1], fields[2])
        except ValueError as err:
            warnings.append(f"cdx line {number}: {err}")
            continue
        if not record.original_url:
            warnings.append(f"cdx line {number}: empty original URL")
            continue
        records.append(record)
    return records, warnings


def dedup_candidates(records: list[CdxRecord]) -> list[CdxRecord]:
    """Keep the earliest capture of each original URL, sorted by URL.

    The earliest capture is the most likely to replay the original
    content. No capture predates the window: the query's ``from=`` drops
    every earlier row. The server's collapse already leaves one row per
    urlkey; this still holds for a server or recording that ignores it.
    """
    best: dict[str, CdxRecord] = {}
    for record in records:
        current = best.get(record.original_url)
        if current is None or record.timestamp14 < current.timestamp14:
            best[record.original_url] = record
    return [best[url] for url in sorted(best)]


def filter_by_window(
    records: list[CdxRecord], window: ArchiveWindow
) -> tuple[list[CandidateRef], list[str]]:
    """Keep records whose tweet ID lies in the window's ID range, which
    holds exactly the IDs whose creation time is in the window."""
    candidates: list[CandidateRef] = []
    warnings: list[str] = []
    for record in records:
        match = _STATUS_ID_RE.search(record.original_url)
        if match is None:
            warnings.append(f"no tweet ID in {record.original_url}")
            continue
        tweet_id = int(match.group(1))
        if not snowflake.is_snowflake_id(tweet_id):
            warnings.append(f"not a Snowflake tweet ID in {record.original_url}")
            continue
        if not window.low_id <= tweet_id <= window.high_id:
            continue
        candidates.append(CandidateRef(record.timestamp14, record.original_url, tweet_id))
    return candidates, warnings


def fetch_cdx(query: str, transport: HttpTransport) -> str:
    """Execute a CDX query and return the raw response body.

    Raises NetworkError or RateLimitedError (from the live transport) and
    HttpStatusError for any non-200 status a transport returns.
    """
    response = transport.get(query)
    if response.status != 200:
        raise HttpStatusError(response.status, query)
    return response.body
