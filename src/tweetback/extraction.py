"""Heuristics pulling the author handle, timestamp, and tweet text from OCR lines.

Twitter clients render timestamps many ways ("4:08 PM 2022-05-25",
"11:21 PM May 07, 2022", relative stamps like "1d" that carry no date at
all), and OCR adds its own noise: a verified check mark often comes out
as a bare '@', and handles at the right edge get cut to "@DrSJaish...".
The rules here are deliberately plain: a date needs at least 6 characters
and 4 digits and must be calendar-valid for the Twitter era; when several
dates qualify, the last one wins (the real stamp sits low in the crop);
the author handle is the first '@'-word longer than a lone '@'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, timezone

from .ocr import OcrDocument

FOUNDING_YEAR = 2006

_MONTHS = {
    "jan": 1, "january": 1,
    "feb": 2, "february": 2,
    "mar": 3, "march": 3,
    "apr": 4, "april": 4,
    "may": 5,
    "jun": 6, "june": 6,
    "jul": 7, "july": 7,
    "aug": 8, "august": 8,
    "sep": 9, "september": 9,
    "oct": 10, "october": 10,
    "nov": 11, "november": 11,
    "dec": 12, "december": 12,
}

_MONTH_ALT = (
    r"(?:january|february|march|april|may|june|july|august|september|october|"
    r"november|december|jan|feb|mar|apr|jun|jul|aug|sep|oct|nov|dec)"
)

# Supported date shapes: YYYY-MM-DD, MM/DD/YYYY, "May 07, 2022", "7 May 2022".
# Day-first numeric dates (DD/MM/YYYY) are intentionally unsupported: without
# locale context "03/04/2022" is ambiguous.
_DATE_PATTERNS = (
    re.compile(r"\b(?P<y>\d{4})-(?P<m>\d{1,2})-(?P<d>\d{1,2})\b"),
    re.compile(r"\b(?P<m>\d{1,2})/(?P<d>\d{1,2})/(?P<y>\d{4})\b"),
    re.compile(
        r"\b(?P<mon>" + _MONTH_ALT + r")\.?(?:\s*,\s*|\s+)(?P<d>\d{1,2})"
        r"(?:\s*,\s*|\s+)(?P<y>\d{4})\b",
        re.IGNORECASE,
    ),
    re.compile(
        r"\b(?P<d>\d{1,2})(?:\s*,\s*|\s+)(?P<mon>" + _MONTH_ALT + r")\.?"
        r"(?:\s*,\s*|\s+)(?P<y>\d{4})\b",
        re.IGNORECASE,
    ),
)

_TIME_RE = re.compile(
    r"\b(?P<h>\d{1,2}):(?P<min>\d{2})(?!\d)(?:\s*(?P<ampm>[ap])\.?m\.?\b)?",
    re.IGNORECASE,
)

# Whitespace with at most one interpunct or dash may separate a time-of-day
# token from its date on the same line.
_TIME_GAP_RE = re.compile(r"[ \t]*[·\-]?[ \t]*")


@dataclass(frozen=True)
class ScreenshotTimestamp:
    """The date (and optional time of day) shown in the screenshot.

    This is a wall clock in the screenshot-taker's unknown timezone, not a
    UTC instant; window construction accounts for that.
    """

    year: int
    month: int
    day: int
    hour: int = 0
    minute: int = 0
    has_time_of_day: bool = False
    source_line_index: int = 0

    def __post_init__(self) -> None:
        current_year = datetime.now(timezone.utc).year
        if not FOUNDING_YEAR <= self.year <= current_year:
            raise ValueError(f"year {self.year} outside {FOUNDING_YEAR}..{current_year}")
        date(self.year, self.month, self.day)
        if not (0 <= self.hour <= 23 and 0 <= self.minute <= 59):
            raise ValueError(f"invalid time of day {self.hour}:{self.minute:02d}")
        if not self.has_time_of_day and (self.hour or self.minute):
            raise ValueError("date-only timestamp must have hour = minute = 0")

    def as_datetime(self) -> datetime:
        """The wall clock read directly as UTC (midnight when date-only)."""
        return datetime(
            self.year, self.month, self.day, self.hour, self.minute, tzinfo=timezone.utc
        )


@dataclass(frozen=True)
class ExtractedHandle:
    """Author handle without the leading '@'."""

    handle: str
    complete: bool = True
    source_line_index: int = 0

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z0-9_]{1,15}", self.handle):
            raise ValueError(f"invalid handle {self.handle!r}")


@dataclass(frozen=True)
class ExtractedFields:
    """Combined extraction result for one screenshot."""

    handle: ExtractedHandle | None
    timestamp: ScreenshotTimestamp | None
    tweet_text: str

    @property
    def text_is_fallback(self) -> bool:
        """True when the text is the whole OCR output, for want of an anchor."""
        return self.handle is None or self.timestamp is None

    def to_dict(self) -> dict:
        """The JSON form shared by the verdict report and ``tweetback extract``."""
        handle, ts = self.handle, self.timestamp
        return {
            "handle": handle.handle if handle else None,
            "handle_complete": handle.complete if handle else None,
            "timestamp": ts.as_datetime().isoformat() if ts else None,
            "timestamp_has_time_of_day": ts.has_time_of_day if ts else None,
            "tweet_text": self.tweet_text,
            "text_is_fallback": self.text_is_fallback,
        }


def _date_fields(match: re.Match) -> tuple[int, int, int]:
    groups = match.groupdict()
    year = int(groups["y"])
    day = int(groups["d"])
    if groups.get("mon"):
        month = _MONTHS[groups["mon"].lower()]
    else:
        month = int(groups["m"])
    return year, month, day


def _time_of_day(match: re.Match) -> tuple[int, int] | None:
    hour = int(match.group("h"))
    minute = int(match.group("min"))
    if minute > 59:
        return None
    ampm = match.group("ampm")
    if ampm:
        if not 1 <= hour <= 12:
            return None
        hour = hour % 12 + (12 if ampm.lower() == "p" else 0)
    elif hour > 23:
        return None
    return hour, minute


def _adjacent_time(line: str, date_start: int, date_end: int) -> tuple[int, int] | None:
    preceding: tuple[int, int] | None = None
    following: tuple[int, int] | None = None
    for tm in _TIME_RE.finditer(line):
        parsed = _time_of_day(tm)
        if parsed is None:
            continue
        if tm.end() <= date_start and _TIME_GAP_RE.fullmatch(line, tm.end(), date_start):
            preceding = parsed
        elif tm.start() >= date_end and following is None:
            if _TIME_GAP_RE.fullmatch(line, date_end, tm.start()):
                following = parsed
    return preceding if preceding is not None else following


def extract_timestamp(doc: OcrDocument) -> ScreenshotTimestamp | None:
    """Find the screenshot timestamp; the last valid date in the document wins.

    A match must span at least 6 characters (separators included), contain
    at least 4 digits, and name a calendar-valid date between Twitter's
    founding year and today. Relative stamps ("1d", "3h") never qualify.
    Lines are read from the bottom and a line's matches from the right; of
    two matches at one start, the earlier pattern's goes first.
    """
    for index in reversed(range(len(doc.lines))):
        line = doc.lines[index]
        matches = [match for pattern in _DATE_PATTERNS for match in pattern.finditer(line)]
        for match in sorted(matches, key=re.Match.start, reverse=True):
            text = match.group(0)
            if len(text) < 6 or sum(c.isdigit() for c in text) < 4:
                continue
            year, month, day = _date_fields(match)
            tod = _adjacent_time(line, match.start(), match.end())
            try:
                return ScreenshotTimestamp(
                    year=year,
                    month=month,
                    day=day,
                    hour=tod[0] if tod else 0,
                    minute=tod[1] if tod else 0,
                    has_time_of_day=tod is not None,
                    source_line_index=index,
                )
            except ValueError:
                continue
    return None


def extract_handle(doc: OcrDocument) -> ExtractedHandle | None:
    """Pick the author handle: the first whitespace token '@x...' with length > 1.

    A lone '@' is skipped (that is usually an OCR'd verified check mark).
    The chosen token is cleaned of trailing non-handle characters; an
    ellipsis marks the handle as cut off by the crop. A token whose
    remainder is not a well-formed handle yields no result rather than a
    guess at some other account.
    """
    for index, line in enumerate(doc.lines):
        for token in line.split():
            if not token.startswith("@") or len(token) == 1:
                continue
            body = token[1:]
            truncated = body.endswith("…") or body.endswith("...")
            body = re.sub(r"[^A-Za-z0-9_]+$", "", body)
            try:
                return ExtractedHandle(
                    handle=body, complete=not truncated, source_line_index=index
                )
            except ValueError:
                return None
    return None


def extract_tweet_text(
    doc: OcrDocument,
    handle: ExtractedHandle | None,
    ts: ScreenshotTimestamp | None,
) -> str:
    """Slice the tweet body out of the OCR lines.

    The text sits strictly between the handle line and the timestamp line.
    When either anchor is missing, or the timestamp does not sit below the
    handle, the whole OCR output is returned as a fallback.
    """
    if handle is None or ts is None or handle.source_line_index >= ts.source_line_index:
        return doc.raw_text
    between = doc.lines[handle.source_line_index + 1 : ts.source_line_index]
    return "\n".join(between)


def extract_fields(doc: OcrDocument) -> ExtractedFields:
    """Run all three extractors and reconcile them.

    A timestamp at or above the handle line contradicts a single-tweet
    layout (an unusual crop or OCR noise), so it is discarded and the text
    falls back to the whole document.
    """
    handle = extract_handle(doc)
    ts = extract_timestamp(doc)
    if handle is not None and ts is not None and ts.source_line_index <= handle.source_line_index:
        ts = None
    return ExtractedFields(handle, ts, extract_tweet_text(doc, handle, ts))
