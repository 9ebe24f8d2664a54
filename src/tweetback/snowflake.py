"""Snowflake tweet-ID arithmetic.

Twitter's post-2010 tweet IDs embed their creation time: the top 42 bits
hold milliseconds since the Snowflake epoch, the low 22 bits hold
worker/sequence data. Shifting right by 22 recovers the offset, so an ID
maps to a UTC instant and, inversely, an instant maps to the full range
of IDs that could have been minted during that millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

# Twitter Snowflake epoch: 2010-11-04T01:42:54.657Z.
SNOWFLAKE_EPOCH_MS = 1288834974657
SNOWFLAKE_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(
    milliseconds=SNOWFLAKE_EPOCH_MS
)
TIMESTAMP_SHIFT = 22
LOW_BITS_MASK = (1 << TIMESTAMP_SHIFT) - 1


class PreSnowflakeIdError(ValueError):
    """Tweet ID predates the Snowflake scheme and cannot be decoded."""


class TimeBeforeEpochError(ValueError):
    """Timestamp precedes the Snowflake epoch; no ID range exists for it."""


def is_snowflake_id(tweet_id: int) -> bool:
    """True when ``tweet_id`` can be a Snowflake ID: a positive 64-bit
    signed integer whose timestamp bits are not all zero."""
    return 1 << TIMESTAMP_SHIFT <= tweet_id < 1 << 63


def id_to_time(tweet_id: int) -> datetime:
    """Decode a tweet ID to its UTC creation time (millisecond precision).

    Raises PreSnowflakeIdError for an ID that is_snowflake_id rejects:
    one below 2**22 never names a Snowflake-era tweet, and one of 2**63
    or more does not fit the scheme's 64 bits.
    """
    if not is_snowflake_id(tweet_id):
        raise PreSnowflakeIdError(f"not a Snowflake tweet ID: {tweet_id}")
    return SNOWFLAKE_EPOCH + timedelta(milliseconds=tweet_id >> TIMESTAMP_SHIFT)


def time_to_id_bounds(t: datetime) -> tuple[int, int]:
    """Return the (low, high) tweet IDs creatable at instant ``t``.

    ``low`` has all 22 worker/sequence bits clear, ``high`` has them all
    set; every ID minted during t's millisecond lies in [low, high].
    Naive datetimes are interpreted as UTC.
    """
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    offset_ms = (t - SNOWFLAKE_EPOCH) // timedelta(milliseconds=1)
    if offset_ms < 0:
        raise TimeBeforeEpochError(f"{t.isoformat()} precedes the Snowflake epoch")
    low = offset_ms << TIMESTAMP_SHIFT
    return low, low | LOW_BITS_MASK


@dataclass(frozen=True)
class IdPrefixFilter:
    """Decimal common-prefix filter covering an ID range.

    Renders as ``prefix[low-high]`` (a CDX-compatible regex fragment), or
    ``prefix`` + digit when both bounding digits coincide. The filter is
    a superset: every in-range ID of the same decimal length matches, but
    some matching IDs may fall outside the range, so callers must
    re-filter exactly.
    """

    prefix: str
    low_digit: str
    high_digit: str

    def render(self) -> str:
        if self.low_digit == self.high_digit:
            return f"{self.prefix}{self.low_digit}"
        return f"{self.prefix}[{self.low_digit}-{self.high_digit}]"


def common_prefix_filter(low: int, high: int) -> IdPrefixFilter | None:
    """Derive the decimal prefix filter for the ID range [low, high].

    Returns None when the bounds render to decimal strings of different
    lengths: no single prefix is then safe, and the caller should query
    without narrowing.
    """
    if low > high:
        raise ValueError(f"inverted ID range: {low} > {high}")
    s_low, s_high = str(low), str(high)
    if len(s_low) != len(s_high):
        return None
    if s_low == s_high:
        return IdPrefixFilter(prefix=s_low[:-1], low_digit=s_low[-1], high_digit=s_low[-1])
    i = 0
    while s_low[i] == s_high[i]:
        i += 1
    return IdPrefixFilter(prefix=s_low[:i], low_digit=s_low[i], high_digit=s_high[i])
