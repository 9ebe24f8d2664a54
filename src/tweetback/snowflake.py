"""Snowflake tweet-ID arithmetic.

Twitter's post-2010 tweet IDs embed their creation time: the top 42 bits
hold milliseconds since the Snowflake epoch, the low 22 bits hold
worker/sequence data. Shifting right by 22 recovers the offset, so an ID
maps to a UTC instant and, inversely, an instant maps to the full range
of IDs that could have been minted during that millisecond.
"""

from __future__ import annotations

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


def common_prefix_filter(low: int, high: int) -> str | None:
    """The CDX regex fragment covering the ID range [low, high].

    That is the bounds' common decimal prefix, then a ``[low-high]`` class
    of their first differing digits (``152[2-3]``), or the whole ID when
    ``low == high``. It is a superset: every in-range ID of the same
    decimal length matches, but some matching IDs may fall outside the
    range, so callers must re-filter exactly. Returns None when the bounds
    render to decimal strings of different lengths: no single prefix is
    then safe, and the caller should query without narrowing.
    """
    if low > high:
        raise ValueError(f"inverted ID range: {low} > {high}")
    s_low, s_high = str(low), str(high)
    if len(s_low) != len(s_high):
        return None
    if s_low == s_high:
        return s_low
    i = 0
    while s_low[i] == s_high[i]:
        i += 1
    return f"{s_low[:i]}[{s_low[i]}-{s_high[i]}]"
