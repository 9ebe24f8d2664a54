from __future__ import annotations

import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetback.snowflake import (
    LOW_BITS_MASK,
    SNOWFLAKE_EPOCH_MS,
    PreSnowflakeIdError,
    TimeBeforeEpochError,
    common_prefix_filter,
    id_to_time,
    time_to_id_bounds,
)

UTC = timezone.utc

# Decode values frozen against the public TweetedAt arithmetic.
KNOWN_DECODES = [
    (1523141006509502470, datetime(2022, 5, 8, 3, 21, 29, 200000, tzinfo=UTC)),
    (1006984708109099008, datetime(2018, 6, 13, 19, 40, 37, 941000, tzinfo=UTC)),
    (1212092628029698048, datetime(2019, 12, 31, 19, 26, 16, 771000, tzinfo=UTC)),
]

# Tweet-era instants for property tests: Snowflake launch through 2030.
_tweet_era = st.integers(
    min_value=SNOWFLAKE_EPOCH_MS + 1,
    max_value=int(datetime(2030, 1, 1, tzinfo=UTC).timestamp() * 1000),
)


def _ms_to_dt(ms: int) -> datetime:
    return datetime(1970, 1, 1, tzinfo=UTC) + timedelta(milliseconds=ms)


@pytest.mark.parametrize("tweet_id,expected", KNOWN_DECODES)
def test_id_to_time_known_ids(tweet_id, expected):
    assert id_to_time(tweet_id) == expected


def test_id_to_time_epoch_constant():
    assert _ms_to_dt(SNOWFLAKE_EPOCH_MS) == datetime(
        2010, 11, 4, 1, 42, 54, 657000, tzinfo=UTC
    )


@pytest.mark.parametrize("bad_id", [0, -5, 1, (1 << 22) - 1, 1 << 63, 10**33])
def test_id_to_time_rejects_pre_snowflake(bad_id):
    with pytest.raises(PreSnowflakeIdError):
        id_to_time(bad_id)


@pytest.mark.parametrize("tweet_id,offset_ms", [(1 << 22, 1), ((1 << 63) - 1, (1 << 41) - 1)])
def test_id_to_time_decodes_the_smallest_and_largest_ids(tweet_id, offset_ms):
    assert id_to_time(tweet_id) == _ms_to_dt(SNOWFLAKE_EPOCH_MS + offset_ms)


def test_time_to_id_bounds_span():
    low, high = time_to_id_bounds(datetime(2022, 5, 7, 23, 21, tzinfo=UTC))
    assert high - low == (1 << 22) - 1
    assert low & LOW_BITS_MASK == 0


def test_time_to_id_bounds_contains_real_id():
    created = id_to_time(1523141006509502470)
    low, high = time_to_id_bounds(created)
    assert low <= 1523141006509502470 <= high


def test_time_to_id_bounds_before_epoch():
    with pytest.raises(TimeBeforeEpochError):
        time_to_id_bounds(datetime(2009, 1, 1, tzinfo=UTC))


def test_time_to_id_bounds_naive_treated_as_utc():
    aware = time_to_id_bounds(datetime(2022, 5, 7, 23, 21, tzinfo=UTC))
    naive = time_to_id_bounds(datetime(2022, 5, 7, 23, 21))
    assert aware == naive


@given(_tweet_era)
def test_round_trip_low_and_high(ms):
    t = _ms_to_dt(ms)
    low, high = time_to_id_bounds(t)
    assert id_to_time(low) == t
    assert id_to_time(high) == t


@given(_tweet_era, st.integers(min_value=1, max_value=999))
def test_round_trip_truncates_to_milliseconds(ms, sub_ms_us):
    t = _ms_to_dt(ms) + timedelta(microseconds=sub_ms_us)
    low, _ = time_to_id_bounds(t)
    assert id_to_time(low) == _ms_to_dt(ms)


@given(_tweet_era, st.integers(min_value=1, max_value=10**9))
def test_bounds_monotonic(ms, gap_ms):
    _, high1 = time_to_id_bounds(_ms_to_dt(ms))
    low2, _ = time_to_id_bounds(_ms_to_dt(ms + gap_ms))
    assert high1 < low2


def test_common_prefix_filter_paper_window():
    low, _ = time_to_id_bounds(datetime(2022, 5, 6, 21, 21, tzinfo=UTC))
    _, high = time_to_id_bounds(datetime(2022, 5, 9, 1, 21, tzinfo=UTC))
    assert common_prefix_filter(low, high) == "152[2-3]"


def test_common_prefix_filter_degenerate_range():
    assert common_prefix_filter(1523141006509502470, 1523141006509502470) == "1523141006509502470"


def test_common_prefix_filter_length_mismatch():
    assert common_prefix_filter(10**19 - 1, 10**19) is None


def test_common_prefix_filter_inverted_range():
    with pytest.raises(ValueError):
        common_prefix_filter(2, 1)


@settings(max_examples=30)
@given(_tweet_era, st.integers(min_value=0, max_value=60 * 60 * 1000))
def test_prefix_filter_never_wider_than_one_digit_position(ms, span_ms):
    low, _ = time_to_id_bounds(_ms_to_dt(ms))
    _, high = time_to_id_bounds(_ms_to_dt(ms + span_ms))
    filt = common_prefix_filter(low, high)
    if filt is not None:
        # A digit class with low > high would not compile, so re.match
        # also checks that the class is ordered.
        assert re.fullmatch(r"\d*(\[\d-\d\])?", filt)
        assert re.match(filt, str(low)) and re.match(filt, str(high))


def test_prefix_filter_soundness_sampled():
    # Every sampled ID inside [low, high] must match the regex fragment.
    rng = random.Random(20220508)
    checked = 0
    while checked < 10_000:
        ms = rng.randint(SNOWFLAKE_EPOCH_MS + 1, SNOWFLAKE_EPOCH_MS + 2**41 - 1)
        span = rng.choice([0, 10, 1000, 60_000, 3_600_000, 187_200_000])
        low, _ = time_to_id_bounds(_ms_to_dt(ms))
        _, high = time_to_id_bounds(_ms_to_dt(ms + span))
        filt = common_prefix_filter(low, high)
        if filt is None:
            continue
        for _ in range(25):
            sample = rng.randint(low, high)
            assert re.match(filt, str(sample))
            checked += 1
