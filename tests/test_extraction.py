from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import extract_timestamp_reference
from tweetback.extraction import (
    ExtractedHandle,
    ScreenshotTimestamp,
    extract_fields,
    extract_handle,
    extract_timestamp,
    extract_tweet_text,
)
from tweetback.ocr import OcrDocument


def doc(*lines: str) -> OcrDocument:
    return OcrDocument("test", tuple(lines))


# Twenty numeric strings that must never parse as dates.
NON_DATE_NUMERICS = [
    "1,234,567",
    "555-1234",
    "555-867-5309",
    "192.168.0.1",
    "3.14159",
    "v1.2.3",
    "12345678",
    "99/99",
    "24/7",
    "1 000 000",
    "#123456",
    "Invoice 2042-77",
    "ID 4711:0815",
    "13/13/2022",
    "00/00/0000",
    "2022-13-40",
    "9999-99-99",
    "band 10,000 maniacs",
    "$1,999.99",
    "call 1-800-555-0199",
]


class TestTimestamp:
    def test_iso_with_preceding_time(self):
        ts = extract_timestamp(doc("4:08 PM 2022-05-25"))
        assert (ts.year, ts.month, ts.day) == (2022, 5, 25)
        assert (ts.hour, ts.minute, ts.has_time_of_day) == (16, 8, True)

    def test_month_name_with_preceding_time(self):
        ts = extract_timestamp(doc("11:21 PM May 07, 2022"))
        assert (ts.year, ts.month, ts.day) == (2022, 5, 7)
        assert (ts.hour, ts.minute) == (23, 21)

    def test_relative_timestamp_yields_nothing(self):
        assert extract_timestamp(doc("1d")) is None

    def test_last_valid_date_wins(self):
        ts = extract_timestamp(doc("Jan 2, 2021", "some text", "4:08 PM 2022-05-25"))
        assert (ts.year, ts.month, ts.day) == (2022, 5, 25)
        assert ts.source_line_index == 2

    def test_last_match_within_line_wins(self):
        ts = extract_timestamp(doc("Jan 2, 2021 then 2022-03-04"))
        assert (ts.year, ts.month, ts.day) == (2022, 3, 4)

    @pytest.mark.parametrize("junk", NON_DATE_NUMERICS)
    def test_non_date_numerics(self, junk):
        assert extract_timestamp(doc(junk)) is None

    def test_time_following_date(self):
        ts = extract_timestamp(doc("May 25, 2022 - 4:08 PM"))
        assert (ts.hour, ts.minute, ts.has_time_of_day) == (16, 8, True)

    def test_interpunct_separator(self):
        ts = extract_timestamp(doc("9:15 AM · Jun 3, 2022"))
        assert (ts.hour, ts.minute) == (9, 15)

    def test_twenty_four_hour_time(self):
        ts = extract_timestamp(doc("2022-05-25 16:08"))
        assert (ts.hour, ts.minute) == (16, 8)

    def test_date_only_has_no_time(self):
        ts = extract_timestamp(doc("May 25, 2022"))
        assert ts.has_time_of_day is False
        assert (ts.hour, ts.minute) == (0, 0)

    def test_time_far_from_date_not_attached(self):
        ts = extract_timestamp(doc("4:08 PM likes 12 May 25, 2022"))
        assert ts.has_time_of_day is False

    def test_us_numeric_format(self):
        ts = extract_timestamp(doc("posted 05/25/2022"))
        assert (ts.year, ts.month, ts.day) == (2022, 5, 25)

    def test_day_before_month_name(self):
        ts = extract_timestamp(doc("25 May 2022"))
        assert (ts.year, ts.month, ts.day) == (2022, 5, 25)

    def test_day_first_numeric_rejected(self):
        # 25/05/2022 would be day-first; month 25 is invalid, so no result.
        assert extract_timestamp(doc("25/05/2022")) is None

    def test_year_bounds(self):
        assert extract_timestamp(doc("May 25, 2005")) is None
        assert extract_timestamp(doc("May 25, 2099")) is None

    def test_calendar_validity(self):
        assert extract_timestamp(doc("Feb 30, 2022")) is None
        assert extract_timestamp(doc("2022-02-29")) is None  # not a leap year

    def test_invalid_ampm_hour_not_attached(self):
        ts = extract_timestamp(doc("19:08 PM 2022-05-25"))
        assert ts is not None
        assert ts.has_time_of_day is False

    def test_empty_document(self):
        assert extract_timestamp(doc()) is None

    # Dates valid, invalid and out of era in every supported shape, with
    # their pieces also drawn alone so that neighbours can form new dates.
    _TOKENS = st.sampled_from([
        "2022-05-25", "2022-02-30", "2005-01-01", "2099-12-31", "2021-1-2",
        "05/25/2022", "5/9/2022", "25/05/2022", "13/13/2022",
        "May 7, 2022", "Jan 2, 2021", "Sept 9, 2022", "Feb 30, 2022",
        "7 May 2022", "25 Dec, 2020", "31 Jun 2021",
        "May", "jan.", "December", "7", "25,", "31", "2022", "2019", "2005",
        "4:08 PM", "11:21 pm", "23:59", "19:08 PM", "7:60", "0:00 a.m.",
        "·", "-", ",", "1d", "3h", "@x", "likes", "12", "555-1234",
    ])

    @given(st.lists(st.lists(_TOKENS, max_size=8).map(" ".join), max_size=6))
    def test_matches_top_down_reference(self, lines):
        document = doc(*lines)
        assert extract_timestamp(document) == extract_timestamp_reference(document)


class TestHandle:
    def test_verified_mark_noise_skipped(self):
        handle = extract_handle(doc("Barack Obama @", "@BarackObama"))
        assert handle.handle == "BarackObama"
        assert handle.complete is True
        assert handle.source_line_index == 1

    def test_ellipsis_marks_incomplete(self):
        handle = extract_handle(doc("@DrSJaish..."))
        assert handle.handle == "DrSJaish"
        assert handle.complete is False

    def test_unicode_ellipsis(self):
        handle = extract_handle(doc("@DrSJaish…"))
        assert (handle.handle, handle.complete) == ("DrSJaish", False)

    def test_no_at_tokens(self):
        assert extract_handle(doc("no handles here")) is None

    def test_first_at_token_wins(self):
        handle = extract_handle(doc("@author says", "thanks @friend1 @friend2"))
        assert handle.handle == "author"

    def test_trailing_punctuation_stripped(self):
        assert extract_handle(doc("@someone,")).handle == "someone"

    def test_interior_junk_gives_nothing(self):
        # cleaning may only drop trailing characters; a mangled token is
        # not silently reinterpreted as some other handle
        assert extract_handle(doc("@Pam|KeithFL")) is None

    def test_only_at_signs(self):
        assert extract_handle(doc("@ @ @")) is None

    def test_at_with_no_usable_body(self):
        assert extract_handle(doc("@...")) is None

    def test_overlong_body_rejected(self):
        assert extract_handle(doc("@" + "a" * 16)) is None

    def test_handle_charset_invariant(self):
        handle = extract_handle(doc("@Some_User99!!"))
        assert re.fullmatch(r"[A-Za-z0-9_]{1,15}", handle.handle)


class TestTweetText:
    def test_between_handle_and_timestamp(self):
        d = doc(
            "Barack Obama",
            "@BarackObama",
            "As we grieve the children of Uvalde",
            "4:08 PM 2022-05-25",
        )
        handle = extract_handle(d)
        ts = extract_timestamp(d)
        assert extract_tweet_text(d, handle, ts) == "As we grieve the children of Uvalde"

    def test_missing_timestamp_falls_back(self):
        d = doc("@author", "some text")
        assert extract_tweet_text(d, extract_handle(d), None) == d.raw_text

    def test_adjacent_lines_give_empty_text(self):
        d = doc("@author", "4:08 PM 2022-05-25")
        assert extract_tweet_text(d, extract_handle(d), extract_timestamp(d)) == ""

    def test_timestamp_above_handle_falls_back(self):
        d = doc("May 25, 2022", "@author")
        assert extract_tweet_text(d, extract_handle(d), extract_timestamp(d)) == d.raw_text


class TestExtractFields:
    def test_obama_screenshot(self):
        fields = extract_fields(
            doc(
                "Barack Obama @",
                "@BarackObama",
                "As we grieve the children of Uvalde",
                "4:08 PM 2022-05-25",
            )
        )
        assert fields.handle.handle == "BarackObama"
        assert fields.timestamp.as_datetime().isoformat() == "2022-05-25T16:08:00+00:00"
        assert fields.tweet_text == "As we grieve the children of Uvalde"
        assert fields.text_is_fallback is False

    def test_empty_document(self):
        fields = extract_fields(doc())
        assert fields.handle is None
        assert fields.timestamp is None
        assert fields.tweet_text == ""
        assert fields.text_is_fallback is True

    def test_handle_only_falls_back(self):
        d = doc("@author", "hello world")
        fields = extract_fields(d)
        assert fields.handle is not None
        assert fields.timestamp is None
        assert (fields.tweet_text, fields.text_is_fallback) == (d.raw_text, True)

    def test_misordered_timestamp_dropped(self):
        d = doc("May 25, 2022", "@author", "trailing line")
        fields = extract_fields(d)
        assert fields.handle is not None
        assert fields.timestamp is None
        assert fields.text_is_fallback is True

    def test_determinism(self):
        d = doc("@author", "text", "May 25, 2022")
        assert extract_fields(d) == extract_fields(d)


# --- type invariants -------------------------------------------------------

def test_screenshot_timestamp_validation():
    with pytest.raises(ValueError):
        ScreenshotTimestamp(2005, 1, 1)
    with pytest.raises(ValueError):
        ScreenshotTimestamp(2022, 2, 30)
    with pytest.raises(ValueError):
        ScreenshotTimestamp(2022, 1, 1, hour=5, has_time_of_day=False)


def test_extracted_handle_validation():
    with pytest.raises(ValueError):
        ExtractedHandle(handle="")
    with pytest.raises(ValueError):
        ExtractedHandle(handle="has space")
    with pytest.raises(ValueError):
        ExtractedHandle(handle="a" * 16)


# --- properties over generated documents -----------------------------------

_noise_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
_noise_line = st.lists(_noise_word, min_size=0, max_size=5).map(" ".join)
_handle_text = st.from_regex(r"[A-Za-z0-9_]{1,15}", fullmatch=True)
_valid_date = st.dates(min_value=__import__("datetime").date(2006, 1, 1),
                       max_value=__import__("datetime").date(2024, 12, 31))


@given(st.lists(_noise_line, max_size=6))
def test_fallback_iff_missing_anchor(lines):
    fields = extract_fields(OcrDocument("prop", tuple(lines)))
    assert fields.text_is_fallback == (fields.handle is None or fields.timestamp is None)


@given(
    before=st.lists(_noise_line, max_size=3),
    between=st.lists(_noise_line, max_size=3),
    after=st.lists(_noise_line, max_size=3),
    handle=_handle_text,
    day=_valid_date,
    fmt=st.sampled_from(["%Y-%m-%d", "%m/%d/%Y", "%b %d, %Y", "%d %b %Y", "%B %d, %Y"]),
)
def test_single_date_single_handle_extracted(before, between, after, handle, day, fmt):
    # letters-only noise can form neither a date nor an '@' token, so the
    # inserted handle and date must be exactly what comes back out
    lines = before + [f"@{handle}"] + between + [day.strftime(fmt)] + after
    d = OcrDocument("prop", tuple(lines))
    got_handle = extract_handle(d)
    got_ts = extract_timestamp(d)
    assert got_handle is not None and got_handle.handle == handle
    assert got_ts is not None
    assert (got_ts.year, got_ts.month, got_ts.day) == (day.year, day.month, day.day)
