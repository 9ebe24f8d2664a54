from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import StubTransport, cdx_line
from tweetback.cdx import (
    ArchiveWindow,
    CdxRecord,
    IncompleteHandleError,
    build_cdx_query,
    build_window,
    dedup_candidates,
    fetch_cdx,
    filter_by_window,
    parse_cdx_response,
)
from tweetback.cdx import _parse_timestamp14
from tweetback.extraction import ExtractedHandle, ScreenshotTimestamp
from tweetback.snowflake import common_prefix_filter, id_to_time, time_to_id_bounds
from tweetback.transport import HttpStatusError, NetworkError, RateLimitedError

UTC = timezone.utc

PAM_TS = ScreenshotTimestamp(2022, 5, 7, 23, 21, True, source_line_index=4)
PAM_HANDLE = ExtractedHandle("PamKeithFL", True, 1)


def pam_window() -> ArchiveWindow:
    return build_window(PAM_TS)


def pam_filter():
    window = pam_window()
    low, _ = time_to_id_bounds(window.from_ts)
    _, high = time_to_id_bounds(window.to_ts)
    return common_prefix_filter(low, high)


class TestBuildWindow:
    def test_paper_from_string(self):
        assert pam_window().from_cdx14 == "20220506212100"

    def test_right_edge(self):
        assert pam_window().to_ts == datetime(2022, 5, 9, 1, 21, tzinfo=UTC)

    def test_date_only_covers_whole_day(self):
        window = build_window(ScreenshotTimestamp(2022, 5, 7))
        assert window.from_ts == datetime(2022, 5, 5, 22, 0, tzinfo=UTC)
        assert window.to_ts == datetime(2022, 5, 9, 1, 59, 59, tzinfo=UTC)

    def test_custom_width(self):
        window = build_window(PAM_TS, hours=1)
        assert window.to_ts - window.from_ts == timedelta(hours=2)

    @given(
        st.datetimes(
            min_value=datetime(2011, 1, 1), max_value=datetime(2024, 12, 31)
        ),
        st.booleans(),
    )
    def test_from_string_always_14_digits(self, moment, has_time):
        ts = ScreenshotTimestamp(
            moment.year, moment.month, moment.day,
            moment.hour if has_time else 0, moment.minute if has_time else 0,
            has_time,
        )
        window = build_window(ts)
        rendered = window.from_cdx14
        assert len(rendered) == 14 and rendered.isdigit()
        assert rendered == window.from_ts.strftime("%Y%m%d%H%M%S")
        assert window.from_ts < window.to_ts


class TestBuildQuery:
    def test_narrowed_query_verbatim(self):
        query = build_cdx_query(PAM_HANDLE, pam_window(), pam_filter())
        assert query == (
            "http://web.archive.org/cdx/search/cdx"
            "?url=https://twitter.com/PamKeithFL/status/152[2-3]"
            "&from=20220506212100&matchType=prefix"
        )

    def test_unnarrowed_query_verbatim(self):
        query = build_cdx_query(PAM_HANDLE, pam_window(), None)
        assert query == (
            "http://web.archive.org/cdx/search/cdx"
            "?url=https://twitter.com/PamKeithFL/status"
            "&from=20220506212100&matchType=prefix"
        )

    def test_incomplete_handle_rejected(self):
        with pytest.raises(IncompleteHandleError):
            build_cdx_query(ExtractedHandle("DrSJaish", False, 0), pam_window(), None)


class TestParse:
    def test_well_formed_line(self):
        line = cdx_line("PamKeithFL", 1523141006509502470, "20220509011257")
        records, warnings = parse_cdx_response(line)
        assert warnings == []
        assert len(records) == 1
        assert records[0].timestamp14 == "20220509011257"
        assert records[0].original_url == (
            "https://twitter.com/PamKeithFL/status/1523141006509502470"
        )

    def test_empty_body(self):
        assert parse_cdx_response("") == ([], [])

    def test_six_field_line_warns(self):
        records, warnings = parse_cdx_response("a 20220509011257 u text/html 200 DIGEST")
        assert records == []
        assert len(warnings) == 1

    def test_bad_timestamp_warns(self):
        records, warnings = parse_cdx_response("a 2022 u text/html 200 DIGEST 1")
        assert records == []
        assert len(warnings) == 1

    def test_blank_lines_skipped(self):
        line = cdx_line("x", 1523141006509502470, "20220509011257")
        records, warnings = parse_cdx_response(f"\n{line}\n\n")
        assert len(records) == 1 and warnings == []


def _strptime_or_none(value: str) -> datetime | None:
    try:
        return datetime.strptime(value, "%Y%m%d%H%M%S").replace(tzinfo=UTC)
    except ValueError:
        return None


class TestParseTimestamp14:
    @given(st.text(alphabet="0123456789２٣ ", min_size=14, max_size=14))
    def test_matches_strptime_on_ascii_digits(self, value):
        # strptime reads Unicode digits and space-padded days; CDX
        # timestamps are ASCII digits only, so anything else is rejected.
        expected = _strptime_or_none(value) if value.isascii() and value.isdigit() else None
        assert _parse_timestamp14(value) == expected

    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)))
    def test_round_trips_every_valid_moment(self, moment):
        value = f"{moment:%Y%m%d%H%M%S}".rjust(14, "0")
        assert _parse_timestamp14(value) == moment.replace(microsecond=0, tzinfo=UTC)

    @pytest.mark.parametrize("value", [
        "２０２２0509011257",  # fullwidth year: strptime accepts it
        "202205 9011257",  # space-padded day: strptime accepts it
        "20220230000000",  # February 30th
        "20220509011260",  # second 60
        "00000509011257",  # year 0
        "2022050901125",
        "202205090112570",
        "+2022050901125",
    ])
    def test_rejects(self, value):
        assert _parse_timestamp14(value) is None

    def test_bad_timestamp_in_row_warns(self):
        records, warnings = parse_cdx_response("a ２０２２0509011257 u text/html 200 D 1")
        assert records == []
        assert warnings == ["cdx line 1: bad capture timestamp '２０２２0509011257'"]

    def test_record_carries_parsed_timestamp(self):
        records, _ = parse_cdx_response(cdx_line("p", 1523141006509502470, "20220509011257"))
        assert records[0].archived_at == datetime(2022, 5, 9, 1, 12, 57, tzinfo=UTC)

    def test_record_rejects_bad_timestamp(self):
        with pytest.raises(ValueError):
            CdxRecord("k", "20221301000000", "u", "text/html", "200", "D", "1")


class TestDedup:
    def test_keeps_earliest_at_or_after_window_start(self):
        lines = [
            cdx_line("p", 1523140247739117574, "20220509011257"),
            cdx_line("p", 1523140247739117574, "20220508031859"),
        ]
        records, _ = parse_cdx_response("\n".join(lines))
        kept = dedup_candidates(records, from_ts14="20220506212100")
        assert [r.timestamp14 for r in kept] == ["20220508031859"]

    def test_pre_window_capture_used_only_as_fallback(self):
        lines = [
            cdx_line("p", 1523140247739117574, "20220401000000"),
            cdx_line("p", 1523140247739117574, "20220508031859"),
        ]
        records, _ = parse_cdx_response("\n".join(lines))
        kept = dedup_candidates(records, from_ts14="20220506212100")
        assert [r.timestamp14 for r in kept] == ["20220508031859"]
        only_old = dedup_candidates(records[:1], from_ts14="20220506212100")
        assert [r.timestamp14 for r in only_old] == ["20220401000000"]

    def test_distinct_urls_all_kept_sorted(self):
        ids = [1523140142177058816, 1523140247739117574, 1523140577818296321,
               1523140760107122689, 1523141006509502470]
        lines = [cdx_line("p", i, "20220508031859") for i in ids]
        records, _ = parse_cdx_response("\n".join(lines))
        kept = dedup_candidates(records)
        assert len(kept) == 5
        assert [r.original_url for r in kept] == sorted(r.original_url for r in kept)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["20220507", "20220509", "20220601"])),
            max_size=12,
        )
    )
    def test_idempotent(self, raw):
        records = [
            CdxRecord(
                urlkey=f"com,twitter)/p/status/{n}",
                timestamp14=f"{day}000000",
                original_url=f"https://twitter.com/p/status/{n}",
                mimetype="text/html",
                statuscode="200",
                digest="D",
                length="1",
            )
            for n, day in raw
        ]
        once = dedup_candidates(records, from_ts14="20220508000000")
        twice = dedup_candidates(once, from_ts14="20220508000000")
        assert once == twice


class TestFilterByWindow:
    def test_in_window_candidate_kept(self):
        line = cdx_line("PamKeithFL", 1523141006509502470, "20220509011257")
        records, _ = parse_cdx_response(line)
        candidates, warnings = filter_by_window(records, pam_window())
        assert warnings == []
        assert len(candidates) == 1
        assert candidates[0].replay_url == (
            "https://web.archive.org/web/20220509011257/"
            "https://twitter.com/PamKeithFL/status/1523141006509502470"
        )
        assert candidates[0].tweet_id == 1523141006509502470

    def test_out_of_window_dropped(self):
        # decodes to 2022-05-09T12:00, ~10.5h past the window edge
        line = cdx_line("PamKeithFL", 1523633882526646272, "20220510120000")
        records, _ = parse_cdx_response(line)
        candidates, warnings = filter_by_window(records, pam_window())
        assert candidates == [] and warnings == []

    def test_unparseable_id_warns(self):
        line = cdx_line("PamKeithFL", "photo", "20220508000000")
        records, _ = parse_cdx_response(line)
        candidates, warnings = filter_by_window(records, pam_window())
        assert candidates == []
        assert len(warnings) == 1

    def test_pre_snowflake_id_warns(self):
        line = cdx_line("PamKeithFL", 20, "20220508000000")
        records, _ = parse_cdx_response(line)
        candidates, warnings = filter_by_window(records, pam_window())
        assert candidates == []
        assert len(warnings) == 1

    def test_survivors_subset_of_dedup_and_inside_window(self):
        ids = [1523140142177058816, 1523141006509502470, 1523633882526646272]
        lines = [cdx_line("p", i, "20220509011257") for i in ids]
        records, _ = parse_cdx_response("\n".join(lines))
        deduped = dedup_candidates(records, from_ts14="20220506212100")
        candidates, _ = filter_by_window(deduped, pam_window())
        deduped_urls = {r.original_url for r in deduped}
        window = pam_window()
        for candidate in candidates:
            assert any(candidate.replay_url.endswith(url) for url in deduped_urls)
            assert window.from_ts <= id_to_time(candidate.tweet_id) <= window.to_ts


class TestFetchCdx:
    QUERY = "http://web.archive.org/cdx/search/cdx?url=x&from=1&matchType=prefix"

    def test_returns_body_on_200(self):
        transport = StubTransport().add(self.QUERY, body="row1\nrow2")
        assert fetch_cdx(self.QUERY, transport) == "row1\nrow2"

    def test_http_error(self):
        transport = StubTransport().add(self.QUERY, body="oops", status=503)
        with pytest.raises(HttpStatusError) as excinfo:
            fetch_cdx(self.QUERY, transport)
        assert excinfo.value.status == 503

    def test_rate_limited(self):
        transport = StubTransport().add(
            self.QUERY, body="slow down", status=429, headers={"Retry-After": "30"}
        )
        with pytest.raises(RateLimitedError) as excinfo:
            fetch_cdx(self.QUERY, transport)
        assert excinfo.value.retry_after == 30.0

    def test_rate_limited_with_http_date(self):
        transport = StubTransport().add(
            self.QUERY, body="slow down", status=429,
            headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"},
        )
        with pytest.raises(RateLimitedError) as excinfo:
            fetch_cdx(self.QUERY, transport)
        assert excinfo.value.retry_after == 0

    def test_network_error_propagates(self):
        transport = StubTransport().add_error(self.QUERY, NetworkError("boom"))
        with pytest.raises(NetworkError):
            fetch_cdx(self.QUERY, transport)
