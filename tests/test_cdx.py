from __future__ import annotations

import random
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import StubTransport, cdx_line, collapse_by_urlkey
from tweetback.cdx import (
    ArchiveWindow,
    CandidateRef,
    CdxRecord,
    build_cdx_query,
    build_window,
    dedup_candidates,
    fetch_cdx,
    filter_by_window,
    parse_cdx_response,
)
from tweetback.cdx import _parse_timestamp14
from tweetback.extraction import ExtractedHandle, ScreenshotTimestamp
from tweetback.snowflake import (
    TimeBeforeEpochError,
    common_prefix_filter,
    id_to_time,
    is_snowflake_id,
)
from tweetback.transport import HttpStatusError, NetworkError

UTC = timezone.utc

PAM_TS = ScreenshotTimestamp(2022, 5, 7, 23, 21, True, source_line_index=4)
PAM_HANDLE = ExtractedHandle("PamKeithFL", True, 1)


# Tweet IDs reach 10**18, their 19th digit, on 2018-05-25 at 13:05:53 UTC,
# so a window around then has no common ID prefix.
BOUNDARY_TS = ScreenshotTimestamp(2018, 5, 25, 13, 5, True)


def pam_window() -> ArchiveWindow:
    return build_window(PAM_TS)


class TestBuildWindow:
    def test_paper_from_string(self):
        assert pam_window().from_cdx14 == "20220506212100"

    def test_right_edge(self):
        assert pam_window().to_ts == datetime(2022, 5, 9, 1, 21, tzinfo=UTC)

    def test_date_only_covers_whole_day(self):
        window = build_window(ScreenshotTimestamp(2022, 5, 7))
        assert window.from_ts == datetime(2022, 5, 5, 22, 0, tzinfo=UTC)
        assert window.to_ts == datetime(2022, 5, 9, 1, 59, 59, tzinfo=UTC)

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

    @given(
        st.one_of(
            # Windows around the Snowflake epoch (2010-11-04T01:42:54.657Z):
            # before it, straddling it, and just after it.
            st.datetimes(min_value=datetime(2010, 11, 1), max_value=datetime(2010, 11, 7)),
            # ScreenshotTimestamp refuses a year after the current one.
            st.datetimes(min_value=datetime(2010, 11, 1),
                         max_value=datetime(datetime.now(UTC).year, 12, 31, 23, 59)),
        ),
        st.booleans(),
        st.integers(min_value=1 << 22, max_value=(1 << 63) - 1),
    )
    def test_id_range_is_the_window(self, moment, has_time, anywhere):
        ts = ScreenshotTimestamp(
            moment.year, moment.month, moment.day,
            moment.hour if has_time else 0, moment.minute if has_time else 0,
            has_time,
        )
        try:
            window = build_window(ts)
        except TimeBeforeEpochError:
            return
        edges = [edge + step for edge in (window.low_id, window.high_id)
                 for step in (-(1 << 22), -1, 0, 1, 1 << 22)]
        for tweet_id in [*edges, anywhere]:
            if not is_snowflake_id(tweet_id):
                continue
            in_range = window.low_id <= tweet_id <= window.high_id
            assert in_range == (window.from_ts <= id_to_time(tweet_id) <= window.to_ts)

    def test_window_owns_its_id_prefix(self):
        window = pam_window()
        assert window.id_filter == common_prefix_filter(window.low_id, window.high_id)
        assert window.id_filter == "152[2-3]"
        assert re.match(window.id_filter, str(window.low_id))
        assert re.match(window.id_filter, str(window.high_id))

    def test_no_id_prefix_across_a_decimal_length_boundary(self):
        window = build_window(BOUNDARY_TS)
        assert len(str(window.low_id)) == 18 and len(str(window.high_id)) == 19
        assert window.id_filter is None


class TestBuildQuery:
    def test_narrowed_query_verbatim(self):
        query = build_cdx_query(PAM_HANDLE, pam_window())
        assert query == (
            "https://web.archive.org/cdx/search/cdx"
            "?url=https://twitter.com/PamKeithFL/status/152[2-3]"
            "&from=20220506212100&matchType=prefix&collapse=urlkey"
        )

    def test_unnarrowed_query_verbatim(self):
        query = build_cdx_query(PAM_HANDLE, build_window(BOUNDARY_TS))
        assert query == (
            "https://web.archive.org/cdx/search/cdx"
            "?url=https://twitter.com/PamKeithFL/status"
            "&from=20180524110500&matchType=prefix&collapse=urlkey"
        )


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

    @given(st.one_of(
        st.text(),
        st.lists(
            st.sampled_from([" ", "\n", "\r", "\x0b", "\u2028", "com,twitter)/p/status/1",
                             "20220509011257", "２０２２0509011257", "99999999999999",
                             "https://twitter.com/p/status/1", "text/html", "200", "-", ""]),
            max_size=20,
        ).map(" ".join),
    ))
    def test_never_raises(self, body):
        records, warnings = parse_cdx_response(body)
        assert len(records) + len(warnings) <= len(body.splitlines())

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
            CdxRecord("20221301000000", "u")


class TestCandidateRef:
    def test_urls_and_capture_time_derive_from_the_row(self):
        ref = CandidateRef(
            "20220509011257",
            "https://twitter.com/PamKeithFL/status/1523141006509502470",
            1523141006509502470,
        )
        assert ref.replay_url == (
            "https://web.archive.org/web/20220509011257/"
            "https://twitter.com/PamKeithFL/status/1523141006509502470"
        )
        assert ref.raw_replay_url == (
            "https://web.archive.org/web/20220509011257id_/"
            "https://twitter.com/PamKeithFL/status/1523141006509502470"
        )
        assert ref.archived_at.isoformat() == "2022-05-09T01:12:57+00:00"

    def test_rejects_bad_timestamp(self):
        with pytest.raises(ValueError, match="^bad capture timestamp '20221301000000'$"):
            CandidateRef("20221301000000", "https://twitter.com/x/status/4194304", 4194304)


class TestDedup:
    def test_keeps_earliest_at_or_after_window_start(self):
        lines = [
            cdx_line("p", 1523140247739117574, "20220509011257"),
            cdx_line("p", 1523140247739117574, "20220508031859"),
        ]
        records, _ = parse_cdx_response("\n".join(lines))
        kept = dedup_candidates(records)
        assert [r.timestamp14 for r in kept] == ["20220508031859"]

    def test_keeps_earliest_capture_of_each_url(self):
        captures = {
            1523140142177058816: ["20220509011257", "20220507000000", "20220508183923"],
            1523141006509502470: ["20220508031859", "20220510000000"],
            1523140577818296321: ["20220512000000"],
        }
        lines = [cdx_line("p", i, ts) for i, stamps in captures.items() for ts in stamps]
        random.Random(3).shuffle(lines)
        records, _ = parse_cdx_response("\n".join(lines))
        kept = dedup_candidates(records)
        assert {r.original_url: r.timestamp14 for r in kept} == {
            f"https://twitter.com/p/status/{i}": min(stamps) for i, stamps in captures.items()
        }

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
            CdxRecord(timestamp14=f"{day}000000", original_url=f"https://twitter.com/p/status/{n}")
            for n, day in raw
        ]
        once = dedup_candidates(records)
        twice = dedup_candidates(once)
        assert once == twice


def _sorted_rows(lines: list[str]) -> list[str]:
    """Rows in the CDX server's order: by urlkey, then timestamp."""
    return sorted(lines, key=lambda line: line.split(" ")[:2])


class TestServerCollapse:
    def test_query_asks_for_one_row_per_urlkey(self):
        for window in (pam_window(), build_window(BOUNDARY_TS)):
            query = build_cdx_query(PAM_HANDLE, window)
            assert query.endswith("&matchType=prefix&collapse=urlkey")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["alice", "Bob", "carol_D"]),
                st.sampled_from([1523140142177058816, 1523141006509502470, 1523633882526646272]),
                # all at or after the PAM window's from= (20220506212100)
                st.sampled_from(["20220506212100", "20220508031859", "20220509011257",
                                 "20220601000000"]),
            ),
            max_size=15,
        )
    )
    def test_collapsed_rows_give_the_same_candidates(self, raw):
        # One original URL per urlkey, as the archive records each tweet.
        lines = _sorted_rows([cdx_line(handle, tid, ts) for handle, tid, ts in raw])
        records, _ = parse_cdx_response("\n".join(lines))
        collapsed, _ = parse_cdx_response("\n".join(collapse_by_urlkey(lines)))
        assert dedup_candidates(collapsed) == dedup_candidates(records)

    def test_scheme_and_case_variants_merge_into_one_candidate(self):
        tid = 1523141006509502470
        lines = _sorted_rows([
            cdx_line("PamKeithFL", tid, "20220509011257"),
            cdx_line("PamKeithFL", tid, "20220508120000", scheme="http"),
            cdx_line("pamkeithfl", tid, "20220508093000"),
            cdx_line("pamkeithfl", tid, "20220510000000", scheme="http"),
        ])
        assert len({line.split(" ")[0] for line in lines}) == 1
        uncollapsed, _ = parse_cdx_response("\n".join(lines))
        assert len(dedup_candidates(uncollapsed)) == 4
        records, _ = parse_cdx_response("\n".join(collapse_by_urlkey(lines)))
        candidates, warnings = filter_by_window(dedup_candidates(records), pam_window())
        assert warnings == []
        assert [(c.tweet_id, c.replay_url) for c in candidates] == [(
            tid,
            "https://web.archive.org/web/20220508093000/"
            "https://twitter.com/pamkeithfl/status/1523141006509502470",
        )]


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

    def test_non_ascii_digit_id_warns(self):
        # int() reads these Arabic-Indic digits as 1523141006509502470, an
        # in-window ID, but the replay URL would not name that status.
        arabic_indic = "1523141006509502470".translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        line = cdx_line("PamKeithFL", arabic_indic, "20220509011257")
        records, warnings = parse_cdx_response(line)
        assert len(records) == 1 and warnings == []
        candidates, warnings = filter_by_window(records, pam_window())
        assert candidates == []
        url = f"https://twitter.com/PamKeithFL/status/{arabic_indic}"
        assert warnings == [f"no tweet ID in {url}"]

    def test_pre_snowflake_id_warns(self):
        line = cdx_line("PamKeithFL", 20, "20220508000000")
        records, _ = parse_cdx_response(line)
        candidates, warnings = filter_by_window(records, pam_window())
        assert candidates == []
        assert len(warnings) == 1

    @pytest.mark.parametrize("tweet_id", [1 << 63, 10**33])
    def test_id_past_64_bits_warns(self, tweet_id):
        line = cdx_line("PamKeithFL", tweet_id, "20220508000000")
        records, _ = parse_cdx_response(line)
        candidates, warnings = filter_by_window(records, pam_window())
        assert candidates == []
        url = f"https://twitter.com/PamKeithFL/status/{tweet_id}"
        assert warnings == [f"not a Snowflake tweet ID in {url}"]

    def test_survivors_subset_of_dedup_and_inside_window(self):
        ids = [1523140142177058816, 1523141006509502470, 1523633882526646272]
        lines = [cdx_line("p", i, "20220509011257") for i in ids]
        records, _ = parse_cdx_response("\n".join(lines))
        deduped = dedup_candidates(records)
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

    def test_429_from_non_live_transport_is_http_error(self):
        # Only LiveTransport raises RateLimitedError; a recorded 429 is a status.
        transport = StubTransport().add(
            self.QUERY, body="slow down", status=429, headers={"Retry-After": "30"}
        )
        with pytest.raises(HttpStatusError) as excinfo:
            fetch_cdx(self.QUERY, transport)
        assert excinfo.value.status == 429

    def test_network_error_propagates(self):
        transport = StubTransport().add_error(self.QUERY, NetworkError("boom"))
        with pytest.raises(NetworkError):
            fetch_cdx(self.QUERY, transport)
