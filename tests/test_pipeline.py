from __future__ import annotations

import concurrent.futures
import json
import re
import time
from datetime import date, datetime, timezone
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MALFORMED_SECTION_PAGE,
    PacedStubTransport,
    StubTransport,
    cdx_line,
    deep_json_ld_html,
    fresh_interpreter,
    jsonld_tweet_html,
    legacy_tweet_html,
    meta_tweet_html,
    raw_replay_url,
    replay_url,
)
import tweetback.transport
from tweetback.cdx import build_cdx_query, build_window, dedup_candidates, filter_by_window, parse_cdx_response
from tweetback.extraction import ExtractedHandle, ScreenshotTimestamp
from tweetback.matching import VerdictKind
from tweetback.ocr import OcrDocument, load_text_document
from tweetback.pipeline import (
    ConfigError,
    PipelineConfig,
    TransportMode,
    VerdictReport,
    run_pipeline,
)
from tweetback.snowflake import TimeBeforeEpochError, time_to_id_bounds
from tweetback.transport import (
    FixtureTransport,
    HttpResponse,
    LiveTransport,
    NetworkError,
    RecordingTransport,
)

PAM_EVIDENCE_URL = (
    "https://web.archive.org/web/20220509011257/"
    "https://twitter.com/PamKeithFL/status/1523141006509502470"
)


def fixture_config(path, **kwargs) -> PipelineConfig:
    return PipelineConfig(transport_mode=TransportMode.fixture(path), **kwargs)


class TestPamScenario:
    @pytest.fixture
    def report(self, pam_ocr_path, pam_fixtures_dir) -> VerdictReport:
        doc = load_text_document(pam_ocr_path)
        return run_pipeline(doc, fixture_config(pam_fixtures_dir))

    def test_verdict_archived_with_paper_evidence_url(self, report):
        assert report.verdict.kind is VerdictKind.ARCHIVED
        assert report.verdict.evidence.candidate.ref.replay_url == PAM_EVIDENCE_URL
        assert report.verdict.evidence.score == 1.0

    def test_funnel_counts(self, report):
        assert report.cdx_rows == 7
        assert report.deduped == 6
        assert report.in_window == 5
        assert report.replayed_ok == 4
        assert report.replay_failures == 1
        assert report.in_window <= report.deduped <= report.cdx_rows

    def test_query_recorded_in_report(self, report):
        assert "/status/152[2-3]&from=20220506212100&matchType=prefix" in report.cdx_query

    def test_extraction_fields(self, report):
        assert report.fields.handle.handle == "PamKeithFL"
        assert report.fields.timestamp.as_datetime().isoformat() == "2022-05-07T23:21:00+00:00"
        assert report.fields.text_is_fallback is False

    def test_top_scores_sorted_and_bounded(self, report):
        scores = [m.score for m in report.top_scores]
        assert scores == sorted(scores, reverse=True)
        assert len(report.top_scores) <= 5
        assert report.top_scores[0].candidate.ref.replay_url == PAM_EVIDENCE_URL

    def test_report_json_has_contract_keys(self, report):
        payload = json.loads(report.to_json())
        for key in ("schema_version", "source_id", "extraction", "window",
                    "cdx_query", "counts", "verdict", "top_scores", "warnings"):
            assert key in payload
        assert payload["verdict"]["kind"] == "archived"
        assert payload["counts"]["cdx_rows"] == 7

    def test_determinism_modulo_timestamp(self, pam_ocr_path, pam_fixtures_dir):
        doc = load_text_document(pam_ocr_path)
        first = json.loads(run_pipeline(doc, fixture_config(pam_fixtures_dir)).to_json())
        second = json.loads(run_pipeline(doc, fixture_config(pam_fixtures_dir)).to_json())
        first.pop("generated_at")
        second.pop("generated_at")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestNarrowingSoundness:
    def test_same_survivors_with_and_without_filter(self, pam_fixtures_dir):
        ts = ScreenshotTimestamp(2022, 5, 7, 23, 21, True, 4)
        handle = ExtractedHandle("PamKeithFL", True, 1)
        window = build_window(ts)
        transport = FixtureTransport(pam_fixtures_dir)

        narrowed = build_cdx_query(handle, window)
        unnarrowed = narrowed.replace(f"/status/{window.id_filter}&", "/status&")
        assert unnarrowed != narrowed

        survivors = {}
        for query in (narrowed, unnarrowed):
            records, _ = parse_cdx_response(transport.get(query).body)
            deduped = dedup_candidates(records)
            refs, _ = filter_by_window(deduped, window)
            survivors[query] = {r.tweet_id for r in refs}
        assert survivors[narrowed] == survivors[unnarrowed]
        assert len(survivors[narrowed]) == 5
        assert all(re.match(window.id_filter, str(tid)) for tid in survivors[narrowed])

    def test_id_length_boundary_queries_without_prefix(self):
        # Tweet IDs reach 10**18, their 19th digit, on 2018-05-25.
        doc = OcrDocument("x", ("@someone", "hello world", "1:05 PM 2018-05-25"))
        transport = StubTransport(fallback=HttpResponse(status=200, body=""))
        report = run_pipeline(doc, PipelineConfig(), transport=transport)
        assert report.window.id_filter is None
        assert transport.get_log == [report.cdx_query]
        assert "?url=https://twitter.com/someone/status&from=" in report.cdx_query
        assert "ID bounds differ in decimal length; querying without narrowing" in report.warnings


class TestShortCircuits:
    def test_no_handle(self):
        doc = OcrDocument("x", ("just text", "4:08 PM 2022-05-25"))
        report = run_pipeline(doc, fixture_config("/nonexistent"))
        assert report.verdict.kind is VerdictKind.NOT_FOUND
        assert "handle extraction failed" in report.warnings
        assert report.cdx_rows == 0

    def test_no_timestamp(self):
        doc = OcrDocument("x", ("@author", "words", "1d"))
        report = run_pipeline(doc, fixture_config("/nonexistent"))
        assert report.verdict.kind is VerdictKind.NOT_FOUND
        assert "timestamp extraction failed" in report.warnings

    def test_incomplete_handle(self):
        doc = OcrDocument("x", ("@DrSJaish...", "words", "4:08 PM 2022-05-25"))
        report = run_pipeline(doc, fixture_config("/nonexistent"))
        assert report.verdict.kind is VerdictKind.NOT_FOUND
        assert "incomplete handle" in report.warnings

    def test_short_circuit_issues_no_requests(self):
        transport = StubTransport()
        doc = OcrDocument("x", ("no anchors here",))
        run_pipeline(doc, PipelineConfig(), transport=transport)
        assert transport.get_log == []


class TestPreSnowflakeDates:
    """Screenshot dates run from 2006; tweet IDs encode time only from
    SNOWFLAKE_EPOCH (2010-11-04T01:42:54.657Z) on."""

    @staticmethod
    def _empty_archive() -> StubTransport:
        return StubTransport(fallback=HttpResponse(status=200, body=""))

    def test_window_before_epoch_short_circuits(self):
        doc = OcrDocument("x", ("@someone", "hello world", "4:08 PM 2009-05-25"))
        transport = self._empty_archive()
        report = run_pipeline(doc, PipelineConfig(), transport=transport)
        assert report.verdict.kind is VerdictKind.NOT_FOUND
        assert report.warnings == ["timestamp precedes Snowflake tweet IDs"]
        assert transport.get_log == []

    def test_window_straddling_epoch_queries_without_id_prefix(self):
        doc = OcrDocument("x", ("@someone", "hello world", "4:08 PM 2010-11-03"))
        transport = self._empty_archive()
        report = run_pipeline(doc, PipelineConfig(), transport=transport)
        assert report.verdict.kind is VerdictKind.NOT_FOUND
        assert transport.get_log == [report.cdx_query]
        assert "?url=https://twitter.com/someone/status&from=20101102140800&" in report.cdx_query
        assert "ID bounds differ in decimal length; querying without narrowing" in report.warnings

    @given(
        st.dates(min_value=date(2006, 1, 1), max_value=datetime.now(timezone.utc).date()),
        st.none() | st.tuples(st.integers(0, 23), st.integers(0, 59)),
    )
    def test_every_screenshot_date_finishes(self, day, time_of_day):
        line = day.isoformat()
        if time_of_day is not None:
            line = f"{time_of_day[0]:02d}:{time_of_day[1]:02d} {line}"
        doc = OcrDocument("x", ("@someone", "hello world", line))
        transport = self._empty_archive()
        report = run_pipeline(doc, PipelineConfig(), transport=transport)
        ts = report.fields.timestamp
        assert (ts.as_datetime().date(), ts.has_time_of_day) == (day, time_of_day is not None)
        assert report.verdict.kind is VerdictKind.NOT_FOUND
        try:
            build_window(ts)
        except TimeBeforeEpochError:
            assert transport.get_log == []
        else:
            assert transport.get_log == [report.cdx_query]


class TestVerdictsEndToEnd:
    DOC = OcrDocument(
        "shot-1",
        ("Some Person", "@some_person", "hello archive world", "4:08 PM 2022-05-25"),
    )

    def _transport_with(self, rows: list[str], replays: dict[str, tuple[int, str]],
                        transport_cls: type[StubTransport] = StubTransport):
        window = build_window(ScreenshotTimestamp(2022, 5, 25, 16, 8, True, 3))
        query = build_cdx_query(ExtractedHandle("some_person", True, 1), window)
        transport = transport_cls().add(query, body="\n".join(rows))
        for url, (status, body) in replays.items():
            transport.add(url, body=body, status=status)
        return transport

    def test_empty_cdx_yields_not_found(self):
        transport = self._transport_with([], {})
        report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
        assert report.verdict.kind is VerdictKind.NOT_FOUND
        assert report.cdx_rows == 0

    def test_all_replays_failing_yields_non_replayable(self):
        tweet_id = (time_to_id_bounds(
            ScreenshotTimestamp(2022, 5, 25, 16, 8, True, 3).as_datetime())[0]) | 42
        row = cdx_line("some_person", tweet_id, "20220526000000")
        url = raw_replay_url("some_person", tweet_id, "20220526000000")
        transport = self._transport_with([row], {url: (404, "gone")})
        report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
        assert report.verdict.kind is VerdictKind.NON_REPLAYABLE
        assert report.replay_failures == 1
        assert report.replayed_ok == 0

    def test_matching_candidate_yields_archived(self):
        tweet_id = (time_to_id_bounds(
            ScreenshotTimestamp(2022, 5, 25, 16, 8, True, 3).as_datetime())[0]) | 7
        row = cdx_line("some_person", tweet_id, "20220526000000")
        url = raw_replay_url("some_person", tweet_id, "20220526000000")
        transport = self._transport_with(
            [row], {url: (200, legacy_tweet_html("hello archive world"))}
        )
        report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
        assert report.verdict.kind is VerdictKind.ARCHIVED
        assert report.verdict.evidence.candidate.ref.tweet_id == tweet_id

    def test_over_deep_json_ld_page_yields_a_report(self):
        tweet_id = (time_to_id_bounds(
            ScreenshotTimestamp(2022, 5, 25, 16, 8, True, 3).as_datetime())[0]) | 9
        row = cdx_line("some_person", tweet_id, "20220526000000")
        url = raw_replay_url("some_person", tweet_id, "20220526000000")
        transport = self._transport_with([row], {url: (200, deep_json_ld_html(5000))})
        report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
        assert report.verdict.kind is VerdictKind.NON_REPLAYABLE
        assert [f.reason.value for f in report.verdict.failures] == ["no_tweet_text_found"]

    def test_malformed_marked_section_page_yields_a_report(self):
        tweet_id = (time_to_id_bounds(
            ScreenshotTimestamp(2022, 5, 25, 16, 8, True, 3).as_datetime())[0]) | 11
        row = cdx_line("some_person", tweet_id, "20220526000000")
        url = raw_replay_url("some_person", tweet_id, "20220526000000")
        transport = self._transport_with([row], {url: (200, MALFORMED_SECTION_PAGE)})
        report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
        assert (report.verdict.kind, report.replayed_ok) == (VerdictKind.NOT_FOUND, 1)

    def test_id_past_64_bits_is_a_warning(self):
        row = cdx_line("some_person", 10**33, "20220526000000")
        transport = self._transport_with([row], {})
        report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
        assert (report.verdict.kind, report.in_window) == (VerdictKind.NOT_FOUND, 0)
        assert report.warnings == [
            f"not a Snowflake tweet ID in https://twitter.com/some_person/status/{10**33}"
        ]
        assert transport.get_log == [report.cdx_query]

    def test_fetches_raw_replays_and_reports_plain_urls(self):
        base = time_to_id_bounds(
            ScreenshotTimestamp(2022, 5, 25, 16, 8, True, 3).as_datetime())[0]
        ok, gone = base | 7, base | 8
        stamp = "20220526000000"
        transport = self._transport_with(
            [cdx_line("some_person", ok, stamp), cdx_line("some_person", gone, stamp)],
            {raw_replay_url("some_person", ok, stamp): (200, legacy_tweet_html("hello archive world")),
             raw_replay_url("some_person", gone, stamp): (404, "gone")},
        )
        payload = json.loads(run_pipeline(self.DOC, PipelineConfig(), transport=transport).to_json())
        assert sorted(transport.get_log[1:]) == sorted(
            raw_replay_url("some_person", i, stamp) for i in (ok, gone)
        )
        assert payload["verdict"]["evidence"]["replay_url"] == replay_url("some_person", ok, stamp)
        assert [m["replay_url"] for m in payload["top_scores"]] == [
            replay_url("some_person", ok, stamp)
        ]
        assert payload["verdict"]["failures"] == [
            {"replay_url": replay_url("some_person", gone, stamp), "reason": "http_error"}
        ]

    @staticmethod
    def _ids(count: int) -> list[int]:
        base = time_to_id_bounds(
            ScreenshotTimestamp(2022, 5, 25, 16, 8, True, 3).as_datetime())[0]
        return [base | (7 + i) for i in range(count)]

    def _candidates_transport(self, count: int,
                              transport_cls: type[StubTransport] = StubTransport):
        ids = self._ids(count)
        return self._transport_with(
            [cdx_line("some_person", i, "20220526000000") for i in ids],
            {raw_replay_url("some_person", i, "20220526000000"):
                (200, legacy_tweet_html("hello archive world")) for i in ids},
            transport_cls,
        )

    def _run_with_candidates(self, count: int,
                             transport_cls: type[StubTransport] = StubTransport) -> VerdictReport:
        transport = self._candidates_transport(count, transport_cls)
        return run_pipeline(self.DOC, PipelineConfig(), transport=transport)

    def test_fewer_than_two_candidates_replay_inline(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _refuse_pool)
        report = self._run_with_candidates(0, PacedStubTransport)
        assert (report.in_window, report.verdict.kind) == (0, VerdictKind.NOT_FOUND)
        report = self._run_with_candidates(1, PacedStubTransport)
        assert (report.in_window, report.verdict.kind) == (1, VerdictKind.ARCHIVED)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_unpaced_transport_replays_inline(self, monkeypatch, count):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _refuse_pool)
        transport = self._candidates_transport(count)
        report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
        assert (report.in_window, report.replayed_ok) == (count, count)
        assert transport.get_log[1:] == [
            raw_replay_url("some_person", i, "20220526000000") for i in self._ids(count)
        ]

    def test_two_candidates_replay_in_the_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _refuse_pool)
        with pytest.raises(_PoolUsed):
            self._run_with_candidates(2, PacedStubTransport)

    def test_fixture_replays_run_inline(self, monkeypatch, pam_ocr_path, pam_fixtures_dir):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _refuse_pool)
        report = run_pipeline(load_text_document(pam_ocr_path), fixture_config(pam_fixtures_dir))
        assert (report.in_window, report.verdict.kind) == (5, VerdictKind.ARCHIVED)

    def test_live_replays_overlap_behind_pacing(self, monkeypatch):
        pytest.importorskip("requests")
        min_interval = 0.1
        monkeypatch.setattr(tweetback.transport, "MIN_INTERVAL_S", min_interval)
        pools: list[dict] = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted_pool)
        web = self._candidates_transport(3)
        live = LiveTransport()
        starts: list[float] = []

        def fake_request(method, url, **kwargs):
            starts.append(time.monotonic())
            response = web.get(url)
            return SimpleNamespace(
                status_code=response.status, text=response.body, headers=response.headers)

        monkeypatch.setattr(live._session, "request", fake_request)
        report = run_pipeline(self.DOC, PipelineConfig(), transport=live)
        assert (report.in_window, report.replayed_ok) == (3, 3)
        assert pools == [{"max_workers": 2}]
        starts.sort()
        # A late wake-up can only delay a start past its slot, so allow a
        # little jitter below the interval and none above it.
        assert len(starts) == 4
        assert all(b - a >= 0.9 * min_interval for a, b in zip(starts, starts[1:]))

    def test_start_up_and_offline_runs_load_no_pool_or_evaluator(
        self, pam_ocr_path, pam_fixtures_dir
    ):
        web = self._candidates_transport(2)
        pages = {url: [response.status, response.body] for url, response in web._get.items()}
        code = """
import contextlib, io, json, sys
bare = set(sys.modules)
import tweetback.cli
from tweetback.ocr import OcrDocument
from tweetback.pipeline import PipelineConfig, run_pipeline
from tweetback.transport import HttpResponse, HttpTransport

class Stub(HttpTransport):
    def __init__(self, pages):
        self.pages = pages

    def get(self, url):
        status, body = self.pages[url]
        return HttpResponse(status=status, body=body)

def loaded():
    watched = ("concurrent.futures", "tweetback.evaluation", "csv", "email.utils",
               "html.parser", "_markupbase")
    return [m for m in watched if m in sys.modules and m not in bare]

seen = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    code = tweetback.cli.main(["verify", "--ocr-text", sys.argv[1], "--fixtures", sys.argv[2]])
seen["verify"] = [code, loaded()]
doc = OcrDocument(sys.argv[3], tuple(json.loads(sys.argv[4])))
report = run_pipeline(doc, PipelineConfig(), transport=Stub(json.loads(sys.argv[5])))
seen["run_pipeline"] = [report.replayed_ok, loaded()]
print(json.dumps(seen))
"""
        seen = json.loads(fresh_interpreter(
            code, str(pam_ocr_path), str(pam_fixtures_dir), self.DOC.source_id,
            json.dumps(list(self.DOC.lines)), json.dumps(pages)))
        assert seen == {"import": [], "verify": [0, []], "run_pipeline": [2, []]}

    _REPLAYS = st.lists(
        st.tuples(
            st.sampled_from(["legacy", "meta", "json_ld", "no_text", "text", "404",
                             "redirects", "network_error"]),
            st.one_of(st.just("hello archive world"), st.text(max_size=80)),
            st.integers(min_value=1, max_value=7),
        ),
        max_size=6,
    )

    @given(replays=_REPLAYS)
    @settings(max_examples=60, deadline=None)
    def test_paced_and_unpaced_transports_give_one_report(self, replays):
        """Any mix of replay outcomes gives the same report whether the
        replays run inline or through the pool."""
        ids = self._ids(len(replays))
        reports = []
        for transport_cls in (StubTransport, PacedStubTransport):
            transport = self._transport_with(
                [cdx_line("some_person", i, "20220526000000") for i in ids], {}, transport_cls)
            for row, (tweet_id, (kind, text, hops)) in enumerate(zip(ids, replays)):
                url = raw_replay_url("some_person", tweet_id, "20220526000000")
                _serve_replay(transport, url, row, kind, text, hops)
            report = run_pipeline(self.DOC, PipelineConfig(), transport=transport)
            assert report.in_window == len(replays)
            payload = report.to_dict()
            del payload["generated_at"]
            reports.append(payload)
        assert reports[0] == reports[1]


def _serve_replay(transport: StubTransport, url: str, row: int, kind: str, text: str,
                  hops: int) -> None:
    """Register one candidate's replay of the given kind under ``url``."""
    pages = {"legacy": legacy_tweet_html, "meta": meta_tweet_html, "json_ld": jsonld_tweet_html}
    if kind in pages:
        transport.add(url, body=pages[kind](text))
    elif kind == "no_text":
        transport.add(url, body="<html><body><p>nothing to see</p></body></html>")
    elif kind == "text":
        transport.add(url, body=text)
    elif kind == "404":
        transport.add(url, body="gone", status=404)
    elif kind == "network_error":
        transport.add_error(url, NetworkError(f"connection reset on row {row}"))
    else:
        # a chain of ``hops`` redirects within the archive; past
        # MAX_REDIRECT_HOPS it is a redirect loop
        for hop in range(hops):
            target = f"/web/{row}-{hop + 1}/https://twitter.com/some_person"
            transport.add(url, status=302, headers={"Location": target})
            url = f"https://web.archive.org{target}"
        transport.add(url, body=legacy_tweet_html(text))


class _PoolUsed(Exception):
    pass


def _refuse_pool(*args, **kwargs):
    raise _PoolUsed


class TestRecordMode:
    def test_record_then_replay_reproduces_verdict(self, tmp_path, pam_ocr_path, pam_fixtures_dir):
        doc = load_text_document(pam_ocr_path)
        # stand-in for the live web: replay the committed fixtures
        stub_live = FixtureTransport(pam_fixtures_dir)
        record_dir = tmp_path / "recorded"
        recorder = RecordingTransport(record_dir, inner=stub_live)
        live_report = run_pipeline(doc, PipelineConfig(), transport=recorder)

        fixture_report = run_pipeline(doc, fixture_config(record_dir))
        assert fixture_report.verdict.kind is live_report.verdict.kind
        assert (
            fixture_report.verdict.evidence.candidate.ref.replay_url
            == live_report.verdict.evidence.candidate.ref.replay_url
        )

    def test_record_mode_is_idempotent(self, tmp_path, pam_ocr_path, pam_fixtures_dir):
        doc = load_text_document(pam_ocr_path)
        stub_live = FixtureTransport(pam_fixtures_dir)
        record_dir = tmp_path / "recorded"
        for _ in range(2):
            recorder = RecordingTransport(record_dir, inner=stub_live)
            run_pipeline(doc, PipelineConfig(), transport=recorder)
        report = run_pipeline(doc, fixture_config(record_dir))
        assert report.verdict.kind is VerdictKind.ARCHIVED


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0},
        {"threshold": 1.5},
        {"top_scores": -1},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            run_pipeline(OcrDocument("x", ()), PipelineConfig(**kwargs))

    def test_fixture_mode_requires_path(self):
        config = PipelineConfig(transport_mode=TransportMode(kind="fixture"))
        with pytest.raises(ConfigError):
            run_pipeline(OcrDocument("x", ()), config)


class TestReportInvariants:
    def test_count_consistency_enforced(self):
        doc = OcrDocument("x", ())
        report = run_pipeline(doc, fixture_config("/nonexistent"))
        with pytest.raises(ValueError):
            VerdictReport(
                source_id="x",
                fields=report.fields,
                verdict=report.verdict,
                cdx_rows=5,
                deduped=2,
                replay_methods={"tweet_text_element": 3},
            )
