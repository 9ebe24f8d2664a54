from __future__ import annotations

import json
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import PacedStubTransport, StubTransport, fresh_interpreter
import tweetback
from tweetback.transport import (
    FixtureMissingError,
    FixtureTransport,
    HttpResponse,
    HttpTransport,
    LiveTransport,
    RateLimitedError,
    RecordingTransport,
    fixture_key,
)
from tweetback.transport import _parse_retry_after


class TestHeaderLookup:
    def test_name_matched_case_insensitively(self):
        response = HttpResponse(status=429, body="", headers={"retry-after": "30"})
        assert response.header("Retry-After") == "30"
        assert response.header("RETRY-AFTER") == "30"
        assert response.header("Location") is None
        assert response.headers == {"retry-after": "30"}


def _record(directory: Path, url: str, body: str = "", status: int = 200,
            headers: dict[str, str] | None = None) -> None:
    """Record one canned response under ``directory``."""
    inner = StubTransport().add(url, body=body, status=status, headers=headers)
    RecordingTransport(directory, inner=inner).get(url)


class TestFixtureRoundTrip:
    def test_write_then_read(self, tmp_path):
        url = "http://web.archive.org/cdx/search/cdx?url=x&from=1&matchType=prefix"
        _record(tmp_path, url, body="row one\nrow two")
        transport = FixtureTransport(tmp_path)
        response = transport.get(url)
        assert response.status == 200
        assert response.body == "row one\nrow two"

    def test_status_and_headers_preserved(self, tmp_path):
        url = "https://web.archive.org/web/2022/https://twitter.com/a/status/1"
        location = "https://web.archive.org/web/2023/x"
        _record(tmp_path, url, status=302, headers={
            "Location": location, "Content-Type": "text/html", "Set-Cookie": "a=b",
        })
        response = FixtureTransport(tmp_path).get(url)
        assert response.status == 302
        assert response.body == ""
        assert response.headers == {"Location": location}

    def test_missing_fixture_raises(self, tmp_path):
        with pytest.raises(FixtureMissingError):
            FixtureTransport(tmp_path).get("https://example.test/nothing")

    def test_body_without_manifest_entry_is_missing(self, tmp_path):
        url = "https://web.archive.org/web/2022/https://twitter.com/a/status/1"
        _record(tmp_path, url, status=404, body="snapshot not found")
        (tmp_path / "manifest.json").write_text("{}")
        with pytest.raises(FixtureMissingError):
            FixtureTransport(tmp_path).get(url)

    def test_manifest_maps_hash_to_url(self, tmp_path):
        url = "https://web.archive.org/web/2022/https://twitter.com/a/status/5"
        _record(tmp_path, url, body="x")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest[fixture_key(url)]["url"] == url

    def test_key_is_stable(self):
        url = "https://example.test/a?b=c"
        assert fixture_key(url) == fixture_key(url)
        assert fixture_key(url) != fixture_key(url + "&d=e")


class TestRecordingTransport:
    def test_records_inner_responses(self, tmp_path):
        url = "http://web.archive.org/cdx/search/cdx?url=y&from=1&matchType=prefix"
        inner = StubTransport().add(url, body="recorded body", status=200)
        recording = RecordingTransport(tmp_path, inner=inner)
        live_response = recording.get(url)
        replayed = FixtureTransport(tmp_path).get(url)
        assert replayed.status == live_response.status
        assert replayed.body == live_response.body

    def test_recording_twice_is_stable(self, tmp_path):
        url = "https://web.archive.org/web/2022/https://twitter.com/a/status/9"
        inner = StubTransport().add(url, body="same body")
        recording = RecordingTransport(tmp_path, inner=inner)
        recording.get(url)
        first = (tmp_path / f"{fixture_key(url)}.body").read_text()
        recording.get(url)
        second = (tmp_path / f"{fixture_key(url)}.body").read_text()
        assert first == second == "same body"

    def test_second_recorder_keeps_first_entries(self, tmp_path):
        urls = [f"https://example.test/{name}" for name in ("a", "b", "c")]
        inner = StubTransport()
        for url in urls:
            inner.add(url, body=url)
        first = RecordingTransport(tmp_path, inner=inner)
        first.get(urls[0])
        first.get(urls[1])
        RecordingTransport(tmp_path, inner=inner).get(urls[2])
        replay = FixtureTransport(tmp_path)
        assert [replay.get(url).body for url in urls] == urls
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(entry["url"] for entry in manifest.values()) == urls

    def test_manifest_read_once(self, tmp_path):
        inner = StubTransport().add("https://example.test/a").add("https://example.test/b")
        recording = RecordingTransport(tmp_path, inner=inner)
        recording.get("https://example.test/a")
        (tmp_path / "manifest.json").write_text("not json")
        recording.get("https://example.test/b")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest) == 2


class TestHttpStackLoadedOnlyWhenLive:
    def test_offline_runs_never_import_requests(self, pam_ocr_path, pam_fixtures_dir,
                                                eval_corpus_dir):
        code = """
import json, sys
import tweetback.cli
from tweetback.evaluation import run_evaluation
from tweetback.ocr import load_text_document
from tweetback.pipeline import PipelineConfig, TransportMode, run_pipeline
seen = {"import": "requests" in sys.modules}
config = PipelineConfig(transport_mode=TransportMode.fixture(sys.argv[2]))
report = run_pipeline(load_text_document(sys.argv[1]), config)
seen["verify"] = [report.verdict.kind.value, "requests" in sys.modules]
seen["evaluate"] = [run_evaluation(sys.argv[3]).record_count, "requests" in sys.modules]
print(json.dumps(seen))
"""
        seen = json.loads(fresh_interpreter(
            code, str(pam_ocr_path), str(pam_fixtures_dir), str(eval_corpus_dir)))
        assert seen == {"import": False, "verify": ["archived", False], "evaluate": [12, False]}

    def test_live_transport_imports_requests(self):
        pytest.importorskip("requests")
        code = """
import sys
from tweetback.transport import LiveTransport
before = "requests" in sys.modules
LiveTransport()
print(before, "requests" in sys.modules)
"""
        assert fresh_interpreter(code) == "False True"


class TestLiveTransportPoliteness:
    def test_spaces_requests_per_host(self, monkeypatch):
        monkeypatch.setattr(tweetback.transport, "MIN_INTERVAL_S", 0.05)
        transport = LiveTransport()
        stamps: list[float] = []

        def fake_request(method, url, **kwargs):
            stamps.append(time.monotonic())

            class _Resp:
                status_code = 200
                text = "ok"
                headers = {}

            return _Resp()

        monkeypatch.setattr(transport._session, "request", fake_request)
        for _ in range(3):
            transport.get("http://web.archive.org/cdx/search/cdx?q=1")
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= 0.045 for gap in gaps)

    def test_politeness_is_per_host(self, monkeypatch):
        monkeypatch.setattr(tweetback.transport, "MIN_INTERVAL_S", 10.0)
        transport = LiveTransport()

        def fake_request(method, url, **kwargs):
            class _Resp:
                status_code = 200
                text = "ok"
                headers = {}

            return _Resp()

        monkeypatch.setattr(transport._session, "request", fake_request)
        start = time.monotonic()
        transport.get("http://host-a.test/1")
        transport.get("http://host-b.test/1")
        assert time.monotonic() - start < 5.0

    def test_retries_transient_statuses(self, monkeypatch):
        monkeypatch.setattr(tweetback.transport, "MIN_INTERVAL_S", 0.0)
        monkeypatch.setattr(tweetback.transport, "BACKOFF_BASE_S", 0.0)
        transport = LiveTransport()
        calls = {"n": 0}

        def fake_request(method, url, **kwargs):
            calls["n"] += 1

            class _Resp:
                status_code = 503 if calls["n"] < 3 else 200
                text = "ok" if calls["n"] >= 3 else "unavailable"
                headers = {}

            return _Resp()

        monkeypatch.setattr(transport._session, "request", fake_request)
        response = transport.get("http://web.archive.org/x")
        assert response.status == 200
        assert calls["n"] == 3

    def test_thread_safety_smoke(self, monkeypatch):
        monkeypatch.setattr(tweetback.transport, "MIN_INTERVAL_S", 0.001)
        transport = LiveTransport()

        def fake_request(method, url, **kwargs):
            class _Resp:
                status_code = 200
                text = "ok"
                headers = {}

            return _Resp()

        monkeypatch.setattr(transport._session, "request", fake_request)
        errors: list[Exception] = []

        def hammer():
            try:
                for _ in range(5):
                    transport.get("http://web.archive.org/x")
            except Exception as err:  # pragma: no cover
                errors.append(err)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class _FakeClock:
    """Stands in for the ``time`` module in tweetback.transport: ``sleep``
    records the wait and moves ``monotonic`` on by it, at once."""

    def __init__(self) -> None:
        self.now = 1000.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestLiveTransportRateLimit:
    URL = "http://web.archive.org/cdx/search/cdx?url=x&from=1&matchType=prefix"

    @staticmethod
    def _serving(monkeypatch, *responses: SimpleNamespace
                 ) -> tuple[LiveTransport, _FakeClock, list[float]]:
        """A LiveTransport on a fake clock whose requests get ``responses`` in
        turn, the last one from then on, and the list of request start times."""
        clock = _FakeClock()
        monkeypatch.setattr(tweetback.transport, "time", clock)
        transport = LiveTransport()
        starts: list[float] = []
        queue = list(responses)

        def fake_request(method, url, **kwargs):
            starts.append(clock.now)
            return queue.pop(0) if len(queue) > 1 else queue[0]

        monkeypatch.setattr(transport._session, "request", fake_request)
        return transport, clock, starts

    @staticmethod
    def _response(status: int, headers: dict[str, str] | None = None) -> SimpleNamespace:
        return SimpleNamespace(status_code=status, text=f"status {status}", headers=headers or {})

    @classmethod
    def _rate_limited(cls, monkeypatch, headers: dict[str, str]) -> RateLimitedError:
        transport, _, _ = cls._serving(monkeypatch, cls._response(429, headers))
        with pytest.raises(RateLimitedError) as excinfo:
            transport.get(cls.URL)
        assert excinfo.value.url == cls.URL
        return excinfo.value

    def test_rate_limited(self, monkeypatch):
        assert self._rate_limited(monkeypatch, {"Retry-After": "30"}).retry_after == 30.0

    def test_rate_limited_reads_lower_case_retry_after(self, monkeypatch):
        assert self._rate_limited(monkeypatch, {"retry-after": "30"}).retry_after == 30.0

    def test_rate_limited_with_http_date(self, monkeypatch):
        headers = {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}
        assert self._rate_limited(monkeypatch, headers).retry_after == 0

    def test_retry_after_is_waited_out_once(self, monkeypatch):
        transport, clock, starts = self._serving(
            monkeypatch, self._response(429, {"Retry-After": "30"}), self._response(200))
        assert transport.get(self.URL).status == 200
        assert clock.sleeps == [30.0]
        assert starts == [1000.0, 1030.0]

    def test_second_429_raises(self, monkeypatch):
        transport, clock, starts = self._serving(
            monkeypatch, self._response(429, {"Retry-After": "30"}),
            self._response(429, {"Retry-After": "5"}))
        with pytest.raises(RateLimitedError) as excinfo:
            transport.get(self.URL)
        assert excinfo.value.retry_after == 5.0
        assert clock.sleeps == [30.0]
        assert len(starts) == 2

    @pytest.mark.parametrize("headers", [
        {"Retry-After": str(int(tweetback.transport.MAX_RETRY_AFTER_S) + 1)},
        {},
        {"Retry-After": "soon"},
    ])
    def test_long_or_missing_retry_after_raises_at_once(self, monkeypatch, headers):
        transport, clock, starts = self._serving(
            monkeypatch, self._response(429, headers), self._response(200))
        with pytest.raises(RateLimitedError):
            transport.get(self.URL)
        assert clock.sleeps == []
        assert starts == [1000.0]

    def test_wait_holds_the_host_slot(self, monkeypatch):
        transport, clock, starts = self._serving(
            monkeypatch, self._response(429, {"Retry-After": "30"}), self._response(200))
        transport.get(self.URL)
        transport.get("http://web.archive.org/web/2022id_/https://twitter.com/a/status/1")
        transport.get("http://other-host.test/")
        min_interval = tweetback.transport.MIN_INTERVAL_S
        assert clock.sleeps == [30.0, min_interval]
        assert starts == [1000.0, 1030.0, 1030.0 + min_interval, 1030.0 + min_interval]

    def test_wait_holds_a_slot_reserved_before_it(self, monkeypatch):
        # Thread B reserves the next slot while A's request is in flight; A
        # then gets a 429 with Retry-After 30. B must not send before A's
        # resend. Events fix the interleaving, and the fake clock moves on
        # only when B has either slept again or sent.
        clock = _FakeClock()
        monkeypatch.setattr(tweetback.transport, "time", clock)
        transport = LiveTransport()
        a_in_flight, b_asleep, a_holds, b_moved = (threading.Event() for _ in range(4))
        starts: dict[str, list[float]] = {"A": [], "B": []}

        def fake_request(method, url, **kwargs):
            name = threading.current_thread().name
            starts[name].append(clock.now)
            if name == "B":
                b_moved.set()
            elif len(starts["A"]) == 1:
                a_in_flight.set()
                assert b_asleep.wait(5)
                return self._response(429, {"Retry-After": "30"})
            return self._response(200)

        def sleep(seconds: float) -> None:
            until = clock.now + seconds
            if threading.current_thread().name == "A":
                a_holds.set()
                assert b_moved.wait(5)
            elif not b_asleep.is_set():
                b_asleep.set()
                assert a_holds.wait(5)
            else:
                b_moved.set()
            clock.now = max(clock.now, until)

        monkeypatch.setattr(clock, "sleep", sleep)
        monkeypatch.setattr(transport._session, "request", fake_request)
        threads = {name: threading.Thread(target=transport.get, args=(self.URL,), name=name)
                   for name in ("A", "B")}
        threads["A"].start()
        assert a_in_flight.wait(5)
        threads["B"].start()
        for thread in threads.values():
            thread.join(10)
        assert starts["A"][0] == 1000.0 and len(starts["A"]) == 2
        assert starts["B"] == [1030.0 + tweetback.transport.MIN_INTERVAL_S]
        assert starts["B"][0] >= starts["A"][1]


class TestPaced:
    def test_only_the_live_transport_is_paced(self):
        assert LiveTransport.paced is True
        assert (HttpTransport.paced, FixtureTransport.paced, StubTransport.paced) == (False,) * 3

    def test_recorder_is_paced_when_what_it_records_is(self, tmp_path):
        assert RecordingTransport(tmp_path, inner=StubTransport()).paced is False
        assert RecordingTransport(tmp_path, inner=PacedStubTransport()).paced is True


class TestParseRetryAfter:
    @pytest.mark.parametrize("value, expected", [
        (None, None), ("", None), ("soon", None), ("30", 30.0), ("0", 0.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0), (" 30 ", 30.0),
        # delay-seconds is 1*DIGIT: no sign, fraction, exponent, nan/inf or
        # non-ASCII digit
        ("nan", None), ("inf", None), ("-5", None), ("+5", None), ("1e3", None),
        ("3.5", None), ("٣٠", None), ("²", None), ("9" * 400, None),
    ])
    def test_values(self, value, expected):
        assert _parse_retry_after(value) == expected

    def test_future_http_date_is_seconds_from_now(self):
        when = datetime.now(timezone.utc) + timedelta(seconds=120)
        seconds = _parse_retry_after(format_datetime(when, usegmt=True))
        assert 100 < seconds <= 120
