from __future__ import annotations

import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest

from helpers import StubTransport
from tweetback.transport import (
    FixtureMissingError,
    FixtureTransport,
    LiveTransport,
    RecordingTransport,
    fixture_key,
    write_fixture,
)
from tweetback.transport import _parse_retry_after


class TestFixtureRoundTrip:
    def test_write_then_read(self, tmp_path):
        url = "http://web.archive.org/cdx/search/cdx?url=x&from=1&matchType=prefix"
        write_fixture(tmp_path, url, body="row one\nrow two", status=200)
        transport = FixtureTransport(tmp_path)
        response = transport.get(url)
        assert response.status == 200
        assert response.body == "row one\nrow two"

    def test_status_and_headers_preserved(self, tmp_path):
        url = "https://web.archive.org/web/2022/https://twitter.com/a/status/1"
        write_fixture(tmp_path, url, body="", status=302,
                      headers={"Location": "https://web.archive.org/web/2023/x"})
        response = FixtureTransport(tmp_path).get(url)
        assert response.status == 302
        assert response.headers["Location"].endswith("/2023/x")

    def test_missing_fixture_raises(self, tmp_path):
        with pytest.raises(FixtureMissingError):
            FixtureTransport(tmp_path).get("https://example.test/nothing")

    def test_post_unsupported(self, tmp_path):
        with pytest.raises(FixtureMissingError):
            FixtureTransport(tmp_path).post("https://example.test/ocr", b"img", {})

    def test_manifest_maps_hash_to_url(self, tmp_path):
        import json

        url = "https://web.archive.org/web/2022/https://twitter.com/a/status/5"
        write_fixture(tmp_path, url, body="x")
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


class TestLiveTransportPoliteness:
    def test_spaces_requests_per_host(self, monkeypatch):
        transport = LiveTransport(min_interval=0.05)
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
        transport = LiveTransport(min_interval=10.0)

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
        transport = LiveTransport(min_interval=0.0, backoff_base=0.0)
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
        transport = LiveTransport(min_interval=0.001)

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


class TestParseRetryAfter:
    @pytest.mark.parametrize("value, expected", [
        (None, None), ("", None), ("soon", None), ("30", 30.0), ("0", 0.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),
    ])
    def test_values(self, value, expected):
        assert _parse_retry_after(value) == expected

    def test_future_http_date_is_seconds_from_now(self):
        when = datetime.now(timezone.utc) + timedelta(seconds=120)
        seconds = _parse_retry_after(format_datetime(when, usegmt=True))
        assert 100 < seconds <= 120
