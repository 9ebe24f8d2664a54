"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) so the suite doubles as a checklist.
"""

from __future__ import annotations

import json
import random
import re
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone

import pytest

from helpers import brute_force_lcs, cdx_line

from tweetback.cdx import build_cdx_query, build_window, dedup_candidates, parse_cdx_response
from tweetback.cli import EXIT_ARCHIVED, main
from tweetback.evaluation import ArchiveState, score_verification
from tweetback.extraction import (
    ExtractedHandle,
    ScreenshotTimestamp,
    extract_handle,
    extract_timestamp,
)
from tweetback.matching import VerdictKind, chunk_scores, lcs_length, overlap_score
from tweetback.ocr import OcrDocument, load_text_document
from tweetback.pipeline import PipelineConfig, TransportMode, run_pipeline
from tweetback.snowflake import (
    SNOWFLAKE_EPOCH_MS,
    common_prefix_filter,
    id_to_time,
    time_to_id_bounds,
)

UTC = timezone.utc

PAM_TS = ScreenshotTimestamp(2022, 5, 7, 23, 21, True, 4)
PAM_EVIDENCE_URL = (
    "https://web.archive.org/web/20220509011257/"
    "https://twitter.com/PamKeithFL/status/1523141006509502470"
)


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL  criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE PASS  criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_window_math_exact():
    with criterion(1, "screenshot 2022-05-07 23:21 renders from=20220506212100"):
        window = build_window(PAM_TS)
        assert window.from_cdx14 == "20220506212100"


def test_criterion_2_cdx_query_exact():
    with criterion(2, "narrowed query contains /status/152[2-3]&from=20220506212100&matchType=prefix"):
        window = build_window(PAM_TS)
        query = build_cdx_query(ExtractedHandle("PamKeithFL", True, 1), window)
        assert "/status/152[2-3]&from=20220506212100&matchType=prefix" in query


def test_criterion_3_snowflake_decode():
    with criterion(3, "ID 1523141006509502470 decodes to 2022-05-08T03:21 UTC +/-60s, inside the window"):
        decoded = id_to_time(1523141006509502470)
        target = datetime(2022, 5, 8, 3, 21, tzinfo=UTC)
        assert abs((decoded - target).total_seconds()) <= 60
        window = build_window(PAM_TS)
        assert window.from_ts <= decoded <= window.to_ts


def test_criterion_4_end_to_end_fixture_scenario(capsys, pam_ocr_path, pam_fixtures_dir):
    with criterion(4, "verify on recorded fixtures returns Archived with the paper's evidence URL"):
        started = time.monotonic()
        code = main([
            "verify", "--ocr-text", str(pam_ocr_path), "--fixtures", str(pam_fixtures_dir),
        ])
        elapsed = time.monotonic() - started
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_ARCHIVED
        assert payload["verdict"]["kind"] == "archived"
        assert payload["verdict"]["evidence"]["replay_url"] == PAM_EVIDENCE_URL
        counts = payload["counts"]
        assert counts["in_window"] <= counts["deduped"] <= counts["cdx_rows"]
        assert elapsed < 5.0


def test_criterion_5_extraction_micro_checks():
    with criterion(5, "timestamp/handle micro-checks from the screenshot examples"):
        ts = extract_timestamp(OcrDocument("x", ("4:08 PM 2022-05-25",)))
        assert (ts.year, ts.month, ts.day, ts.hour, ts.minute) == (2022, 5, 25, 16, 8)

        handle = extract_handle(OcrDocument("x", ("@DrSJaish...",)))
        assert handle.handle == "DrSJaish"
        assert handle.complete is False

        assert extract_timestamp(OcrDocument("x", ("1d",))) is None


def test_criterion_6_lcs_oracle_equivalence():
    with criterion(6, "overlap_score matches brute-force LCS on 1,000 random pairs"):
        started = time.monotonic()
        assert overlap_score("abcd", "abce") == 0.75
        rng = random.Random(96)
        for _ in range(1000):
            a = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 12)))
            assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)
        assert time.monotonic() - started < 10.0


def test_criterion_7_property_suites(eval_corpus_dir):
    started = time.monotonic()

    with criterion(7, "property suites: round-trip, monotonicity, prefix soundness, dedup, chunks, thresholds"):
        rng = random.Random(20101104)
        unix_epoch = datetime(1970, 1, 1, tzinfo=UTC)

        # Snowflake round-trip and monotonicity
        for _ in range(2000):
            ms = rng.randint(SNOWFLAKE_EPOCH_MS + 1, SNOWFLAKE_EPOCH_MS + 2**41 - 1)
            t = unix_epoch + timedelta(milliseconds=ms)
            low, high = time_to_id_bounds(t)
            assert id_to_time(low) == t and id_to_time(high) == t
            t2 = t + timedelta(milliseconds=rng.randint(1, 10**9))
            low2, _ = time_to_id_bounds(t2)
            assert high < low2

        # Prefix-filter soundness over 10,000 sampled IDs
        checked = 0
        while checked < 10_000:
            ms = rng.randint(SNOWFLAKE_EPOCH_MS + 1, SNOWFLAKE_EPOCH_MS + 2**41 - 1)
            span = rng.choice([0, 1000, 60_000, 3_600_000, 187_200_000])
            low, _ = time_to_id_bounds(unix_epoch + timedelta(milliseconds=ms))
            _, high = time_to_id_bounds(unix_epoch + timedelta(milliseconds=ms + span))
            filt = common_prefix_filter(low, high)
            if filt is None:
                continue
            for _ in range(50):
                sample = rng.randint(low, high)
                assert re.match(filt, str(sample))
                checked += 1

        # Dedup idempotence on randomized record sets
        for _ in range(200):
            rows = [
                cdx_line("p", rng.randint(1, 5) << 22, f"2022050{rng.randint(1, 9)}000000")
                for _ in range(rng.randint(0, 10))
            ]
            records, _ = parse_cdx_response("\n".join(rows))
            once = dedup_candidates(records)
            assert dedup_candidates(once) == once

        # Chunk-max dominance on random multi-line texts
        alphabet = "ab \n"
        for _ in range(300):
            shot = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
            cand = "".join(rng.choice("ab ") for _ in range(rng.randint(0, 20)))
            best, _ = chunk_scores(shot, cand)
            assert best >= overlap_score(shot, cand) - 1e-12

        # Threshold monotonicity on the fixture corpus (Archived@0.90 is a
        # subset of Archived@0.80, the shape of the paper's 60 <= 64)
        archived = {0.80: set(), 0.90: set()}
        for path in sorted((eval_corpus_dir / "ocr").glob("*.txt")):
            doc = load_text_document(path)
            for threshold in archived:
                config = PipelineConfig(
                    threshold=threshold,
                    transport_mode=TransportMode.fixture(eval_corpus_dir / "fixtures"),
                )
                report = run_pipeline(doc, config)
                if report.verdict.kind is VerdictKind.ARCHIVED:
                    archived[threshold].add(path.stem)
        assert archived[0.90] <= archived[0.80]
        assert len(archived[0.90]) < len(archived[0.80])

        assert time.monotonic() - started < 60.0


def test_criterion_8_metrics_harness():
    with criterion(8, "synthetic 64/0/5 and 60/0/9 corpora reproduce the published P/R/F1"):
        def synthetic(tp: int, fn: int, threshold: float):
            from test_evaluation import archived_verdict, not_found_verdict, truth

            pairs = [
                (archived_verdict(n, threshold=threshold),
                 truth(state=ArchiveState.ARCHIVED, tweet_id=n))
                for n in range(1 << 22, (1 << 22) + tp)
            ]
            pairs += [
                (not_found_verdict(threshold=threshold),
                 truth(state=ArchiveState.ARCHIVED, tweet_id=10**18))
                for _ in range(fn)
            ]
            return score_verification(pairs, threshold)

        at_80 = synthetic(64, 5, 0.80)
        assert at_80.fp == 0
        assert at_80.precision == pytest.approx(1.00, abs=0.005)
        assert at_80.recall == pytest.approx(0.93, abs=0.005)
        assert at_80.f1 == pytest.approx(0.96, abs=0.005)

        at_90 = synthetic(60, 9, 0.90)
        assert at_90.fp == 0
        assert at_90.precision == pytest.approx(1.00, abs=0.005)
        assert at_90.recall == pytest.approx(0.87, abs=0.005)
        assert at_90.f1 == pytest.approx(0.93, abs=0.005)


def test_criterion_9_determinism(pam_ocr_path, pam_fixtures_dir):
    with criterion(9, "two fixture-mode runs are identical modulo the run timestamp"):
        started = time.monotonic()
        doc = load_text_document(pam_ocr_path)
        payloads = []
        for _ in range(2):
            config = PipelineConfig(transport_mode=TransportMode.fixture(pam_fixtures_dir))
            payload = json.loads(run_pipeline(doc, config).to_json())
            payload.pop("generated_at")
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]
        assert time.monotonic() - started < 5.0
