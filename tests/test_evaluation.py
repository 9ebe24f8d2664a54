from __future__ import annotations

import json
import shutil
from datetime import datetime, timezone

import pytest

import tweetback.evaluation
from tweetback.cdx import CandidateRef
from tweetback.evaluation import (
    ArchiveState,
    GroundTruthRecord,
    MetricsSummary,
    ThresholdMismatchError,
    load_ground_truth,
    run_evaluation,
    score_extraction,
    score_verification,
)
from tweetback.extraction import ExtractedFields, ExtractedHandle, ScreenshotTimestamp
from tweetback.matching import MatchResult, Verdict, VerdictKind
from tweetback.pipeline import PipelineConfig
from tweetback.replay import CandidateTweet, ExtractionMethod

UTC = timezone.utc


def truth(source_id="s", handle=None, ts=None, state=ArchiveState.NOT_ARCHIVED,
          tweet_id=None) -> GroundTruthRecord:
    return GroundTruthRecord(
        source_id=source_id, true_handle=handle, true_timestamp=ts,
        archive_state=state, expected_tweet_id=tweet_id,
    )


def fields(handle: str | None = None, ts: datetime | None = None) -> ExtractedFields:
    extracted_handle = ExtractedHandle(handle, True, 0) if handle else None
    extracted_ts = None
    if ts is not None:
        extracted_ts = ScreenshotTimestamp(
            ts.year, ts.month, ts.day, ts.hour, ts.minute, True, 1
        )
    return ExtractedFields(
        handle=extracted_handle,
        timestamp=extracted_ts,
        tweet_text="text",
        text_is_fallback=extracted_handle is None or extracted_ts is None,
    )


def archived_verdict(tweet_id: int, threshold=0.80, score=0.95) -> Verdict:
    ref = CandidateRef(
        replay_url=f"https://web.archive.org/web/20220509011257/https://twitter.com/x/status/{tweet_id}",
        tweet_id=tweet_id,
        archived_at=datetime(2022, 5, 9, tzinfo=UTC),
    )
    candidate = CandidateTweet(
        ref=ref, extracted_text="text", extraction_method=ExtractionMethod.TWEET_TEXT_ELEMENT
    )
    return Verdict(
        kind=VerdictKind.ARCHIVED,
        evidence=MatchResult(candidate=candidate, score=score, best_chunk=0),
        threshold_used=threshold,
    )


def not_found_verdict(threshold=0.80) -> Verdict:
    return Verdict(kind=VerdictKind.NOT_FOUND, evidence=None, threshold_used=threshold)


class TestMetricsSummary:
    def test_vacuous_cases_are_one(self):
        empty = MetricsSummary()
        assert empty.accuracy == 1.0
        assert empty.precision == 1.0
        assert empty.recall == 1.0
        assert empty.f1 == 1.0

    def test_f1_zero_when_nothing_right(self):
        m = MetricsSummary(tp=0, fp=3, fn=3, tn=0)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


class TestScoreExtraction:
    def test_hand_counted_example(self):
        pairs = [
            (fields(handle="Alice"), truth(handle="alice")),      # TP (case-insensitive)
            (fields(handle="Bob"), truth(handle="bob")),          # TP
            (fields(handle="Wrong"), truth(handle="right")),      # FP
            (fields(), truth()),                                  # TN
        ]
        _, handles = score_extraction(pairs)
        assert (handles.tp, handles.fp, handles.fn, handles.tn) == (2, 1, 0, 1)
        assert handles.accuracy == 0.75
        assert handles.precision == pytest.approx(2 / 3)
        assert handles.recall == 1.0

    def test_all_correct(self):
        ts = datetime(2022, 5, 7, 23, 21, tzinfo=UTC)
        pairs = [(fields(handle="a", ts=ts), truth(handle="a", ts=ts))] * 3
        timestamps, handles = score_extraction(pairs)
        for m in (timestamps, handles):
            assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_empty_input(self):
        timestamps, handles = score_extraction([])
        assert timestamps.total == 0 and handles.total == 0
        assert timestamps.accuracy == 1.0

    def test_timestamp_minute_precision(self):
        ts_truth = datetime(2022, 5, 7, 23, 21, 45, tzinfo=UTC)  # seconds ignored
        pairs = [(fields(ts=datetime(2022, 5, 7, 23, 21, tzinfo=UTC)),
                  truth(ts=ts_truth))]
        timestamps, _ = score_extraction(pairs)
        assert timestamps.tp == 1

    def test_extracted_but_truth_absent_is_fp(self):
        timestamps, handles = score_extraction(
            [(fields(handle="ghost", ts=datetime(2022, 1, 1, tzinfo=UTC)), truth())]
        )
        assert handles.fp == 1 and timestamps.fp == 1

    def test_missing_but_truth_present_is_fn(self):
        timestamps, handles = score_extraction(
            [(fields(), truth(handle="a", ts=datetime(2022, 1, 1, tzinfo=UTC)))]
        )
        assert handles.fn == 1 and timestamps.fn == 1


class TestScoreVerification:
    def test_paper_table_arithmetic_at_080(self):
        pairs = [(archived_verdict(n), truth(state=ArchiveState.ARCHIVED, tweet_id=n))
                 for n in range(1 << 22, (1 << 22) + 64)]
        pairs += [(not_found_verdict(), truth(state=ArchiveState.ARCHIVED, tweet_id=10**18))
                  for _ in range(5)]
        summary = score_verification(pairs, 0.80)
        assert (summary.tp, summary.fp, summary.fn) == (64, 0, 5)
        assert summary.precision == pytest.approx(1.00, abs=0.005)
        assert summary.recall == pytest.approx(0.93, abs=0.005)
        assert summary.f1 == pytest.approx(0.96, abs=0.005)

    def test_paper_table_arithmetic_at_090(self):
        pairs = [(archived_verdict(n, threshold=0.90), truth(state=ArchiveState.ARCHIVED, tweet_id=n))
                 for n in range(1 << 22, (1 << 22) + 60)]
        pairs += [(not_found_verdict(threshold=0.90), truth(state=ArchiveState.ARCHIVED, tweet_id=10**18))
                  for _ in range(9)]
        summary = score_verification(pairs, 0.90)
        assert (summary.tp, summary.fp, summary.fn) == (60, 0, 9)
        assert summary.precision == pytest.approx(1.00, abs=0.005)
        assert summary.recall == pytest.approx(0.87, abs=0.005)
        assert summary.f1 == pytest.approx(0.93, abs=0.005)

    def test_id_mismatch_is_false_positive(self):
        pairs = [(archived_verdict(999 << 22), truth(state=ArchiveState.ARCHIVED, tweet_id=1 << 22))]
        summary = score_verification(pairs, 0.80)
        assert (summary.tp, summary.fp) == (0, 1)

    def test_archived_claim_on_not_archived_truth_is_fp(self):
        pairs = [(archived_verdict(1 << 22), truth(state=ArchiveState.NOT_ARCHIVED))]
        assert score_verification(pairs, 0.80).fp == 1

    def test_non_replayable_truth_excluded(self):
        pairs = [
            (not_found_verdict(), truth(state=ArchiveState.NON_REPLAYABLE)),
            (not_found_verdict(), truth(state=ArchiveState.NOT_ARCHIVED)),
        ]
        summary = score_verification(pairs, 0.80)
        assert summary.total == 1 and summary.tn == 1

    def test_vacuous_not_archived_corpus(self):
        pairs = [(not_found_verdict(), truth(state=ArchiveState.NOT_ARCHIVED))] * 4
        summary = score_verification(pairs, 0.80)
        assert summary.precision == 1.0 and summary.recall == 1.0 and summary.f1 == 1.0

    def test_threshold_mismatch_detected(self):
        pairs = [(not_found_verdict(threshold=0.80), truth())]
        with pytest.raises(ThresholdMismatchError):
            score_verification(pairs, 0.90)

    def test_counters_cover_all_scored_records(self):
        pairs = [
            (archived_verdict(1 << 22), truth(state=ArchiveState.ARCHIVED, tweet_id=1 << 22)),
            (not_found_verdict(), truth(state=ArchiveState.NOT_ARCHIVED)),
            (not_found_verdict(), truth(state=ArchiveState.ARCHIVED, tweet_id=5 << 22)),
            (not_found_verdict(), truth(state=ArchiveState.NON_REPLAYABLE)),
        ]
        summary = score_verification(pairs, 0.80)
        assert summary.total == 3

    def test_permutation_invariance(self):
        pairs = [
            (archived_verdict(1 << 22), truth(state=ArchiveState.ARCHIVED, tweet_id=1 << 22)),
            (not_found_verdict(), truth(state=ArchiveState.NOT_ARCHIVED)),
            (archived_verdict(7 << 22), truth(state=ArchiveState.NOT_ARCHIVED)),
        ]
        forward = score_verification(pairs, 0.80)
        backward = score_verification(list(reversed(pairs)), 0.80)
        assert forward.to_dict() == backward.to_dict()


class TestGroundTruthCsv:
    def test_round_trip(self, eval_corpus_dir):
        truths = load_ground_truth(eval_corpus_dir / "ground_truth.csv")
        assert len(truths) == 12
        assert truths["e01_alice_park"].archive_state is ArchiveState.ARCHIVED
        assert truths["e01_alice_park"].expected_tweet_id > 0
        assert truths["e07_gavin_live"].true_timestamp is None

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("source_id,true_handle\nx,y\n")
        with pytest.raises(ValueError):
            load_ground_truth(path)

    def test_archived_truth_requires_id(self):
        with pytest.raises(ValueError):
            truth(state=ArchiveState.ARCHIVED, tweet_id=None)


class TestRunEvaluation:
    def test_bundled_corpus_matches_golden_metrics(self, eval_corpus_dir, data_dir):
        report = run_evaluation(eval_corpus_dir)
        golden = json.loads((data_dir / "eval_corpus_expected.json").read_text())
        got = report.to_dict()
        got["corpus_dir"] = "tests/data/eval_corpus"
        assert got == golden

    def test_one_pipeline_run_and_one_transport_per_corpus(self, eval_corpus_dir, monkeypatch):
        runs: list[str] = []
        opened: list[object] = []
        run_pipeline = tweetback.evaluation.run_pipeline
        fixture_transport = tweetback.evaluation.FixtureTransport

        def counting_run(doc, *args, **kwargs):
            runs.append(doc.source_id)
            return run_pipeline(doc, *args, **kwargs)

        def counting_open(directory):
            opened.append(directory)
            return fixture_transport(directory)

        monkeypatch.setattr(tweetback.evaluation, "run_pipeline", counting_run)
        monkeypatch.setattr(tweetback.evaluation, "FixtureTransport", counting_open)
        report = run_evaluation(eval_corpus_dir)
        assert sorted(runs) == sorted(set(runs)) and len(runs) == report.record_count
        assert len(opened) == 1

    def test_verdicts_do_not_depend_on_top_scores(self, eval_corpus_dir):
        default = run_evaluation(eval_corpus_dir).to_dict()
        assert run_evaluation(eval_corpus_dir, PipelineConfig(top_scores=0)).to_dict() == default

    def test_threshold_monotonicity_on_corpus(self, eval_corpus_dir):
        report = run_evaluation(eval_corpus_dir)
        assert report.verification[0.90].tp <= report.verification[0.80].tp
        assert report.verification[0.90].fp <= report.verification[0.80].fp

    def test_missing_fixture_listed_and_skipped(self, eval_corpus_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(eval_corpus_dir, corpus)
        manifest = json.loads((corpus / "fixtures" / "manifest.json").read_text())
        victim = next(
            key for key, entry in manifest.items()
            if entry["url"].startswith("http://web.archive.org/cdx")
            and "alice_park" in entry["url"]
        )
        (corpus / "fixtures" / f"{victim}.body").unlink()
        report = run_evaluation(corpus)
        assert report.missing_fixtures == ["e01_alice_park"]
        assert report.record_count == 11

    def test_missing_ground_truth_listed(self, eval_corpus_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(eval_corpus_dir, corpus)
        (corpus / "ocr" / "e99_unlabeled.txt").write_text("@nobody\nwords\n1d\n")
        report = run_evaluation(corpus)
        assert "e99_unlabeled" in report.missing_ground_truth
        assert report.record_count == 12

    def test_empty_corpus(self, tmp_path):
        report = run_evaluation(tmp_path)
        assert report.record_count == 0
        assert report.timestamp_metrics.accuracy == 1.0

    def test_text_table_renders(self, eval_corpus_dir):
        table = run_evaluation(eval_corpus_dir).to_text_table()
        assert "verification @ 0.80" in table
        assert "handle extraction" in table
