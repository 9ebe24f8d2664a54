#!/usr/bin/env python3
"""Regenerate the recorded test fixtures under tests/data/.

Everything here is synthetic but wire-accurate: CDX bodies use the
server's 7-field default format, replay pages use real archived-tweet
markup shapes, and every fixture file is written by the recording
transport that records live traffic, over canned responses. Run from the
repo root:

    python tests/make_fixtures.py

The script asserts the properties the test suite relies on (scores on
either side of the thresholds, window membership, expected metric
counts) and refuses to write anything if one fails.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from helpers import (
    StubTransport,
    cdx_line,
    frozen_corpus_reports,
    jsonld_tweet_html,
    legacy_tweet_html,
    meta_tweet_html,
    raw_replay_url,
)

from tweetback.cdx import build_cdx_query, build_window
from tweetback.evaluation import run_evaluation
from tweetback.extraction import extract_fields
from tweetback.matching import chunk_scores
from tweetback.ocr import OcrDocument
from tweetback.snowflake import id_to_time, time_to_id_bounds
from tweetback.transport import RecordingTransport

DATA_DIR = Path(__file__).parent / "data"
UTC = timezone.utc


def record_response(recorder: RecordingTransport, url: str, body: str, status: int = 200) -> None:
    """Record one canned response, as a live recording would record it."""
    recorder.inner.add(url, body, status)
    recorder.get(url)


def make_id(created: datetime, salt: str) -> int:
    """A tweet ID created at ``created`` with deterministic worker/sequence bits."""
    low, _ = time_to_id_bounds(created)
    bits = int.from_bytes(hashlib.sha256(salt.encode()).digest()[:3], "big") & 0x3FFFFF
    return low | bits


def query_for(doc_lines: tuple[str, ...]) -> tuple[str, object]:
    """The exact CDX query the pipeline would issue for this OCR document."""
    fields = extract_fields(OcrDocument("gen", doc_lines))
    assert fields.handle is not None and fields.timestamp is not None, doc_lines
    window = build_window(fields.timestamp)
    return build_cdx_query(fields.handle, window), window


# --- PamKeithFL end-to-end scenario -----------------------------------------

PAM_LINES = (
    "Pam Keith, Esq. @",
    "@PamKeithFL",
    "Enough. It is time to act on the things that",
    "actually protect people.",
    "11:21 PM May 07, 2022",
)

PAM_TWEET_TEXT = "Enough. It is time to act on the things that actually protect people."

# The four decoy captures inside the window and one out-of-window ID that
# still matches the 152[2-3] prefix.
PAM_ROWS = [
    (1523140142177058816, "20220508183923", legacy_tweet_html(
        "Good morning to everyone fighting the good fight today.")),
    (1523140247739117574, "20220508031859", meta_tweet_html(
        "Sunday school drop-off is chaos, but we made it.")),
    (1523140577818296321, "20220508032025", None),  # replay returns 404
    (1523140760107122689, "20220508032058", legacy_tweet_html(
        "Counting down to the weekend town hall in Fort Pierce.")),
    (1523141006509502470, "20220509011257", legacy_tweet_html(PAM_TWEET_TEXT)),
]

PAM_DUPLICATE_ROW = (1523140247739117574, "20220509011257")
PAM_OUT_OF_WINDOW = (1523633882526646272, "20220510120000")
PAM_OLD_ID_ROW = (1509863143633846272, "20220507010101")


def build_pam(data_dir: Path) -> None:
    (data_dir / "pam_ocr.txt").write_text("\n".join(PAM_LINES) + "\n", encoding="utf-8")
    fixtures = RecordingTransport(data_dir / "pam_fixtures", inner=StubTransport())

    narrowed_query, window = query_for(PAM_LINES)
    assert "/status/152[2-3]&from=20220506212100&matchType=prefix" in narrowed_query

    rows = [cdx_line("PamKeithFL", tid, ts) for tid, ts, _ in PAM_ROWS]
    rows.insert(2, cdx_line("PamKeithFL", *PAM_DUPLICATE_ROW))
    rows.append(cdx_line("PamKeithFL", *PAM_OUT_OF_WINDOW))
    record_response(fixtures, narrowed_query, "\n".join(rows) + "\n")

    # The unnarrowed variant returns a superset; window filtering must make
    # both queries land on the identical candidate set.
    plain_query = narrowed_query.replace("/status/152[2-3]&", "/status&")
    extra = [
        cdx_line("PamKeithFL", *PAM_OLD_ID_ROW),
        cdx_line("PamKeithFL", "photo", "20220508000000"),
    ]
    record_response(fixtures, plain_query, "\n".join(rows + extra) + "\n")

    for tweet_id, ts14, page in PAM_ROWS:
        created = id_to_time(tweet_id)
        assert window.from_ts <= created <= window.to_ts, tweet_id
        url = raw_replay_url("PamKeithFL", tweet_id, ts14)
        if page is None:
            record_response(fixtures, url, "snapshot not found", status=404)
        else:
            record_response(fixtures, url, page)

    assert not (window.from_ts <= id_to_time(PAM_OUT_OF_WINDOW[0]) <= window.to_ts)
    assert not (window.from_ts <= id_to_time(PAM_OLD_ID_ROW[0]) <= window.to_ts)

    screenshot_text = "\n".join(PAM_LINES[2:4])
    for tid, ts, page in PAM_ROWS[:4]:
        if page is None:
            continue
        text = _page_text(page)
        score, _ = chunk_scores(screenshot_text, text)
        assert score < 0.80, (tid, score)
    score, chunk = chunk_scores(screenshot_text, PAM_TWEET_TEXT)
    assert score == 1.0 and chunk == 1


def _page_text(page_html: str) -> str:
    from tweetback.replay import extract_archived_text

    return extract_archived_text(page_html)[0]


# --- evaluation corpus -------------------------------------------------------

@dataclass
class Candidate:
    created: datetime
    capture_ts14: str
    page: str | None  # None means the replay 404s
    salt: str
    tweet_id: int = 0


@dataclass
class EvalRecord:
    source_id: str
    handle_display: str
    ocr_lines: tuple[str, ...]
    archive_state: str
    true_handle: str = ""
    true_timestamp: str = ""
    expected_tweet_id: str = ""
    queries_archive: bool = True
    candidates: list[Candidate] = field(default_factory=list)


def eval_records() -> list[EvalRecord]:
    records: list[EvalRecord] = []

    c = Candidate(datetime(2022, 6, 3, 1, 0, tzinfo=UTC), "20220603120000",
                  legacy_tweet_html("The river cleanup pulled three tons of "
                                    "trash out of the water this spring."), "e01")
    records.append(EvalRecord(
        source_id="e01_alice_park",
        handle_display="Alice Park",
        ocr_lines=(
            "Alice Park",
            "@alice_park",
            "The river cleanup pulled three tons of",
            "trash out of the water this spring.",
            "8:05 AM Jun 03, 2022",
        ),
        archive_state="archived",
        true_handle="alice_park",
        true_timestamp="2022-06-03T08:05",
        expected_tweet_id=str(make_id(c.created, c.salt)),
        candidates=[c],
    ))

    c = Candidate(datetime(2022, 7, 19, 10, 0, tzinfo=UTC), "20220720080000",
                  meta_tweet_html("We are opening new bike lanes on Maple Avenue "
                                  "soon, see you Friday."), "e02")
    records.append(EvalRecord(
        source_id="e02_brianna_notes",
        handle_display="Brianna Notes",
        ocr_lines=(
            "Brianna Notes",
            "@brianna_notes",
            "We are opening the new bike lanes on Maple Avenue this Friday.",
            "4:40 PM 2022-07-19",
        ),
        archive_state="archived",
        true_handle="brianna_notes",
        true_timestamp="2022-07-19T16:40",
        expected_tweet_id=str(make_id(c.created, c.salt)),
        candidates=[c],
    ))

    records.append(EvalRecord(
        source_id="e03_carlos_dispatch",
        handle_display="Carlos Dispatch",
        ocr_lines=(
            "Carlos Dispatch",
            "@carlos_dispatch",
            "Union vote results expected within the hour.",
            "11:11 AM Mar 09, 2023",
        ),
        archive_state="archived",
        true_handle="carlos_dispatch",
        true_timestamp="2023-03-09T11:11",
        expected_tweet_id=str(make_id(datetime(2023, 3, 9, 5, 0, tzinfo=UTC), "e03-truth")),
    ))

    records.append(EvalRecord(
        source_id="e04_dana_reports",
        handle_display="Dana Reports",
        ocr_lines=(
            "Dana Reports",
            "@dana_reports",
            "Storm shelters open at six tonight across the county.",
            "6:30 PM Nov 12, 2022",
        ),
        archive_state="not_archived",
        true_handle="dana_reports",
        true_timestamp="2022-11-12T18:30",
    ))

    c = Candidate(datetime(2022, 8, 21, 14, 0, tzinfo=UTC), "20220822090000",
                  meta_tweet_html("Weekend photo essay: the harbor at low tide, "
                                  "in twelve frames."), "e05")
    records.append(EvalRecord(
        source_id="e05_evan_media",
        handle_display="Evan Media",
        ocr_lines=(
            "Evan Media",
            "@evan_media",
            "City budget hearings resume tomorrow at nine in the council chambers.",
            "9:45 PM Aug 21, 2022",
        ),
        archive_state="not_archived",
        true_handle="evan_media",
        true_timestamp="2022-08-21T21:45",
        candidates=[c],
    ))

    c = Candidate(datetime(2022, 9, 30, 10, 0, tzinfo=UTC), "20221001120000", None, "e06")
    records.append(EvalRecord(
        source_id="e06_farah_updates",
        handle_display="Farah Updates",
        ocr_lines=(
            "Farah Updates",
            "@farah_updates",
            "Library renovation photos, before and after.",
            "2:15 PM Sep 30, 2022",
        ),
        archive_state="non_replayable",
        true_handle="farah_updates",
        true_timestamp="2022-09-30T14:15",
        candidates=[c],
    ))

    records.append(EvalRecord(
        source_id="e07_gavin_live",
        handle_display="Gavin Live",
        ocr_lines=(
            "Gavin Live",
            "@gavin_live",
            "Halftime score update from the press box.",
            "1d",
        ),
        archive_state="not_archived",
        true_handle="gavin_live",
        queries_archive=False,
    ))

    records.append(EvalRecord(
        source_id="e08_hana_writes",
        handle_display="Hana Writes",
        ocr_lines=(
            "Hana Writes",
            "Morning pages, then the long walk by the canal.",
            "7:20 AM Apr 02, 2023",
        ),
        archive_state="archived",
        true_handle="hana_writes",
        true_timestamp="2023-04-02T07:20",
        expected_tweet_id=str(make_id(datetime(2023, 4, 2, 1, 0, tzinfo=UTC), "e08-truth")),
        queries_archive=False,
    ))

    records.append(EvalRecord(
        source_id="e09_quietriver",
        handle_display="Quiet River Maps",
        ocr_lines=(
            "Quiet River Maps",
            "@quietriver_ma...",
            "New trail overlays are live for the whole valley.",
            "5:50 PM Oct 08, 2022",
        ),
        archive_state="not_archived",
        true_handle="quietriver_maps",
        true_timestamp="2022-10-08T17:50",
        queries_archive=False,
    ))

    records.append(EvalRecord(
        source_id="e10_ivy_council",
        handle_display="Ivy Council",
        ocr_lines=(
            "Ivy Council",
            "@ivy_council",
            "Committee minutes are posted to the town site.",
            "Mar 14, 2023",
        ),
        archive_state="not_archived",
        true_handle="ivy_council",
        true_timestamp="2023-03-14T00:00",
    ))

    c = Candidate(datetime(2023, 1, 25, 6, 0, tzinfo=UTC), "20230125180000",
                  legacy_tweet_html("Platform two reopens this afternoon after "
                                    "the signal repairs."), "e11-other")
    records.append(EvalRecord(
        source_id="e11_jon_metro",
        handle_display="Jon Metro",
        ocr_lines=(
            "Jon Metro",
            "@jon_metro",
            "Platform two reopens this afternoon after the signal repairs.",
            "10:10 AM 01/25/2023",
        ),
        archive_state="archived",
        true_handle="jon_metro",
        true_timestamp="2023-01-25T10:10",
        expected_tweet_id=str(make_id(datetime(2023, 1, 25, 7, 0, tzinfo=UTC), "e11-truth")),
        candidates=[c],
    ))

    c = Candidate(datetime(2022, 12, 15, 9, 0, tzinfo=UTC), "20221216100000",
                  jsonld_tweet_html("Conference talk submissions close at the "
                                    "end of the month."), "e12")
    records.append(EvalRecord(
        source_id="e12_kira_codes",
        handle_display="Kira Codes",
        ocr_lines=(
            "Kira Codes",
            "@kira_codes",
            "Shipping the dark mode toggle in tonight's release notes.",
            "3:33 PM 15 Dec 2022",
        ),
        archive_state="not_archived",
        true_handle="kira_codes",
        true_timestamp="2022-12-15T15:33",
        candidates=[c],
    ))

    return records


# Hand-counted confusion matrices for the corpus above; the generator
# refuses to emit a corpus that does not reproduce them.
EXPECTED_COUNTS = {
    "timestamp": dict(tp=11, fp=0, fn=0, tn=1),
    "handle": dict(tp=10, fp=1, fn=1, tn=0),
    "verification_0.80": dict(tp=2, fp=1, fn=2, tn=6),
    "verification_0.90": dict(tp=1, fp=1, fn=3, tn=6),
}
EXPECTED_COVERAGE = {
    "tweet_text_element": 2,
    "meta_description": 2,
    "json_ld": 1,
    "replay_failures": 1,
}


def build_eval_corpus(data_dir: Path) -> None:
    corpus = data_dir / "eval_corpus"
    ocr_dir = corpus / "ocr"
    fixtures = RecordingTransport(corpus / "fixtures", inner=StubTransport())
    ocr_dir.mkdir(parents=True, exist_ok=True)

    csv_rows = ["source_id,true_handle,true_timestamp_iso8601,archive_state,expected_tweet_id"]
    for record in eval_records():
        (ocr_dir / f"{record.source_id}.txt").write_text(
            "\n".join(record.ocr_lines) + "\n", encoding="utf-8"
        )
        csv_rows.append(
            f"{record.source_id},{record.true_handle},{record.true_timestamp},"
            f"{record.archive_state},{record.expected_tweet_id}"
        )
        if not record.queries_archive:
            continue

        query, window = query_for(record.ocr_lines)
        fields = extract_fields(OcrDocument("gen", record.ocr_lines))
        handle = fields.handle.handle

        rows = []
        for candidate in record.candidates:
            candidate.tweet_id = make_id(candidate.created, candidate.salt)
            assert window.from_ts <= id_to_time(candidate.tweet_id) <= window.to_ts, (
                record.source_id
            )
            rows.append(cdx_line(handle, candidate.tweet_id, candidate.capture_ts14))
            url = raw_replay_url(handle, candidate.tweet_id, candidate.capture_ts14)
            if candidate.page is None:
                record_response(fixtures, url, "snapshot not found", status=404)
            else:
                record_response(fixtures, url, candidate.page)
        record_response(fixtures, query, "\n".join(rows) + ("\n" if rows else ""))

        # The archived-truth record must match its fixture; the near-miss
        # record must land between the two thresholds.
        if record.source_id == "e02_brianna_notes":
            text = _page_text(record.candidates[0].page)
            score, _ = chunk_scores(fields.tweet_text, text)
            assert 0.80 <= score < 0.90, score
        if record.source_id == "e01_alice_park":
            score, _ = chunk_scores(fields.tweet_text, _page_text(record.candidates[0].page))
            assert score >= 0.90, score
        if record.source_id in ("e05_evan_media", "e12_kira_codes"):
            score, _ = chunk_scores(fields.tweet_text, _page_text(record.candidates[0].page))
            assert score < 0.80, (record.source_id, score)

    (corpus / "ground_truth.csv").write_text("\n".join(csv_rows) + "\n", encoding="utf-8")


def verify_and_freeze(data_dir: Path) -> None:
    report = run_evaluation(data_dir / "eval_corpus")
    got = {
        "timestamp": dict(tp=report.timestamp_metrics.tp, fp=report.timestamp_metrics.fp,
                          fn=report.timestamp_metrics.fn, tn=report.timestamp_metrics.tn),
        "handle": dict(tp=report.handle_metrics.tp, fp=report.handle_metrics.fp,
                       fn=report.handle_metrics.fn, tn=report.handle_metrics.tn),
        "verification_0.80": dict(tp=report.verification[0.80].tp, fp=report.verification[0.80].fp,
                                  fn=report.verification[0.80].fn, tn=report.verification[0.80].tn),
        "verification_0.90": dict(tp=report.verification[0.90].tp, fp=report.verification[0.90].fp,
                                  fn=report.verification[0.90].fn, tn=report.verification[0.90].tn),
    }
    assert got == EXPECTED_COUNTS, json.dumps({"got": got, "want": EXPECTED_COUNTS}, indent=2)
    assert report.extraction_coverage == EXPECTED_COVERAGE, report.extraction_coverage
    assert report.record_count == 12
    assert report.excluded_non_replayable == 1
    assert not report.missing_fixtures and not report.missing_ground_truth

    golden = dict(report.to_dict())
    golden["corpus_dir"] = "tests/data/eval_corpus"
    (data_dir / "eval_corpus_expected.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    reports = frozen_corpus_reports(data_dir / "eval_corpus")
    (data_dir / "eval_corpus_reports_golden.json").write_text(
        json.dumps(reports, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def main() -> None:
    for stale in ("pam_fixtures", "eval_corpus"):
        shutil.rmtree(DATA_DIR / stale, ignore_errors=True)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    build_pam(DATA_DIR)
    build_eval_corpus(DATA_DIR)
    verify_and_freeze(DATA_DIR)
    print(f"fixtures written under {DATA_DIR}")


if __name__ == "__main__":
    main()
