"""Metrics harness: extraction and verification quality over a labeled corpus.

A corpus directory holds one OCR text file per screenshot under ``ocr/``,
a ``ground_truth.csv`` with the labels, and a ``fixtures/`` directory of
recorded HTTP responses so evaluation runs entirely offline. Extraction
is scored on exact handle/timestamp agreement; verification is scored at
both supported thresholds, and a verified hit must point at the right
tweet ID, not merely clear the text-overlap bar.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .extraction import ExtractedFields
from .matching import Verdict, VerdictKind, decide_scored
from .ocr import load_text_document
from .pipeline import PipelineConfig, run_pipeline
from .transport import FixtureMissingError, FixtureTransport

EVALUATION_THRESHOLDS = (0.80, 0.90)

GROUND_TRUTH_FILE = "ground_truth.csv"
OCR_SUBDIR = "ocr"
FIXTURES_SUBDIR = "fixtures"

CSV_COLUMNS = (
    "source_id",
    "true_handle",
    "true_timestamp_iso8601",
    "archive_state",
    "expected_tweet_id",
)


class ThresholdMismatchError(ValueError):
    """Verdicts were produced at a different threshold than requested."""


class ArchiveState(Enum):
    ARCHIVED = "archived"
    NOT_ARCHIVED = "not_archived"
    NON_REPLAYABLE = "non_replayable"


@dataclass(frozen=True)
class GroundTruthRecord:
    source_id: str
    true_handle: str | None
    true_timestamp: datetime | None
    archive_state: ArchiveState
    expected_tweet_id: int | None = None

    def __post_init__(self) -> None:
        if self.archive_state is ArchiveState.ARCHIVED:
            if not self.expected_tweet_id or self.expected_tweet_id <= 0:
                raise ValueError(f"{self.source_id}: archived truth needs a tweet ID")


@dataclass
class MetricsSummary:
    """Confusion-matrix counters with the derived headline metrics.

    Vacuous ratios (no positives predicted, or none present) count as 1,
    so an empty corpus scores perfectly rather than dividing by zero.
    """

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 1.0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def tally(self, predicted: object, truth: object) -> None:
        """Count one record; None means nothing predicted, or nothing true.

        A prediction is a true positive when it equals the truth and a
        false positive otherwise; no prediction is a false negative when
        there was a truth to find, and a true negative when there was not.
        """
        if predicted is not None:
            if predicted == truth:
                self.tp += 1
            else:
                self.fp += 1
        elif truth is not None:
            self.fn += 1
        else:
            self.tn += 1

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def score_extraction(
    results: list[tuple[ExtractedFields, GroundTruthRecord]],
) -> tuple[MetricsSummary, MetricsSummary]:
    """Confusion matrices for timestamp and handle extraction.

    A handle counts as correct on case-insensitive equality; a timestamp
    on equality of its wall-clock fields down to the minute.
    """
    timestamp = MetricsSummary()
    handle = MetricsSummary()
    for fields, truth in results:
        handle.tally(
            fields.handle.handle.lower() if fields.handle else None,
            truth.true_handle.lower() if truth.true_handle else None,
        )
        timestamp.tally(
            fields.timestamp.as_datetime().timetuple()[:5] if fields.timestamp else None,
            truth.true_timestamp.timetuple()[:5] if truth.true_timestamp else None,
        )
    return timestamp, handle


def score_verification(
    verdicts: list[tuple[Verdict, GroundTruthRecord]], threshold: float
) -> MetricsSummary:
    """Confusion matrix for archive verification at one threshold.

    A true positive must cite the expected tweet ID. Records whose ground
    truth is non-replayable are excluded here and reported separately by
    the harness.
    """
    summary = MetricsSummary()
    for verdict, truth in verdicts:
        if abs(verdict.threshold_used - threshold) > 1e-9:
            raise ThresholdMismatchError(
                f"{truth.source_id}: verdict at {verdict.threshold_used}, "
                f"scoring at {threshold}"
            )
        if truth.archive_state is ArchiveState.NON_REPLAYABLE:
            continue
        cited = None
        if verdict.kind is VerdictKind.ARCHIVED:
            cited = verdict.evidence.candidate.ref.tweet_id
        archived = truth.archive_state is ArchiveState.ARCHIVED
        summary.tally(cited, truth.expected_tweet_id if archived else None)
    return summary


def load_ground_truth(csv_path: str | Path) -> dict[str, GroundTruthRecord]:
    """Parse the ground-truth CSV, less any byte-order mark, into records
    keyed by source_id; a missing column or a source_id labelled twice
    raises ValueError."""
    records: dict[str, GroundTruthRecord] = {}
    with open(csv_path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{csv_path}: missing columns {sorted(missing)}")
        for row in reader:
            true_timestamp = None
            if row["true_timestamp_iso8601"]:
                true_timestamp = datetime.fromisoformat(row["true_timestamp_iso8601"])
                if true_timestamp.tzinfo is None:
                    true_timestamp = true_timestamp.replace(tzinfo=timezone.utc)
            record = GroundTruthRecord(
                source_id=row["source_id"],
                true_handle=row["true_handle"] or None,
                true_timestamp=true_timestamp,
                archive_state=ArchiveState(row["archive_state"]),
                expected_tweet_id=(
                    int(row["expected_tweet_id"]) if row["expected_tweet_id"] else None
                ),
            )
            if record.source_id in records:
                raise ValueError(f"{csv_path}: source_id {record.source_id!r} labelled twice")
            records[record.source_id] = record
    return records


@dataclass
class EvaluationReport:
    corpus_dir: str
    timestamp_metrics: MetricsSummary
    handle_metrics: MetricsSummary
    verification: dict[float, MetricsSummary]
    excluded_non_replayable: int
    extraction_coverage: dict[str, int]
    missing_ground_truth: list[str] = field(default_factory=list)
    missing_fixtures: list[str] = field(default_factory=list)
    missing_ocr: list[str] = field(default_factory=list)

    @property
    def record_count(self) -> int:
        """Documents scored: each is tallied once in every summary."""
        return self.timestamp_metrics.total

    def to_dict(self) -> dict:
        return {
            "corpus_dir": self.corpus_dir,
            "record_count": self.record_count,
            "extraction": {
                "timestamp": self.timestamp_metrics.to_dict(),
                "handle": self.handle_metrics.to_dict(),
            },
            "verification": {
                f"{threshold:.2f}": summary.to_dict()
                for threshold, summary in self.verification.items()
            },
            "excluded_non_replayable": self.excluded_non_replayable,
            "extraction_coverage": dict(self.extraction_coverage),
            "missing_ground_truth": list(self.missing_ground_truth),
            "missing_fixtures": list(self.missing_fixtures),
            "missing_ocr": list(self.missing_ocr),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text_table(self) -> str:
        rows = [
            ("metric", "accuracy", "precision", "recall", "f1", "tp", "fp", "fn", "tn"),
            _metric_row("timestamp extraction", self.timestamp_metrics),
            _metric_row("handle extraction", self.handle_metrics),
        ]
        for threshold in sorted(self.verification):
            rows.append(
                _metric_row(f"verification @ {threshold:.2f}", self.verification[threshold])
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows
        ]
        lines.append("")
        lines.append(f"records scored: {self.record_count}")
        lines.append(f"non-replayable truth records excluded: {self.excluded_non_replayable}")
        coverage = ", ".join(f"{k}: {v}" for k, v in sorted(self.extraction_coverage.items()))
        lines.append(f"replay extraction coverage: {coverage or 'none'}")
        for label, items in (
            ("missing ground truth", self.missing_ground_truth),
            ("missing fixtures", self.missing_fixtures),
            ("missing ocr", self.missing_ocr),
        ):
            if items:
                lines.append(f"{label}: {', '.join(items)}")
        return "\n".join(lines)


def _metric_row(name: str, m: MetricsSummary) -> tuple[str, ...]:
    return (
        name,
        f"{m.accuracy:.4f}",
        f"{m.precision:.4f}",
        f"{m.recall:.4f}",
        f"{m.f1:.4f}",
        str(m.tp),
        str(m.fp),
        str(m.fn),
        str(m.tn),
    )


def run_evaluation(corpus_dir: str | Path) -> EvaluationReport:
    """Run the pipeline over a corpus in fixture mode and score the results.

    Records with a missing fixture or missing ground truth are listed on
    the report and excluded from the metrics; the run always continues.
    A ``corpus_dir`` that is not a directory raises NotADirectoryError.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise NotADirectoryError(f"corpus {corpus_dir} is not a directory")
    truth_path = corpus_dir / GROUND_TRUTH_FILE
    truths = load_ground_truth(truth_path) if truth_path.exists() else {}
    ocr_dir = corpus_dir / OCR_SUBDIR
    ocr_files = sorted(ocr_dir.glob("*.txt")) if ocr_dir.exists() else []

    missing_ground_truth = [
        path.stem for path in ocr_files if path.stem not in truths
    ]
    missing_ocr = sorted(
        set(truths) - {path.stem for path in ocr_files}
    )

    scored_extraction: list[tuple[ExtractedFields, GroundTruthRecord]] = []
    verdicts_by_threshold: dict[float, list[tuple[Verdict, GroundTruthRecord]]] = {
        t: [] for t in EVALUATION_THRESHOLDS
    }
    coverage: dict[str, int] = {}
    missing_fixtures: list[str] = []
    excluded_non_replayable = 0

    # One pipeline run per doc. Its top_scores are sorted by the key that
    # decide_scored minimises, so the verdict at every threshold follows
    # from them and the run's replay failures.
    transport = FixtureTransport(corpus_dir / FIXTURES_SUBDIR)
    run_config = PipelineConfig(threshold=EVALUATION_THRESHOLDS[0])
    for path in ocr_files:
        truth = truths.get(path.stem)
        if truth is None:
            continue
        doc = load_text_document(path)
        try:
            report = run_pipeline(doc, run_config, transport)
        except FixtureMissingError:
            missing_fixtures.append(path.stem)
            continue
        scored_extraction.append((report.fields, truth))
        if truth.archive_state is ArchiveState.NON_REPLAYABLE:
            excluded_non_replayable += 1
        failures = list(report.verdict.failures)
        for threshold, pairs in verdicts_by_threshold.items():
            pairs.append((decide_scored(report.top_scores, failures, threshold), truth))
        for method, count in report.replay_methods.items():
            coverage[method] = coverage.get(method, 0) + count
        if report.replay_failures:
            coverage["replay_failures"] = (
                coverage.get("replay_failures", 0) + report.replay_failures
            )

    timestamp_metrics, handle_metrics = score_extraction(scored_extraction)
    verification = {
        threshold: score_verification(pairs, threshold)
        for threshold, pairs in verdicts_by_threshold.items()
    }
    return EvaluationReport(
        corpus_dir=str(corpus_dir),
        timestamp_metrics=timestamp_metrics,
        handle_metrics=handle_metrics,
        verification=verification,
        excluded_non_replayable=excluded_non_replayable,
        extraction_coverage=coverage,
        missing_ground_truth=missing_ground_truth,
        missing_fixtures=missing_fixtures,
        missing_ocr=missing_ocr,
    )
