"""End-to-end verification pipeline: OCR lines in, JSON verdict report out.

One run walks the whole chain: extract fields, build the ±26h window
with its Snowflake ID range and prefix filter, query the CDX index, dedup
and window-filter the rows, replay each candidate, score the text overlap,
and decide. Archive search needs both a complete handle and a timestamp;
when either is missing, or the window ends before the first Snowflake ID,
the run short-circuits to NotFound with a warning instead of guessing.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import cdx, matching, replay, snowflake
from .extraction import ExtractedFields, extract_fields
from .matching import Verdict, VerdictKind
from .ocr import OcrDocument
from .transport import FixtureTransport, HttpTransport, LiveTransport, RecordingTransport

SCHEMA_VERSION = "1"

# Replays in flight at once through a paced transport (see _resolve_all).
REPLAY_WORKERS = 2


class ConfigError(ValueError):
    """Pipeline configuration failed validation."""


@dataclass(frozen=True)
class TransportMode:
    """Where HTTP responses come from: the live web, a fixture directory,
    or the live web with responses recorded for later fixture replay."""

    kind: str
    path: Path | None = None

    @classmethod
    def live(cls) -> "TransportMode":
        return cls(kind="live")

    @classmethod
    def fixture(cls, path: str | Path) -> "TransportMode":
        return cls(kind="fixture", path=Path(path))

    @classmethod
    def record(cls, path: str | Path) -> "TransportMode":
        return cls(kind="record", path=Path(path))


@dataclass
class PipelineConfig:
    threshold: float = matching.DEFAULT_THRESHOLD
    transport_mode: TransportMode = field(default_factory=TransportMode.live)
    top_scores: int = 5

    def validate(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ConfigError(f"threshold {self.threshold} outside (0, 1]")
        if self.top_scores < 0:
            raise ConfigError(f"top_scores {self.top_scores} is negative")
        if self.transport_mode.kind not in ("live", "fixture", "record"):
            raise ConfigError(f"unknown transport mode {self.transport_mode.kind!r}")
        if self.transport_mode.kind != "live" and self.transport_mode.path is None:
            raise ConfigError(f"{self.transport_mode.kind} mode needs a directory")


def make_transport(config: PipelineConfig) -> HttpTransport:
    mode = config.transport_mode
    if mode.kind == "fixture":
        return FixtureTransport(mode.path)
    live = LiveTransport()
    if mode.kind == "record":
        return RecordingTransport(mode.path, inner=live)
    return live


@dataclass
class VerdictReport:
    """The tool's public JSON contract for one verification run. Its replay
    counts derive from ``replay_methods`` and ``verdict.failures``."""

    source_id: str
    fields: ExtractedFields
    verdict: Verdict
    window: cdx.ArchiveWindow | None = None
    cdx_query: str | None = None
    cdx_rows: int = 0
    deduped: int = 0
    replay_methods: dict[str, int] = field(default_factory=dict)
    top_scores: list[matching.MatchResult] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    generated_at: datetime = field(default_factory=lambda: datetime.now(timezone.utc))

    def __post_init__(self) -> None:
        if not self.in_window <= self.deduped <= self.cdx_rows:
            raise ValueError("inconsistent counts: in_window <= deduped <= cdx_rows")

    @property
    def replayed_ok(self) -> int:
        return sum(self.replay_methods.values())

    @property
    def replay_failures(self) -> int:
        return len(self.verdict.failures)

    @property
    def in_window(self) -> int:
        return self.replayed_ok + self.replay_failures

    def to_dict(self) -> dict:
        evidence = None
        if self.verdict.evidence is not None:
            evidence = _match_dict(self.verdict.evidence)
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_at": self.generated_at.isoformat(),
            "source_id": self.source_id,
            "extraction": self.fields.to_dict(),
            "window": {
                "from": self.window.from_ts.isoformat() if self.window else None,
                "to": self.window.to_ts.isoformat() if self.window else None,
                "from_cdx14": self.window.from_cdx14 if self.window else None,
            },
            "cdx_query": self.cdx_query,
            "counts": {
                "cdx_rows": self.cdx_rows,
                "deduped": self.deduped,
                "in_window": self.in_window,
                "replayed_ok": self.replayed_ok,
                "replay_failures": self.replay_failures,
            },
            "replay_methods": dict(sorted(self.replay_methods.items())),
            "verdict": {
                "kind": self.verdict.kind.value,
                "threshold": self.verdict.threshold_used,
                "evidence": evidence,
                "failures": [
                    {"replay_url": f.ref.replay_url, "reason": f.reason.value}
                    for f in self.verdict.failures
                ],
            },
            "top_scores": [_match_dict(m) for m in self.top_scores],
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False)


def _match_dict(match: matching.MatchResult) -> dict:
    ref = match.candidate.ref
    return {
        "replay_url": ref.replay_url,
        "tweet_id": ref.tweet_id,
        "archived_at": ref.archived_at.isoformat(),
        "score": match.score,
        "best_chunk": match.best_chunk,
        "extraction_method": match.candidate.extraction_method.value,
        "ui_generation_hint": match.candidate.ui_generation_hint,
    }


def _short_circuit(
    doc: OcrDocument, fields: ExtractedFields, config: PipelineConfig, warning: str
) -> VerdictReport:
    verdict = Verdict(
        kind=VerdictKind.NOT_FOUND, evidence=None, threshold_used=config.threshold
    )
    return VerdictReport(
        source_id=doc.source_id, fields=fields, verdict=verdict, warnings=[warning]
    )


def _resolve_all(
    refs: list[cdx.CandidateRef], transport: HttpTransport
) -> list[replay.CandidateTweet | replay.ReplayFailure]:
    """Resolve every candidate, in ``refs`` order.

    Two or more replays through a paced transport (``HttpTransport.paced``:
    the live one, or a recorder over it) go through a thread pool: a live
    replay can take longer than the politeness interval, so a second one
    in flight overlaps that wait. Any other transport (fixtures, a
    recorder over one, an injected in-process archive) answers without
    waiting, so there is nothing to overlap, and the pool's thread
    start-up, interpreter-lock hand-offs and shutdown would be pure cost.
    The pool is imported only here, so an offline run never loads
    ``concurrent.futures``.
    """
    if len(refs) < 2 or not transport.paced:
        return [replay.resolve_candidate(ref, transport) for ref in refs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=REPLAY_WORKERS) as pool:
        return list(pool.map(lambda ref: replay.resolve_candidate(ref, transport), refs))


def run_pipeline(
    doc: OcrDocument,
    config: PipelineConfig | None = None,
    transport: HttpTransport | None = None,
) -> VerdictReport:
    """Verify one screenshot's attribution against the Wayback Machine.

    In live mode a failing CDX fetch propagates (there is nothing to
    salvage without an index); individual replay failures never abort the
    run.
    """
    config = config or PipelineConfig()
    config.validate()
    if transport is None:
        transport = make_transport(config)

    fields = extract_fields(doc)
    if fields.handle is None:
        return _short_circuit(doc, fields, config, "handle extraction failed")
    if fields.timestamp is None:
        return _short_circuit(doc, fields, config, "timestamp extraction failed")
    if not fields.handle.complete:
        return _short_circuit(doc, fields, config, "incomplete handle")

    try:
        window = cdx.build_window(fields.timestamp)
    except snowflake.TimeBeforeEpochError:
        return _short_circuit(doc, fields, config, "timestamp precedes Snowflake tweet IDs")

    warnings: list[str] = []
    if window.id_filter is None:
        warnings.append("ID bounds differ in decimal length; querying without narrowing")
    query = cdx.build_cdx_query(fields.handle, window)

    body = cdx.fetch_cdx(query, transport)
    records, parse_warnings = cdx.parse_cdx_response(body)
    warnings.extend(parse_warnings)
    deduped = cdx.dedup_candidates(records)
    refs, filter_warnings = cdx.filter_by_window(deduped, window)
    warnings.extend(filter_warnings)

    candidates: list[replay.CandidateTweet] = []
    failures: list[replay.ReplayFailure] = []
    for outcome in _resolve_all(refs, transport):
        if isinstance(outcome, replay.CandidateTweet):
            candidates.append(outcome)
        else:
            failures.append(outcome)

    scored = matching.score_candidates(fields.tweet_text, candidates)
    verdict = matching.decide_scored(scored, failures, config.threshold)
    methods = Counter(candidate.extraction_method.value for candidate in candidates)

    return VerdictReport(
        source_id=doc.source_id,
        fields=fields,
        verdict=verdict,
        window=window,
        cdx_query=query,
        cdx_rows=len(records),
        deduped=len(deduped),
        replay_methods=methods,
        top_scores=scored[: config.top_scores],
        warnings=warnings,
    )


__all__ = [
    "ConfigError",
    "PipelineConfig",
    "SCHEMA_VERSION",
    "TransportMode",
    "VerdictReport",
    "make_transport",
    "run_pipeline",
]
