"""Counting transport wrapper, span tracer, and the per-layer metrics built on them.

Spans are recorded from the benchmark's side only: ``trace_package`` wraps
the public functions of each tweetback module where the package calls
them, so the program's files stay untouched. A span holds its name, start,
end, parent span and the id of the verification it belongs to; all spans
stay in memory until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import simarchive
import tweetback.cdx
import tweetback.evaluation
import tweetback.matching
import tweetback.ocr
import tweetback.pipeline
import tweetback.replay
import tweetback.snowflake
import tweetback.transport
from tweetback.transport import HttpResponse, HttpTransport

STATUSES = ("200", "302", "404")
METHODS = ("tweet_text_element", "meta_description", "json_ld")


class Meter:
    """Counts the GETs made through every wrapped transport; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0

    def record(self) -> None:
        with self._lock:
            self.requests += 1


class MeteredTransport(HttpTransport):
    """Passes every request to ``inner`` and counts it on ``meter``."""

    def __init__(self, inner: HttpTransport, meter: Meter):
        self.inner = inner
        self.meter = meter

    def get(self, url: str) -> HttpResponse:
        response = self.inner.get(url)
        self.meter.record()
        return response

    def post(self, url: str, data: bytes, headers: dict[str, str]) -> HttpResponse:
        return self.inner.post(url, data, headers)


def meter_fixture_transport(meter: Meter) -> Callable[[], None]:
    """Count every ``FixtureTransport.get``, however the program builds the transport.

    Returns the function that undoes the patch.
    """
    cls = tweetback.transport.FixtureTransport
    original = cls.get

    def get(self, url: str) -> HttpResponse:
        response = original(self, url)
        meter.record()
        return response

    cls.get = get
    return lambda: setattr(cls, "get", original)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    verification: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder.

    Spans nest through a per-thread stack. The pipeline's replay workers
    start with an empty stack, so their spans take the innermost open root
    span (``run_pipeline``) as parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.verification = 0
        self._root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None,
             root: bool = False) -> Callable:
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                self._next += 1
                sid = self._next
            parent = stack[-1] if stack else self._root
            outer_root = self._root
            if root:
                self.verification += 1
                self._root = sid
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if root:
                    self._root = outer_root
            attrs = annotate(args, result) if annotate else {}
            self.spans.append(Span(sid, name, start, end, parent, self.verification, attrs))
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                                      "parent": s.parent, "verification": s.verification,
                                      **s.attrs}) + "\n")


def _get_attrs(args, response) -> dict:
    return {"status": response.status, "cdx": simarchive.CDX_PATH in args[-1],
            "bytes": len(response.body.encode("utf-8"))}


def _resolve_attrs(args, outcome) -> dict:
    method = getattr(outcome, "extraction_method", None)
    return {"ok": method is not None, "method": method.value if method else None}


# (module or class, attribute, span name, annotate) for every call site the package uses.
_TRACE_POINTS = (
    (tweetback.pipeline, "extract_fields", "extraction.extract_fields", None),
    (tweetback.snowflake, "time_to_id_bounds", "snowflake.time_to_id_bounds", None),
    (tweetback.snowflake, "common_prefix_filter", "snowflake.common_prefix_filter", None),
    (tweetback.cdx, "build_window", "cdx.build_window", None),
    (tweetback.cdx, "build_cdx_query", "cdx.build_cdx_query", None),
    (tweetback.cdx, "fetch_cdx", "cdx.fetch_cdx", None),
    (tweetback.cdx, "parse_cdx_response", "cdx.parse_cdx_response",
     lambda a, r: {"rows": len(r[0])}),
    (tweetback.cdx, "dedup_candidates", "cdx.dedup_candidates", None),
    (tweetback.cdx, "filter_by_window", "cdx.filter_by_window",
     lambda a, r: {"in_window": len(r[0])}),
    (tweetback.pipeline, "make_transport", "transport.make_transport", None),
    (tweetback.replay, "resolve_candidate", "replay.resolve_candidate", _resolve_attrs),
    (tweetback.replay, "fetch_replay", "replay.fetch_replay", None),
    (tweetback.replay, "extract_archived_text", "replay.extract_archived_text",
     lambda a, r: {"bytes": len(a[0].encode("utf-8"))}),
    (tweetback.matching, "score_candidates", "matching.score_candidates", None),
    (tweetback.matching, "chunk_scores", "matching.chunk_scores",
     lambda a, r: {"chunks": a[0].count("\n") + 1}),
    (tweetback.matching, "decide_scored", "matching.decide_scored", None),
    (tweetback.ocr, "load_text_document", "ocr.load_text_document", None),
    (tweetback.evaluation, "load_text_document", "ocr.load_text_document", None),
    (tweetback.pipeline.VerdictReport, "to_json", "pipeline.to_json", None),
    (simarchive.SimulatedWayback, "get", "transport.get", _get_attrs),
    (tweetback.transport.FixtureTransport, "get", "transport.get", _get_attrs),
    (tweetback.evaluation, "run_evaluation", "evaluation.run_evaluation",
     lambda a, r: {"docs": r.record_count}),
)
# The program's entry points; each call is one verification.
_ROOTS = ((tweetback.pipeline, "run_pipeline"), (tweetback.evaluation, "run_pipeline"))


def trace_package(tracer: Tracer) -> Callable[[], None]:
    """Wrap every trace point; returns the function that restores the originals."""
    saved = []
    points = [(owner, attr, name, annotate, False) for owner, attr, name, annotate in _TRACE_POINTS]
    points += [(owner, attr, "pipeline.run_pipeline",
                lambda a, r: {"short_circuit": r.cdx_query is None}, True)
               for owner, attr in _ROOTS]
    for owner, attr, name, annotate, root in points:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, annotate, root=root))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# --- per-layer metrics ---------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.sid] = (s.end - s.start) - covered
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYER_UNITS = {
    "ocr.load_ms_per_doc": "ms",
    "extraction.ms_per_verify": "ms",
    "extraction.short_circuit_share": "ratio",
    "snowflake.self_ms_per_verify": "ms",
    "cdx.rows_per_verify": "count",
    "cdx.parse_ms_per_verify": "ms",
    "cdx.dedup_filter_ms_per_verify": "ms",
    "cdx.useful_row_ratio": "ratio",
    "cdx.self_ms_per_verify": "ms",
    "transport.cdx_requests_per_verify": "count",
    "transport.replay_requests_per_verify": "count",
    "transport.redirect_hops_per_verify": "count",
    "transport.bytes_per_verify": "bytes",
    "transport.get_ms_per_verify": "ms",
    "transport.open_ms_per_run": "ms",
    "transport.self_ms_per_verify": "ms",
    **{f"transport.status.{code}": "count" for code in STATUSES},
    "replay.pages_per_verify": "count",
    "replay.extract_ms_per_page": "ms",
    "replay.extract_us_per_kb": "us/KB",
    "replay.ok_ratio": "ratio",
    **{f"replay.method.{m}": "count" for m in METHODS},
    "replay.worker_busy_ms_per_verify": "ms",
    "replay.self_ms_per_verify": "ms",
    "matching.ms_per_verify": "ms",
    "matching.candidates_per_verify": "count",
    "matching.chunks_per_candidate": "count",
    "matching.max_ms_per_candidate": "ms",
    "pipeline.self_ms_per_verify": "ms",
    "pipeline.to_json_ms": "ms",
    "evaluation.pipeline_runs_per_doc": "count",
    "evaluation.self_ms_per_doc": "ms",
    "cli.import_s": "s",
    "trace.overhead_ms": "ms",
}


def layer_metrics(spans: list[Span], verifications: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase; see README.md for each one's meaning.

    ``verifications`` is the number of screenshots checked in the phase
    (corpus documents scored, for an evaluation).
    """
    v = verifications
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total_ms(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name]) * 1000

    selfs = self_times(spans)
    layer_self: Counter[str] = Counter()
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += selfs[s.sid] * 1000

    gets = by_name["transport.get"]
    cdx_gets = sum(s.attrs["cdx"] for s in gets)
    statuses = Counter(str(s.attrs["status"]) for s in gets)
    resolved = by_name["replay.resolve_candidate"]
    methods = Counter(s.attrs["method"] for s in resolved if s.attrs["ok"])
    extracts = by_name["replay.extract_archived_text"]
    extract_bytes = sum(s.attrs["bytes"] for s in extracts)
    chunk_spans = by_name["matching.chunk_scores"]
    rows = sum(s.attrs["rows"] for s in by_name["cdx.parse_cdx_response"])
    in_window = sum(s.attrs["in_window"] for s in by_name["cdx.filter_by_window"])
    runs = by_name["pipeline.run_pipeline"]
    evaluations = by_name["evaluation.run_evaluation"]
    eval_docs = sum(s.attrs["docs"] for s in evaluations)
    eval_ids = {s.sid for s in evaluations}
    runs_in_eval = sum(s.parent in eval_ids for s in runs)

    metrics = {
        "ocr.load_ms_per_doc": _ratio(total_ms("ocr.load_text_document"),
                                      len(by_name["ocr.load_text_document"])),
        "extraction.ms_per_verify": _ratio(total_ms("extraction.extract_fields"), v),
        "extraction.short_circuit_share": _ratio(
            sum(s.attrs["short_circuit"] for s in runs), len(runs)),
        "snowflake.self_ms_per_verify": _ratio(layer_self["snowflake"], v),
        "cdx.rows_per_verify": _ratio(rows, v),
        "cdx.parse_ms_per_verify": _ratio(total_ms("cdx.parse_cdx_response"), v),
        "cdx.dedup_filter_ms_per_verify": _ratio(
            total_ms("cdx.dedup_candidates") + total_ms("cdx.filter_by_window"), v),
        "cdx.useful_row_ratio": _ratio(in_window, rows),
        "cdx.self_ms_per_verify": _ratio(layer_self["cdx"], v),
        "transport.cdx_requests_per_verify": _ratio(cdx_gets, v),
        "transport.replay_requests_per_verify": _ratio(len(gets) - cdx_gets, v),
        "transport.redirect_hops_per_verify": _ratio(
            sum(300 <= s.attrs["status"] < 400 for s in gets), v),
        "transport.bytes_per_verify": _ratio(sum(s.attrs.get("bytes", 0) for s in gets), v),
        "transport.get_ms_per_verify": _ratio(total_ms("transport.get"), v),
        "transport.open_ms_per_run": _ratio(total_ms("transport.make_transport"),
                                            len(by_name["transport.make_transport"])),
        "transport.self_ms_per_verify": _ratio(layer_self["transport"], v),
        "replay.pages_per_verify": _ratio(len(resolved), v),
        "replay.extract_ms_per_page": _ratio(total_ms("replay.extract_archived_text"), len(extracts)),
        "replay.extract_us_per_kb": _ratio(total_ms("replay.extract_archived_text") * 1000,
                                           extract_bytes / 1024),
        "replay.ok_ratio": _ratio(sum(s.attrs["ok"] for s in resolved), len(resolved)),
        "replay.worker_busy_ms_per_verify": _ratio(total_ms("replay.resolve_candidate"), v),
        "replay.self_ms_per_verify": _ratio(layer_self["replay"], v),
        "matching.ms_per_verify": _ratio(
            total_ms("matching.score_candidates") + total_ms("matching.decide_scored"), v),
        "matching.candidates_per_verify": _ratio(len(chunk_spans), v),
        "matching.chunks_per_candidate": _ratio(sum(s.attrs["chunks"] for s in chunk_spans),
                                                len(chunk_spans)),
        "matching.max_ms_per_candidate": max(
            ((s.end - s.start) * 1000 for s in chunk_spans), default=0.0),
        "pipeline.self_ms_per_verify": _ratio(layer_self["pipeline"], v),
        "pipeline.to_json_ms": _ratio(total_ms("pipeline.to_json"), len(by_name["pipeline.to_json"])),
        "evaluation.pipeline_runs_per_doc": _ratio(runs_in_eval, eval_docs),
        "evaluation.self_ms_per_doc": _ratio(layer_self["evaluation"], eval_docs),
    }
    for code in STATUSES:
        metrics[f"transport.status.{code}"] = _ratio(statuses[code], v)
    for method in METHODS:
        metrics[f"replay.method.{method}"] = _ratio(methods[method], v)
    return metrics
