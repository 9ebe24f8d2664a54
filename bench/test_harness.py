"""The harness's own wrappers and checks: they count and time, and change nothing."""

from __future__ import annotations

import json
from pathlib import Path

import gen
import instrument
import run
from simarchive import SimulatedWayback
from tweetback.evaluation import run_evaluation
from tweetback.ocr import OcrDocument, load_text_document
from tweetback.pipeline import PipelineConfig, run_pipeline
from tweetback.transport import FixtureTransport

REPO = Path(__file__).resolve().parent.parent
PAM_OCR = REPO / "tests" / "data" / "pam_ocr.txt"
PAM_FIXTURES = REPO / "tests" / "data" / "pam_fixtures"
PAM_EVIDENCE_ID = 1523141006509502470


def _report_without_clock(report) -> dict:
    payload = report.to_dict()
    del payload["generated_at"]
    return payload


def test_pam_fixtures_through_the_counting_and_timing_wrappers():
    doc = load_text_document(PAM_OCR)
    plain = run_pipeline(doc, PipelineConfig(), FixtureTransport(PAM_FIXTURES))

    meter, tracer = instrument.Meter(), instrument.Tracer()
    restore = instrument.trace_package(tracer)
    try:
        transport = instrument.MeteredTransport(FixtureTransport(PAM_FIXTURES), meter)
        wrapped = run_pipeline(doc, PipelineConfig(), transport)
    finally:
        restore()

    assert wrapped.verdict.kind.value == "archived"
    assert wrapped.verdict.evidence.candidate.ref.tweet_id == PAM_EVIDENCE_ID
    assert _report_without_clock(wrapped) == _report_without_clock(plain)
    gets = [s for s in tracer.spans if s.name == "transport.get"]
    assert meter.requests == len(gets) == 6
    assert sum(s.attrs["cdx"] for s in gets) == 1
    assert sum(not s.attrs["cdx"] for s in gets) == 5
    assert instrument.layer_metrics(tracer.spans, 1)["replay.pages_per_verify"] == 5


def test_tracing_restores_the_package():
    import tweetback.cdx

    before = tweetback.cdx.parse_cdx_response
    restore = instrument.trace_package(instrument.Tracer())
    assert tweetback.cdx.parse_cdx_response is not before
    restore()
    assert tweetback.cdx.parse_cdx_response is before


def test_self_time_subtracts_the_covered_part_of_children_once():
    span = instrument.Span
    spans = [
        span(1, "pipeline.run_pipeline", 0.0, 10.0, None, 1),
        span(2, "replay.resolve_candidate", 1.0, 5.0, 1, 1),
        span(3, "replay.resolve_candidate", 3.0, 7.0, 1, 1),  # overlaps 2 (other worker)
        span(4, "matching.score_candidates", 9.0, 12.0, 1, 1),  # runs past its parent
        span(5, "replay.fetch_replay", 1.0, 2.0, 2, 1),
    ]
    selfs = instrument.self_times(spans)
    assert selfs == {1: 10.0 - 6.0 - 1.0, 2: 3.0, 3: 4.0, 4: 3.0, 5: 1.0}


def test_typical_verdicts_match_the_ground_truth():
    inputs = gen.generate("verify_typical", 11)
    transport = SimulatedWayback(inputs.captures)
    kinds = set()
    for spec in inputs.docs[:40]:
        report = run_pipeline(OcrDocument(spec.doc_id, spec.lines), PipelineConfig(), transport)
        assert run.check_report(report, spec) is None
        kinds.add(spec.expected_kind)
    assert kinds == {"archived", "not_found", "non_replayable"}


def test_evaluation_check_matches_run_evaluation(tmp_path):
    inputs = gen.generate("evaluate_corpus", 5)
    run.write_corpus(inputs.docs, tmp_path)
    run.record_fixtures(inputs.docs, tmp_path, SimulatedWayback(inputs.captures))
    report = run_evaluation(tmp_path)
    assert run.check_evaluation(report, run.expected_evaluation(inputs.docs)) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fixtures", "ground_truth.csv", "ocr"]


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == instrument.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

