#!/usr/bin/env python3
"""tweetback benchmark: seeded workloads against a simulated Wayback Machine.

Run from the repository root:

    python3 bench/run.py --workload verify_typical --seed 1 --seconds 30 --trace 0

The program under test is the ``tweetback`` package in ``src/`` of the same
checkout, unmodified. Each run generates its inputs from ``--seed``, sets up,
measures for ``--seconds``, checks every verdict against the generator's
ground truth, prints a table and, as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics. The exit code is 0 only when
every check passed. README.md beside this file explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The program under test is the package in this checkout, never an installed copy.
if not (SRC / "tweetback" / "__init__.py").is_file():
    sys.exit(f"error: the tweetback package is not at {SRC}")
sys.path.insert(0, str(SRC))

import tweetback.cli  # noqa: E402,F401  (set-up time covers this import)
import tweetback.evaluation  # noqa: E402
import tweetback.ocr  # noqa: E402
import tweetback.pipeline  # noqa: E402
import tweetback.transport  # noqa: E402

import gen  # noqa: E402
import instrument  # noqa: E402
import simarchive  # noqa: E402

WORKLOADS = ("verify_typical", "verify_busy_handle", "evaluate_corpus")
# verify_tail_ms is this percentile of the per-screenshot samples. Each leaves
# at least ten samples beyond it even in the slowest 30 s runs seen on a
# 2-core machine (README.md gives the sample counts).
TAIL_PERCENTILE = {"verify_typical": 95, "verify_busy_handle": 75, "evaluate_corpus": 99}
IMPORT_REPEATS = 9
RECORD_REPEATS = 3
THRESHOLD = 0.80  # PipelineConfig's default, which the workloads use

END_TO_END = {
    "requests_per_verify": "count",
    "verify_p50_ms": "ms",
    "verify_tail_ms": "ms",
    "eval_docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one measured phase produced."""

    latencies_ms: list[float] = field(default_factory=list)
    docs_per_s: list[float] = field(default_factory=list)
    requests_per_verify: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        if len(self.failures) <= 5:
            print(f"check failed: {message}", file=sys.stderr)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def import_seconds() -> list[float]:
    """Fresh-interpreter ``import tweetback.cli`` times, as every CLI call pays them."""
    code = "import time; t = time.perf_counter(); import tweetback.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return times


# --- output checks ----------------------------------------------------------------

def check_report(report, spec) -> str | None:
    """None when one verification's report matches the generator's ground truth."""
    verdict = report.verdict
    evidence = verdict.evidence
    got_id = evidence.candidate.ref.tweet_id if evidence is not None else None
    if verdict.kind.value != spec.expected_kind or got_id != spec.expected_id:
        return f"{spec.doc_id}: verdict {verdict.kind.value}/{got_id}, expected {spec.expected_kind}/{spec.expected_id}"
    if evidence is not None and evidence.score < THRESHOLD:
        return f"{spec.doc_id}: evidence score {evidence.score} under the threshold"
    if (report.cdx_query is None) != spec.short_circuit:
        return f"{spec.doc_id}: short circuit {report.cdx_query is None}, expected {spec.short_circuit}"
    if (report.in_window, report.replayed_ok) != (spec.expected_in_window, spec.expected_replayed_ok):
        return (f"{spec.doc_id}: in_window/replayed_ok {report.in_window}/{report.replayed_ok}, "
                f"expected {spec.expected_in_window}/{spec.expected_replayed_ok}")
    payload = json.loads(report.to_json())
    if (payload["schema_version"], payload["verdict"]["kind"], payload["counts"]["in_window"]) != (
            "1", verdict.kind.value, report.in_window):
        return f"{spec.doc_id}: JSON report disagrees with the verdict"
    return None


def expected_evaluation(docs) -> dict:
    """The confusion counts run_evaluation must report for a generated corpus."""
    def cell(predicted: bool, truth: bool) -> str:
        return ("tp" if truth else "fp") if predicted else ("fn" if truth else "tn")

    handle = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    stamp = dict(handle)
    verification = dict(handle)
    for d in docs:
        handle["fn" if d.scenario == "no_handle" else "fp" if d.scenario == "truncated_handle" else "tp"] += 1
        stamp["tn" if d.scenario == "relative_stamp" else "tp"] += 1
        if d.archive_state != "non_replayable":
            claimed = d.expected_kind == "archived"
            verification[cell(claimed, d.archive_state == "archived") if not claimed or
                         d.expected_id == d.true_id else "fp"] += 1
    return {
        "record_count": len(docs),
        "handle": handle,
        "timestamp": stamp,
        "verification": verification,
        "excluded_non_replayable": sum(d.archive_state == "non_replayable" for d in docs),
        "replays": sum(d.expected_in_window for d in docs),
    }


def _counts(summary: dict) -> dict:
    return {k: summary[k] for k in ("tp", "fp", "fn", "tn")}


def check_evaluation(report, expected: dict) -> str | None:
    """None when one run_evaluation report carries exactly the expected counts."""
    got = report.to_dict()
    actual = {
        "record_count": got["record_count"],
        "handle": _counts(got["extraction"]["handle"]),
        "timestamp": _counts(got["extraction"]["timestamp"]),
        "verification": _counts(got["verification"]["0.80"]),
        "excluded_non_replayable": got["excluded_non_replayable"],
        "replays": sum(got["extraction_coverage"].values()),
    }
    if actual != expected or _counts(got["verification"]["0.90"]) != expected["verification"]:
        return f"evaluation report {actual}, expected {expected}"
    if got["missing_fixtures"] or got["missing_ocr"] or got["missing_ground_truth"]:
        return "evaluation report lists missing inputs"
    return None


# --- workloads ----------------------------------------------------------------------

def ocr_file(corpus: Path, doc) -> Path:
    return corpus / "ocr" / f"{doc.doc_id}.txt"


def write_corpus(docs, corpus: Path) -> None:
    """The on-disk layout run_evaluation reads: ocr/, ground_truth.csv."""
    (corpus / "ocr").mkdir(parents=True)
    for d in docs:
        ocr_file(corpus, d).write_text(d.text, encoding="utf-8")
    with (corpus / "ground_truth.csv").open("w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(("source_id", "true_handle", "true_timestamp_iso8601",
                         "archive_state", "expected_tweet_id"))
        for d in docs:
            writer.writerow((d.doc_id, d.true_handle, d.true_timestamp, d.archive_state,
                             d.true_id or ""))


def verify_phase(docs, corpus: Path, transport, meter, seconds: float) -> Outcome:
    """Closed loop, one client: verify screenshots back to back, cycling the set.

    Runs at least one full pass, so every document is checked and the
    request count per screenshot is exact.
    """
    out = Outcome()
    config = tweetback.pipeline.PipelineConfig()
    first_pass: dict[str, int] = {}
    start = perf_counter()
    i = 0
    while i < len(docs) or perf_counter() - start < seconds:
        spec = docs[i % len(docs)]
        i += 1
        out.attempted += 1
        doc = tweetback.ocr.load_text_document(ocr_file(corpus, spec))
        before = meter.requests
        t0 = perf_counter()
        try:
            report = tweetback.pipeline.run_pipeline(doc, config, transport)
        except Exception:  # the benchmark boundary: count it and keep going
            out.fail(f"{spec.doc_id}: {traceback.format_exc()}")
            continue
        out.latencies_ms.append((perf_counter() - t0) * 1000)
        requests = meter.requests - before
        if first_pass.setdefault(spec.doc_id, requests) != requests:
            out.fail(f"{spec.doc_id}: {requests} requests, {first_pass[spec.doc_id]} before")
        elif (problem := check_report(report, spec)) is not None:
            out.fail(problem)
    out.requests_per_verify = sum(first_pass.values()) / len(docs)
    out.docs_per_s = [1000 * len(out.latencies_ms) / sum(out.latencies_ms)]
    return out


def evaluate_phase(docs, corpus: Path, meter, seconds: float) -> Outcome:
    """Closed loop, one client: run_evaluation over the corpus, again and again."""
    out = Outcome()
    expected = expected_evaluation(docs)
    per_doc: dict[str, float] = {}
    inner = tweetback.evaluation.run_pipeline

    def timed_run_pipeline(doc, *args, **kwargs):
        t0 = perf_counter()
        try:
            return inner(doc, *args, **kwargs)
        finally:
            per_doc[doc.source_id] = per_doc.get(doc.source_id, 0.0) + perf_counter() - t0

    tweetback.evaluation.run_pipeline = timed_run_pipeline
    first: int | None = None
    start = perf_counter()
    try:
        while out.attempted == 0 or perf_counter() - start < seconds:
            out.attempted += 1
            per_doc.clear()
            before = meter.requests
            t0 = perf_counter()
            try:
                report = tweetback.evaluation.run_evaluation(corpus)
            except Exception:  # the benchmark boundary: count it and keep going
                out.fail(traceback.format_exc())
                continue
            elapsed = perf_counter() - t0
            out.docs_per_s.append(report.record_count / elapsed)
            out.latencies_ms.extend(t * 1000 for t in per_doc.values())
            requests = meter.requests - before
            first = requests if first is None else first
            if requests != first:
                out.fail(f"{requests} requests in one evaluation, {first} in the first")
            elif (problem := check_evaluation(report, expected)) is not None:
                out.fail(problem)
    finally:
        tweetback.evaluation.run_pipeline = inner
    out.requests_per_verify = (first or 0) / len(docs)
    return out


def record_fixtures(docs, corpus: Path, sim) -> list[float]:
    """Record the corpus fixtures through the program's RecordingTransport.

    Recorded ``RECORD_REPEATS`` times into fresh directories (the set-up
    time is their median); every recording must be byte-identical.
    """
    times, manifests = [], []
    for k in range(RECORD_REPEATS):
        fixtures = corpus / f"fixtures-{k}"
        t0 = perf_counter()
        for d in docs:
            doc = tweetback.ocr.load_text_document(ocr_file(corpus, d))
            config = tweetback.pipeline.PipelineConfig(
                transport_mode=tweetback.pipeline.TransportMode.record(fixtures))
            recorder = tweetback.transport.RecordingTransport(fixtures, inner=sim)
            tweetback.pipeline.run_pipeline(doc, config, recorder)
        times.append(perf_counter() - t0)
        manifests.append((fixtures / tweetback.transport.MANIFEST_NAME).read_bytes())
        if k:
            shutil.rmtree(fixtures)
    if len(set(manifests)) != 1:
        raise RuntimeError("recording the same corpus twice gave different fixtures")
    (corpus / "fixtures-0").rename(corpus / "fixtures")
    return times


def interleave_traced(phase, seconds: float) -> tuple[Outcome, Outcome, "instrument.Tracer"]:
    """Alternate untraced and traced passes, so machine drift hits both alike.

    ``phase(0)`` runs exactly one pass (one run_evaluation for a corpus).
    Returns the untraced outcome, the traced outcome and the tracer.
    """
    tracer = instrument.Tracer()
    untraced, traced = Outcome(), Outcome()
    start = perf_counter()
    while perf_counter() - start < seconds or not traced.latencies_ms:
        tracing = untraced.attempted > traced.attempted
        with ExitStack() as untrace:
            if tracing:
                untrace.callback(instrument.trace_package(tracer))
            one = phase(0)
        into = traced if tracing else untraced
        into.latencies_ms += one.latencies_ms
        into.attempted += one.attempted
        into.failures += one.failures
    return untraced, traced, tracer


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Outcome, dict]:
    """Set up one workload in ``work``, measure it, and return the outcome and metrics."""
    imports = import_seconds()
    inputs = gen.generate(workload, seed)
    docs = inputs.docs
    corpus = work / "corpus"
    write_corpus(docs, corpus)
    sim = simarchive.SimulatedWayback(inputs.captures)
    print_inputs(inputs, sim)
    meter = instrument.Meter()
    pct = TAIL_PERCENTILE[workload]
    with ExitStack() as cleanup:
        if workload == "evaluate_corpus":
            prepare = record_fixtures(docs, corpus, sim)
            cleanup.callback(instrument.meter_fixture_transport(meter))
            phase = partial(evaluate_phase, docs, corpus, meter)
        else:
            prepare = [0.0]
            transport = instrument.MeteredTransport(sim, meter)
            for d in docs[:3]:  # warm-up, not measured
                tweetback.pipeline.run_pipeline(tweetback.ocr.load_text_document(ocr_file(corpus, d)),
                                                tweetback.pipeline.PipelineConfig(), transport)
            phase = partial(verify_phase, docs, corpus, transport, meter)

        if not trace:
            out = phase(seconds)
            print(f"samples: {len(out.latencies_ms)}; verify_tail_ms is p{pct}")
            metrics = {
                "requests_per_verify": out.requests_per_verify,
                "verify_p50_ms": statistics.median(out.latencies_ms),
                "verify_tail_ms": percentile(out.latencies_ms, pct),
                "eval_docs_per_s": statistics.median(out.docs_per_s),
                "setup_s": statistics.median(imports) + statistics.median(prepare),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            untraced, out, tracer = interleave_traced(phase, seconds)
            trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
            tracer.dump(trace_path)
            print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
            metrics = instrument.layer_metrics(tracer.spans, len(out.latencies_ms))
            metrics["cli.import_s"] = statistics.median(imports)
            metrics["trace.overhead_ms"] = (statistics.median(out.latencies_ms)
                                            - statistics.median(untraced.latencies_ms))
            out.attempted += untraced.attempted
            out.failures += untraced.failures
    if sim.rejected:
        out.fail(f"simulated archive rejected unmodelled requests: {dict(sim.rejected)}")
    return out, metrics


def print_inputs(inputs, sim) -> None:
    """Input sizes, so a reader can tell what one run covered."""
    pages = [len(c.page) / 1024 for c in inputs.captures if c.page]
    ocr = [len(d.text) for d in inputs.docs]
    rows = [len(sim.cdx(f"url=https://twitter.com/{d.true_handle}/status&matchType=prefix").splitlines())
            for d in inputs.docs]
    quart = lambda v: "/".join(f"{q:.1f}" for q in statistics.quantiles(v, n=4))  # noqa: E731
    print(f"inputs: {len(inputs.docs)} screenshots, {len(inputs.captures)} captures; "
          f"page KB q1/q2/q3 {quart(pages)}; OCR chars q1/q2/q3 {quart(ocr)}; "
          f"CDX rows per handle q1/q2/q3 {quart(rows)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END if not args.trace else instrument.LAYER_UNITS
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.4f} {units.get(name, '')}")
    failed = len(out.failures)
    print(f"{'failed_share':40s} {failed / out.attempted:14.4f} ratio ({failed} of {out.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
