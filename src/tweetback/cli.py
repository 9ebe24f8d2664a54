"""Command-line interface.

Subcommands: ``verify`` (full pipeline, JSON report), ``extract``
(field extraction only), ``decode-id`` (Snowflake decode), ``evaluate``
(metrics over a labeled corpus). The exit code of ``verify`` encodes the
verdict so shell pipelines can branch without parsing JSON:
0 archived, 1 not found, 2 non-replayable; anything above 2 is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import __version__
from .extraction import extract_fields
from .matching import VerdictKind
from .ocr import load_text_document
from .pipeline import PipelineConfig, TransportMode, run_pipeline
from .snowflake import id_to_time
from .transport import TransportError

EXIT_ARCHIVED = 0
EXIT_NOT_FOUND = 1
EXIT_NON_REPLAYABLE = 2
EXIT_ERROR = 3
EXIT_USAGE = 64

_VERDICT_EXIT_CODES = {
    VerdictKind.ARCHIVED: EXIT_ARCHIVED,
    VerdictKind.NOT_FOUND: EXIT_NOT_FOUND,
    VerdictKind.NON_REPLAYABLE: EXIT_NON_REPLAYABLE,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tweetback", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tweetback {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    defaults = PipelineConfig()
    verify = commands.add_parser("verify", help="verify a screenshot against the Wayback Machine")
    _add_input_flag(verify)
    verify.add_argument("--threshold", type=float, default=defaults.threshold,
                        help="text-overlap score required for a match "
                             f"(default {defaults.threshold:.2f})")
    archive = verify.add_mutually_exclusive_group()
    archive.add_argument("--fixtures", metavar="DIR", help="replay recorded HTTP fixtures")
    archive.add_argument("--record", metavar="DIR", help="hit the live web, recording fixtures")
    verify.add_argument("--json", metavar="PATH", help="also write the JSON report here")
    verify.add_argument("--top", type=int, default=defaults.top_scores, metavar="N",
                        help="candidate scores to include in the report "
                             f"(default {defaults.top_scores})")

    extract = commands.add_parser("extract", help="run field extraction only, print JSON")
    _add_input_flag(extract)

    decode = commands.add_parser("decode-id", help="decode a Snowflake tweet ID")
    decode.add_argument("tweet_id", type=int)

    evaluate = commands.add_parser("evaluate", help="score the pipeline over a labeled corpus")
    evaluate.add_argument("--corpus", required=True, metavar="DIR",
                          help="directory with ocr/, ground_truth.csv, and fixtures/")
    evaluate.add_argument("--json", metavar="PATH", help="also write the JSON report here")
    return parser


def _add_input_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ocr-text", required=True, metavar="PATH",
                        help="pre-extracted OCR text file")


def _transport_mode(args: argparse.Namespace) -> TransportMode:
    if args.fixtures:
        return TransportMode.fixture(args.fixtures)
    if args.record:
        return TransportMode.record(args.record)
    return TransportMode.live()


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = load_text_document(args.ocr_text)
    config = PipelineConfig(
        threshold=args.threshold,
        transport_mode=_transport_mode(args),
        top_scores=args.top,
    )
    report = run_pipeline(doc, config)
    payload = report.to_json()
    print(payload)
    if args.json:
        Path(args.json).write_text(payload + "\n", encoding="utf-8")
    return _VERDICT_EXIT_CODES[report.verdict.kind]


def _cmd_extract(args: argparse.Namespace) -> int:
    doc = load_text_document(args.ocr_text)
    payload = {"source_id": doc.source_id, **extract_fields(doc).to_dict()}
    print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
    return 0


def _cmd_decode_id(args: argparse.Namespace) -> int:
    created = id_to_time(args.tweet_id)
    print(f"{args.tweet_id} -> {created.isoformat()}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    # Imported here, so start-up for the other commands does not load it.
    from .evaluation import run_evaluation

    report = run_evaluation(args.corpus)
    print(report.to_text_table())
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "extract": _cmd_extract,
    "decode-id": _cmd_decode_id,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        parser.print_help(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (TransportError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # unforeseen: the traceback is the message
        traceback.print_exc()
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
