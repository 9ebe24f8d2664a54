from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from helpers import StubTransport, fresh_interpreter
from tweetback.cli import (
    EXIT_ARCHIVED,
    EXIT_ERROR,
    EXIT_NOT_FOUND,
    EXIT_USAGE,
    main,
)
from tweetback.transport import RecordingTransport

PRE_SNOWFLAKE_OCR = "@someone\nhello world\n4:08 PM 2009-05-25\n"


class TestVerify:
    def test_pam_fixture_scenario_exits_archived(self, capsys, pam_ocr_path, pam_fixtures_dir):
        code = main([
            "verify", "--ocr-text", str(pam_ocr_path), "--fixtures", str(pam_fixtures_dir),
        ])
        assert code == EXIT_ARCHIVED
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["kind"] == "archived"
        assert payload["verdict"]["evidence"]["replay_url"].endswith(
            "/web/20220509011257/https://twitter.com/PamKeithFL/status/1523141006509502470"
        )

    def test_byte_order_mark_before_handle_exits_archived(
            self, capsys, tmp_path, pam_ocr_path, pam_fixtures_dir):
        shot = tmp_path / "bom.txt"
        lines = pam_ocr_path.read_text(encoding="utf-8").splitlines()[1:]
        shot.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
        code = main(["verify", "--ocr-text", str(shot), "--fixtures", str(pam_fixtures_dir)])
        assert code == EXIT_ARCHIVED
        payload = json.loads(capsys.readouterr().out)
        assert payload["extraction"]["handle"] == "PamKeithFL"

    def test_relative_timestamp_exits_not_found(self, capsys, tmp_path):
        shot = tmp_path / "relative.txt"
        shot.write_text("Somebody\n@somebody\nwords words\n1d\n")
        code = main(["verify", "--ocr-text", str(shot), "--fixtures", str(tmp_path)])
        assert code == EXIT_NOT_FOUND
        payload = json.loads(capsys.readouterr().out)
        assert "timestamp extraction failed" in payload["warnings"]

    def test_json_flag_writes_report(self, capsys, tmp_path, pam_ocr_path, pam_fixtures_dir):
        out = tmp_path / "report.json"
        main([
            "verify", "--ocr-text", str(pam_ocr_path),
            "--fixtures", str(pam_fixtures_dir), "--json", str(out),
        ])
        on_disk = json.loads(out.read_text())
        assert on_disk["verdict"]["kind"] == "archived"

    def test_threshold_flag_propagates(self, capsys, pam_ocr_path, pam_fixtures_dir):
        main([
            "verify", "--ocr-text", str(pam_ocr_path),
            "--fixtures", str(pam_fixtures_dir), "--threshold", "0.9",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["threshold"] == 0.9

    def test_no_input_flag_is_usage_error(self, capsys):
        assert main(["verify"]) == EXIT_USAGE

    def test_missing_file_is_error(self, capsys, tmp_path):
        code = main(["verify", "--ocr-text", str(tmp_path / "nope.txt"),
                     "--fixtures", str(tmp_path)])
        assert code == EXIT_ERROR

    def test_fixtures_and_record_conflict(self, capsys, pam_ocr_path, tmp_path):
        code = main([
            "verify", "--ocr-text", str(pam_ocr_path),
            "--fixtures", str(tmp_path), "--record", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    def test_recorded_429_is_error(self, capsys, data_dir, pam_ocr_path, tmp_path):
        query = json.loads((data_dir / "pam_report_golden.json").read_text())["cdx_query"]
        inner = StubTransport().add(query, "slow down", 429, {"Retry-After": "30"})
        RecordingTransport(tmp_path, inner=inner).get(query)
        code = main(["verify", "--ocr-text", str(pam_ocr_path), "--fixtures", str(tmp_path)])
        assert code == EXIT_ERROR
        assert f"HTTP 429 for {query}" in capsys.readouterr().err

    def test_missing_replay_fixtures_are_error(self, capsys, pam_ocr_path, pam_fixtures_dir, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(pam_fixtures_dir, fixtures)
        manifest = json.loads((fixtures / "manifest.json").read_text())
        replays = [key for key, entry in manifest.items() if "id_/" in entry["url"]]
        assert len(replays) == 5
        for key in replays:
            (fixtures / f"{key}.body").unlink()
        code = main(["verify", "--ocr-text", str(pam_ocr_path), "--fixtures", str(fixtures)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no fixture for https://web.archive.org/web/" in captured.err
        assert "id_/" in captured.err

    def test_pre_snowflake_date_exits_not_found(self, capsys, tmp_path):
        shot = tmp_path / "old.txt"
        shot.write_text(PRE_SNOWFLAKE_OCR)
        code = main(["verify", "--ocr-text", str(shot), "--fixtures", str(tmp_path / "none")])
        assert code == EXIT_NOT_FOUND
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"] == ["timestamp precedes Snowflake tweet IDs"]

    def test_window_width_is_not_settable(self, capsys, pam_ocr_path, pam_fixtures_dir):
        code = main([
            "verify", "--ocr-text", str(pam_ocr_path),
            "--fixtures", str(pam_fixtures_dir), "--window-hours", "26",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("top", ["-1", "-4"])
    def test_negative_top_is_error(self, capsys, pam_ocr_path, pam_fixtures_dir, top):
        code = main([
            "verify", "--ocr-text", str(pam_ocr_path),
            "--fixtures", str(pam_fixtures_dir), "--top", top,
        ])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: top_scores {top} is negative\n"

    def test_live_run_without_requests_is_error(self, pam_ocr_path):
        code = """
import sys
sys.modules["requests"] = None
from tweetback.cli import main
print(main(sys.argv[1:]))
"""
        out = fresh_interpreter(code, "verify", "--ocr-text", str(pam_ocr_path))
        assert out == str(EXIT_ERROR)


class TestExtract:
    def test_prints_fields(self, capsys, pam_ocr_path):
        assert main(["extract", "--ocr-text", str(pam_ocr_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["handle"] == "PamKeithFL"
        assert payload["timestamp"] == "2022-05-07T23:21:00+00:00"
        assert payload["text_is_fallback"] is False


class TestGoldenBytes:
    """The PAM outputs, byte for byte, as checked in under tests/data.

    The report's ``generated_at`` line is the only one that changes from
    run to run, so it is dropped before the comparison. Paths are given
    relative to the repository root because ``source_id`` echoes them.
    """

    def _stdout(self, capsys, monkeypatch, data_dir, argv):
        monkeypatch.chdir(Path(data_dir).parent.parent)
        main(argv)
        return capsys.readouterr().out

    def test_verify_report_matches_golden(self, capsys, monkeypatch, data_dir):
        out = self._stdout(capsys, monkeypatch, data_dir, [
            "verify", "--ocr-text", "tests/data/pam_ocr.txt",
            "--fixtures", "tests/data/pam_fixtures",
        ])
        lines = out.splitlines(keepends=True)
        assert sum(line.startswith('  "generated_at": ') for line in lines) == 1
        kept = "".join(line for line in lines if not line.startswith('  "generated_at": '))
        assert kept.encode("utf-8") == (data_dir / "pam_report_golden.json").read_bytes()

    def test_extract_output_matches_golden(self, capsys, monkeypatch, data_dir):
        out = self._stdout(capsys, monkeypatch, data_dir, [
            "extract", "--ocr-text", "tests/data/pam_ocr.txt",
        ])
        assert out.encode("utf-8") == (data_dir / "pam_extract_golden.json").read_bytes()


class TestDecodeId:
    def test_decodes_paper_id(self, capsys):
        assert main(["decode-id", "1523141006509502470"]) == 0
        out = capsys.readouterr().out
        assert "2022-05-08T03:21" in out

    def test_pre_snowflake_id_is_error(self, capsys):
        assert main(["decode-id", "20"]) == EXIT_ERROR

    @pytest.mark.parametrize("tweet_id", [
        "99999999999999999999", "999999999999999999999999999999999",
    ])
    def test_id_past_64_bits_is_error(self, capsys, tweet_id):
        assert main(["decode-id", tweet_id]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: not a Snowflake tweet ID: {tweet_id}\n"

    def test_non_numeric_id_is_usage_error(self, capsys):
        assert main(["decode-id", "not-a-number"]) == EXIT_USAGE


class TestEvaluate:
    def test_prints_table_and_writes_json(self, capsys, tmp_path, eval_corpus_dir):
        out = tmp_path / "eval.json"
        code = main(["evaluate", "--corpus", str(eval_corpus_dir), "--json", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "verification @ 0.80" in table
        payload = json.loads(out.read_text())
        assert payload["record_count"] == 12

    def test_ground_truth_labelling_a_document_twice_is_error(
            self, capsys, tmp_path, eval_corpus_dir):
        corpus = tmp_path / "corpus"
        shutil.copytree(eval_corpus_dir, corpus)
        with open(corpus / "ground_truth.csv", "a", encoding="utf-8") as csv_file:
            csv_file.write("e01_alice_park,alice_park,2022-06-03T08:05,not_archived,\n")
        assert main(["evaluate", "--corpus", str(corpus)]) == EXIT_ERROR
        assert "'e01_alice_park' labelled twice" in capsys.readouterr().err

    def test_empty_corpus_succeeds(self, capsys, tmp_path):
        assert main(["evaluate", "--corpus", str(tmp_path)]) == 0

    def test_missing_corpus_is_error(self, capsys, tmp_path):
        corpus = tmp_path / "typo"
        assert main(["evaluate", "--corpus", str(corpus)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: corpus {corpus} is not a directory\n"

    def test_pre_snowflake_document_is_a_true_negative(self, capsys, tmp_path):
        (tmp_path / "ocr").mkdir()
        (tmp_path / "ocr" / "old.txt").write_text(PRE_SNOWFLAKE_OCR)
        (tmp_path / "ground_truth.csv").write_text(
            "source_id,true_handle,true_timestamp_iso8601,archive_state,expected_tweet_id\n"
            "old,someone,2009-05-25T16:08,not_archived,\n"
        )
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--corpus", str(tmp_path), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["record_count"] == 1
        assert payload["missing_fixtures"] == []
        for threshold in ("0.80", "0.90"):
            counts = payload["verification"][threshold]
            assert (counts["tp"], counts["fp"], counts["fn"], counts["tn"]) == (0, 0, 0, 1)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["verify", "extract"])
    @pytest.mark.parametrize("flag", ["--image", "--ocr-endpoint"])
    def test_ocr_service_flags_are_usage_errors(
            self, capsys, tmp_path, pam_ocr_path, pam_fixtures_dir, flag, command):
        """Input is OCR text only: neither an image nor an OCR service is accepted."""
        if flag == "--image":
            image = tmp_path / "shot.png"
            image.write_bytes(b"\x89PNG fake")
            argv = [command, "--image", str(image)]
        else:
            argv = [command, "--ocr-text", str(pam_ocr_path),
                    "--ocr-endpoint", "https://ocr.test/lines"]
        if command == "verify":
            argv += ["--fixtures", str(pam_fixtures_dir)]
        assert main(argv) == EXIT_USAGE

    def test_exit_codes_are_distinct(self):
        codes = {EXIT_ARCHIVED, EXIT_NOT_FOUND, EXIT_ERROR, EXIT_USAGE}
        assert len(codes) == 4
        assert all(code > 2 for code in (EXIT_ERROR, EXIT_USAGE))
