from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import StubTransport
from tweetback.ocr import (
    InvalidEncodingError,
    MalformedServiceResponseError,
    OcrDocument,
    OcrServiceConfig,
    OcrServiceError,
    load_text_document,
    ocr_image,
)

ENDPOINT = "https://ocr.example.test/read"

_safe_line = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    max_size=40,
)


def test_load_text_document_order_preserved(tmp_path):
    path = tmp_path / "shot.txt"
    path.write_text("Barack Obama\n@BarackObama\nAs we grieve...", encoding="utf-8")
    doc = load_text_document(path)
    assert doc.lines == ("Barack Obama", "@BarackObama", "As we grieve...")
    assert doc.source_id == str(path)


def test_load_text_document_empty_file(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("", encoding="utf-8")
    doc = load_text_document(path)
    assert doc.lines == ()
    assert doc.raw_text == ""


def test_load_text_document_trailing_newline(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a\nb\n")
    # oracle: the platform line-splitting of the same bytes
    expected = tuple(b"a\nb\n".decode().splitlines())
    assert load_text_document(path).lines == expected == ("a", "b")


def test_load_text_document_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_text_document(tmp_path / "nope.txt")


def test_load_text_document_bad_encoding(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"caf\xe9")
    with pytest.raises(InvalidEncodingError):
        load_text_document(path)


def test_load_text_document_drops_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf@BarackObama\nAs we grieve...")
    assert load_text_document(path).lines == ("@BarackObama", "As we grieve...")


def test_load_text_document_bad_encoding_after_byte_order_mark(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xef\xbb\xbfcaf\xe9")
    with pytest.raises(InvalidEncodingError):
        load_text_document(path)


def test_load_text_document_deterministic(tmp_path):
    path = tmp_path / "same.txt"
    path.write_text("one\ntwo\nthree", encoding="utf-8")
    assert load_text_document(path) == load_text_document(path)


def test_document_rejects_embedded_newline():
    with pytest.raises(ValueError):
        OcrDocument("x", ("bad\nline",))


@given(st.lists(_safe_line, max_size=8))
def test_raw_text_round_trip(lines):
    doc = OcrDocument("x", tuple(lines))
    if doc.lines:
        assert tuple(doc.raw_text.split("\n")) == doc.lines
    else:
        assert doc.raw_text == ""


def test_ocr_service_config_requires_absolute_url():
    with pytest.raises(ValueError):
        OcrServiceConfig(endpoint="not-a-url")


def test_ocr_image_passes_lines_through():
    transport = StubTransport().add_post(ENDPOINT, json.dumps({"lines": ["x", "y"]}))
    doc = ocr_image(b"PNGDATA", OcrServiceConfig(endpoint=ENDPOINT), transport)
    assert doc.lines == ("x", "y")
    url, data, headers = transport.post_log[0]
    assert data == b"PNGDATA"
    assert headers["Content-Type"] == "application/octet-stream"
    assert "Authorization" not in headers


def test_ocr_image_sends_bearer_token():
    transport = StubTransport().add_post(ENDPOINT, json.dumps({"lines": []}))
    config = OcrServiceConfig(endpoint=ENDPOINT, auth_token="sekrit")
    ocr_image(b"img", config, transport)
    _, _, headers = transport.post_log[0]
    assert headers["Authorization"] == "Bearer sekrit"


def test_ocr_image_http_error():
    transport = StubTransport().add_post(ENDPOINT, "denied", status=401)
    with pytest.raises(OcrServiceError) as excinfo:
        ocr_image(b"img", OcrServiceConfig(endpoint=ENDPOINT), transport)
    assert excinfo.value.status == 401


@pytest.mark.parametrize("body", ["not json", '{"nope": 1}', '{"lines": [1, 2]}'])
def test_ocr_image_malformed_response(body):
    transport = StubTransport().add_post(ENDPOINT, body)
    with pytest.raises(MalformedServiceResponseError):
        ocr_image(b"img", OcrServiceConfig(endpoint=ENDPOINT), transport)


def test_ocr_image_over_deep_body_is_malformed():
    transport = StubTransport().add_post(ENDPOINT, "[" * 200000)
    with pytest.raises(MalformedServiceResponseError, match="OCR response is not JSON"):
        ocr_image(b"img", OcrServiceConfig(endpoint=ENDPOINT), transport)


@pytest.mark.parametrize("line", ["a\nb", "a\rb"])
def test_ocr_image_line_with_newline_is_malformed(line):
    transport = StubTransport().add_post(ENDPOINT, json.dumps({"lines": ["ok", line]}))
    with pytest.raises(MalformedServiceResponseError, match="newline"):
        ocr_image(b"img", OcrServiceConfig(endpoint=ENDPOINT), transport)


def test_ocr_image_rejects_empty_image():
    with pytest.raises(ValueError):
        ocr_image(b"", OcrServiceConfig(endpoint=ENDPOINT), StubTransport())
