from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetback.ocr import InvalidEncodingError, OcrDocument, load_text_document

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

