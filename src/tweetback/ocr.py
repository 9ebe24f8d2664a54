"""OCR ingestion: turn pre-extracted OCR text into ordered lines.

OCR itself is out of scope; this module reads a plain-text file holding
one OCR line per physical line, in reading order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


class InvalidEncodingError(ValueError):
    """Input file is not valid UTF-8 text."""


@dataclass(frozen=True)
class OcrDocument:
    """Text lines recovered from one screenshot, in reading order.

    Immutable and safe to share across threads. Lines are kept exactly as
    the OCR layer produced them; whitespace normalization happens later,
    inside matching.
    """

    source_id: str
    lines: tuple[str, ...]

    def __post_init__(self) -> None:
        for line in self.lines:
            if "\n" in line or "\r" in line:
                raise ValueError("OCR line must not contain a newline")

    @property
    def raw_text(self) -> str:
        return "\n".join(self.lines)


def load_text_document(path: str | Path) -> OcrDocument:
    """Read a UTF-8 text file, less any byte-order mark, as an OcrDocument,
    one line per physical line."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        raise InvalidEncodingError(f"{path} is not valid UTF-8: {err}") from err
    return OcrDocument(source_id=str(path), lines=tuple(text.splitlines()))


__all__ = [
    "InvalidEncodingError",
    "OcrDocument",
    "load_text_document",
]
