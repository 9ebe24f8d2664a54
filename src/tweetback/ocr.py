"""OCR ingestion: turn a screenshot (or pre-extracted text) into ordered lines.

OCR itself is out of scope; this module accepts either a plain-text file
holding one OCR line per physical line, or raw image bytes posted to a
line-oriented OCR HTTP service (wire contract: POST the image, get back
``{"lines": [...]}`` in reading order).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlparse

from .transport import HttpTransport, LiveTransport


class InvalidEncodingError(ValueError):
    """Input file is not valid UTF-8 text."""


class OcrServiceError(RuntimeError):
    """OCR service answered with a non-success HTTP status."""

    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"OCR service returned HTTP {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class MalformedServiceResponseError(RuntimeError):
    """OCR service response did not match the line-list wire contract."""


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


@dataclass(frozen=True)
class OcrServiceConfig:
    """Connection settings for a line-oriented OCR HTTP service."""

    endpoint: str
    auth_token: str | None = None

    def __post_init__(self) -> None:
        parsed = urlparse(self.endpoint)
        if not parsed.scheme or not parsed.netloc:
            raise ValueError(f"OCR endpoint must be an absolute URL: {self.endpoint!r}")


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


def ocr_image(
    image: bytes,
    config: OcrServiceConfig,
    transport: HttpTransport | None = None,
) -> OcrDocument:
    """Send image bytes to the OCR service and wrap its line list.

    Raises NetworkError on transport failure, OcrServiceError on non-200
    responses, and MalformedServiceResponseError when the body is not the
    expected ``{"lines": [...]}`` JSON object of single-line strings.
    """
    if not image:
        raise ValueError("image must be non-empty")
    if transport is None:
        transport = LiveTransport()
    headers = {"Content-Type": "application/octet-stream"}
    if config.auth_token:
        headers["Authorization"] = f"Bearer {config.auth_token}"
    response = transport.post(config.endpoint, data=image, headers=headers)
    if response.status != 200:
        raise OcrServiceError(response.status, response.body[:200])
    try:
        payload = json.loads(response.body)
    except (json.JSONDecodeError, RecursionError) as err:
        # A body nested deeper than the decoder's recursion limit is as
        # unreadable as a malformed one.
        raise MalformedServiceResponseError(f"OCR response is not JSON: {err}") from err
    lines = payload.get("lines") if isinstance(payload, dict) else None
    if not isinstance(lines, list) or not all(isinstance(x, str) for x in lines):
        raise MalformedServiceResponseError("OCR response lacks a 'lines' string array")
    digest = hashlib.sha256(image).hexdigest()[:12]
    try:
        return OcrDocument(source_id=f"image:{digest}", lines=tuple(lines))
    except ValueError as err:
        raise MalformedServiceResponseError(f"OCR response has a bad line: {err}") from err


__all__ = [
    "InvalidEncodingError",
    "MalformedServiceResponseError",
    "OcrDocument",
    "OcrServiceConfig",
    "OcrServiceError",
    "load_text_document",
    "ocr_image",
]
