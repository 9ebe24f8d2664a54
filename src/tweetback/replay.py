"""Fetch archived tweet pages and pull the tweet text out of the replayed HTML.

Archived tweet pages span a decade of UI generations. Legacy pages are
server-rendered and carry the tweet in an element whose class contains
``tweet-text``; newer captures usually only expose the text through
``og:description``/``description`` meta tags or a JSON-LD block. The
extractor tries exactly those three strategies, in that order. Pages
that would need script execution to render fall out as failures, which
is the same bucket as captures that never replay at all.

Parsing is done with the standard library's error-recovering HTMLParser,
since archived pages are frequently truncated or malformed. A page is read
only as far as the answer: the toolbar the Wayback Machine inserts into
plain replays is skipped, and the scan stops at the end of the first
non-empty ``tweet-text`` element, since nothing after it can change the
result.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from html.parser import HTMLParser
from urllib.parse import urljoin, urlparse

from .cdx import CandidateRef
from .transport import HttpResponse, HttpTransport, NetworkError, TransportError

MAX_REDIRECT_HOPS = 5

REPLAY_HOST = "web.archive.org"

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

TOOLBAR_BEGIN = "<!-- BEGIN WAYBACK TOOLBAR INSERT -->"
TOOLBAR_END = "<!-- END WAYBACK TOOLBAR INSERT -->"

_QUOTE_PAIRS = (("“", "”"), ('"', '"'), ("‘", "’"), ("'", "'"))


class ExtractionMethod(Enum):
    TWEET_TEXT_ELEMENT = "tweet_text_element"
    META_DESCRIPTION = "meta_description"
    JSON_LD = "json_ld"


_UI_HINTS = {
    ExtractionMethod.TWEET_TEXT_ELEMENT: "legacy server-rendered UI",
    ExtractionMethod.META_DESCRIPTION: "modern UI (meta description)",
    ExtractionMethod.JSON_LD: "modern UI (JSON-LD)",
}


class FailureReason(Enum):
    HTTP_ERROR = "http_error"
    NO_TWEET_TEXT = "no_tweet_text_found"
    REDIRECT_LOOP = "redirect_loop"
    TIMEOUT = "timeout"


class NoTweetTextFound(LookupError):
    """None of the extraction strategies produced any tweet text."""


@dataclass(frozen=True)
class CandidateTweet:
    """A replayed archived tweet with its extracted text."""

    ref: CandidateRef
    extracted_text: str
    extraction_method: ExtractionMethod
    ui_generation_hint: str = ""

    def __post_init__(self) -> None:
        if not self.extracted_text:
            raise ValueError("extracted_text must be non-empty")


@dataclass(frozen=True)
class ReplayFailure:
    """A candidate whose archived copy could not be read."""

    ref: CandidateRef
    reason: FailureReason


class _TweetTextFound(Exception):
    """The first tweet-text element closed with text; the scan can stop."""


class _PageScan(HTMLParser):
    """Single-pass scan for the three extraction strategies.

    Raises _TweetTextFound once the first ``tweet-text`` element closes
    with non-whitespace text, because that element outranks every later
    strategy.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tweet_text_parts: list[str] | None = None
        self.og_description: str | None = None
        self.meta_description: str | None = None
        self.json_ld_blocks: list[str] = []
        self._capture_stack: list[str] = []
        self._capture_done = False
        self._skip_data_depth = 0
        self._in_json_ld = False
        self._json_ld_parts: list[str] = []

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        attr_map = {name: (value or "") for name, value in attrs}
        if tag == "meta":
            content = attr_map.get("content")
            if content is not None:
                if attr_map.get("property") == "og:description" and self.og_description is None:
                    self.og_description = content
                if attr_map.get("name") == "description" and self.meta_description is None:
                    self.meta_description = content
        if tag == "script" and attr_map.get("type") == "application/ld+json":
            self._in_json_ld = True
            self._json_ld_parts = []
        if self._capture_stack:
            if tag in ("script", "style"):
                self._skip_data_depth += 1
            elif tag == "br":
                assert self.tweet_text_parts is not None
                self.tweet_text_parts.append(" ")
            if tag not in _VOID_TAGS:
                self._capture_stack.append(tag)
            return
        if (
            not self._capture_done
            and "tweet-text" in attr_map.get("class", "").split()
            and tag not in _VOID_TAGS
        ):
            self.tweet_text_parts = []
            self._capture_stack.append(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag == "script":
            if self._in_json_ld:
                self._in_json_ld = False
                self.json_ld_blocks.append("".join(self._json_ld_parts))
            if self._skip_data_depth:
                self._skip_data_depth -= 1
        elif tag == "style" and self._skip_data_depth:
            self._skip_data_depth -= 1
        if self._capture_stack and tag in self._capture_stack:
            while self._capture_stack and self._capture_stack.pop() != tag:
                pass
            if not self._capture_stack:
                self._capture_done = True
                assert self.tweet_text_parts is not None
                if _collapse("".join(self.tweet_text_parts)):
                    raise _TweetTextFound

    def handle_data(self, data: str) -> None:
        if self._in_json_ld:
            self._json_ld_parts.append(data)
        if self._capture_stack and not self._skip_data_depth:
            assert self.tweet_text_parts is not None
            self.tweet_text_parts.append(data)


def _collapse(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _strip_surrounding_quotes(text: str) -> str:
    text = text.strip()
    for opening, closing in _QUOTE_PAIRS:
        if len(text) >= 2 and text.startswith(opening) and text.endswith(closing):
            return text[1:-1].strip()
    return text


def _json_ld_text(blocks: list[str]) -> str | None:
    for block in blocks:
        try:
            payload = json.loads(block)
        except json.JSONDecodeError:
            continue
        for key in ("articleBody", "text"):
            found = _find_string_field(payload, key)
            if found:
                return found
    return None


def _find_string_field(node: object, key: str) -> str | None:
    if isinstance(node, dict):
        value = node.get(key)
        if isinstance(value, str) and value.strip():
            return value
        for child in node.values():
            found = _find_string_field(child, key)
            if found:
                return found
    elif isinstance(node, list):
        for child in node:
            found = _find_string_field(child, key)
            if found:
                return found
    return None


def extract_archived_text(html: str) -> tuple[str, ExtractionMethod]:
    """Extract the tweet text from replayed HTML.

    Strategies, in fixed order: the first ``tweet-text`` element, then the
    page's description meta tags, then a JSON-LD article body. A strategy
    that yields only whitespace does not count as a success. Raises
    NoTweetTextFound when every strategy comes up empty.

    A Wayback toolbar insert (BEGIN marker, then a later END marker) is
    the archive's own markup, not the capture's, and is not parsed.
    """
    scan = _PageScan()
    try:
        for part in _without_toolbar(html):
            scan.feed(part)
        scan.close()
    except _TweetTextFound:
        pass

    if scan.tweet_text_parts is not None:
        text = _collapse("".join(scan.tweet_text_parts))
        if text:
            return text, ExtractionMethod.TWEET_TEXT_ELEMENT

    meta = scan.og_description if scan.og_description is not None else scan.meta_description
    if meta is not None:
        text = _collapse(_strip_surrounding_quotes(meta))
        if text:
            return text, ExtractionMethod.META_DESCRIPTION

    json_ld = _json_ld_text(scan.json_ld_blocks)
    if json_ld is not None:
        text = _collapse(json_ld)
        if text:
            return text, ExtractionMethod.JSON_LD

    raise NoTweetTextFound("no tweet text in replayed page")


def _without_toolbar(html: str) -> tuple[str, ...]:
    begin = html.find(TOOLBAR_BEGIN)
    if begin < 0:
        return (html,)
    end = html.find(TOOLBAR_END, begin + len(TOOLBAR_BEGIN))
    if end < 0:
        return (html,)
    return html[:begin], html[end + len(TOOLBAR_END):]


def _header(response: HttpResponse, name: str) -> str | None:
    for key, value in response.headers.items():
        if key.lower() == name.lower():
            return value
    return None


def fetch_replay(ref: CandidateRef, transport: HttpTransport) -> str | ReplayFailure:
    """Fetch a replay URL, following redirects only within web.archive.org.

    All failures come back as ReplayFailure values rather than exceptions,
    so one bad candidate never aborts a batch.
    """
    url = ref.replay_url
    for _ in range(MAX_REDIRECT_HOPS + 1):
        try:
            response = transport.get(url)
        except NetworkError as err:
            reason = FailureReason.TIMEOUT if err.timed_out else FailureReason.HTTP_ERROR
            return ReplayFailure(ref=ref, reason=reason)
        except TransportError:
            return ReplayFailure(ref=ref, reason=FailureReason.HTTP_ERROR)
        if response.status in (301, 302, 303, 307, 308):
            location = _header(response, "Location")
            if not location:
                return ReplayFailure(ref=ref, reason=FailureReason.HTTP_ERROR)
            url = urljoin(url, location)
            if urlparse(url).netloc != REPLAY_HOST:
                return ReplayFailure(ref=ref, reason=FailureReason.HTTP_ERROR)
            continue
        if response.status == 200:
            return response.body
        return ReplayFailure(ref=ref, reason=FailureReason.HTTP_ERROR)
    return ReplayFailure(ref=ref, reason=FailureReason.REDIRECT_LOOP)


def resolve_candidate(ref: CandidateRef, transport: HttpTransport) -> CandidateTweet | ReplayFailure:
    """Map one candidate to exactly one CandidateTweet or ReplayFailure."""
    fetched = fetch_replay(ref, transport)
    if isinstance(fetched, ReplayFailure):
        return fetched
    try:
        text, method = extract_archived_text(fetched)
    except NoTweetTextFound:
        return ReplayFailure(ref=ref, reason=FailureReason.NO_TWEET_TEXT)
    return CandidateTweet(
        ref=ref,
        extracted_text=text,
        extraction_method=method,
        ui_generation_hint=_UI_HINTS[method],
    )
