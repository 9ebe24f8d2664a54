"""Fetch archived tweet pages and pull the tweet text out of the replayed HTML.

Archived tweet pages span a decade of UI generations. Legacy pages are
server-rendered and carry the tweet in an element whose class contains
``tweet-text``; newer captures usually only expose the text through
``og:description``/``description`` meta tags or a JSON-LD block. The
extractor tries exactly those three strategies, in that order. Pages
that would need script execution to render fall out as failures, which
is the same bucket as captures that never replay at all.

Replays are fetched in the raw ``id_`` form (see
``cdx.CandidateRef.raw_replay_url``), which carries no toolbar and no
rewritten links; results cite the plain replay URL.

Archived pages are frequently truncated or malformed, so they are read
in one forward pass by a small scanner, not by a parser that builds a
tree. Its rules:

- Each ``<`` opens a start tag, an end tag, a comment, or a ``<!…>`` or
  ``<?…>`` declaration; otherwise it is text. A ``<![…]>`` section,
  whatever its keyword, is a declaration and ends at its first ``>``.
- A quote opens an attribute value only right after ``=``, and a ``>``
  inside a quoted value does not end the tag. Tag and attribute names are
  read case-insensitively, and the last duplicate attribute wins.
- Text and attribute values have character references decoded, ``<br>``
  reads as a space, and the raw text of ``script`` and ``style`` runs to
  their own end tag and is never tweet text.
- An element ends at the end tag that closes its last open namesake; a
  tag written ``<…/>`` ends where it starts.
- An unterminated construct ends the page: a tag with no ``>`` outside
  quotes, a comment with no ``-->``, raw text with no end tag. The
  strategies use what was read before it.

So each character is read a bounded number of times, and any page costs
time linear in its size. A page is read only as far as the answer: the
scan stops at the end of the first non-empty ``tweet-text`` element,
since nothing after it can change the result.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from html import unescape
from urllib.parse import urljoin, urlparse

from .cdx import REPLAY_BASE, CandidateRef
from .transport import FixtureMissingError, HttpTransport, NetworkError, TransportError

MAX_REDIRECT_HOPS = 5

REPLAY_HOST = urlparse(REPLAY_BASE).netloc

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_QUOTE_PAIRS = (("“", "”"), ('"', '"'), ("‘", "’"), ("'", "'"))

_WHITESPACE_RE = re.compile(r"\s+")

# One token at each "<": a start tag (groups 1, its name; 2, its raw
# attributes; 5, a "/" just before its ">"), an end tag (6, its name), a
# declaration, processing instruction or "<![…]>" section, or a "<" that
# opens none of these and is text. A quote opens only after "=". The name and
# each unquoted run are atomic, written (?=(…))\N since Python 3.10's re has
# no atomic groups; backtracking into them costs quadratic time on hostile
# markup.
_TOKEN_RE = re.compile(
    r"<(?:(?=([a-zA-Z][^\s/>]*))\1((?:(?=([^>=/]+))\3|/(?!>)|=\s*(?:"
    r"""(?=([^\s>"'][^\s>]*))\4|"[^"]*"|'[^']*'|(?=[>=]|\Z)))*)(/?)>"""
    r"|/(?:(?=([a-zA-Z][^\s/>]*))\6)?[^>]*>|[!?](?!--)[^>]*>|(?![a-zA-Z/!?]))"
)

_ATTR_RE = re.compile(r"""([^\s/=]+)(?:\s*=+\s*("[^"]*"|'[^']*'|\S+))?""")

# What may follow "</script" or "</style" in the end tag of its raw text.
_END_TAG_NAME_ENDS = "\t\n\f\r />"


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

    def __post_init__(self) -> None:
        if not self.extracted_text:
            raise ValueError("extracted_text must be non-empty")

    @property
    def ui_generation_hint(self) -> str:
        return _UI_HINTS[self.extraction_method]


@dataclass(frozen=True)
class ReplayFailure:
    """A candidate whose archived copy could not be read."""

    ref: CandidateRef
    reason: FailureReason


def _attributes(raw: str) -> dict[str, str]:
    """A start tag's attributes by lower-cased name, values decoded; the last
    duplicate wins and a value-less attribute reads ""."""
    return {name.lower(): unescape(value[1:-1] if value[:1] in ("'", '"') else value)
            for name, value in _ATTR_RE.findall(raw)}


def _raw_text_end(page: str, pos: int, name: str) -> tuple[int, int] | None:
    """Where the raw text of a ``script`` or ``style`` element that starts at
    ``pos`` ends, and where its end tag ends; None when either is missing."""
    end_tag = "</" + name
    while (close := page.find("<", pos)) >= 0:
        pos = close + len(end_tag)
        if page[close:pos].lower() == end_tag and page[pos:pos + 1] in _END_TAG_NAME_ENDS:
            end = page.find(">", pos)
            return None if end < 0 else (close, end + 1)
        pos = close + 1
    return None


def _scan(page: str, tweet_id: int | None) -> tuple[str, str | None, list[str]]:
    """Read ``page`` once, front to back, up to the end of the first non-empty
    ``tweet-text`` element; return that element's text, the description meta
    (``og:description`` first) and the JSON-LD blocks."""
    og_description = description = None
    json_ld_blocks: list[str] = []
    own_id = None if tweet_id is None else str(tweet_id)
    parts: list[str] = []
    # The element read into (the first tweet-text element) or past (one
    # naming another tweet), as [name, open namesakes]; it ends at the end
    # tag that closes its last open namesake.
    held: list | None = None
    capturing = done = False
    find, match = page.find, _TOKEN_RE.match
    pos = 0
    while True:
        lt = find("<", pos)
        if capturing and lt != pos:
            parts.append(unescape(page[pos:] if lt < 0 else page[pos:lt]))
        if lt < 0:
            break
        token = match(page, lt)
        if token is None:
            if not page.startswith("<!--", lt) or (end := find("-->", lt + 4)) < 0:
                break
            pos = end + 3
            continue
        pos = token.end()
        kind = token.lastindex
        if kind == 5:
            name, raw, slash = token.group(1, 2, 5)
            name = name.lower()
            wanted = ("&" in raw or "tweet-text" in raw
                      or (name == "meta" and "description" in raw)
                      or (name == "script" and "ld+json" in raw)
                      or (own_id is not None and held is None and not done
                          and "data-tweet-id" in raw.lower()))
            attrs = _attributes(raw) if wanted else {}
            if name == "meta" and "content" in attrs:
                if attrs.get("property") == "og:description" and og_description is None:
                    og_description = attrs["content"]
                if attrs.get("name") == "description" and description is None:
                    description = attrs["content"]
            if held is not None:
                if capturing and name == "br":
                    parts.append(" ")
                elif name == held[0]:
                    held[1] += 1
            elif attrs and not done and name not in _VOID_TAGS:
                if own_id is not None and attrs.get("data-tweet-id", own_id) != own_id:
                    held = [name, 1]
                elif "tweet-text" in attrs.get("class", "").split():
                    held, capturing = [name, 1], True
            if name in ("script", "style") and not slash:
                span = _raw_text_end(page, pos, name)
                if span is None:
                    break
                if name == "script" and attrs.get("type") == "application/ld+json":
                    json_ld_blocks.append(page[pos:span[0]])
                pos = span[1]
            elif not slash:
                continue
            # A script or style element, or a tag written "<…/>", ends here.
        elif kind == 6 and held is not None:
            name = token.group(6).lower()
        else:
            if pos == lt + 1 and capturing:
                parts.append("<")
            continue
        if held is not None and name == held[0]:
            held[1] -= 1
            if not held[1]:
                held = None
                if capturing:
                    capturing, done = False, True
                    if "".join(parts).strip():
                        break
    meta = og_description if og_description is not None else description
    return "".join(parts), meta, json_ld_blocks


def collapse_whitespace(text: str) -> str:
    """Replace each whitespace run with one space and strip both ends."""
    return _WHITESPACE_RE.sub(" ", text).strip()


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
        except (json.JSONDecodeError, RecursionError):
            # A block nested deeper than the decoder's recursion limit is
            # as unreadable as a malformed one.
            continue
        for key in ("articleBody", "text"):
            found = _find_string_field(payload, key)
            if found:
                return found
    return None


def _find_string_field(node: object, key: str) -> str | None:
    """First non-blank string stored under ``key`` anywhere in ``node``.

    The search is pre-order: a dict's own ``key`` before its values, and
    the values of a dict or the items of a list in their order.

    Iterative, so any nesting depth that json.loads accepts is searched
    without touching the recursion limit.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            value = node.get(key)
            if isinstance(value, str) and value.strip():
                return value
            stack.extend(reversed(node.values()))
        elif isinstance(node, list):
            stack.extend(reversed(node))
    return None


def extract_archived_text(
    html: str, tweet_id: int | None = None
) -> tuple[str, ExtractionMethod]:
    """Extract the tweet text from replayed HTML.

    Strategies, in fixed order: the first ``tweet-text`` element, then the
    page's description meta tags, then a JSON-LD article body. A strategy
    that yields only whitespace does not count as a success. Raises
    NoTweetTextFound when every strategy comes up empty.

    Given ``tweet_id``, a ``tweet-text`` element inside an element whose
    ``data-tweet-id`` names another tweet does not count: it is another
    tweet of a thread or timeline.

    An unterminated tag, comment or script ends the page; what was read
    before it still counts.
    """
    tweet_text, meta, json_ld_blocks = _scan(html, tweet_id)
    text = collapse_whitespace(tweet_text)
    if text:
        return text, ExtractionMethod.TWEET_TEXT_ELEMENT

    if meta is not None:
        text = collapse_whitespace(_strip_surrounding_quotes(meta))
        if text:
            return text, ExtractionMethod.META_DESCRIPTION

    json_ld = _json_ld_text(json_ld_blocks)
    if json_ld is not None:
        text = collapse_whitespace(json_ld)
        if text:
            return text, ExtractionMethod.JSON_LD

    raise NoTweetTextFound("no tweet text in replayed page")


def fetch_replay(ref: CandidateRef, transport: HttpTransport) -> str | ReplayFailure:
    """Fetch a candidate's raw replay, following redirects only within
    web.archive.org.

    Failures of the archive come back as ReplayFailure values rather than
    exceptions, so one bad candidate never aborts a batch. A missing
    fixture is not one: it says nothing about the archive, so
    FixtureMissingError propagates, as it does from the CDX fetch.
    """
    url = ref.raw_replay_url
    for _ in range(MAX_REDIRECT_HOPS + 1):
        try:
            response = transport.get(url)
        except NetworkError as err:
            reason = FailureReason.TIMEOUT if err.timed_out else FailureReason.HTTP_ERROR
            return ReplayFailure(ref=ref, reason=reason)
        except FixtureMissingError:
            raise
        except TransportError:
            return ReplayFailure(ref=ref, reason=FailureReason.HTTP_ERROR)
        if response.status in (301, 302, 303, 307, 308):
            location = response.header("Location")
            if not location:
                return ReplayFailure(ref=ref, reason=FailureReason.HTTP_ERROR)
            try:
                url = urljoin(url, location)
                host = urlparse(url).netloc
            except ValueError:  # e.g. an unclosed "[" in the host
                return ReplayFailure(ref=ref, reason=FailureReason.HTTP_ERROR)
            if host != REPLAY_HOST:
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
        text, method = extract_archived_text(fetched, ref.tweet_id)
    except NoTweetTextFound:
        return ReplayFailure(ref=ref, reason=FailureReason.NO_TWEET_TEXT)
    return CandidateTweet(ref=ref, extracted_text=text, extraction_method=method)
