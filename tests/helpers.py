"""Shared builders for tests and fixture generation."""

from __future__ import annotations

import base64
import hashlib
import os
import subprocess
import sys
from html.parser import HTMLParser
from itertools import combinations
from pathlib import Path

import tweetback
from tweetback.evaluation import EVALUATION_THRESHOLDS, FIXTURES_SUBDIR, OCR_SUBDIR
from tweetback.extraction import (
    ScreenshotTimestamp,
    _DATE_PATTERNS,
    _adjacent_time,
    _date_fields,
)
from tweetback.matching import normalize
from tweetback.ocr import OcrDocument, load_text_document
from tweetback.pipeline import PipelineConfig, run_pipeline
from tweetback.replay import (
    ExtractionMethod,
    NoTweetTextFound,
    _VOID_TAGS,
    _json_ld_text,
    _strip_surrounding_quotes,
    collapse_whitespace,
)
from tweetback.transport import (
    FixtureMissingError,
    FixtureTransport,
    HttpResponse,
    HttpTransport,
)


class StubTransport(HttpTransport):
    """In-memory transport mapping URLs to canned responses or exceptions.

    An unregistered URL gets ``fallback`` when one is given, and raises
    FixtureMissingError otherwise.
    """

    def __init__(self, fallback: HttpResponse | None = None) -> None:
        self.fallback = fallback
        self._get: dict[str, HttpResponse | Exception] = {}
        self.get_log: list[str] = []

    def add(self, url: str, body: str = "", status: int = 200,
            headers: dict[str, str] | None = None) -> "StubTransport":
        self._get[url] = HttpResponse(status=status, body=body, headers=headers or {})
        return self

    def add_error(self, url: str, error: Exception) -> "StubTransport":
        self._get[url] = error
        return self

    def get(self, url: str) -> HttpResponse:
        self.get_log.append(url)
        entry = self._get.get(url, self.fallback)
        if entry is None:
            raise FixtureMissingError(url, Path("<stub>"))
        if isinstance(entry, Exception):
            raise entry
        return entry


class PacedStubTransport(StubTransport):
    """A StubTransport that declares itself paced, as a live one is, so the
    pipeline replays two or more candidates through its thread pool."""

    paced = True


def fresh_interpreter(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(tweetback.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def frozen_corpus_reports(corpus_dir: Path) -> dict[str, dict]:
    """Every eval-corpus document's verdict report at each evaluation
    threshold, keyed ``<stem>@<threshold>``, without the run-dependent
    ``generated_at`` and with the document's stem as its ``source_id``."""
    transport = FixtureTransport(corpus_dir / FIXTURES_SUBDIR)
    reports: dict[str, dict] = {}
    for path in sorted((corpus_dir / OCR_SUBDIR).glob("*.txt")):
        doc = load_text_document(path)
        for threshold in EVALUATION_THRESHOLDS:
            report = run_pipeline(doc, PipelineConfig(threshold=threshold), transport).to_dict()
            del report["generated_at"]
            report["source_id"] = path.stem
            reports[f"{path.stem}@{threshold:.2f}"] = report
    return reports


def fake_digest(seed: str) -> str:
    """Deterministic CDX-style base32 digest for fixture rows."""
    return base64.b32encode(hashlib.sha1(seed.encode()).digest()).decode()[:32]


def status_url(handle: str, tweet_id: int | str, scheme: str = "https") -> str:
    return f"{scheme}://twitter.com/{handle}/status/{tweet_id}"


def cdx_line(handle: str, tweet_id: int | str, capture_ts14: str, scheme: str = "https") -> str:
    url = status_url(handle, tweet_id, scheme)
    urlkey = f"com,twitter)/{handle.lower()}/status/{tweet_id}"
    digest = fake_digest(f"{url}@{capture_ts14}")
    return f"{urlkey} {capture_ts14} {url} text/html 200 {digest} 8123"


def collapse_by_urlkey(lines: list[str]) -> list[str]:
    """What the CDX server sends for ``collapse=urlkey``: of rows sorted by
    urlkey, only the first of each run of rows sharing one urlkey."""
    kept: list[str] = []
    previous = None
    for line in lines:
        urlkey = line.split(" ", 1)[0]
        if urlkey != previous:
            kept.append(line)
            previous = urlkey
    return kept


def replay_url(handle: str, tweet_id: int | str, capture_ts14: str) -> str:
    """The plain replay URL a report cites."""
    return f"https://web.archive.org/web/{capture_ts14}/{status_url(handle, tweet_id)}"


def raw_replay_url(handle: str, tweet_id: int | str, capture_ts14: str) -> str:
    """The raw (``id_``) replay URL the pipeline fetches."""
    return f"https://web.archive.org/web/{capture_ts14}id_/{status_url(handle, tweet_id)}"


def legacy_tweet_html(text: str) -> str:
    return (
        "<!DOCTYPE html><html><head><title>Tweet</title></head><body>"
        '<div id="wm-ipp-base">wayback toolbar</div>'
        '<div class="permalink-inner">'
        f'<p class="TweetTextSize js-tweet-text tweet-text" lang="en">{text}</p>'
        "</div></body></html>"
    )


def meta_tweet_html(text: str) -> str:
    return (
        "<!DOCTYPE html><html><head>"
        f'<meta property="og:description" content="“{text}”">'
        "<title>Tweet</title></head>"
        '<body><div id="react-root">requires javascript</div></body></html>'
    )


def jsonld_tweet_html(text: str) -> str:
    return (
        "<!DOCTYPE html><html><head><title>Tweet</title>"
        '<script type="application/ld+json">'
        f'{{"@type": "SocialMediaPosting", "articleBody": "{text}"}}'
        "</script></head><body></body></html>"
    )


def thread_page(*tweets: tuple[int, str]) -> str:
    """A legacy permalink page of a self-reply thread: each (ID, text) is a
    ``div.tweet`` carrying ``data-tweet-id``, in page order."""
    items = "".join(
        f'<div class="tweet js-stream-tweet" data-tweet-id="{tweet_id}">'
        '<div class="js-tweet-text-container">'
        f'<p class="TweetTextSize js-tweet-text tweet-text" lang="en">{text}</p>'
        "</div></div>"
        for tweet_id, text in tweets
    )
    return f"<!DOCTYPE html><html><head><title>Thread</title></head><body>{items}</body></html>"


# A marked section with an unknown keyword. html.parser raises
# AssertionError on it in Python 3.10 to 3.13.0 at least, and later versions
# read it as a bogus comment; the page scanner skips it to its ">".
MALFORMED_SECTION_PAGE = "<html><body><![foo bar]><p class='tweet-text'>x</p></body></html>"


class _ReferenceScan(HTMLParser):
    """html.parser reading of the three extraction strategies.

    Kept as the reference for ``replay.extract_archived_text`` on
    well-formed pages: it keeps every open element on a stack, where the
    scanner counts only the namesakes of the one element it reads into or
    past, and it reads the whole page.
    """

    def __init__(self, tweet_id: int | None) -> None:
        super().__init__(convert_charrefs=True)
        self.own_id = None if tweet_id is None else str(tweet_id)
        self.tweet_text_parts: list[str] = []
        self.og_description: str | None = None
        self.meta_description: str | None = None
        self.json_ld_blocks: list[str] = []
        # (tag, inside an element naming another tweet) per open element
        self._open: list[tuple[str, bool]] = []
        self._capture_stack: list[str] = []
        self._capture_done = False
        self._skip_data_depth = 0
        self._in_json_ld = False
        self._json_ld_parts: list[str] = []

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        attr_map = {name: (value or "") for name, value in attrs}
        foreign = (any(inside for _, inside in self._open)
                   or (self.own_id is not None
                       and attr_map.get("data-tweet-id", self.own_id) != self.own_id))
        if tag not in _VOID_TAGS:
            self._open.append((tag, foreign))
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
                self.tweet_text_parts.append(" ")
            if tag not in _VOID_TAGS:
                self._capture_stack.append(tag)
            return
        if (
            not self._capture_done
            and not foreign
            and "tweet-text" in attr_map.get("class", "").split()
            and tag not in _VOID_TAGS
        ):
            self._capture_stack.append(tag)

    def handle_endtag(self, tag: str) -> None:
        if any(name == tag for name, _ in self._open):
            while self._open.pop()[0] != tag:
                pass
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

    def handle_data(self, data: str) -> None:
        if self._in_json_ld:
            self._json_ld_parts.append(data)
        if self._capture_stack and not self._skip_data_depth:
            self.tweet_text_parts.append(data)


def reference_extract(page: str, tweet_id: int | None = None) -> tuple[str, ExtractionMethod]:
    """``replay.extract_archived_text`` as read through html.parser: the same
    strategies in the same order, with the same text clean-up."""
    scan = _ReferenceScan(tweet_id)
    scan.feed(page)
    scan.close()
    text = collapse_whitespace("".join(scan.tweet_text_parts))
    if text:
        return text, ExtractionMethod.TWEET_TEXT_ELEMENT
    meta = scan.og_description if scan.og_description is not None else scan.meta_description
    if meta is not None:
        text = collapse_whitespace(_strip_surrounding_quotes(meta))
        if text:
            return text, ExtractionMethod.META_DESCRIPTION
    json_ld = _json_ld_text(scan.json_ld_blocks)
    if json_ld is not None:
        text = collapse_whitespace(json_ld)
        if text:
            return text, ExtractionMethod.JSON_LD
    raise NoTweetTextFound("no tweet text in replayed page")


def find_string_field_recursive(node: object, key: str) -> str | None:
    """Recursive reference for ``replay._find_string_field``: pre-order,
    a dict's own ``key`` first, then its values, then list items, in order."""
    if isinstance(node, dict):
        value = node.get(key)
        if isinstance(value, str) and value.strip():
            return value
        for child in node.values():
            found = find_string_field_recursive(child, key)
            if found:
                return found
    elif isinstance(node, list):
        for child in node:
            found = find_string_field_recursive(child, key)
            if found:
                return found
    return None


def deep_json_ld_html(depth: int) -> str:
    """A replayed page whose only JSON-LD block opens ``depth`` arrays."""
    return (
        "<!DOCTYPE html><html><head><title>Tweet</title>"
        f'<script type="application/ld+json">{"[" * depth}</script>'
        "</head><body></body></html>"
    )


def brute_force_lcs(a: str, b: str) -> int:
    """Oracle: enumerate subsequences of the shorter string outright.

    Exponential, so only usable for strings up to ~12 characters; checks
    candidate subsequences longest-first with a two-pointer scan.
    """
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), 0, -1):
        for positions in combinations(range(len(short)), length):
            candidate = "".join(short[i] for i in positions)
            iterator = iter(long_)
            if all(ch in iterator for ch in candidate):
                return length
    return 0


def dp_lcs_length(a: str, b: str) -> int:
    """Reference LCS length: the textbook O(len(a)*len(b)) row DP."""
    if not a or not b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    previous = [0] * (len(b) + 1)
    current = [0] * (len(b) + 1)
    for ch_a in a:
        for j, ch_b in enumerate(b):
            if ch_a == ch_b:
                current[j + 1] = previous[j] + 1
            else:
                current[j + 1] = max(previous[j + 1], current[j])
        previous, current = current, previous
    return previous[len(b)]


def chunk_scores_reference(screenshot_text: str, candidate_text: str) -> tuple[float, int]:
    """Reference for ``matching.chunk_scores``: normalize and score every
    line-prefix chunk on its own with ``dp_lcs_length``, O(k*n*m)."""
    nb = normalize(candidate_text)
    lines = screenshot_text.split("\n")
    best_score, best_chunk = -1.0, 0
    for k in range(len(lines)):
        na = normalize(" ".join(lines[: k + 1]))
        if not na and not nb:
            score = 1.0
        elif not na or not nb:
            score = 0.0
        else:
            score = 2 * dp_lcs_length(na, nb) / (len(na) + len(nb))
        if score > best_score:
            best_score, best_chunk = score, k
    return best_score, best_chunk


def extract_timestamp_reference(doc: OcrDocument) -> ScreenshotTimestamp | None:
    """Reference for ``extraction.extract_timestamp``: scan every line top
    down, every pattern in order, and keep the valid match at the greatest
    (line, start), the first one found at that position."""
    best: ScreenshotTimestamp | None = None
    best_position = (-1, -1)
    for index, line in enumerate(doc.lines):
        for pattern in _DATE_PATTERNS:
            for match in pattern.finditer(line):
                text = match.group(0)
                if len(text) < 6 or sum(c.isdigit() for c in text) < 4:
                    continue
                position = (index, match.start())
                if position <= best_position:
                    continue
                year, month, day = _date_fields(match)
                tod = _adjacent_time(line, match.start(), match.end())
                try:
                    best = ScreenshotTimestamp(
                        year=year,
                        month=month,
                        day=day,
                        hour=tod[0] if tod else 0,
                        minute=tod[1] if tod else 0,
                        has_time_of_day=tod is not None,
                        source_line_index=index,
                    )
                except ValueError:
                    continue
                best_position = position
    return best
