"""An in-process Wayback Machine behind tweetback's ``HttpTransport`` interface.

It serves two endpoints of web.archive.org from an in-memory capture index:

* the CDX server (``/cdx/search/cdx``), following the documented semantics
  of https://github.com/internetarchive/wayback/tree/master/wayback-cdx-server:
  ``url`` with ``matchType=exact|prefix``, ``from``/``to`` as 1-14 digit
  timestamp prefixes, repeated ``filter=[!]field:regex`` and
  ``collapse=field[:N]``, ``limit`` (negative keeps the last rows), ``fl``,
  and rows sorted by urlkey then timestamp in the 7-field default format.
  A ``[a-b]`` digit class in ``url`` matches one digit in that range, which
  is how ``tweetback.cdx.build_cdx_query`` narrows by Snowflake ID prefix;
  every other character of ``url`` is literal.
* replay, ``/web/<14-digit ts>/<url>`` (page with the toolbar inserted and
  links rewritten) and ``/web/<ts>id_/<url>`` (the capture as recorded).
  A request whose timestamp has no capture is redirected (302) to the
  nearest capture of that URL; a capture of a redirect is replayed as a
  302 to the archived target; an unreplayable capture answers 404.

Anything else on web.archive.org that is not modelled (a CDX parameter,
a matchType, a replay flag such as ``if_``, a short timestamp, another
path) answers HTTP 400, so a change to the wire requests either gets the
documented behaviour or fails loudly. Requests to any other host raise
``NetworkError``: nothing leaves the process.
"""

from __future__ import annotations

import bisect
import re
import threading
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from urllib.parse import parse_qsl

from tweetback.transport import HttpResponse, HttpTransport, NetworkError

ARCHIVE_HOST = "web.archive.org"
CDX_PATH = "/cdx/search/cdx"
REPLAY_PATH = "/web/"

CDX_FIELDS = ("urlkey", "timestamp", "original", "mimetype", "statuscode", "digest", "length")
_MODELLED_PARAMS = frozenset({"url", "matchType", "from", "to", "collapse", "filter", "limit", "fl"})
_DIGIT_CLASS_RE = re.compile(r"\[(\d)-(\d)\]")
_REPLAY_RE = re.compile(r"(\d+)([a-z]{2}_)?/(.+)", re.DOTALL)

TOOLBAR_HEAD = (
    '<script src="//archive.org/includes/athena.js" type="text/javascript"></script>'
    '<script type="text/javascript">window.addEventListener("DOMContentLoaded",'
    "function(){var v=archive_analytics.values;v.service='wb';v.server_name='wwwb-app';"
    "archive_analytics.send_pageview({});});</script>"
    '<script type="text/javascript" src="/_static/js/bundle-playback.js?v=t1Bf4PY4"></script>'
    '<script type="text/javascript" src="/_static/js/wombat.js?v=txqj7nKC"></script>'
    '<link rel="stylesheet" type="text/css" href="/_static/css/banner-styles.css?v=S1zqJCYt"/>'
    '<link rel="stylesheet" type="text/css" href="/_static/css/iconochive.css?v=3PDvdIFv"/>'
    "<!-- End Wayback Rewrite JS Include -->"
)

_TOOLBAR_ROW = (
    '<td class="c" style="padding-left:{n}px"><a href="/web/{ts}*/{url}" title="captures">'
    '<span class="wm-capture-count">{n} captures</span></a>'
    '<div id="wm-graph-{n}" class="sparkline"><span class="year">{n}</span></div></td>'
)


def toolbar_body(ts: str, url: str) -> str:
    """The banner Wayback inserts at the top of every plain (non-``id_``) replay."""
    cells = "".join(_TOOLBAR_ROW.format(n=n, ts=ts, url=url) for n in range(8))
    return (
        "<!-- BEGIN WAYBACK TOOLBAR INSERT -->"
        '<div id="wm-ipp-base" lang="en" style="display:none;direction:ltr;">'
        '<div id="wm-ipp" style="position:fixed;left:0;top:0;right:0;">'
        f'<div id="wm-ipp-inside"><table id="wm-ipp-table"><tr>{cells}</tr></table>'
        f'<form id="wm-ipp-form" action="/web/"><input type="text" name="url" value="{url}"/>'
        "</form></div></div></div>"
        "<!-- END WAYBACK TOOLBAR INSERT -->"
    )


def surt(url: str) -> str:
    """Sort-friendly URI key as the CDX server computes it.

    ``https://www.Twitter.com/Foo/status/1`` becomes
    ``com,twitter)/foo/status/1``: scheme and ``www.`` dropped, host labels
    reversed, everything lower-cased.
    """
    rest = url.split("://", 1)[1] if "://" in url else url
    host, slash, path = rest.partition("/")
    host = host.lower().split(":", 1)[0]
    if host.startswith("www."):
        host = host[4:]
    return ",".join(reversed(host.split("."))) + ")" + (slash + path).lower()


def ts14_to_datetime(ts: str) -> datetime:
    return datetime.strptime(ts, "%Y%m%d%H%M%S")


@dataclass
class Capture:
    """One archived response.

    ``page`` is the HTML as recorded (None for a redirect capture).
    ``location`` is the original URL a redirect capture points at.
    ``replayable`` False means the index lists the capture but replay
    answers 404 (a missing or blocked WARC record).
    """

    original: str
    timestamp: str
    statuscode: str = "200"
    mimetype: str = "text/html"
    digest: str = "-"
    length: str = "0"
    page: str | None = None
    location: str | None = None
    replayable: bool = True
    urlkey: str = field(init=False)

    def __post_init__(self) -> None:
        self.urlkey = surt(self.original)


class CdxQueryError(ValueError):
    """A CDX request uses something the simulator does not model."""


class SimulatedWayback(HttpTransport):
    """Read-only after construction, so concurrent ``get`` calls are safe."""

    def __init__(self, captures: list[Capture]):
        ordered = sorted(captures, key=lambda c: (c.urlkey, c.timestamp))
        self._keys = [c.urlkey for c in ordered]
        self._captures = ordered
        self._lines = [" ".join(getattr(c, f) for f in CDX_FIELDS) for c in ordered]
        self._by_key: dict[str, dict[str, Capture]] = {}
        for capture in ordered:
            self._by_key.setdefault(capture.urlkey, {})[capture.timestamp] = capture
        self._lock = threading.Lock()
        self.rejected: Counter[str] = Counter()

    def get(self, url: str) -> HttpResponse:
        scheme, _, rest = url.partition("://")
        host, _, path = rest.partition("/")
        if scheme not in ("http", "https") or host != ARCHIVE_HOST:
            raise NetworkError(f"simulated archive does not serve {url}")
        path = "/" + path
        if path.startswith(CDX_PATH + "?"):
            try:
                return HttpResponse(200, self.cdx(path[len(CDX_PATH) + 1:]))
            except CdxQueryError as err:
                return self._reject(f"cdx: {err}")
        if path.startswith(REPLAY_PATH):
            return self._replay(path[len(REPLAY_PATH):])
        return self._reject(f"unmodelled path {path.split('?')[0]}")

    def post(self, url: str, data: bytes, headers: dict[str, str]) -> HttpResponse:
        raise NetworkError(f"simulated archive does not accept POST to {url}")

    def _reject(self, reason: str) -> HttpResponse:
        with self._lock:
            self.rejected[reason] += 1
        return HttpResponse(400, f"not modelled by the simulated archive: {reason}")

    # --- CDX server -------------------------------------------------------

    def cdx(self, query: str) -> str:
        """Answer one CDX query string; raises CdxQueryError on unmodelled input."""
        params: dict[str, list[str]] = {}
        for name, value in parse_qsl(query, keep_blank_values=True):
            if name not in _MODELLED_PARAMS:
                raise CdxQueryError(f"parameter {name!r}")
            params.setdefault(name, []).append(value)
        single = {name: values[-1] for name, values in params.items()}
        if not single.get("url"):
            raise CdxQueryError("missing url")
        match_type = single.get("matchType", "exact")
        if match_type not in ("exact", "prefix"):
            raise CdxQueryError(f"matchType {match_type!r}")

        key_pattern = surt(single["url"])
        literal = key_pattern.split("[", 1)[0]
        pieces, last = [], 0
        for m in _DIGIT_CLASS_RE.finditer(key_pattern):
            if m.group(1) > m.group(2):
                raise CdxQueryError(f"empty digit class {m.group(0)}")
            pieces.append(re.escape(key_pattern[last:m.start()]) + m.group(0))
            last = m.end()
        pieces.append(re.escape(key_pattern[last:]))
        regex = re.compile("".join(pieces))
        matches = regex.match if match_type == "prefix" else regex.fullmatch

        low = _bound(single.get("from"), "0")
        high = _bound(single.get("to"), "9")
        filters = [_parse_filter(f) for f in params.get("filter", [])]
        collapses = [_parse_collapse(c) for c in params.get("collapse", [])]
        fields = _parse_fl(single.get("fl"))
        limit = _parse_limit(single.get("limit"))

        rows: list[int] = []
        last_kept: list[str | None] = [None] * len(collapses)
        start = bisect.bisect_left(self._keys, literal)
        for i in range(start, len(self._keys)):
            key = self._keys[i]
            if not key.startswith(literal):
                break
            capture = self._captures[i]
            if not matches(key) or not low <= capture.timestamp <= high:
                continue
            if not all(negate != bool(rx.fullmatch(getattr(capture, name)))
                       for name, negate, rx in filters):
                continue
            values = [getattr(capture, name)[:width] for name, width in collapses]
            if any(v == prev for v, prev in zip(values, last_kept)):
                continue
            last_kept = values
            rows.append(i)
        if limit is not None:
            rows = rows[:limit] if limit >= 0 else rows[limit:]
        if fields is None:
            lines = [self._lines[i] for i in rows]
        else:
            lines = [" ".join(getattr(self._captures[i], f) for f in fields) for i in rows]
        return "".join(line + "\n" for line in lines)

    # --- replay -------------------------------------------------------------

    def _replay(self, spec: str) -> HttpResponse:
        m = _REPLAY_RE.fullmatch(spec)
        if m is None:
            return self._reject("replay path")
        ts, flag, original = m.groups()
        if len(ts) != 14:
            return self._reject("replay timestamp that is not 14 digits")
        if flag not in (None, "id_"):
            return self._reject(f"replay flag {flag}")
        flag = flag or ""
        captures = self._by_key.get(surt(original))
        if not captures:
            return HttpResponse(404, _not_archived_page(original))
        nearest = captures.get(ts) or _nearest(captures.values(), ts)
        if nearest.timestamp != ts:
            return _redirect(f"{nearest.timestamp}{flag}", nearest.original)
        if not nearest.replayable:
            return HttpResponse(404, _not_archived_page(original))
        if nearest.location is not None:
            return _redirect(f"{ts}{flag}", nearest.location)
        page = nearest.page or ""
        if flag == "id_":
            return HttpResponse(200, page)
        return HttpResponse(200, _plain_replay(page, ts, nearest.original))


def _redirect(ts_flag: str, original: str) -> HttpResponse:
    location = f"https://{ARCHIVE_HOST}{REPLAY_PATH}{ts_flag}/{original}"
    return HttpResponse(302, "", {"Location": location})


def _nearest(captures, ts: str) -> Capture:
    target = ts14_to_datetime(ts)
    return min(captures, key=lambda c: (abs(ts14_to_datetime(c.timestamp) - target), c.timestamp))


def _plain_replay(page: str, ts: str, original: str) -> str:
    rewritten = page.replace('="https://twitter.com/', f'="/web/{ts}/https://twitter.com/')
    rewritten = rewritten.replace("<head>", "<head>" + TOOLBAR_HEAD, 1)
    rewritten = rewritten.replace("<body>", "<body>" + toolbar_body(ts, original), 1)
    return rewritten + f"\n<!--\n     FILE ARCHIVED ON {ts} AND RETRIEVED FROM THE\n     INTERNET ARCHIVE ON {ts}.\n-->"


def _not_archived_page(original: str) -> str:
    return (
        "<!DOCTYPE html><html><head><title>Wayback Machine</title></head><body>"
        f"<p>Hrm. The Wayback Machine has not archived that URL.</p><p>{original}</p>"
        "</body></html>"
    )


def _bound(value: str | None, pad: str) -> str:
    if value is None:
        return pad * 14
    if not re.fullmatch(r"\d{1,14}", value):
        raise CdxQueryError(f"timestamp {value!r}")
    return value.ljust(14, pad)


def _field_name(name: str) -> str:
    if name not in CDX_FIELDS:
        raise CdxQueryError(f"field {name!r}")
    return name


def _parse_filter(spec: str) -> tuple[str, bool, re.Pattern]:
    negate = spec.startswith("!")
    name, sep, pattern = spec.lstrip("!").partition(":")
    if not sep:
        raise CdxQueryError(f"filter {spec!r}")
    try:
        return _field_name(name), negate, re.compile(pattern)
    except re.error as err:
        raise CdxQueryError(f"filter regex {pattern!r}: {err}") from err


def _parse_collapse(spec: str) -> tuple[str, int | None]:
    name, sep, width = spec.partition(":")
    if sep and not width.isdigit():
        raise CdxQueryError(f"collapse {spec!r}")
    return _field_name(name), int(width) if sep else None


def _parse_fl(spec: str | None) -> list[str] | None:
    if spec is None:
        return None
    return [_field_name(name) for name in spec.split(",")]


def _parse_limit(spec: str | None) -> int | None:
    if spec is None:
        return None
    if not re.fullmatch(r"-?\d+", spec):
        raise CdxQueryError(f"limit {spec!r}")
    return int(spec)
