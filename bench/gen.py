"""Seeded benchmark inputs: screenshots with their ground truth, and the archive.

Everything is drawn from ``random.Random(seed)``; nothing reads the clock or
the program. The time and ID arithmetic (the ±26 h window, Snowflake IDs,
the decimal ID prefix) is re-derived here from the paper's rules rather than
taken from ``tweetback``, so the ground truth does not inherit a defect of the
code under test.

Three properties keep the expected verdicts exact:

* every capture of one status URL replays to the same outcome (the same
  tweet text, or a failure), so the verdict does not depend on which capture
  the program picks;
* a decoy tweet's text is at least 1.7 times as long as the screenshot's
  tweet text, which bounds its overlap score at 2/(1+1.7) < 0.75, below the
  0.80 threshold, for every chunk that is a prefix of the tweet text;
* the screenshot's own tweet differs from the archived text by at most two
  OCR-style character swaps, which keeps it above 0.90.

Every choice that sets how much work a document costs (its scenario, URL
counts, line counts, text and decoy lengths, each URL's replay outcome) is
fixed per workload by ``plan``; the seed shuffles the documents and draws
everything else (words, handles, times, IDs, capture counts, page markup).
Different seeds therefore give different inputs of the same cost, which keeps
the run-to-run spread down to the machine's own.
"""

from __future__ import annotations

import base64
import hashlib
import html
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from simarchive import Capture

UTC = timezone.utc
SNOWFLAKE_EPOCH_MS = 1288834974657
WINDOW_HOURS = 26
# Screenshots date from mid-2018 to mid-2023: every tweet ID of that era has
# 19 decimal digits, so one ID prefix always covers the window.
ERA_START = datetime(2018, 7, 1, tzinfo=UTC)
ERA_MINUTES = 5 * 365 * 1440

_WORDS = (
    "the city council will vote on new bike lanes tonight after weeks of public debate and "
    "our team shipped a fix for the login bug thanks everyone who reported it early "
    "storm shelters open at six across the county bring water blankets and your pets "
    "library renovation photos before and after the long summer closure are finally up "
    "union results expected within the hour stay tuned for the official numbers from the "
    "hall river cleanup pulled three tons of trash out of the water this spring with help "
    "from volunteers conference talk submissions close at the end of the month so send "
    "yours now platform two reopens this afternoon after signal repairs on the north line "
    "weekend market moves indoors because of rain see you by the bakery stall near gate"
).split()

_FIRST = ("Alice Brianna Carlos Dana Evan Farah Gavin Hana Ivy Jon Kira Liam Maya Noor "
          "Omar Priya Quinn Rosa Sami Tara Uma Victor Wren Xena Yusuf Zoe").split()
_LAST = ("Park Notes Dispatch Reports Media Updates Live Writes Council Metro Codes Keith "
         "Rivera Chen Okafor Silva Novak Haddad Moreau Larsen Ito Kowalski").split()

_OCR_SWAPS = (("l", "1"), ("o", "0"), ("m", "rn"), ("e", "c"), ("i", "l"), ("a", "o"))

MONTHS = ("Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec").split()

REPLAYABLE = ("legacy", "meta", "jsonld", "redirect")
FAILING = ("unreplayable", "jsonly")


class Deck:
    """Deals a fixed multiset in shuffled order, reshuffling when it runs out."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.pool = list(items)
        self.items: list = []

    def draw(self):
        if not self.items:
            self.items = list(self.pool)
            self.rng.shuffle(self.items)
        return self.items.pop()


# --- shapes ------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """What one workload's inputs look like; see README.md for why."""

    scenarios: tuple[tuple[str, int], ...]
    in_window_ladder: tuple[int, ...]
    captures: tuple[int, int]
    out_of_window_urls: tuple[float, float]  # as a share of in-window URLs, min..max
    extra_out_of_window: tuple[int, int]
    page_kb: tuple[float, float]
    text_lines_ladder: tuple[int, ...]
    line_chars: tuple[int, int]
    long_ocr_docs: int = 0
    long_ocr_lines_ladder: tuple[int, ...] = (3, 6, 9, 12)
    decoy_failure_share: float = 0.12
    redirect_share: float = 0.08


TYPICAL = Shape(
    scenarios=(("archived", 42), ("archived_redirect", 8), ("decoys_only", 12), ("no_rows", 5),
               ("empty", 5), ("non_replayable", 14), ("truncated_handle", 5),
               ("relative_stamp", 5), ("no_handle", 4)),
    in_window_ladder=(1, 2, 3, 4, 5, 6),
    captures=(1, 3),
    out_of_window_urls=(0.0, 0.0),
    extra_out_of_window=(0, 4),
    page_kb=(1.5, 6.0),
    text_lines_ladder=(1, 2, 3, 4),
    line_chars=(35, 55),
    long_ocr_docs=20,
)

BUSY = Shape(
    scenarios=(("archived", 12), ("archived_redirect", 2), ("decoys_only", 2)),
    in_window_ladder=tuple(100 + round(100 * i / 15) for i in range(16)),
    captures=(3, 15),
    out_of_window_urls=(1.2, 1.6),
    extra_out_of_window=(0, 0),
    page_kb=(4.0, 12.0),
    text_lines_ladder=(1,),
    line_chars=(24, 40),
    decoy_failure_share=0.06,
    redirect_share=0.10,
)

CORPUS = Shape(
    scenarios=(("archived", 40), ("archived_redirect", 6), ("decoys_only", 14), ("no_rows", 8),
               ("empty", 8), ("non_replayable", 12), ("truncated_handle", 6),
               ("relative_stamp", 6), ("no_handle", 4)),
    in_window_ladder=(1, 2, 3),
    captures=(1, 3),
    out_of_window_urls=(0.0, 0.0),
    extra_out_of_window=(0, 3),
    page_kb=(1.5, 4.0),
    text_lines_ladder=(1, 2),
    line_chars=(32, 45),
)

SHAPES = {"verify_typical": TYPICAL, "verify_busy_handle": BUSY, "evaluate_corpus": CORPUS}


# --- outputs -----------------------------------------------------------------

@dataclass
class Screenshot:
    """One generated screenshot and everything the benchmark expects of it."""

    doc_id: str
    lines: tuple[str, ...]
    scenario: str
    true_handle: str
    true_timestamp: str  # wall clock "YYYY-MM-DDTHH:MM", "" when the stamp is relative
    archive_state: str  # archived / not_archived / non_replayable (ground-truth CSV)
    true_id: int | None  # the screenshot's tweet, when the archive holds it
    expected_kind: str  # archived / not_found / non_replayable
    expected_id: int | None
    expected_in_window: int  # 0 for short-circuit documents
    expected_replayed_ok: int
    short_circuit: bool
    long_ocr: bool

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class Inputs:
    workload: str
    seed: int
    docs: list[Screenshot] = field(default_factory=list)
    captures: list[Capture] = field(default_factory=list)

    def fingerprint(self) -> str:
        """SHA-256 over every generated byte, for determinism checks."""
        h = hashlib.sha256()
        for doc in self.docs:
            h.update(repr(doc).encode())
        for c in self.captures:
            h.update(repr((c.original, c.timestamp, c.statuscode, c.digest, c.length,
                           c.location, c.replayable, c.page)).encode())
        return h.hexdigest()


# --- time and ID arithmetic ---------------------------------------------------

def _ms(t: datetime) -> int:
    return (t - datetime(1970, 1, 1, tzinfo=UTC)) // timedelta(milliseconds=1)


def id_for(created: datetime, rng: random.Random) -> int:
    return ((_ms(created) - SNOWFLAKE_EPOCH_MS) << 22) | rng.getrandbits(22)


def id_created(tweet_id: int) -> datetime:
    return datetime(1970, 1, 1, tzinfo=UTC) + timedelta(
        milliseconds=(tweet_id >> 22) + SNOWFLAKE_EPOCH_MS)


def prefix_id_range(low: int, high: int) -> tuple[int, int]:
    """All IDs sharing the decimal prefix-plus-digit-class that covers [low, high]."""
    s_low, s_high = str(low), str(high)
    i = 0
    while i < len(s_low) and s_low[i] == s_high[i]:
        i += 1
    rest = len(s_low) - i - 1
    return int(s_low[: i + 1] + "0" * rest), int(s_high[: i + 1] + "9" * rest)


def ts14(t: datetime) -> str:
    return t.strftime("%Y%m%d%H%M%S")


# --- text ----------------------------------------------------------------------

def sentence(rng: random.Random, chars: int) -> str:
    words: list[str] = []
    length = 0
    while length < chars:
        words.append(rng.choice(_WORDS))
        length += len(words[-1]) + 1
    text = " ".join(words)
    return text[0].upper() + text[1:] + rng.choice(".!.?.")


def wrap(text: str, lines: int) -> list[str]:
    words = text.split(" ")
    width = len(text) / lines
    out: list[str] = []
    current: list[str] = []
    for word in words:
        current.append(word)
        if len(out) < lines - 1 and len(" ".join(current)) >= width:
            out.append(" ".join(current))
            current = []
    if current:
        out.append(" ".join(current))
    return out


def ocr_noise(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(0, 2)):
        old, new = rng.choice(_OCR_SWAPS)
        at = text.find(old, rng.randrange(len(text)))
        if at > 0:
            text = text[:at] + new + text[at + len(old):]
    return text


def timestamp_line(wall: datetime, has_time: bool, rng: random.Random) -> str:
    mon = MONTHS[wall.month - 1]
    date_styles = (f"{mon} {wall.day:02d}, {wall.year}", f"{wall.year}-{wall.month:02d}-{wall.day:02d}",
                   f"{wall.month:02d}/{wall.day:02d}/{wall.year}", f"{wall.day} {mon} {wall.year}")
    date = rng.choice(date_styles)
    if not has_time:
        return date
    hour12 = wall.hour % 12 or 12
    clock = f"{hour12}:{wall.minute:02d} {'AM' if wall.hour < 12 else 'PM'}"
    return rng.choice((f"{clock} {date}", f"{clock} · {date}", f"{date} · {clock}",
                       f"{wall.hour:02d}:{wall.minute:02d} · {date}"))


def extra_lines(count: int, rng: random.Random) -> list[str]:
    """Quoted-tweet card and image-caption lines between the text and the stamp."""
    name = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
    lines = [f"{name} @{name.replace(' ', '_').lower()[:15]} · {rng.choice(MONTHS)} {rng.randint(1, 28)}"]
    while len(lines) < count - 1:
        lines.append(sentence(rng, rng.randint(40, 52)))
    lines.append("Image description: " + sentence(rng, 30))
    return lines[:count]


# --- pages -----------------------------------------------------------------------

def _stream_item(handle: str, name: str, rng: random.Random) -> str:
    reply_id = rng.getrandbits(60)
    return (
        f'<li class="js-stream-item stream-item" id="stream-item-tweet-{reply_id}">'
        f'<div class="tweet js-stream-tweet" data-screen-name="{handle}" data-name="{name}">'
        f'<div class="stream-item-header"><a class="account-group" href="https://twitter.com/{handle}">'
        f'<strong class="fullname">{name}</strong><span class="username">@<b>{handle}</b></span></a>'
        f'<small class="time"><span class="_timestamp" data-time="{rng.getrandbits(31)}">1h</span></small></div>'
        '<div class="js-tweet-text-container"><p class="TweetTextSize js-tweet-text tweet-text" lang="en">'
        f'{html.escape(sentence(rng, rng.randint(40, 140)))}</p></div>'
        f'<div class="stream-item-footer"><span class="ProfileTweet-actionCount">{rng.randint(0, 999)}</span>'
        "</div></div></li>"
    )


def _state_blob(rng: random.Random, size: int) -> str:
    entries = []
    total = 0
    while total < size:
        entry = json.dumps({"id_str": str(rng.getrandbits(60)), "full_text": sentence(rng, 80),
                            "favorite_count": rng.randint(0, 5000), "lang": "en"})
        entries.append(entry)
        total += len(entry) + 1
    return "window.__INITIAL_STATE__={\"entities\":{\"tweets\":[" + ",".join(entries) + "]}};"


def page_html(kind: str, text: str, handle: str, name: str, size: int, rng: random.Random) -> str:
    """A captured tweet page of one UI generation, padded to about ``size`` bytes."""
    title = f"<title>{html.escape(name)} on Twitter</title>"
    esc = html.escape(text)
    if kind in ("legacy", "mobile"):
        head = f"<!DOCTYPE html><html><head>{title}</head><body>"
        tag = "p" if kind == "legacy" else "div"
        main = (
            f'<div class="permalink-inner permalink-tweet-container"><div class="tweet permalink-tweet">'
            f'<a class="account-group" href="https://twitter.com/{handle}"><strong class="fullname">{name}</strong></a>'
            f'<div class="js-tweet-text-container"><{tag} class="TweetTextSize TweetTextSize--jumbo '
            f'js-tweet-text tweet-text" lang="en">{esc}</{tag}></div></div></div><ol class="stream-items">'
        )
        items = []
        budget = size - len(head) - len(main)
        while budget > 0:
            items.append(_stream_item(handle, name, rng))
            budget -= len(items[-1])
        return head + main + "".join(items) + "</ol></body></html>"
    metas = f'<meta name="twitter:site" content="@twitter"/><link rel="canonical" href="https://twitter.com/{handle}"/>'
    if kind == "meta":
        metas += f'<meta property="og:description" content="“{esc}”"/>'
    if kind == "jsonld":
        ld = json.dumps({"@context": "https://schema.org", "@type": "SocialMediaPosting",
                         "author": {"@type": "Person", "additionalName": handle, "name": name},
                         "articleBody": text})
        metas += f'<script type="application/ld+json">{ld}</script>'
    head = f"<!DOCTYPE html><html><head>{title}{metas}</head><body>"
    shell = ('<noscript><div>JavaScript is not available.</div></noscript>'
             '<div id="react-root"><div class="css-1dbjc4n r-13awgt0 r-12vffkv"></div></div>')
    blob = _state_blob(rng, max(0, size - len(head) - len(shell) - 40))
    return f"{head}{shell}<script>{blob}</script></body></html>"


def _digest(seed: str) -> str:
    return base64.b32encode(hashlib.sha1(seed.encode()).digest()).decode()[:32]


# --- generation ------------------------------------------------------------------

@dataclass(frozen=True)
class Slot:
    """The cost-setting choices for one document."""

    scenario: str
    text_lines: int
    line_chars: int
    extras: int  # long-OCR lines between the text and the stamp
    kinds: tuple[str, ...]  # replay outcome of each in-window URL, the screenshot's own first
    decoy_extra: tuple[int, ...]  # characters added to each decoy's minimum length
    outside: int  # out-of-window status URLs matching the ID prefix

    @property
    def short_circuit(self) -> bool:
        return self.scenario in ("truncated_handle", "relative_stamp", "no_handle")


def plan(workload: str) -> list[Slot]:
    """The documents of one workload, the same for every seed."""
    shape = SHAPES[workload]
    rng = random.Random(workload)
    names = [name for name, count in shape.scenarios for _ in range(count)]
    sizes = [shape.in_window_ladder[i % len(shape.in_window_ladder)] for i in range(len(names))]
    querying = [i for i, name in enumerate(names)
                if name not in ("truncated_handle", "relative_stamp", "no_handle")]
    extras = [0] * len(names)
    stride = max(1, len(querying) // max(1, shape.long_ocr_docs))
    for n, i in enumerate(querying[::stride][: shape.long_ocr_docs]):
        extras[i] = shape.long_ocr_lines_ladder[n % len(shape.long_ocr_lines_ladder)]

    decoys = sum(n - 1 for name, n in zip(names, sizes)
                 if name in ("archived", "archived_redirect", "decoys_only"))
    failing = round(decoys * shape.decoy_failure_share)
    redirects = round(decoys * shape.redirect_share)
    plain = decoys - failing - redirects
    decoy_kinds = Deck(rng, [FAILING[i % 2] for i in range(failing)] + ["redirect"] * redirects
                       + [("legacy", "legacy", "meta", "jsonld")[i % 4] for i in range(plain)])
    truth_kinds = Deck(rng, ("legacy", "meta", "jsonld"))
    failing_kinds = Deck(rng, FAILING)
    line_chars = Deck(rng, range(shape.line_chars[0], shape.line_chars[1] + 1))
    decoy_extra = Deck(rng, range(0, 91, 10))
    lo, hi = shape.out_of_window_urls
    out_share = Deck(rng, [lo + (hi - lo) * i / 8 for i in range(9)])

    slots = []
    for i, (name, n_in) in enumerate(zip(names, sizes)):
        kinds: list[str] = []
        if name in ("archived", "archived_redirect"):
            kinds = ["redirect" if name == "archived_redirect" else truth_kinds.draw()]
            kinds += [decoy_kinds.draw() for _ in range(n_in - 1)]
        elif name == "decoys_only":  # one decoy replays, or the verdict would be non_replayable
            kinds = ["legacy"] + [decoy_kinds.draw() for _ in range(n_in - 1)]
        elif name == "non_replayable":
            kinds = [failing_kinds.draw() for _ in range(n_in)]
        elif name != "no_rows" and name != "empty":
            kinds = ["legacy"]  # archived, but the screenshot cannot anchor a query
        outside = int(n_in * out_share.draw()) + rng.randint(*shape.extra_out_of_window)
        slots.append(Slot(
            scenario=name, text_lines=shape.text_lines_ladder[i % len(shape.text_lines_ladder)],
            line_chars=line_chars.draw(), extras=extras[i], kinds=tuple(kinds),
            decoy_extra=tuple(decoy_extra.draw() for _ in kinds),
            outside=max(outside, 2) if name == "no_rows" else outside,
        ))
    return slots


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.shape = SHAPES[workload]
        self.inputs = Inputs(workload=workload, seed=seed)
        self.handles: set[str] = set()

    def handle(self) -> tuple[str, str]:
        rng = self.rng
        while True:
            first, last = rng.choice(_FIRST), rng.choice(_LAST)
            handle = rng.choice((f"{first}{last}", f"{first.lower()}_{last.lower()}",
                                 f"{first}_{last}{rng.randint(1, 99)}"))[:15]
            if handle.lower() not in self.handles:
                self.handles.add(handle.lower())
                return handle, f"{first} {last}"

    def capture_times(self, created: datetime, count: int) -> list[str]:
        stamps = {ts14(created + timedelta(seconds=self.rng.randint(60, 90 * 86400)))
                  for _ in range(count)}
        return sorted(stamps)

    def archive_url(self, handle: str, name: str, tweet_id: int, text: str, kind: str,
                    count: int, size: int | None = None) -> None:
        """Add ``count`` captures of one status URL, all replaying to ``kind``."""
        rng, shape = self.rng, self.shape
        url = f"https://twitter.com/{handle}/status/{tweet_id}"
        size = size or int(rng.uniform(*shape.page_kb) * 1024)
        page = target_page = None
        if kind not in ("redirect", "unreplayable"):
            page = page_html(kind, text, handle, name, size, rng)
        if kind == "redirect":
            target = f"https://mobile.twitter.com/{handle}/status/{tweet_id}"
            target_page = page_html("mobile", text, handle, name, size, rng)
        for stamp in self.capture_times(id_created(tweet_id), count):
            capture = Capture(original=url, timestamp=stamp, digest=_digest(url + stamp),
                              length=str(len(page) if page else 520), page=page,
                              replayable=kind != "unreplayable")
            if kind == "redirect":
                capture.statuscode, capture.location = "301", target
                later = ts14(datetime.strptime(stamp, "%Y%m%d%H%M%S") + timedelta(seconds=rng.randint(1, 3)))
                self.inputs.captures.append(Capture(
                    original=target, timestamp=later, digest=_digest(target + later),
                    length=str(len(target_page)), page=target_page))
            self.inputs.captures.append(capture)

    def doc(self, index: int, slot: Slot) -> None:
        rng, shape, scenario, kinds = self.rng, self.shape, slot.scenario, slot.kinds
        handle, name = self.handle()
        has_time = rng.random() < 0.9
        wall = ERA_START + timedelta(minutes=rng.randrange(ERA_MINUTES))
        if not has_time:
            wall = wall.replace(hour=0, minute=0)
        created = wall - timedelta(minutes=rng.randint(-12 * 60, 14 * 60))
        day = wall.replace(hour=0, minute=0)
        start, end = (wall, wall) if has_time else (day, day + timedelta(hours=23, minutes=59, seconds=59))
        slack = timedelta(hours=WINDOW_HOURS)
        w_from, w_to = start - slack, end + slack

        text = sentence(rng, slot.text_lines * slot.line_chars)
        true_id = id_for(created, rng)
        decoy_min = int(len(text) * 1.7) + 2

        for i, kind in enumerate(kinds):
            if i == 0 and scenario != "decoys_only":
                tid, body = true_id, text
            else:
                moment = w_from + timedelta(seconds=60 + rng.random() * ((w_to - w_from).total_seconds() - 120))
                tid, body = id_for(moment, rng), sentence(rng, decoy_min + slot.decoy_extra[i])
            self.archive_url(handle, name, tid, body, kind, rng.randint(*shape.captures))
        low = (_ms(w_from) - SNOWFLAKE_EPOCH_MS) << 22
        high = ((_ms(w_to) - SNOWFLAKE_EPOCH_MS) << 22) | 0x3FFFFF
        id_lo, id_hi = prefix_id_range(low, high)
        placed = 0
        for _ in range(slot.outside * 20 if scenario != "empty" else 0):
            if placed == slot.outside:
                break
            tid = rng.randint(id_lo, id_hi)
            if w_from - timedelta(minutes=1) <= id_created(tid) <= w_to + timedelta(minutes=1):
                continue
            self.archive_url(handle, name, tid, sentence(rng, rng.randint(40, 120)),
                             rng.choice(("legacy", "meta")), rng.randint(*shape.captures), size=1024)
            placed += 1

        lines = [name + (" @" if rng.random() < 0.3 else "")]
        if scenario == "truncated_handle":
            lines.append("@" + handle[: rng.randint(4, max(4, len(handle) - 2))] + rng.choice(("…", "...")))
        elif scenario != "no_handle":
            lines.append("@" + handle)
        lines += wrap(ocr_noise(text, rng), slot.text_lines)
        if slot.extras:
            lines += extra_lines(slot.extras, rng)
        if scenario == "relative_stamp":
            lines.append(rng.choice(("3h", "12m", "1d", f"{MONTHS[wall.month - 1]} {wall.day}")))
        else:
            lines.append(timestamp_line(wall, has_time, rng))
        if rng.random() < 0.4:
            lines.append(f"{rng.randint(1, 999)} Retweets  {rng.randint(1, 99)} Quote Tweets  "
                         f"{rng.randint(1, 9)},{rng.randint(100, 999)} Likes")

        archived = scenario in ("archived", "archived_redirect")
        archive_state = ("archived" if archived or scenario == "truncated_handle" else
                         "non_replayable" if scenario == "non_replayable" else "not_archived")
        short_circuit = slot.short_circuit
        in_window = 0 if short_circuit else len(kinds)
        self.inputs.docs.append(Screenshot(
            doc_id=f"{index:03d}_{handle.lower()}",
            lines=tuple(lines),
            scenario=scenario,
            true_handle=handle,
            true_timestamp="" if scenario == "relative_stamp" else wall.strftime("%Y-%m-%dT%H:%M"),
            archive_state=archive_state,
            expected_kind=("archived" if archived else
                           "non_replayable" if scenario == "non_replayable" else "not_found"),
            true_id=true_id if archive_state == "archived" else None,
            expected_id=true_id if archived else None,
            expected_in_window=in_window,
            expected_replayed_ok=0 if short_circuit else sum(k in REPLAYABLE for k in kinds),
            short_circuit=short_circuit,
            long_ocr=bool(slot.extras),
        ))


def generate(workload: str, seed: int) -> Inputs:
    """The inputs of one workload for one seed; same arguments, same bytes."""
    builder = _Builder(workload, seed)
    slots = plan(workload)
    builder.rng.shuffle(slots)
    for index, slot in enumerate(slots):
        builder.doc(index, slot)
    return builder.inputs
