"""Text-overlap scoring between screenshot text and archived candidates.

The score is 2*LCS(a, b) / (|a| + |b|) over normalized characters, where
LCS is the true character-level longest common subsequence. OCR output
often trails off into noise (captions of attached images, UI chrome), so
the screenshot text is also scored chunk by chunk: cumulative prefixes
of its lines, growing from the top. The best chunk score is the one that
counts, and a candidate clearing the threshold becomes evidence that the
tweet really was posted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .replay import CandidateTweet, ReplayFailure, collapse_whitespace

DEFAULT_THRESHOLD = 0.80

_QUOTE_MAP = str.maketrans({
    "‘": "'", "’": "'", "‚": "'", "‛": "'",
    "“": '"', "”": '"', "„": '"', "‟": '"',
})


class InvalidThresholdError(ValueError):
    """Threshold must lie in (0, 1]."""


def normalize(text: str) -> str:
    """Lowercase, fold typographic quotes to ASCII, collapse whitespace runs."""
    return collapse_whitespace(text.lower().translate(_QUOTE_MAP))


def _prefix_lcs(text: str, ends: list[int], other: str) -> list[int]:
    """LCS(text[:end], other) for each end in ``ends`` (ascending), in one pass.

    This is the bit-vector LCS of Allison & Dix (IPL 1986) in Hyyrö's form
    (AWOCA 2004). Bit i of ``v`` is clear where the LCS row of the text read
    so far steps up at other[i], so that LCS is the count of clear bits.
    Each character of ``text`` costs a few big-int operations on
    len(other) bits: O(len(text) * ceil(len(other) / 64)) word operations.
    """
    masks: dict[str, int] = {}
    for i, ch in enumerate(other):
        masks[ch] = masks.get(ch, 0) | 1 << i
    all_ones = (1 << len(other)) - 1
    v = all_ones
    start = 0
    lengths = []
    for end in ends:
        for ch in text[start:end]:
            mask = masks.get(ch)
            if mask:
                u = v & mask
                v = ((v + u) | (v - u)) & all_ones
        start = end
        lengths.append(len(other) - v.bit_count())
    return lengths


def lcs_length(a: str, b: str) -> int:
    """Character-level longest-common-subsequence length.

    One bit-parallel pass over the shorter string:
    O(min(|a|, |b|) * ceil(max(|a|, |b|) / 64)) word operations.
    """
    if len(a) > len(b):
        a, b = b, a
    return _prefix_lcs(a, [len(a)], b)[0]


def _score(lcs: int, n: int, m: int) -> float:
    """2*LCS / (n + m) for normalized lengths n and m; 1 for two empty texts."""
    return 2 * lcs / (n + m) if n + m else 1.0


def overlap_score(a: str, b: str) -> float:
    """Normalized LCS overlap in [0, 1]; 1 for two empty strings."""
    na, nb = normalize(a), normalize(b)
    return _score(lcs_length(na, nb), len(na), len(nb))


def chunk_scores(screenshot_text: str, candidate_text: str) -> tuple[float, int]:
    """Score cumulative line-prefix chunks of the screenshot text.

    Chunk k is the first k+1 lines joined by spaces; the last chunk is the
    whole text, so the result never undercuts the full-text score. Returns
    the best score with the smallest chunk index achieving it.

    Each normalized chunk is a prefix of the normalized whole text, so one
    pass over that text against the candidate reads off every chunk's LCS.
    A chunk's normalized length comes from its lines alone: the joining
    space stops lower()'s final-sigma lookaround and collapses with the
    whitespace around it, so a chunk normalizes to its non-empty
    normalized lines joined by single spaces.
    """
    lines = screenshot_text.split("\n")
    ends, end = [], 0
    for line in lines:
        piece = len(normalize(line))
        if piece:
            end += piece + 1 if end else piece
        ends.append(end)
    candidate = normalize(candidate_text)
    lcs_at_ends = _prefix_lcs(normalize(" ".join(lines)), ends, candidate)
    best_score, best_chunk = -1.0, 0
    for k, (n, lcs) in enumerate(zip(ends, lcs_at_ends)):
        score = _score(lcs, n, len(candidate))
        if score > best_score:
            best_score, best_chunk = score, k
    return best_score, best_chunk


class VerdictKind(Enum):
    ARCHIVED = "archived"
    NOT_FOUND = "not_found"
    NON_REPLAYABLE = "non_replayable"


@dataclass(frozen=True)
class MatchResult:
    candidate: CandidateTweet
    score: float
    best_chunk: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of matching the screenshot against all archived candidates."""

    kind: VerdictKind
    evidence: MatchResult | None
    threshold_used: float
    failures: tuple[ReplayFailure, ...] = ()

    def __post_init__(self) -> None:
        if (self.kind is VerdictKind.ARCHIVED) != (self.evidence is not None):
            raise ValueError("evidence must be present exactly when archived")
        if self.evidence is not None and self.evidence.score < self.threshold_used:
            raise ValueError("archived evidence must clear the threshold")


def _rank(result: MatchResult) -> tuple:
    """Best first: highest score, then earliest capture (fixed-width UTC
    digits sort as the times they name), then original URL."""
    ref = result.candidate.ref
    return -result.score, ref.timestamp14, ref.original_url


def score_candidates(
    screenshot_text: str, candidates: list[CandidateTweet]
) -> list[MatchResult]:
    """Chunked overlap score for every candidate, best first."""
    results = []
    for candidate in candidates:
        score, best_chunk = chunk_scores(screenshot_text, candidate.extracted_text)
        results.append(MatchResult(candidate=candidate, score=score, best_chunk=best_chunk))
    return sorted(results, key=_rank)


def decide_scored(
    results: list[MatchResult],
    failures: list[ReplayFailure],
    threshold: float = DEFAULT_THRESHOLD,
) -> Verdict:
    """Turn scored candidates into a verdict.

    Archived when the best-ranked result clears the threshold;
    NonReplayable when every in-window candidate failed to replay;
    NotFound otherwise.
    """
    if not 0 < threshold <= 1:
        raise InvalidThresholdError(f"threshold {threshold} outside (0, 1]")
    best = min(results, key=_rank, default=None)
    if best is not None and best.score >= threshold:
        kind = VerdictKind.ARCHIVED
    else:
        kind = VerdictKind.NON_REPLAYABLE if not results and failures else VerdictKind.NOT_FOUND
        best = None
    return Verdict(kind=kind, evidence=best, threshold_used=threshold, failures=tuple(failures))
