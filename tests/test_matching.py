from __future__ import annotations

import random
from datetime import datetime, timezone
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetback.cdx import CandidateRef
from tweetback.matching import (
    InvalidThresholdError,
    VerdictKind,
    chunk_scores,
    decide_scored,
    lcs_length,
    normalize,
    overlap_score,
    score_candidates,
)
from tweetback.replay import CandidateTweet, ExtractionMethod, FailureReason, ReplayFailure


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


def make_candidate(text: str, tweet_id: int = 1523141006509502470,
                   ts14: str = "20220509011257") -> CandidateTweet:
    ref = CandidateRef(
        replay_url=f"https://web.archive.org/web/{ts14}/https://twitter.com/x/status/{tweet_id}",
        tweet_id=tweet_id,
        archived_at=datetime.strptime(ts14, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc),
    )
    return CandidateTweet(
        ref=ref, extracted_text=text,
        extraction_method=ExtractionMethod.TWEET_TEXT_ELEMENT,
    )


def make_failure(reason=FailureReason.HTTP_ERROR) -> ReplayFailure:
    ref = CandidateRef(
        replay_url="https://web.archive.org/web/20220509011257/https://twitter.com/x/status/9999999999999999",
        tweet_id=9999999999999999,
        archived_at=datetime(2022, 5, 9, tzinfo=timezone.utc),
    )
    return ReplayFailure(ref=ref, reason=reason)


class TestNormalize:
    def test_collapses_whitespace_and_case(self):
        assert normalize("Hello\n  WORLD ") == "hello world"

    def test_empty(self):
        assert normalize("") == ""

    def test_quote_folding(self):
        assert normalize("“It’s”") == "\"it's\""


class TestOverlapScore:
    def test_identical(self):
        assert overlap_score("abc", "abc") == 1.0

    def test_disjoint(self):
        assert overlap_score("abc", "xyz") == 0.0

    def test_known_value(self):
        # brute force: LCS("abcd", "abce") = 3, score 2*3/8
        assert brute_force_lcs("abcd", "abce") == 3
        assert overlap_score("abcd", "abce") == 0.75

    def test_both_empty(self):
        assert overlap_score("", "") == 1.0

    def test_one_empty(self):
        assert overlap_score("abc", "") == 0.0
        assert overlap_score("", "abc") == 0.0

    def test_normalization_applied(self):
        assert overlap_score("Hello  World", "hello world") == 1.0

    def test_oracle_equivalence_random_pairs(self):
        rng = random.Random(1346)
        for _ in range(1000):
            a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
            assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_symmetry(self, a, b):
        assert overlap_score(a, b) == overlap_score(b, a)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_bounds_and_identity(self, a, b):
        score = overlap_score(a, b)
        assert 0.0 <= score <= 1.0
        if score == 1.0:
            assert normalize(a) == normalize(b)
        if normalize(a) == normalize(b):
            assert score == 1.0


class TestChunkScores:
    def test_trailing_noise_defeated_by_chunking(self):
        score, chunk = chunk_scores(
            "real tweet text\ncaption text from attached image", "real tweet text"
        )
        assert score == 1.0
        assert chunk == 0
        assert score > overlap_score(
            "real tweet text\ncaption text from attached image", "real tweet text"
        )

    def test_single_line(self):
        assert chunk_scores("same text", "same text") == (1.0, 0)

    def test_smallest_chunk_wins_ties(self):
        score, chunk = chunk_scores("abc\nabc", "abc abc")
        assert chunk <= 1

    @given(
        st.lists(st.text(alphabet="ab \n", max_size=10), min_size=1, max_size=4).map("\n".join),
        st.text(alphabet="ab ", max_size=15),
    )
    def test_chunk_max_dominates_full_text(self, screenshot, candidate):
        best, _ = chunk_scores(screenshot, candidate)
        assert best >= overlap_score(screenshot, candidate) - 1e-12


def decide(screenshot_text, candidates, failures, threshold):
    return decide_scored(score_candidates(screenshot_text, candidates), failures, threshold)


class TestDecide:
    def test_archived_above_threshold(self):
        verdict = decide("hello world", [make_candidate("hello world")], [], 0.8)
        assert verdict.kind is VerdictKind.ARCHIVED
        assert verdict.evidence.score == 1.0
        assert verdict.threshold_used == 0.8

    def test_not_found_no_candidates_no_failures(self):
        verdict = decide("hello", [], [], 0.8)
        assert verdict.kind is VerdictKind.NOT_FOUND
        assert verdict.evidence is None

    def test_non_replayable(self):
        verdict = decide("hello", [], [make_failure()], 0.8)
        assert verdict.kind is VerdictKind.NON_REPLAYABLE
        assert len(verdict.failures) == 1

    def test_below_threshold_is_not_found(self):
        verdict = decide("hello world", [make_candidate("zzzz")], [make_failure()], 0.8)
        assert verdict.kind is VerdictKind.NOT_FOUND

    def test_tie_breaks_on_earliest_capture(self):
        later = make_candidate("hello", tweet_id=111, ts14="20220509011257")
        earlier = make_candidate("hello", tweet_id=222, ts14="20220508031859")
        verdict = decide("hello", [later, earlier], [], 0.8)
        assert verdict.evidence.candidate.ref.tweet_id == 222

    def test_tie_breaks_on_replay_url(self):
        a = make_candidate("hello", tweet_id=2, ts14="20220508031859")
        b = make_candidate("hello", tweet_id=1, ts14="20220508031859")
        verdict = decide("hello", [a, b], [], 0.8)
        assert verdict.evidence.candidate.ref.tweet_id == 1

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_invalid_threshold(self, bad):
        with pytest.raises(InvalidThresholdError):
            decide("x", [], [], bad)

    def test_decision_order_independent(self):
        candidates = [
            make_candidate("hello world", tweet_id=n, ts14=f"202205080318{n:02d}")
            for n in range(1, 6)
        ]
        forward = decide("hello world", candidates, [], 0.8)
        backward = decide("hello world", list(reversed(candidates)), [], 0.8)
        assert forward.evidence.candidate.ref.tweet_id == backward.evidence.candidate.ref.tweet_id

    def test_threshold_monotonicity_on_corpus(self):
        corpus = [
            ("the city council meets tonight", "the city council meets tonight"),
            ("the city council meets tonight", "the city council met last night ok"),
            ("totally different", "nothing in common at all here"),
            ("half matching text body", "half matching text"),
        ]
        archived_80 = set()
        archived_90 = set()
        for i, (shot, cand) in enumerate(corpus):
            if decide(shot, [make_candidate(cand)], [], 0.8).kind is VerdictKind.ARCHIVED:
                archived_80.add(i)
            if decide(shot, [make_candidate(cand)], [], 0.9).kind is VerdictKind.ARCHIVED:
                archived_90.add(i)
        assert archived_90 <= archived_80
