from __future__ import annotations

import random
import time
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_force_lcs, chunk_scores_reference, dp_lcs_length
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


def make_candidate(text: str, tweet_id: int = 1523141006509502470,
                   ts14: str = "20220509011257") -> CandidateTweet:
    ref = CandidateRef(ts14, f"https://twitter.com/x/status/{tweet_id}", tweet_id)
    return CandidateTweet(
        ref=ref, extracted_text=text,
        extraction_method=ExtractionMethod.TWEET_TEXT_ELEMENT,
    )


def make_failure(reason=FailureReason.HTTP_ERROR) -> ReplayFailure:
    ref = CandidateRef(
        "20220509011257", "https://twitter.com/x/status/9999999999999999", 9999999999999999
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


# Characters whose normalization is easy to get wrong at a line join:
# final sigma (lower() looks at the neighbours), dotted capital I (lowers to
# two code points), typographic quotes, and whitespace that \s matches.
_TRICKY = "ΣσςΑİIıi‘’‚‛“”„‟'\"\r\t\x1c\x1d\x1e\x1f \u00a0\u2028\u3000ab"
_chars = st.one_of(st.sampled_from(_TRICKY), st.characters())
_line = st.builds(
    lambda body, tail: body + tail,
    st.text(_chars, max_size=12),
    st.sampled_from(["", "Σ", "ΑΣ", "Σ'", "İ", " ", "\t\r"]),
)
_lines = st.lists(st.one_of(_line, st.sampled_from(["", " ", "\t \x1f"])),
                  min_size=1, max_size=6)


class TestBitParallelKernel:
    """The one-pass kernel against the per-prefix DP it replaced."""

    @given(_lines, st.text(_chars, max_size=40))
    def test_chunk_scores_match_reference(self, lines, candidate):
        screenshot = "\n".join(lines)
        assert chunk_scores(screenshot, candidate) == chunk_scores_reference(screenshot, candidate)

    @given(_lines, _lines)
    def test_chunk_scores_match_reference_on_shared_text(self, lines, other):
        # Candidates built from the screenshot's own lines give high scores
        # and ties between chunks, where the smallest index must win.
        screenshot, candidate = "\n".join(lines), " ".join(lines[:2] + other)
        assert chunk_scores(screenshot, candidate) == chunk_scores_reference(screenshot, candidate)

    @given(st.text(_chars, max_size=40), st.text(_chars, max_size=40))
    def test_lcs_length_matches_dp(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @given(_lines)
    def test_normalized_chunk_is_prefix_of_normalized_text(self, lines):
        whole = normalize(" ".join(lines))
        for k in range(len(lines)):
            assert whole.startswith(normalize(" ".join(lines[: k + 1])))

    def test_final_sigma_at_line_end(self):
        # "ΑΣ" lowers to "ας" at a line end and before the joining space.
        assert chunk_scores("ΑΣ\nΒ", "ας") == (1.0, 0)
        assert chunk_scores_reference("ΑΣ\nΒ", "ας") == (1.0, 0)

    def test_long_random_pairs(self):
        rng = random.Random(8080)
        for _ in range(4):
            a = "".join(rng.choice("abcdefg h") for _ in range(300))
            b = "".join(rng.choice("abcdefg h") for _ in range(300))
            assert lcs_length(a, b) == dp_lcs_length(a, b)
            screenshot = "\n".join(a[i:i + 60] for i in range(0, 300, 60))
            assert chunk_scores(screenshot, b) == chunk_scores_reference(screenshot, b)

    def test_worst_case_input_finishes_in_bounded_time(self):
        # 40 lines of 50 characters against a 2000-character candidate: the
        # per-prefix DP took 13.5 s on a 2-core machine (Python 3.11), the
        # one-pass kernel about 1 ms.
        rng = random.Random(4050)
        alphabet = "etaoinshrdlu "
        candidate = "".join(rng.choice(alphabet) for _ in range(2000))
        lines = ["".join(rng.choice(alphabet) for _ in range(50)) for _ in range(40)]
        started = time.perf_counter()
        chunk_scores("\n".join(lines), candidate)
        assert time.perf_counter() - started < 1.0
        # Many short lines: chunk lengths come from one pass over the lines;
        # normalizing every prefix again took 21 s on the same machine.
        started = time.perf_counter()
        chunk_scores("\n".join(["x"] * 20_000), candidate)
        assert time.perf_counter() - started < 1.0
        cut = "\n".join(line[:40] for line in lines[:10])
        assert chunk_scores(cut, candidate) == chunk_scores_reference(cut, candidate)


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


class TestRankOrder:
    # Few distinct stamps, schemes, handles, IDs and scores, so that ties
    # on every part of the key come up.
    _STAMPS = st.one_of(
        st.sampled_from([datetime(2022, 5, 8, 3, 18, 59), datetime(2022, 5, 9, 1, 12, 57)]),
        st.datetimes(min_value=datetime(2006, 1, 1), max_value=datetime(2030, 12, 31)),
    )
    _URLS = st.builds(
        "{}://twitter.com/{}/status/{}{}".format,
        st.sampled_from(["https", "http"]),
        st.sampled_from(["x", "X", "x_y"]),
        st.sampled_from([4194304, 4194305, 41943040]),
        st.sampled_from(["", "?s=20", "/photo/1"]),
    )
    _TEXTS = st.sampled_from(["hello world", "hello", "world", "zzzz"])

    @given(st.lists(st.tuples(_STAMPS, _URLS, _TEXTS), max_size=12))
    def test_orders_as_score_then_capture_time_then_replay_url(self, rows):
        rows = [(stamp.replace(microsecond=0), url, text) for stamp, url, text in rows]
        candidates = [
            CandidateTweet(
                ref=CandidateRef(f"{stamp:%Y%m%d%H%M%S}", url, 4194304),
                extracted_text=text, extraction_method=ExtractionMethod.TWEET_TEXT_ELEMENT,
            )
            for stamp, url, text in rows
        ]
        ranked = score_candidates("hello world", candidates)

        def old_key(row):
            stamp, url, text = row
            score = chunk_scores("hello world", text)[0]
            replay_url = f"https://web.archive.org/web/{stamp:%Y%m%d%H%M%S}/{url}"
            return -score, stamp.replace(tzinfo=timezone.utc), replay_url

        got = [(r.candidate.ref.timestamp14, r.candidate.ref.original_url,
                r.candidate.extracted_text) for r in ranked]
        assert got == [(f"{stamp:%Y%m%d%H%M%S}", url, text)
                       for stamp, url, text in sorted(rows, key=old_key)]
