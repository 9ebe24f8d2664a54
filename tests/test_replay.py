from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import StubTransport, jsonld_tweet_html, legacy_tweet_html, meta_tweet_html
from tweetback.cdx import CandidateRef
from tweetback.replay import (
    TOOLBAR_BEGIN,
    TOOLBAR_END,
    CandidateTweet,
    ExtractionMethod,
    FailureReason,
    NoTweetTextFound,
    ReplayFailure,
    extract_archived_text,
    fetch_replay,
    resolve_candidate,
)
from tweetback.replay import _PageScan, _TweetTextFound
from tweetback.transport import NetworkError

REF = CandidateRef(
    replay_url=(
        "https://web.archive.org/web/20220509011257/"
        "https://twitter.com/PamKeithFL/status/1523141006509502470"
    ),
    tweet_id=1523141006509502470,
    archived_at=datetime(2022, 5, 9, 1, 12, 57, tzinfo=timezone.utc),
)


class TestExtractArchivedText:
    def test_legacy_tweet_text_element(self):
        html = '<p class="js-tweet-text tweet-text">hello world</p>'
        assert extract_archived_text(html) == ("hello world", ExtractionMethod.TWEET_TEXT_ELEMENT)

    def test_nested_children_flattened(self):
        html = (
            '<div class="tweet-text">vote <a href="/x">@someone</a>'
            "<span>   today</span></div>"
        )
        text, _ = extract_archived_text(html)
        assert text == "vote @someone today"

    def test_first_tweet_text_element_wins(self):
        html = (
            '<p class="tweet-text">first tweet</p>'
            '<p class="tweet-text">reply tweet</p>'
        )
        assert extract_archived_text(html)[0] == "first tweet"

    def test_class_token_must_match_exactly(self):
        # "js-tweet-text-container" contains the substring but not the token
        html = '<div class="js-tweet-text-container">wrapper only</div>'
        with pytest.raises(NoTweetTextFound):
            extract_archived_text(html)

    def test_og_description_with_curly_quotes(self):
        html = '<meta property="og:description" content="“hello world”">'
        assert extract_archived_text(html) == ("hello world", ExtractionMethod.META_DESCRIPTION)

    def test_plain_description_fallback(self):
        html = '<meta name="description" content="plain description text">'
        text, method = extract_archived_text(html)
        assert (text, method) == ("plain description text", ExtractionMethod.META_DESCRIPTION)

    def test_og_preferred_over_plain_description(self):
        html = (
            '<meta name="description" content="plain">'
            '<meta property="og:description" content="opengraph">'
        )
        assert extract_archived_text(html)[0] == "opengraph"

    def test_json_ld_article_body(self):
        html = jsonld_tweet_html("from the json island")
        assert extract_archived_text(html) == (
            "from the json island", ExtractionMethod.JSON_LD
        )

    def test_json_ld_text_field_and_nesting(self):
        html = (
            '<script type="application/ld+json">'
            '{"@graph": [{"@type": "Thing"}, {"text": "nested text field"}]}'
            "</script>"
        )
        assert extract_archived_text(html)[0] == "nested text field"

    def test_strategy_order_is_fixed(self):
        html = (
            '<meta property="og:description" content="meta text">'
            '<p class="tweet-text">element text</p>'
            + jsonld_tweet_html("json text")
        )
        text, method = extract_archived_text(html)
        assert (text, method) == ("element text", ExtractionMethod.TWEET_TEXT_ELEMENT)

    def test_empty_tweet_text_element_falls_through(self):
        html = (
            '<p class="tweet-text">   </p>'
            '<meta property="og:description" content="meta fallback">'
        )
        assert extract_archived_text(html) == ("meta fallback", ExtractionMethod.META_DESCRIPTION)

    def test_script_inside_tweet_text_skipped(self):
        html = '<div class="tweet-text">kept<script>var x = "dropped";</script> text</div>'
        assert extract_archived_text(html)[0] == "kept text"

    def test_entities_decoded(self):
        html = '<p class="tweet-text">salt &amp; pepper</p>'
        assert extract_archived_text(html)[0] == "salt & pepper"

    def test_malformed_markup_tolerated(self):
        html = '<p class="tweet-text">unclosed <b>bold text'
        assert extract_archived_text(html)[0] == "unclosed bold text"

    def test_truncated_page_without_text(self):
        with pytest.raises(NoTweetTextFound):
            extract_archived_text("<html><head><title>50")

    def test_invalid_json_ld_skipped(self):
        html = (
            '<script type="application/ld+json">{broken json</script>'
            '<script type="application/ld+json">{"articleBody": "second block"}</script>'
        )
        assert extract_archived_text(html)[0] == "second block"

    def test_deterministic(self):
        html = legacy_tweet_html("same text every time")
        assert extract_archived_text(html) == extract_archived_text(html)


# Markup fragments that touch every branch of the page scan; tweet-text
# elements and description metas are included so a fragment can compete.
_FRAGMENTS = st.sampled_from([
    '<p class="tweet-text">fragment text</p>',
    '<p class="tweet-text">  </p>',
    '<div class="tweet-text">open',
    "</div>",
    "</p>",
    '<meta property="og:description" content="fragment meta">',
    '<meta name="description" content="plain meta">',
    jsonld_tweet_html("fragment json"),
    '<script>var x = "<p class=tweet-text>";</script>',
    "<br>",
    "<span>words &amp; more</span>",
    "<!-- a comment -->",
    "<p",
])
# The ones that open no tweet-text element and leave no tag half-written.
_CLOSED_FRAGMENTS = _FRAGMENTS.filter(lambda f: "tweet-text" not in f and f != "<p")


class TestEarlyExit:
    def test_whitespace_only_element_falls_through_to_json_ld(self):
        html = (
            '<p class="tweet-text">  <br> </p>'
            '<p class="tweet-text">second element</p>'
            + jsonld_tweet_html("json text")
        )
        assert extract_archived_text(html) == ("json text", ExtractionMethod.JSON_LD)

    def test_second_element_after_meta_ignored(self):
        html = (
            '<p class="tweet-text">first</p>'
            '<meta property="og:description" content="meta text">'
            '<p class="tweet-text">second</p>'
        )
        assert extract_archived_text(html) == ("first", ExtractionMethod.TWEET_TEXT_ELEMENT)

    def test_scan_stops_when_element_closes(self):
        scan = _PageScan()
        with pytest.raises(_TweetTextFound):
            scan.feed(
                '<p class="tweet-text">found</p>'
                '<meta property="og:description" content="never read">'
            )
        assert scan.og_description is None

    def test_unclosed_element_on_truncated_page(self):
        html = (
            '<div class="tweet-text">partial <b>text'
            '<meta property="og:description" content="meta text">'
        )
        assert extract_archived_text(html) == (
            "partial text", ExtractionMethod.TWEET_TEXT_ELEMENT
        )

    def test_unclosed_whitespace_element_on_truncated_page(self):
        html = '<div class="tweet-text">  <meta property="og:description" content="meta">'
        assert extract_archived_text(html) == ("meta", ExtractionMethod.META_DESCRIPTION)

    @given(st.lists(_CLOSED_FRAGMENTS, max_size=8), st.lists(_FRAGMENTS, max_size=8))
    def test_markup_after_closed_element_never_matters(self, before, after):
        html = "".join(before) + '<p class="tweet-text">the answer</p>' + "".join(after)
        assert extract_archived_text(html) == (
            "the answer", ExtractionMethod.TWEET_TEXT_ELEMENT
        )


def _with_toolbar(page: str, inner: str) -> str:
    return page.replace("<body>", f"<body>{TOOLBAR_BEGIN}{inner}{TOOLBAR_END}", 1)


class TestToolbarSkipped:
    def test_tweet_text_inside_toolbar_ignored(self):
        inner = '<div id="wm-ipp"><p class="tweet-text">toolbar chrome</p></div>'
        html = _with_toolbar(legacy_tweet_html("the real tweet"), inner)
        assert extract_archived_text(html) == (
            "the real tweet", ExtractionMethod.TWEET_TEXT_ELEMENT
        )

    def test_og_description_inside_toolbar_ignored(self):
        inner = '<meta property="og:description" content="toolbar chrome">'
        html = _with_toolbar(jsonld_tweet_html("from the json island"), inner)
        assert extract_archived_text(html) == (
            "from the json island", ExtractionMethod.JSON_LD
        )

    def test_toolbar_alone_is_not_tweet_text(self):
        html = f'<body>{TOOLBAR_BEGIN}<p class="tweet-text">chrome</p>{TOOLBAR_END}</body>'
        with pytest.raises(NoTweetTextFound):
            extract_archived_text(html)

    def test_begin_without_end_parses_whole_page(self):
        html = f'<body>{TOOLBAR_BEGIN}<p class="tweet-text">inside</p></body>'
        assert extract_archived_text(html)[0] == "inside"

    def test_end_before_begin_parses_whole_page(self):
        # truncated inside the element: any markup read twice would show
        html = f'<body>{TOOLBAR_END}<div class="tweet-text">between {TOOLBAR_BEGIN}'
        assert extract_archived_text(html)[0] == "between"

    @given(st.lists(_FRAGMENTS, max_size=8), st.lists(_FRAGMENTS, max_size=8))
    def test_toolbar_content_never_matters(self, page, toolbar):
        bare = "<html><head></head><body>" + "".join(page) + "</body></html>"
        toolbar_html = "<div>" + "".join(toolbar) + "</div>"
        try:
            expected = extract_archived_text(bare)
        except NoTweetTextFound:
            expected = None
        try:
            got = extract_archived_text(_with_toolbar(bare, toolbar_html))
        except NoTweetTextFound:
            got = None
        assert got == expected



class TestFetchReplay:
    def test_returns_body_on_200(self):
        transport = StubTransport().add(REF.replay_url, body="<html>ok</html>")
        assert fetch_replay(REF, transport) == "<html>ok</html>"

    def test_http_error_classified(self):
        transport = StubTransport().add(REF.replay_url, body="gone", status=404)
        failure = fetch_replay(REF, transport)
        assert isinstance(failure, ReplayFailure)
        assert failure.reason is FailureReason.HTTP_ERROR

    def test_timeout_classified(self):
        transport = StubTransport().add_error(REF.replay_url, NetworkError("slow", timed_out=True))
        failure = fetch_replay(REF, transport)
        assert failure.reason is FailureReason.TIMEOUT

    def test_redirect_followed_within_archive(self):
        other = "https://web.archive.org/web/20220509011258/https://twitter.com/PamKeithFL/status/1523141006509502470"
        transport = (
            StubTransport()
            .add(REF.replay_url, status=302, headers={"Location": other})
            .add(other, body="<html>target</html>")
        )
        assert fetch_replay(REF, transport) == "<html>target</html>"

    def test_relative_redirect_resolved(self):
        other = "https://web.archive.org/web/20220509011258/https://twitter.com/PamKeithFL/status/1523141006509502470"
        transport = (
            StubTransport()
            .add(REF.replay_url, status=301,
                 headers={"Location": "/web/20220509011258/https://twitter.com/PamKeithFL/status/1523141006509502470"})
            .add(other, body="ok")
        )
        assert fetch_replay(REF, transport) == "ok"

    def test_offsite_redirect_refused(self):
        transport = StubTransport().add(
            REF.replay_url, status=302, headers={"Location": "https://twitter.com/login"}
        )
        failure = fetch_replay(REF, transport)
        assert failure.reason is FailureReason.HTTP_ERROR

    def test_six_consecutive_redirects_loop(self):
        transport = StubTransport()
        urls = [REF.replay_url] + [
            f"https://web.archive.org/web/2022050901125{n}/https://twitter.com/x/status/1"
            for n in range(6)
        ]
        for here, there in zip(urls, urls[1:]):
            transport.add(here, status=302, headers={"Location": there})
        transport.add(urls[-1], body="never reached")
        failure = fetch_replay(REF, transport)
        assert failure.reason is FailureReason.REDIRECT_LOOP

    def test_five_redirects_still_ok(self):
        transport = StubTransport()
        urls = [REF.replay_url] + [
            f"https://web.archive.org/web/2022050901125{n}/https://twitter.com/x/status/1"
            for n in range(5)
        ]
        for here, there in zip(urls, urls[1:]):
            transport.add(here, status=302, headers={"Location": there})
        transport.add(urls[-1], body="made it")
        assert fetch_replay(REF, transport) == "made it"

    def test_redirect_without_location(self):
        transport = StubTransport().add(REF.replay_url, status=302)
        assert fetch_replay(REF, transport).reason is FailureReason.HTTP_ERROR


class TestResolveCandidate:
    def test_success(self):
        transport = StubTransport().add(REF.replay_url, body=legacy_tweet_html("the text"))
        outcome = resolve_candidate(REF, transport)
        assert isinstance(outcome, CandidateTweet)
        assert outcome.extracted_text == "the text"
        assert outcome.extraction_method is ExtractionMethod.TWEET_TEXT_ELEMENT
        assert outcome.ui_generation_hint

    def test_meta_page(self):
        transport = StubTransport().add(REF.replay_url, body=meta_tweet_html("meta text"))
        outcome = resolve_candidate(REF, transport)
        assert outcome.extraction_method is ExtractionMethod.META_DESCRIPTION

    def test_no_text_becomes_failure(self):
        transport = StubTransport().add(REF.replay_url, body="<html><body>js only</body></html>")
        outcome = resolve_candidate(REF, transport)
        assert isinstance(outcome, ReplayFailure)
        assert outcome.reason is FailureReason.NO_TWEET_TEXT

    def test_fetch_failure_passes_through(self):
        transport = StubTransport().add(REF.replay_url, status=404)
        outcome = resolve_candidate(REF, transport)
        assert isinstance(outcome, ReplayFailure)
        assert outcome.reason is FailureReason.HTTP_ERROR

    def test_total_classification(self):
        pages = [
            legacy_tweet_html("a"),
            meta_tweet_html("b"),
            "<html>nothing</html>",
        ]
        for body in pages:
            transport = StubTransport().add(REF.replay_url, body=body)
            outcome = resolve_candidate(REF, transport)
            assert isinstance(outcome, (CandidateTweet, ReplayFailure))


def test_candidate_tweet_requires_text():
    with pytest.raises(ValueError):
        CandidateTweet(ref=REF, extracted_text="", extraction_method=ExtractionMethod.JSON_LD)
