from __future__ import annotations

import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MALFORMED_SECTION_PAGE,
    StubTransport,
    deep_json_ld_html,
    find_string_field_recursive,
    jsonld_tweet_html,
    legacy_tweet_html,
    meta_tweet_html,
    reference_extract,
    thread_page,
)
from tweetback.cdx import CandidateRef
from tweetback.replay import (
    CandidateTweet,
    ExtractionMethod,
    FailureReason,
    NoTweetTextFound,
    ReplayFailure,
    extract_archived_text,
    fetch_replay,
    resolve_candidate,
)
from tweetback.replay import _find_string_field
from tweetback.transport import FixtureMissingError, HttpResponse, NetworkError

REF = CandidateRef(
    "20220509011257",
    "https://twitter.com/PamKeithFL/status/1523141006509502470",
    1523141006509502470,
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


class TestDeepJsonLd:
    def test_over_deep_block_is_undecodable(self):
        html = deep_json_ld_html(5000)
        assert len(html) > 5000
        with pytest.raises(NoTweetTextFound):
            extract_archived_text(html)

    def test_over_deep_block_does_not_hide_a_later_one(self):
        html = deep_json_ld_html(5000) + jsonld_tweet_html("after the deep block")
        assert extract_archived_text(html) == ("after the deep block", ExtractionMethod.JSON_LD)

    def test_search_has_no_depth_limit(self):
        node: object = {"text": "at the bottom"}
        for level in range(10_000):
            node = [node] if level % 2 else {"child": node}
        assert _find_string_field(node, "text") == "at the bottom"


# Few keys, one-letter strings and ready-made {"text": ...} leaves, so
# several non-blank matches compete and the search order decides which wins.
_JSON_LEAF = (st.none() | st.sampled_from([" ", "a", "b"])
              | st.sampled_from("abcd").map(lambda c: {"text": c}))


def _json_containers(children):
    return st.lists(children, min_size=1, max_size=4) | st.dictionaries(
        st.sampled_from(["text", "x", "y"]), children, min_size=1)


_JSON = _json_containers(st.recursive(_JSON_LEAF, _json_containers, max_leaves=20))


@given(_JSON)
def test_find_string_field_matches_recursive_reference(node):
    assert _find_string_field(node, "text") == find_string_field_recursive(node, "text")


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
        # The tail alone must be read to its end, so a page that costs a
        # small fraction of it never read the tail behind its first element.
        tail = '<meta property="og:description" content="never read">' * 5000
        page = '<p class="tweet-text">found</p>' + tail
        assert extract_archived_text(tail) == ("never read", ExtractionMethod.META_DESCRIPTION)
        assert extract_archived_text(page) == ("found", ExtractionMethod.TWEET_TEXT_ELEMENT)

        def seconds(html):
            return min(timeit.repeat(lambda: extract_archived_text(html), number=1, repeat=5))

        assert seconds(page) * 20 < seconds(tail)

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


class TestUnknownMarkedSectionSkipped:
    def test_malformed_marked_section_is_not_a_crash(self):
        assert extract_archived_text(MALFORMED_SECTION_PAGE) == (
            "x", ExtractionMethod.TWEET_TEXT_ELEMENT
        )

    def test_description_before_the_section_still_wins(self):
        html = (
            '<html><head><meta property="og:description" content="“read first”">'
            "</head><body><![foo bar]><p>later</p></body></html>"
        )
        assert extract_archived_text(html) == ("read first", ExtractionMethod.META_DESCRIPTION)


class TestEvidenceIsTheNamedTweet:
    # Tweet 100 opens a self-reply thread and tweet 200 answers it; on 200's
    # permalink page the ancestor comes first.
    PAGE = thread_page((100, "the ancestor tweet"), (200, "the permalink tweet"))

    @pytest.mark.parametrize("tweet_id, text", [
        (200, "the permalink tweet"),
        (100, "the ancestor tweet"),
    ])
    def test_thread_page_reads_the_candidates_own_tweet(self, tweet_id, text):
        ref = CandidateRef(REF.timestamp14, REF.original_url, tweet_id)
        transport = StubTransport().add(ref.raw_replay_url, body=self.PAGE)
        outcome = resolve_candidate(ref, transport)
        assert (outcome.extracted_text, outcome.extraction_method) == (
            text, ExtractionMethod.TWEET_TEXT_ELEMENT
        )

    def test_without_an_id_the_first_element_wins(self):
        assert extract_archived_text(self.PAGE)[0] == "the ancestor tweet"

    def test_page_naming_only_other_tweets_falls_through(self):
        page = thread_page((100, "another tweet")) + meta_tweet_html("meta text")
        assert extract_archived_text(page, 200) == ("meta text", ExtractionMethod.META_DESCRIPTION)

    def test_element_after_another_tweets_closes_counts(self):
        page = (
            '<div data-tweet-id="100"><div><p class="tweet-text">other</p></div>'
            '<div class="tweet-text">other too</div></div>'
            '<p class="tweet-text">unmarked</p>'
        )
        assert extract_archived_text(page, 200)[0] == "unmarked"


# Well-formed page fragments on which html.parser reads the same on every
# Python that pyproject.toml accepts: no "<![", no unclosed comment, quote
# or tag, no markup inside a title.
_PAGE_TEXT = st.sampled_from([
    "vote", "  today ", "salt &amp; pepper", "&lt;b&gt; not a tag", "it&#39;s",
    "\n", "caf&eacute;", "&#x1F600;", "a&nbsp;b", "R&amp;D", "1 &gt; 0", "1 < 2",
])
_PAGE_LEAF = _PAGE_TEXT | st.sampled_from([
    "<br>", "<br/>", '<img src="x.png" alt="a &quot;b&quot;">', "<span/>",
    '<img class="tweet-text" src="t.png">',
    '<p class="tweet-text"/>', "<!-- a comment -->", "<!---->",
    '<script>var s = "<p class=tweet-text>x";</script>',
    "<style>p { color: red }</style>", "<SCRIPT>if (a < b) {}</SCRIPT>",
    '<script type="application/ld+json">{"articleBody": "ld text"}</script>',
    '<script type="application/ld+json">{"text": "ld &amp; raw"}</script>',
    '<meta property="og:description" content="&ldquo;og text&rdquo;">',
    '<meta name="description" content="plain text"/>',
    "<meta name='description' content='   '>",
    '<meta property="og:title" content="not a description">',
])
_PAGE_TAGS = st.sampled_from(["div", "p", "span", "a", "b", "li", "DIV"])
_PAGE_ATTRS = st.lists(st.sampled_from([
    ' class="tweet-text"', " class='js-tweet-text tweet-text'", ' class="tweet-text-container"',
    ' CLASS="tweet-text"', ' class = "tweet&#45;text"', ' class="x"', " class=tweet-text",
    ' data-tweet-id="100"', " data-tweet-id='200'", ' title="1 > 0"', " hidden",
    ' href="/a?b=1&amp;c=2"', ' class="x" class="tweet-text"',
]), max_size=2).map("".join)


def _page_elements(children):
    return st.builds(
        lambda tag, attrs, inner: f"<{tag}{attrs}>{''.join(inner)}</{tag}>",
        _PAGE_TAGS, _PAGE_ATTRS, st.lists(children, max_size=4),
    )


_PAGES = st.builds(
    lambda doctype, body: doctype + "".join(body),
    st.sampled_from(["", "<!DOCTYPE html>"]),
    st.lists(st.recursive(_PAGE_LEAF, _page_elements, max_leaves=12), max_size=5),
)


def _outcome(extract, page, tweet_id):
    try:
        return extract(page, tweet_id)
    except NoTweetTextFound:
        return None


@settings(max_examples=300)
@given(_PAGES, st.sampled_from([None, 100, 200]))
def test_scan_reads_well_formed_pages_as_html_parser_does(page, tweet_id):
    assert _outcome(extract_archived_text, page, tweet_id) == _outcome(
        reference_extract, page, tweet_id
    )


class TestFetchReplay:
    def test_fetches_the_raw_replay(self):
        transport = StubTransport().add(REF.raw_replay_url, body="<html>ok</html>")
        fetch_replay(REF, transport)
        assert transport.get_log == [
            "https://web.archive.org/web/20220509011257id_/"
            "https://twitter.com/PamKeithFL/status/1523141006509502470"
        ]

    def test_returns_body_on_200(self):
        transport = StubTransport().add(REF.raw_replay_url, body="<html>ok</html>")
        assert fetch_replay(REF, transport) == "<html>ok</html>"

    def test_http_error_classified(self):
        transport = StubTransport().add(REF.raw_replay_url, body="gone", status=404)
        failure = fetch_replay(REF, transport)
        assert isinstance(failure, ReplayFailure)
        assert failure.reason is FailureReason.HTTP_ERROR

    def test_timeout_classified(self):
        transport = StubTransport().add_error(REF.raw_replay_url, NetworkError("slow", timed_out=True))
        failure = fetch_replay(REF, transport)
        assert failure.reason is FailureReason.TIMEOUT

    def test_missing_fixture_propagates(self):
        with pytest.raises(FixtureMissingError):
            fetch_replay(REF, StubTransport())

    def test_missing_fixture_after_a_redirect_propagates(self):
        other = "https://web.archive.org/web/20220509011258id_/https://twitter.com/x/status/1"
        transport = StubTransport().add(REF.raw_replay_url, status=302, headers={"Location": other})
        with pytest.raises(FixtureMissingError):
            resolve_candidate(REF, transport)
        assert transport.get_log == [REF.raw_replay_url, other]

    def test_redirect_followed_within_archive(self):
        other = "https://web.archive.org/web/20220509011258/https://twitter.com/PamKeithFL/status/1523141006509502470"
        transport = (
            StubTransport()
            .add(REF.raw_replay_url, status=302, headers={"Location": other})
            .add(other, body="<html>target</html>")
        )
        assert fetch_replay(REF, transport) == "<html>target</html>"

    def test_lower_case_location_followed(self):
        other = "https://web.archive.org/web/20220509011258/https://twitter.com/PamKeithFL/status/1523141006509502470"
        transport = (
            StubTransport()
            .add(REF.raw_replay_url, status=302, headers={"location": other})
            .add(other, body="<html>target</html>")
        )
        assert fetch_replay(REF, transport) == "<html>target</html>"

    def test_relative_redirect_resolved(self):
        other = "https://web.archive.org/web/20220509011258/https://twitter.com/PamKeithFL/status/1523141006509502470"
        transport = (
            StubTransport()
            .add(REF.raw_replay_url, status=301,
                 headers={"Location": "/web/20220509011258/https://twitter.com/PamKeithFL/status/1523141006509502470"})
            .add(other, body="ok")
        )
        assert fetch_replay(REF, transport) == "ok"

    def test_offsite_redirect_refused(self):
        transport = StubTransport().add(
            REF.raw_replay_url, status=302, headers={"Location": "https://twitter.com/login"}
        )
        failure = fetch_replay(REF, transport)
        assert failure.reason is FailureReason.HTTP_ERROR

    @pytest.mark.parametrize("location", [
        "https://twitter.com/PamKeithFL/status/1523141006509502470",
        "https://web.archive.org.example.com/web/20220509011258id_/https://twitter.com/x/status/1",
        "//archive.org/web/20220509011258id_/https://twitter.com/x/status/1",
    ])
    def test_raw_replay_redirect_leaving_the_archive_refused(self, location):
        transport = StubTransport().add(
            REF.raw_replay_url, status=302, headers={"Location": location}
        )
        assert fetch_replay(REF, transport) == ReplayFailure(
            ref=REF, reason=FailureReason.HTTP_ERROR
        )
        assert len(transport.get_log) == 1

    def test_unparseable_location_is_http_error(self):
        transport = StubTransport().add(REF.raw_replay_url, status=302, headers={"Location": "//[x"})
        assert fetch_replay(REF, transport).reason is FailureReason.HTTP_ERROR

    def test_six_consecutive_redirects_loop(self):
        transport = StubTransport()
        urls = [REF.raw_replay_url] + [
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
        urls = [REF.raw_replay_url] + [
            f"https://web.archive.org/web/2022050901125{n}/https://twitter.com/x/status/1"
            for n in range(5)
        ]
        for here, there in zip(urls, urls[1:]):
            transport.add(here, status=302, headers={"Location": there})
        transport.add(urls[-1], body="made it")
        assert fetch_replay(REF, transport) == "made it"

    def test_redirect_without_location(self):
        transport = StubTransport().add(REF.raw_replay_url, status=302)
        assert fetch_replay(REF, transport).reason is FailureReason.HTTP_ERROR


class TestResolveCandidate:
    def test_success(self):
        transport = StubTransport().add(REF.raw_replay_url, body=legacy_tweet_html("the text"))
        outcome = resolve_candidate(REF, transport)
        assert isinstance(outcome, CandidateTweet)
        assert outcome.extracted_text == "the text"
        assert outcome.extraction_method is ExtractionMethod.TWEET_TEXT_ELEMENT
        assert outcome.ui_generation_hint

    def test_meta_page(self):
        transport = StubTransport().add(REF.raw_replay_url, body=meta_tweet_html("meta text"))
        outcome = resolve_candidate(REF, transport)
        assert outcome.extraction_method is ExtractionMethod.META_DESCRIPTION

    def test_no_text_becomes_failure(self):
        transport = StubTransport().add(REF.raw_replay_url, body="<html><body>js only</body></html>")
        outcome = resolve_candidate(REF, transport)
        assert isinstance(outcome, ReplayFailure)
        assert outcome.reason is FailureReason.NO_TWEET_TEXT

    def test_over_deep_json_ld_becomes_failure(self):
        transport = StubTransport().add(REF.raw_replay_url, body=deep_json_ld_html(5000))
        assert resolve_candidate(REF, transport) == ReplayFailure(
            ref=REF, reason=FailureReason.NO_TWEET_TEXT
        )

    def test_malformed_marked_section_page(self):
        transport = StubTransport().add(REF.raw_replay_url, body=MALFORMED_SECTION_PAGE)
        outcome = resolve_candidate(REF, transport)
        assert outcome.extracted_text == "x"

    def test_fetch_failure_passes_through(self):
        transport = StubTransport().add(REF.raw_replay_url, status=404)
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
            transport = StubTransport().add(REF.raw_replay_url, body=body)
            outcome = resolve_candidate(REF, transport)
            assert isinstance(outcome, (CandidateTweet, ReplayFailure))


def test_candidate_tweet_requires_text():
    with pytest.raises(ValueError):
        CandidateTweet(ref=REF, extracted_text="", extraction_method=ExtractionMethod.JSON_LD)


# Wire fragments a hostile or broken archive page can carry, including the
# declaration, comment and character-reference openers html.parser is
# strictest about.
_HOSTILE_BODY = st.lists(
    st.sampled_from([
        "<![", "<!--", "-->", "<!", "<?", "]]>", "]>", "&#", "&#x", ";", "&",
        '"', "'", "<", ">", "/", "=", " ", "x", "9", "tweet-text", "<p class=", "</p>",
        '<meta property="og:description" content=', "<br>",
        '<script type="application/ld+json">', "</script>", "{", "}", "[", "]",
        "CDATA", "DOCTYPE", "<!-- BEGIN WAYBACK TOOLBAR INSERT -->",
        "<!-- END WAYBACK TOOLBAR INSERT -->",
    ]) | st.text(max_size=2),
    max_size=30,
).map("".join)

TARGET = "https://web.archive.org/web/20220509011258id_/https://twitter.com/x/status/1"

# Bodies of 200 KB or more that cost html.parser, or a careless scanner,
# quadratic time: unterminated tags, comments and scripts, and elements
# nested without end.
_HOSTILE_LARGE = {
    "open-quote": '<a b="' * 40_000,
    "quote-in-name": '<a"' * 70_000,
    "open-comment": "<!--" * 50_000,
    "script-near-misses": "<script>" + "</scrip" * 30_000,
    "deep-tweet-text": '<p class="tweet-text">' + "<b>x" * 50_000,
    "deep-unmatched-ends": '<p class="tweet-text">' + "<b>" * 35_000 + "</i>" * 35_000,
    "open-end-tag": "</a" * 70_000,
    "unquoted-values": "<a b=" * 40_000,
}



class TestHostileResponses:
    # 500 examples: at 100, about a third of seeds missed the "<![" crash.
    @settings(max_examples=500)
    @given(_HOSTILE_BODY)
    def test_any_page_resolves_to_a_result(self, body):
        transport = StubTransport().add(REF.raw_replay_url, body=body)
        outcome = resolve_candidate(REF, transport)
        assert isinstance(outcome, (CandidateTweet, ReplayFailure))
        assert outcome.ref is REF

    @pytest.mark.parametrize("body", _HOSTILE_LARGE.values(), ids=_HOSTILE_LARGE.keys())
    def test_large_hostile_page_reads_in_linear_time(self, body):
        assert len(body) >= 200_000
        transport = StubTransport().add(REF.raw_replay_url, body=body)
        outcomes = []
        seconds = timeit.timeit(lambda: outcomes.append(resolve_candidate(REF, transport)), number=1)
        assert seconds < 1.0
        assert isinstance(outcomes[0], (CandidateTweet, ReplayFailure))

    @given(
        status=st.sampled_from([301, 302, 303, 307, 308]),
        location=st.one_of(
            st.none(),
            st.sampled_from([TARGET, "/web/20220509011258id_/x", "https://twitter.com/login",
                             "//[", "http://[::1", "https://web.archive.org:99999/"]),
            st.text(max_size=20),
        ),
        target_body=_HOSTILE_BODY,
    )
    def test_any_redirect_resolves_to_a_result(self, status, location, target_body):
        headers = {} if location is None else {"Location": location}
        transport = (
            StubTransport(fallback=HttpResponse(status=404, body=""))
            .add(REF.raw_replay_url, status=status, headers=headers)
            .add(TARGET, body=target_body)
        )
        outcome = resolve_candidate(REF, transport)
        assert isinstance(outcome, (CandidateTweet, ReplayFailure))
        assert outcome.ref is REF
