"""The simulated Wayback Machine follows the CDX server's documented semantics."""

from __future__ import annotations

import pytest

import gen
from simarchive import Capture, SimulatedWayback, surt
from tweetback.transport import NetworkError

CDX = "http://web.archive.org/cdx/search/cdx?"
WEB = "https://web.archive.org/web/"
STATUS = "https://twitter.com/Pam/status/"


def page(text: str) -> str:
    return f'<html><head></head><body><a href="https://twitter.com/Pam">x</a><p>{text}</p></body></html>'


@pytest.fixture
def archive() -> SimulatedWayback:
    return SimulatedWayback([
        Capture(STATUS + "1521000000000000000", "20220508000000", page=page("a")),
        Capture(STATUS + "1522000000000000000", "20220509120000", page=page("b")),
        Capture(STATUS + "1522000000000000000", "20220507120000", digest="D2", page=page("b")),
        Capture(STATUS + "1523999999999999999", "20220510000000", statuscode="404", page=page("c")),
        Capture(STATUS + "1524000000000000000", "20220511000000", page=page("d")),
        Capture(STATUS + "1525", "20220512000000", replayable=False),
        Capture(STATUS + "1526", "20220513000000", statuscode="301",
                location="https://mobile.twitter.com/Pam/status/1526"),
        Capture("https://mobile.twitter.com/Pam/status/1526", "20220513000002", page=page("m")),
        Capture("https://twitter.com/Other/status/1522", "20220508000000", page=page("o")),
    ])


def rows(archive: SimulatedWayback, query: str) -> list[list[str]]:
    response = archive.get(CDX + query)
    assert response.status == 200, response.body
    return [line.split(" ") for line in response.body.splitlines()]


def test_surt_lowercases_and_reverses_host():
    assert surt("https://www.Twitter.com/Pam/status/1") == "com,twitter)/pam/status/1"
    assert surt("https://mobile.twitter.com/a") == "com,twitter,mobile)/a"


def test_prefix_with_digit_class(archive):
    found = rows(archive, f"url={STATUS}152[2-3]&matchType=prefix")
    assert [(r[2].rsplit("/", 1)[1], r[1]) for r in found] == [
        ("1522000000000000000", "20220507120000"),
        ("1522000000000000000", "20220509120000"),
        ("1523999999999999999", "20220510000000"),
    ]
    assert len(found[0]) == 7 and found[0][0] == "com,twitter)/pam/status/1522000000000000000"


def test_prefix_is_case_insensitive_and_stays_under_the_path(archive):
    found = rows(archive, "url=https://twitter.com/PAM/status&matchType=prefix")
    assert len(found) == 7
    assert all(r[0].startswith("com,twitter)/pam/status") for r in found)


def test_exact_match_is_the_default(archive):
    assert rows(archive, f"url={STATUS}152") == []
    assert len(rows(archive, f"url={STATUS}1525")) == 1


def test_from_and_to_take_timestamp_prefixes(archive):
    query = f"url={STATUS}&matchType=prefix"
    stamps = [r[1] for r in rows(archive, query + "&from=20220509120000&to=20220511")]
    assert stamps == ["20220509120000", "20220510000000", "20220511000000"]
    assert [r[1] for r in rows(archive, query + "&to=202205071")] == ["20220507120000"]
    assert archive.get(CDX + query + "&from=2022-05").status == 400


def test_collapse_urlkey_keeps_the_earliest_capture(archive):
    found = rows(archive, f"url={STATUS}1522&matchType=prefix&collapse=urlkey")
    assert [r[1] for r in found] == ["20220507120000"]
    found = rows(archive, f"url={STATUS}&matchType=prefix&collapse=timestamp:8")
    assert len(found) == 7
    found = rows(archive, f"url={STATUS}&matchType=prefix&collapse=timestamp:6")
    assert [r[1] for r in found] == ["20220508000000"]


def test_filter_on_status_and_its_negation(archive):
    query = f"url={STATUS}152&matchType=prefix"
    assert [r[4] for r in rows(archive, query + "&filter=statuscode:200")] == ["200"] * 5
    assert [r[4] for r in rows(archive, query + "&filter=!statuscode:200")] == ["404", "301"]
    both = rows(archive, query + "&filter=statuscode:200&filter=!digest:D2")
    assert len(both) == 4
    assert archive.get(CDX + query + "&filter=nosuchfield:1").status == 400


def test_limit_and_field_list(archive):
    query = f"url={STATUS}&matchType=prefix"
    assert rows(archive, query + "&limit=2&fl=timestamp,statuscode") == [
        ["20220508000000", "200"], ["20220507120000", "200"]]
    assert rows(archive, query + "&limit=-1&fl=original") == [[STATUS + "1526"]]


@pytest.mark.parametrize("param", ["output=json", "showResumeKey=true", "page=0", "matchType=domain"])
def test_unmodelled_parameters_answer_400(archive, param):
    response = archive.get(CDX + f"url={STATUS}&{param}")
    assert response.status == 400
    assert sum(archive.rejected.values()) == 1


def test_plain_replay_adds_the_toolbar_and_id_replay_does_not(archive):
    url = STATUS + "1521000000000000000"
    raw = archive.get(f"{WEB}20220508000000id_/{url}")
    plain = archive.get(f"{WEB}20220508000000/{url}")
    assert (raw.status, plain.status) == (200, 200)
    assert raw.body == page("a")
    assert "BEGIN WAYBACK TOOLBAR INSERT" in plain.body and "wm-ipp" not in raw.body
    assert 'href="/web/20220508000000/https://twitter.com/Pam"' in plain.body
    assert len(plain.body) > len(raw.body)


def test_missing_timestamp_redirects_to_the_nearest_capture(archive):
    url = STATUS + "1522000000000000000"
    response = archive.get(f"{WEB}20220509000000/{url}")
    assert response.status == 302
    assert response.headers["Location"] == f"{WEB}20220509120000/{url}"
    response = archive.get(f"{WEB}20220501000000id_/{url}")
    assert response.headers["Location"] == f"{WEB}20220507120000id_/{url}"


def test_captured_redirect_is_followed_inside_the_archive(archive):
    first = archive.get(f"{WEB}20220513000000/{STATUS}1526")
    assert first.status == 302
    target = first.headers["Location"]
    assert target == f"{WEB}20220513000000/https://mobile.twitter.com/Pam/status/1526"
    second = archive.get(target)
    assert second.status == 302
    assert second.headers["Location"].startswith(WEB + "20220513000002/")
    assert archive.get(second.headers["Location"]).status == 200


def test_unreplayable_and_unarchived_answer_404(archive):
    assert archive.get(f"{WEB}20220512000000/{STATUS}1525").status == 404
    assert archive.get(f"{WEB}20220512000000/{STATUS}999").status == 404


def test_unmodelled_replay_forms_answer_400(archive):
    url = STATUS + "1521000000000000000"
    assert archive.get(f"{WEB}2022/{url}").status == 400
    assert archive.get(f"{WEB}20220508000000if_/{url}").status == 400
    assert archive.get("https://web.archive.org/wayback/available?url=x").status == 400


def test_nothing_leaves_the_process(archive):
    with pytest.raises(NetworkError):
        archive.get("https://twitter.com/Pam/status/1")


@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_inputs_are_a_function_of_the_seed(workload):
    first, again, other = gen.generate(workload, 3), gen.generate(workload, 3), gen.generate(workload, 4)
    assert first.fingerprint() == again.fingerprint()
    assert first.fingerprint() != other.fingerprint()
    assert [d.text for d in first.docs] == [d.text for d in again.docs]
    assert [d.text for d in first.docs] != [d.text for d in other.docs]


def test_workload_mix_does_not_depend_on_the_seed():
    for seed in (1, 2):
        docs = gen.generate("verify_typical", seed).docs
        assert sum(d.expected_kind == "archived" for d in docs) == 50
        assert sum(d.short_circuit for d in docs) == 14
        assert sum(d.long_ocr for d in docs) == 20
        assert sum(d.expected_in_window for d in docs) == sum(
            gen.generate("verify_typical", 9).docs[i].expected_in_window for i in range(100))
