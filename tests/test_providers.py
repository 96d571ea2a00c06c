import dataclasses
import gc
import http.server
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import urllib.error
from collections import Counter
from pathlib import Path

import pytest

import accessfix
from accessfix import corrector, dom, harness, providers, rules
from accessfix.colors import RgbColor, contrast_ratio, parse_color
from accessfix.corrector import apply_fix, correct_document
from accessfix.errors import (
    ConfigError,
    NoRecipeError,
    ProviderUnavailableError,
    ReplayMissError,
)
from accessfix.harness import (
    CorpusEntry,
    build_replay_transcript,
    ingest,
    run_benchmark,
    run_pages,
)
from accessfix.prompts import build_prompt, parse_fix
from accessfix.providers import (
    HeuristicProvider,
    ProviderConfig,
    RemoteProvider,
    ReplayProvider,
    Transcript,
    heuristic_fix,
    make_provider,
    request_hash,
    rescale_for_contrast,
)
from accessfix.rules import Violation


def violation_for(html, rule_id):
    doc = dom.parse_html(html)
    violations = rules.audit(doc, web_url="fixture")
    return next(v for v in violations if v.rule_id == rule_id)


def reaudit_after_fix(html, rule_id):
    doc = dom.parse_html(html)
    v = next(x for x in rules.audit(doc, web_url="f") if x.rule_id == rule_id)
    el = dom.locate(dom.preorder(doc.root).elements, v.index, v.html_snippet)
    record = apply_fix(el, v, heuristic_fix(v))
    assert record.outcome == "applied"
    return rules.audit(doc, web_url="f")


PAGE = '<html lang="en"><body><main id="m">{seed}</main></body></html>'


def test_image_alt_recipe_uses_filename_stem():
    v = violation_for(PAGE.format(seed='<img src="cart-icon.png">'), "image-alt")
    fix = heuristic_fix(v)
    assert fix.corrected_html == '<img src="cart-icon.png" alt="cart icon">'


def test_image_alt_recipe_keeps_the_attribute_in_place():
    v = violation_for(PAGE.format(seed='<img alt=" " src="chart-1.png">'),
                      "image-alt")
    fix = heuristic_fix(v)
    assert fix.corrected_html == '<img alt="chart 1" src="chart-1.png">'


def test_landmark_content_recipe_drops_only_the_role():
    v = violation_for(PAGE.format(seed='<div role="banner" class="x">hi</div>'),
                      "landmark-no-duplicate-content")
    assert heuristic_fix(v).corrected_html == '<div class="x">hi</div>'


def test_image_alt_recipe_fallback_for_empty_stem():
    v = violation_for(PAGE.format(seed='<img src="">'), "image-alt")
    assert 'alt="decorative image"' in heuristic_fix(v).corrected_html


def test_html_lang_recipe():
    v = violation_for("<html><body><main>x</main></body></html>", "html-has-lang")
    assert 'lang="en"' in heuristic_fix(v).corrected_html


def test_contrast_recipe_meets_threshold_with_margin():
    v = violation_for(
        PAGE.format(
            seed='<p style="color:#777777; background-color:#ffffff">txt</p>'
        ),
        "color-contrast",
    )
    fix = heuristic_fix(v)
    el = dom.parse_fragment_element(fix.corrected_html)
    style = el.attrs.get("style")
    fg = parse_color(style.split(";")[0].split(":")[1])
    assert contrast_ratio(fg, parse_color("#ffffff")) >= 4.55


def test_contrast_recipe_keeps_the_other_color_properties():
    v = violation_for(PAGE.format(
        seed='<p style="color-scheme: light; color:#777777; '
             'background-color:#ffffff">text</p>'), "color-contrast")
    assert heuristic_fix(v).corrected_html == (
        '<p style="color:#757575; color-scheme: light; '
        'background-color:#ffffff">text</p>')


def test_empty_heading_recipe_names_a_void_heading():
    # Text in a void element would never be serialized.
    html = PAGE.format(seed='<hr role="heading">')
    v = violation_for(html, "empty-heading")
    assert heuristic_fix(v).corrected_html == \
        '<hr role="heading" aria-label="section heading">'
    assert all(x.rule_id != "empty-heading"
               for x in reaudit_after_fix(html, "empty-heading"))


def test_contrast_recipe_soundness_200_random_cases():
    rng = random.Random(7)
    for _ in range(200):
        fg = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        bg = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        threshold = rng.choice([3.0, 4.5])
        fixed = rescale_for_contrast(fg, bg, threshold)
        assert contrast_ratio(fixed, bg) >= threshold + 0.05


def test_recipes_do_not_reflag_the_fixed_node(rules_dir, rules_manifest):
    # Oracle idempotence over every positive rule fixture.
    for name, seeded in sorted(rules_manifest.items()):
        if not seeded:
            continue
        (rule_id,) = seeded
        after = reaudit_after_fix((rules_dir / name).read_text("utf-8"), rule_id)
        assert all(v.rule_id != rule_id for v in after), name


def test_duplicate_id_recipe_reads_suggestion():
    v = violation_for(
        PAGE.format(seed='<p id="n">a</p><p id="n">b</p>'), "duplicate-id"
    )
    assert 'id="n-2"' in heuristic_fix(v).corrected_html


@pytest.mark.parametrize("html, rule_id", [
    (PAGE.format(seed='<p id="x">0</p><p id=\'x"y\'>a</p><p id=\'x"y\'>b</p>'),
     "duplicate-id"),
    ('<html lang="en"><body><header><a href="#nope">skip</a></header>'
     '<main><p id=\'top"1\'>t</p></main></body></html>', "skip-link"),
], ids=["duplicate-id", "skip-link"])
def test_recipes_handle_quoted_ids(html, rule_id):
    after = reaudit_after_fix(html, rule_id)
    assert all(v.rule_id != rule_id for v in after)


@pytest.mark.parametrize("wrap_in, before, wrapped", [
    ("main", "", r'<main><p class="x" id="m-1">Text 1</p></main>'),
    ("section", "<main>ok</main>",
     r'<section aria-label="region-2">'
     r'<p class="x" id="m-1">Text 1</p></section>'),
], ids=["main", "section"])
def test_region_recipe_wraps_a_paragraph_whole(wrap_in, before, wrapped):
    # Both landmarks implicitly close an open <p>, so wrapping the <p>'s
    # children would not re-parse as one element.
    html = (f'<html lang="en"><body>{before}'
            '<p class="x" id="m-1">Text 1</p></body></html>')
    v = violation_for(html, "region")
    assert v.data["wrap_in"] == wrap_in
    assert re.fullmatch(wrapped, heuristic_fix(v).corrected_html)
    after = reaudit_after_fix(html, "region")
    assert all(x.rule_id != "region" for x in after)


def test_landmark_one_main_recipe_keeps_a_main_from_a_region_fix():
    # The region fix on the <div> runs first and adds the page's main.
    doc = dom.parse_html('<html lang="en"><body><div>text</div></body></html>')
    violations = rules.audit(doc, web_url="f")
    assert [v.rule_id for v in violations] == ["landmark-one-main", "region"]
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert [r.outcome for r in records] == ["applied"] * 2
    assert doc.serialize().count("<main>") == 1
    assert rules.audit(doc, web_url="f") == []


@pytest.mark.parametrize("body, corrected", [
    ("<header>h</header><nav>n</nav><footer>f</footer>",
     "<header>h</header><main><nav>n</nav></main><footer>f</footer>"),
    ('\n<!-- c --> <div role="banner">h</div>\n<nav>n</nav>\n'
     "<footer>f</footer>\n",
     '\n<!-- c --> <div role="banner">h</div><main>\n<nav>n</nav>\n'
     "</main><footer>f</footer>\n"),
    ("<nav>n</nav><header>h</header><aside>m</aside>",
     "<main><nav>n</nav><header>h</header><aside>m</aside></main>"),
], ids=["banner-and-contentinfo", "blank-text-and-comments", "inner-header"])
def test_landmark_one_main_recipe_leaves_page_banner_and_footer_outside(
        body, corrected):
    # A <main> around the page's own banner or contentinfo would nest those
    # landmarks in it (landmark-no-duplicate-content).
    doc = dom.parse_html(f'<html lang="en"><body>{body}</body></html>')
    violations = rules.audit(doc, web_url="f")
    assert "landmark-one-main" in [v.rule_id for v in violations]
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert [r.outcome for r in records] == ["applied"] * len(records)
    assert doc.serialize() == (f'<html lang="en"><head></head><body>'
                               f"{corrected}</body></html>")


def test_root_main_wrap_ids_the_main_after_a_dangling_skip_link():
    root = dom.parse_html('<a href="#top">skip</a><p>x</p>').root
    main = rules.main_wrap(root)
    assert dom.serialize_node(root.children[1]) == (
        '<body><main id="top"><a href="#top">skip</a><p>x</p></main></body>')
    assert main is root.children[1].children[0]
    assert rules.main_wrap(root) is None


def test_root_main_wrap_without_a_body_has_no_recipe():
    v = Violation("landmark-one-main", "moderate", "d", "h",
                  "<html><head></head></html>", 0, "u")
    with pytest.raises(NoRecipeError, match="no body"):
        heuristic_fix(v)


def test_landmark_one_main_fix_on_a_landmark_only_page_ends_at_score_0():
    html = ('<html lang="en"><body><header>h</header><nav>n</nav>'
            "<footer>f</footer></body></html>")
    result, rows, records, failures = harness.run_benchmark(
        [harness.CorpusEntry("landmarks.html", html)],
        HeuristicProvider())
    assert failures == []
    assert [row.rule_id for row in rows] == ["landmark-one-main"]
    assert [r.outcome for r in records] == ["applied"]
    assert result.total_final == 0


def test_recipes_do_not_read_help_text(rules_dir, rules_manifest):
    for name, seeded in sorted(rules_manifest.items()):
        if not seeded:
            continue
        doc = dom.parse_html((rules_dir / name).read_text("utf-8"))
        for v in rules.audit(doc, web_url="f"):
            reworded = dataclasses.replace(v, help="reworded")
            assert heuristic_fix(reworded).corrected_html == \
                heuristic_fix(v).corrected_html, (name, v.rule_id)


def test_no_recipe_for_unknown_rule():
    v = Violation("bogus", "minor", "d", "h", "<p></p>", None, "u")
    with pytest.raises(NoRecipeError):
        heuristic_fix(v)


def test_every_rule_has_a_recipe():
    assert set(providers._RECIPES) == set(rules.RULE_CATALOG)


@pytest.mark.parametrize("seed, rule_id", [
    ('<p id="n">a</p><p id="n">b</p>', "duplicate-id"),
    ("<h1>a</h1><h3>b</h3>", "heading-order"),
    ('<nav>a</nav><nav>b</nav>', "landmark-unique"),
    ("</main><main>b", "landmark-one-main"),
    ("</main><p>stray</p><main>", "region"),
    ('<div role="checkbox">x</div>', "aria-required-attr"),
    ('<p style="color:#777;background-color:#fff">x</p>', "color-contrast"),
])
def test_recipe_without_its_parameters_has_no_fix(seed, rule_id):
    v = violation_for(PAGE.format(seed=seed), rule_id)
    assert heuristic_fix(v).corrected_html
    with pytest.raises(NoRecipeError):
        heuristic_fix(dataclasses.replace(v, data={}))


def test_aria_required_attr_recipe_adds_what_the_audit_found_missing():
    v = violation_for(PAGE.format(seed='<div role="scrollbar">x</div>'),
                      "aria-required-attr")
    v = dataclasses.replace(v, data={"missing": ("aria-valuenow",)})
    assert heuristic_fix(v).corrected_html == \
        '<div role="scrollbar" aria-valuenow="0">x</div>'


def test_heuristic_provider_delegates():
    v = violation_for(PAGE.format(seed='<img src="a.png">'), "image-alt")
    bundle = build_prompt(v, "react")
    assert HeuristicProvider().propose(bundle, v) == heuristic_fix(v)


def test_heuristic_proposal_round_trips_through_parse_fix():
    for seed, rule_id in [
        ('<img src="a.png">', "image-alt"),
        ('<p style="color:#999999; background-color:#ffffff">'
         "run `ls` now</p>", "color-contrast"),
        ('<p style="color:#999999; background-color:#ffffff" '
         'title="a ``b`` c">run `ls` now</p>', "color-contrast"),
    ]:
        fix = heuristic_fix(violation_for(PAGE.format(seed=seed), rule_id))
        assert parse_fix(fix.raw_response).corrected_html == fix.corrected_html


def test_applied_heuristic_fix_is_its_corrected_html_parsed(
        corpus_paths, rules_dir, rules_manifest, composed_pages, monkeypatch):
    """A recipe's answer is applied by running the recipe's edit on the live
    element instead of the corrector parsing the answer; that is only sound
    while the element that the fix leaves equals the answer parsed. An
    answer to a snippet cut to its start tag is never parsed: there,
    ``parse_fix`` must read the answer back as the edit that was run."""
    compared = []
    apply = corrector.apply_fix
    snippets = {}  # id of a proposal -> the snippet it answers
    fix = providers.heuristic_fix

    def recording(v):
        proposal = fix(v)
        snippets[id(proposal)] = v.html_snippet
        return proposal

    def checked(el, v, proposal):
        record = apply(el, v, proposal)
        snippet = snippets[id(proposal)]
        if dom.is_cut(snippet):
            read = parse_fix(proposal.raw_response, snippet=snippet)
            compared.append(read.edit == proposal.edit)
        else:
            compared.append(
                el == dom.parse_fragment_element(proposal.corrected_html))
        return record

    monkeypatch.setattr(providers, "heuristic_fix", recording)
    monkeypatch.setattr(corrector, "apply_fix", checked)
    pages = [(path, Path(path).read_text("utf-8")) for path in corpus_paths]
    pages += [(name, (rules_dir / name).read_text("utf-8"))
              for name in sorted(rules_manifest)]
    for name, html in pages + composed_pages:
        doc = dom.parse_html(html)
        correct_document(doc, rules.audit(doc, web_url=name),
                         HeuristicProvider())
    assert len(compared) > 1000
    assert all(compared)


def test_transcript_save_load_round_trip(tmp_path):
    t = Transcript()
    t.record("abc", "CORRECTED: `<p>x</p>`")
    path = tmp_path / "t.jsonl"
    t.save(path)
    assert Transcript.load(path).entries == t.entries


@pytest.mark.parametrize("text,line", [
    ('{"requestHash": "a", "rawResponse": "r"}\n{"requestHash": "b"\n', 2),
    ('\n{"requestHash": "a"}\n', 2),
    ('{"requestHash": 1, "rawResponse": "r"}\n', 1),
    ('["a", "r"]\n', 1),
])
def test_transcript_load_names_the_bad_line(tmp_path, text, line):
    path = tmp_path / "t.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        Transcript.load(path)
    assert f"{path}:{line}:" in str(exc.value)


def test_transcript_load_missing_file_is_config_error(tmp_path):
    path = tmp_path / "absent.jsonl"
    with pytest.raises(ConfigError) as exc:
        Transcript.load(path)
    assert str(path) in str(exc.value)


def test_replay_provider_hit_and_miss():
    v = violation_for(PAGE.format(seed='<img src="a.png">'), "image-alt")
    bundle = build_prompt(v, "react")
    t = Transcript()
    t.record(request_hash(bundle.messages()),
             'CORRECTED: `<img src="a.png" alt="a">`')
    provider = ReplayProvider(t)
    assert provider.propose(bundle).corrected_html == '<img src="a.png" alt="a">'
    other = build_prompt(v, "few_shot")
    with pytest.raises(ReplayMissError):
        provider.propose(other)


def remote_cfg(**kwargs):
    base = dict(kind="remote", endpoint_url="https://example.test/v1",
                model_name="test-model", max_retries=2)
    base.update(kwargs)
    return ProviderConfig(**base)


def test_remote_provider_posts_chat_completion_shape():
    captured = {}

    def fake_post(url, payload, headers, timeout):
        captured.update(url=url, payload=payload)
        return {"choices": [{"message": {"content": "CORRECTED: `<p>ok</p>`"}}]}

    provider = RemoteProvider(remote_cfg(), post_json=fake_post, sleep=lambda s: None)
    v = violation_for(PAGE.format(seed='<img src="a.png">'), "image-alt")
    bundle = build_prompt(v, "react")
    proposal = provider.propose(bundle)
    assert proposal.corrected_html == "<p>ok</p>"
    assert captured["payload"]["model"] == "test-model"
    roles = [m["role"] for m in captured["payload"]["messages"]]
    assert roles == ["system", "user"]
    assert "temperature" in captured["payload"]
    assert "max_tokens" in captured["payload"]


def test_remote_provider_retries_then_fails():
    calls = []

    def always_down(url, payload, headers, timeout):
        calls.append(url)
        raise OSError("connection refused")

    provider = RemoteProvider(
        remote_cfg(max_retries=2), post_json=always_down, sleep=lambda s: None
    )
    v = violation_for(PAGE.format(seed='<img src="a.png">'), "image-alt")
    with pytest.raises(ProviderUnavailableError):
        provider.propose(build_prompt(v, "react"))
    assert len(calls) == 3  # initial try + max_retries


def test_remote_provider_recovers_after_transient_failure():
    calls = []

    def flaky(url, payload, headers, timeout):
        calls.append(url)
        if len(calls) < 2:
            raise OSError("timeout")
        return {"choices": [{"message": {"content": "CORRECTED: `<p>ok</p>`"}}]}

    provider = RemoteProvider(remote_cfg(), post_json=flaky, sleep=lambda s: None)
    v = violation_for(PAGE.format(seed='<img src="a.png">'), "image-alt")
    assert provider.propose(build_prompt(v, "react")).corrected_html == "<p>ok</p>"


@pytest.mark.parametrize("body", [
    {"choices": [{"message": {"content": None}}]},
    [],
    {"choices": [{"message": "hi"}]},
], ids=["null-content", "list-body", "string-message"])
def test_remote_provider_wrong_shape_body_is_provider_failed(body):
    calls = []

    def wrong_shape(url, payload, headers, timeout):
        calls.append(url)
        return body

    provider = RemoteProvider(
        remote_cfg(max_retries=2), post_json=wrong_shape, sleep=lambda s: None
    )
    doc = dom.parse_html(PAGE.format(seed='<img src="a.png">'))
    violations = rules.audit(doc, web_url="f")
    _, records = correct_document(doc, violations, provider)
    assert {r.outcome for r in records} == {"provider_failed"}
    assert len(calls) == 3 * len(records)


OK_BODY = {"choices": [{"message": {"content": "CORRECTED: `<p>ok</p>`"}}]}


def http_error(status):
    return urllib.error.HTTPError("https://example.test/v1", status,
                                  "status", None, None)


@pytest.mark.parametrize("failure,retried", [
    (http_error(400), False),
    (http_error(404), False),
    (http_error(429), True),
    (http_error(500), True),
    (http_error(503), True),
    (TimeoutError("timed out"), True),
    (json.JSONDecodeError("bad", "{", 1), True),
], ids=["400", "404", "429", "500", "503", "timeout", "malformed-json"])
def test_remote_provider_retries_only_what_may_pass(failure, retried):
    calls, slept = [], []

    def failing(url, payload, headers, timeout):
        calls.append(url)
        raise failure

    provider = RemoteProvider(remote_cfg(max_retries=2), post_json=failing,
                              sleep=slept.append)
    doc = dom.parse_html(PAGE.format(seed='<img src="a.png">'))
    violations = [v for v in rules.audit(doc) if v.rule_id == "image-alt"]
    _, records = correct_document(doc, violations, provider)
    assert [r.outcome for r in records] == ["provider_failed"]
    assert len(calls) == (3 if retried else 1)
    assert slept == ([1, 2] if retried else [])
    if not retried:
        assert f"HTTP {failure.code}" in records[0].detail


def test_remote_provider_holds_no_slot_or_lock_while_sleeping():
    calls, slept = [], []

    def flaky(url, payload, headers, timeout):
        calls.append(url)
        if len(calls) < 3:
            raise http_error(503)
        return OK_BODY

    def sleep(seconds):
        assert provider._slots.acquire(blocking=False)
        provider._slots.release()
        assert provider._lock.acquire(blocking=False)
        provider._lock.release()
        slept.append(seconds)

    provider = RemoteProvider(
        remote_cfg(max_retries=2, max_in_flight=1, min_interval=60.0),
        post_json=flaky, sleep=sleep,
    )
    v = violation_for(PAGE.format(seed='<img src="a.png">'), "image-alt")
    assert provider.propose(build_prompt(v, "react")).corrected_html == "<p>ok</p>"
    assert len(calls) == 3
    # Backoff 1 s, then the wait for the send time 60 s after the first
    # send; backoff 2 s, then the wait for the one 60 s after that (sleeps
    # do not advance the clock).
    assert slept[0::2] == [1, 2]
    assert 55 < slept[1] <= 60 and 115 < slept[3] <= 120


class TranscriptEndpoint:
    """A fake ``post_json``: answers from a transcript after a random 0-2 ms
    and counts the requests in flight."""

    def __init__(self, transcript):
        self.transcript = transcript
        self.rng = random.Random(0)
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0
        self.hashes = []

    def __call__(self, url, payload, headers, timeout):
        key = request_hash(payload["messages"])
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.hashes.append(key)
            delay = self.rng.uniform(0, 0.002)
        try:
            time.sleep(delay)
            content = self.transcript.entries[key]
            return {"choices": [{"message": {"content": content}}]}
        finally:
            with self.lock:
                self.in_flight -= 1


def joined(fn, timeout=60):
    """``fn()``, run on a thread that must finish within ``timeout`` s."""
    out = {}
    thread = threading.Thread(target=lambda: out.update(value=fn()),
                              daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    return out["value"]


def test_overlapped_requests_keep_the_cap_and_the_results(corpus_paths,
                                                          composed_pages):
    # Two violations on one element, and violations on nested elements.
    entries = ingest(corpus_paths) + [
        CorpusEntry(name, html) for name, html in composed_pages
        if name in ("one-element.html", "nested.html")]
    transcript = build_replay_transcript(entries)

    def run(max_in_flight, workers):
        endpoint = TranscriptEndpoint(transcript)
        provider = RemoteProvider(remote_cfg(max_in_flight=max_in_flight),
                                  post_json=endpoint, sleep=lambda s: None)
        return run_benchmark(entries, provider, workers=workers), endpoint

    serial, serial_endpoint = run(1, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        overlapped, endpoint = joined(lambda: run(3, 2))
    finally:
        sys.setswitchinterval(interval)
    assert serial_endpoint.peak == 1
    assert 2 <= endpoint.peak <= 3
    assert serial[3] == overlapped[3] == []
    assert {r.outcome for r in serial[2]} == {"applied"}
    assert overlapped[:3] == serial[:3]
    assert sorted(endpoint.hashes) == sorted(serial_endpoint.hashes)


def test_overlapped_request_failures_stay_per_fix_or_per_page():
    seed = '<img src="a.png"><img src="b.png"><img src="c.png">'
    entry = CorpusEntry("imgs.html", PAGE.format(seed=seed))
    transcript = build_replay_transcript([entry])
    refused = request_hash(build_prompt(
        violation_for(PAGE.format(seed=seed), "image-alt"), "react"
    ).messages())
    answer = TranscriptEndpoint(transcript)
    senders = {}

    def post(url, payload, headers, timeout):
        key = request_hash(payload["messages"])
        senders[key] = threading.current_thread()
        if key == refused:
            raise http_error(400)
        return answer(url, payload, headers, timeout)

    for max_in_flight in (1, 3):
        provider = RemoteProvider(remote_cfg(max_in_flight=max_in_flight),
                                  post_json=post, sleep=lambda s: None)
        [page] = run_pages([entry], provider)
        assert [r.outcome for r in page.records] == [
            "provider_failed", "applied", "applied"]
        assert "HTTP 400" in page.records[0].detail
    # With three in flight, the refused request went out before the loop.
    assert senders[refused] is not threading.current_thread()

    def broken(url, payload, headers, timeout):
        time.sleep(0.001)
        raise RuntimeError("endpoint bug")

    before = set(threading.enumerate())
    provider = RemoteProvider(remote_cfg(max_in_flight=2), post_json=broken)
    [page] = joined(lambda: list(run_pages([entry], provider)))
    assert page.error == "RuntimeError: endpoint bug"
    assert set(threading.enumerate()) == before


def shared_prompt(entries):
    """The hash of the request that most pages of ``entries`` ask, and how
    many violations ask it."""
    asks = Counter(request_hash(build_prompt(v, "react").messages())
                   for run in run_pages(entries)
                   for v in run.initial.violations)
    return asks.most_common(1)[0]


def test_a_run_sends_each_distinct_request_once(corpus_paths):
    entries = ingest(corpus_paths)
    transcript = build_replay_transcript(entries)
    assert len(transcript.entries) == 143

    def remote(endpoint, max_in_flight):
        return RemoteProvider(remote_cfg(max_in_flight=max_in_flight),
                              post_json=endpoint, sleep=lambda s: None)

    serial_endpoint, endpoint = (TranscriptEndpoint(transcript)
                                 for _ in range(2))
    serial = run_benchmark(entries, remote(serial_endpoint, 1))
    provider = remote(endpoint, 4)
    overlapped = joined(lambda: run_benchmark(entries, provider, workers=2))
    assert len(serial[2]) == 171 and serial[3] == []
    assert overlapped == serial
    for sent in (serial_endpoint.hashes, endpoint.hashes):
        assert len(sent) == len(set(sent)) == 143
        assert set(sent) == set(transcript.entries)
    # A second run of the same provider asks the endpoint again.
    assert joined(lambda: run_benchmark(entries, provider, workers=2)) == serial
    assert sorted(endpoint.hashes[143:]) == sorted(endpoint.hashes[:143])


def test_an_asker_waits_for_the_same_request_in_flight(corpus_paths,
                                                       monkeypatch):
    entries = ingest(corpus_paths)
    transcript = build_replay_transcript(entries)
    held, askers = shared_prompt(entries)
    assert askers == 18  # the bare <html> of html-has-lang
    lock, asks, asked_again = threading.Lock(), Counter(), threading.Event()

    def counted(messages):
        key = request_hash(messages)
        with lock:
            asks[key] += 1
            if key == held and asks[key] == 2:
                asked_again.set()
        return key

    answer = TranscriptEndpoint(transcript)
    waited = []

    def post(url, payload, headers, timeout):
        if request_hash(payload["messages"]) == held and not waited:
            # Hold the first request until another page asks the same.
            waited.append(asked_again.wait(10))
        return answer(url, payload, headers, timeout)

    monkeypatch.setattr(providers, "request_hash", counted)
    provider = RemoteProvider(remote_cfg(max_in_flight=4), post_json=post,
                              sleep=lambda s: None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result, _, records, failures = joined(
            lambda: run_benchmark(entries, provider, workers=2))
    finally:
        sys.setswitchinterval(interval)
    assert waited == [True] and asks[held] == 18
    assert answer.hashes.count(held) == 1 and len(answer.hashes) == 143
    assert failures == [] and result.total_final == 0
    assert {r.outcome for r in records} == {"applied"}


def test_a_failed_shared_request_fails_every_asker_alike(corpus_paths):
    entries = ingest(corpus_paths)
    transcript = build_replay_transcript(entries)
    held, askers = shared_prompt(entries)
    answer = TranscriptEndpoint(transcript)
    attempts = []

    def post(url, payload, headers, timeout):
        if request_hash(payload["messages"]) == held:
            attempts.append(held)
            raise http_error(503)
        return answer(url, payload, headers, timeout)

    provider = RemoteProvider(remote_cfg(max_retries=2, max_in_flight=4),
                              post_json=post, sleep=lambda s: None)
    _, _, records, failures = joined(
        lambda: run_benchmark(entries, provider, workers=2))
    assert failures == [] and len(attempts) == 3
    failed = [r for r in records if r.outcome != "applied"]
    assert len(failed) == askers
    assert {r.outcome for r in failed} == {"provider_failed"}
    assert {r.detail for r in failed} == {
        "remote provider failed after 3 attempts: HTTP Error 503: status"}
    assert {request_hash(build_prompt(r.violation, "react").messages())
            for r in failed} == {held}


def test_a_raising_shared_request_fails_each_asking_page():
    page = PAGE.format(seed='<img src="a.png"><img src="b.png">')
    entries = [CorpusEntry(name, page) for name in ("p1.html", "p2.html")]
    transcript = build_replay_transcript(entries)
    broken = request_hash(build_prompt(
        violation_for(page, "image-alt"), "react").messages())
    answer = TranscriptEndpoint(transcript)
    sent = []

    def post(url, payload, headers, timeout):
        key = request_hash(payload["messages"])
        sent.append(key)
        if key == broken:
            time.sleep(0.01)  # the other page asks meanwhile
            raise RuntimeError("endpoint bug")
        return answer(url, payload, headers, timeout)

    before = set(threading.enumerate())
    provider = RemoteProvider(remote_cfg(max_in_flight=2), post_json=post)
    pages = joined(lambda: list(run_pages(entries, provider, workers=2)))
    assert [p.error for p in pages] == ["RuntimeError: endpoint bug"] * 2
    assert sent.count(broken) == 1
    assert set(threading.enumerate()) == before


class LoopbackHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next of ``server.statuses`` (an OK_BODY
    for 200) and a GET of /page.html with ``server.page``, any other with
    404, counting the GETs."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        status = self.server.statuses.pop(0)
        self.answer(status, json.dumps(OK_BODY if status == 200 else {}))

    def do_GET(self):
        self.server.gets += 1
        if self.path == "/page.html":
            self.answer(200, self.server.page)
        else:
            self.answer(404, "")

    def answer(self, status, text):
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    """A local HTTP server on a free port, shut down and closed after the
    test; then every socket left unclosed warns, which fails the test."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             LoopbackHandler)
    server.statuses, server.gets = [], 0
    server.page = PAGE.format(seed='<img src="a.png">')
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        gc.collect()


def test_the_default_post_json_over_loopback(loopback):
    server, url = loopback
    provider = RemoteProvider(remote_cfg(endpoint_url=url + "/v1"),
                              sleep=lambda s: None)
    bundle = build_prompt(violation_for(server.page, "image-alt"), "react")
    for statuses in ([200], [503, 200], [503, 503, 200]):
        server.statuses[:] = statuses
        assert provider.propose(bundle).corrected_html == "<p>ok</p>"
        assert server.statuses == []
    for statuses, message in (([400], "refused the request: HTTP 400"),
                              ([503, 503, 400], "HTTP 400"),
                              ([503] * 3, "failed after 3 attempts")):
        server.statuses[:] = statuses
        with pytest.raises(ProviderUnavailableError, match=message):
            provider.propose(bundle)
        assert server.statuses == []


def test_the_default_fetch_over_loopback(loopback, tmp_path):
    server, url = loopback
    [entry] = ingest([url + "/page.html"], cache_dir=tmp_path)
    assert (entry.error, entry.html_text) == ("", server.page)
    [cached] = tmp_path.iterdir()
    assert cached.read_text("utf-8") == server.page
    [again] = ingest([url + "/page.html"], cache_dir=tmp_path)
    assert again == entry and server.gets == 1
    [gone] = ingest([url + "/gone.html"], cache_dir=tmp_path)
    assert gone.error == "HTTP Error 404: Not Found" and server.gets == 2


def test_provider_config_validation():
    with pytest.raises(ConfigError):
        ProviderConfig(kind="remote").validate()
    with pytest.raises(ConfigError):
        ProviderConfig(kind="replay").validate()
    with pytest.raises(ConfigError):
        ProviderConfig(kind="mystery").validate()
    with pytest.raises(ConfigError):
        ProviderConfig(kind="heuristic", temperature=-1).validate()
    with pytest.raises(ConfigError):
        ProviderConfig(kind="heuristic", max_in_flight=0).validate()
    nan, inf = float("nan"), float("inf")
    for name, values in [("temperature", (nan, inf)),
                         ("request_timeout", (0, -1.0, nan, inf)),
                         ("max_tokens", (0, -5)),
                         ("min_interval", (nan, inf, -inf))]:
        for value in values:
            with pytest.raises(ConfigError, match=f"^{name} "):
                ProviderConfig(**{name: value}).validate()


def test_make_provider_kinds(tmp_path):
    assert isinstance(make_provider(ProviderConfig()), HeuristicProvider)
    t = tmp_path / "t.jsonl"
    Transcript().save(t)
    assert isinstance(
        make_provider(ProviderConfig(kind="replay", transcript_path=str(t))),
        ReplayProvider,
    )


def test_import_loads_no_network_stack():
    """Nor the thread pool, which only a remote provider's run needs."""
    code = (
        "import sys, accessfix, accessfix.cli; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', "
        "'concurrent.futures') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(accessfix.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    ).stdout
    assert out.strip() == "[]"
