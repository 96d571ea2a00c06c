import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path

import pytest

import accessfix
from accessfix import dom, providers, rules
from accessfix.colors import RgbColor, contrast_ratio, parse_color
from accessfix.corrector import correct_document
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
    from accessfix.corrector import apply_fix

    record = apply_fix(doc, v, heuristic_fix(v))
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


def test_heuristic_proposal_element_is_its_corrected_html_parsed(
        corpus_paths, rules_dir, rules_manifest, composed_pages):
    """The heuristic provider hands over its recipe's element instead of
    letting the corrector parse its own output again; that is only sound
    while the two trees are equal."""
    compared = []

    class Comparing(HeuristicProvider):
        def propose(self, bundle, violation=None):
            proposal = super().propose(bundle, violation)
            compared.append(proposal.__dict__["element"] ==
                            dom.parse_fragment_element(proposal.corrected_html))
            return proposal

    pages = [(path, Path(path).read_text("utf-8")) for path in corpus_paths]
    pages += [(name, (rules_dir / name).read_text("utf-8"))
              for name in sorted(rules_manifest)]
    for name, html in pages + composed_pages:
        doc = dom.parse_html(html)
        correct_document(doc, rules.audit(doc, web_url=name), Comparing())
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
        CorpusEntry.from_text(name, html) for name, html in composed_pages
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
    entry = CorpusEntry.from_text("imgs.html", PAGE.format(seed=seed))
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
