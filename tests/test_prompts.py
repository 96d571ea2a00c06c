import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accessfix import dom, prompts, rules
from accessfix.dom import VOID_ELEMENTS
from accessfix.errors import IncompleteViolationError, UnparseableResponseError
from accessfix.prompts import (
    _CORRECTED_RE,
    _FENCE_RE,
    STRATEGIES,
    _spans,
    build_prompt,
    parse_fix,
)
from accessfix.rules import Violation


def sample_violation(rule_id="image-alt"):
    doc = dom.parse_html(
        '<html lang="en"><body><main><img src="x.png"></main></body></html>'
    )
    violations = rules.audit(doc, web_url="fixture")
    return next(v for v in violations if v.rule_id == rule_id)


def test_react_bundle_structure():
    v = sample_violation()
    bundle = build_prompt(v, "react")
    assert bundle.system_message.count("Thought:") >= 1
    assert "CORRECTED:" in bundle.system_message
    assert v.html_snippet in bundle.user_message
    assert v.rule_id in bundle.user_message
    assert v.description in bundle.user_message
    assert v.help in bundle.user_message


def test_few_shot_bundle_has_four_examples_no_thought():
    bundle = build_prompt(sample_violation(), "few_shot")
    assert bundle.system_message.count("INCORRECT:") == 4
    assert bundle.system_message.count("CORRECTED:") == 4
    assert "Thought" not in bundle.system_message


def test_chain_of_thought_has_instruction_but_no_worked_example():
    bundle = build_prompt(sample_violation(), "chain_of_thought")
    assert "step by step" in bundle.system_message
    assert "Thought:" not in bundle.system_message
    assert "INCORRECT:" not in bundle.system_message


def test_bundles_are_deterministic():
    v = sample_violation()
    for strategy in STRATEGIES:
        assert build_prompt(v, strategy) == build_prompt(v, strategy)


def test_placeholders_in_page_text_are_not_filled():
    doc = dom.parse_html('<html lang="en"><body><main><p id="{{html}}">a</p>'
                         '<p id="{{html}}">b</p></main></body></html>')
    v = next(v for v in rules.audit(doc) if v.rule_id == "duplicate-id")
    user = build_prompt(v, "react").user_message
    assert 'SUGGESTED CHANGE: Multiple elements share the id "{{html}}";' in user
    assert 'INCORRECT HTML: `<p id="{{html}}">b</p>`' in user
    assert user.count("<p") == 1


def test_empty_snippet_rejected():
    v = sample_violation()
    v.html_snippet = "  "
    with pytest.raises(IncompleteViolationError):
        build_prompt(v, "react")


@pytest.mark.parametrize("field", ["description", "help"])
def test_missing_text_is_rejected_when_the_prompt_is_built(field):
    """The checks run in ``build_prompt``, though the user message is only
    rendered when it is read."""
    v = sample_violation()
    setattr(v, field, " ")
    with pytest.raises(IncompleteViolationError):
        build_prompt(v, "react")


def test_bundles_compare_by_their_rendered_messages():
    v = sample_violation()
    bundle = build_prompt(v, "react")
    v.html_snippet = '<img src="y.png">'
    other = build_prompt(v, "react")
    assert bundle != other
    assert bundle.messages()[1]["content"] == bundle.user_message
    assert bundle.user_message.replace("x.png", "y.png") == other.user_message


def test_user_message_is_rendered_once_when_first_read(monkeypatch):
    calls = []
    render = prompts._render
    monkeypatch.setattr(prompts, "_render",
                        lambda *args: calls.append(args) or render(*args))
    bundle = build_prompt(sample_violation(), "react")
    assert calls == []
    assert bundle.messages() == bundle.messages()
    assert bundle.user_message in bundle.messages()[1]["content"]
    assert len(calls) == 1


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        build_prompt(sample_violation(), "zero_shot")


def test_parse_fix_corrected_label_rule():
    raw = ('Thought: alt missing.\n'
           'CORRECTED: `<img src="x.png" alt="cart icon">`')
    proposal = parse_fix(raw)
    assert proposal.corrected_html == '<img src="x.png" alt="cart icon">'
    assert proposal.thought == "alt missing."


def test_parse_fix_fenced_code_block_rule():
    raw = "Here is the fix:\n```html\n<a href=\"/x\">link</a>\n```\nDone."
    assert parse_fix(raw).corrected_html == '<a href="/x">link</a>'


def test_parse_fix_bare_element_rule():
    raw = "I think <p>fixed text</p> should work."
    assert parse_fix(raw).corrected_html == "<p>fixed text</p>"


def test_parse_fix_nested_same_tag():
    raw = "CORRECTED: `<div a=\"1\"><div>inner</div></div>`"
    assert parse_fix(raw).corrected_html == '<div a="1"><div>inner</div></div>'


def test_parse_fix_corrected_label_is_linear_in_response_length():
    # Backtracking the opening run into shorter runs, or the fragment's end
    # into a whitespace run, would take seconds to minutes on these.
    start = time.perf_counter()
    raw = "CORRECTED: " + "`" * 10000 + "<p>x</p>"
    assert parse_fix(raw).corrected_html == "<p>x</p>"
    with pytest.raises(UnparseableResponseError):
        parse_fix("CORRECTED: `<p>" + " " * 50000 + "x")
    assert time.perf_counter() - start < 1.0


def test_parse_fix_refusal_raises_typed_error():
    with pytest.raises(UnparseableResponseError):
        parse_fix("I cannot help with that.")


def test_parse_fix_round_trip():
    corrected = '<input type="text" name="q" aria-label="query">'
    raw = f"Thought: add a label.\nCORRECTED: `{corrected}`"
    assert parse_fix(raw).corrected_html == corrected


@given(st.text(max_size=300))
def test_parse_fix_total_on_arbitrary_text(text):
    try:
        proposal = parse_fix(text)
    except UnparseableResponseError:
        return
    assert proposal.corrected_html


_TAG_START_RE = re.compile(r"<([a-zA-Z][a-zA-Z0-9-]*)")


def reference_candidates(text: str):
    """The candidate scan as it was, with one depth scan per start tag:
    quadratic or worse on unclosed tags, kept as the reference."""
    m = _CORRECTED_RE.search(text)
    if m:
        yield m.group(2).strip()
    for fence in _FENCE_RE.finditer(text):
        yield fence.group(1).strip()
    for m in _TAG_START_RE.finditer(text):
        tag = m.group(1).lower()
        start = m.start()
        gt = text.find(">", start)
        if gt == -1:
            continue
        if tag in VOID_ELEMENTS or text[gt - 1] == "/":
            yield text[start : gt + 1]
            continue
        depth = 0
        for tm in re.finditer(
            rf"</?{re.escape(tag)}(?=[\s/>])[^>]*>|</?{re.escape(tag)}>",
            text[start:],
            re.IGNORECASE,
        ):
            token = tm.group(0)
            if token.startswith("</"):
                depth -= 1
            elif not token.endswith("/>"):
                depth += 1
            if depth == 0:
                yield text[start : start + tm.end()]
                break


# Pieces of tags, whole tags and text, so that responses hold unclosed,
# self-closing, misnested and half-written tags of a few names.
_pieces = st.sampled_from([
    "<p>", "</p>", "<p", "</p", "<P>", "</P >", "<p/>", "<p-1>", "</p-1>",
    "<p.x>", "<p.x/>", ".x", "<p id=a>", "<a>", "</a>", "<a", "<a/", "<b>",
    "</b>", "<B/>",
    "<br>", "</br>", "<img>", "<div>", "</div>", "<", ">", "/", "/>", " ",
    "\n", "x", "p", "-", "=", '"', "CORRECTED: `", "`", "```html\n",
    "```",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(_pieces, max_size=16).map("".join))
def test_candidates_match_reference_scan(text):
    candidates = [text[start:end].strip() for start, end, _ in _spans(text)]
    assert candidates == list(reference_candidates(text))


def test_parse_fix_is_linear_on_unclosed_tags():
    start = time.perf_counter()
    with pytest.raises(UnparseableResponseError):
        parse_fix("<p>" * 4000)
    assert time.perf_counter() - start < 0.1
