"""Model answers read as edits of the snippet their prompt carried.

``prompts.parse_fix`` reads an answer that changes only the start tag,
wraps the content or the element, or appends text as the edit whose
``render`` of the snippet is the answer; any other answer is parsed. An
edit, run on the element the snippet serializes, must give what handing
over the parsed answer gives.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings

from accessfix import dom, providers, rules
from accessfix.corrector import (APPLIED, PARSE_FAILED, PROVIDER_FAILED,
                                 correct_document)
from accessfix.errors import UnparseableResponseError
from accessfix.dom import parse_fragment_element, serialize_node, start_tag
from accessfix.harness import CorpusEntry, build_replay_transcript, run_pages
from accessfix.prompts import (AppendText, FixProposal, Replace, StartTag,
                               WrapChildren, WrapSelf, parse_fix)
from accessfix.providers import (HeuristicProvider, ProviderConfig,
                                 RemoteProvider, ReplayProvider, heuristic_fix)
from test_start_tag_fixes import corrected, tag_soup

# Tags that parse their content alike, and tags that do not: void, raw
# text, escapable raw text, <p> and the tags that close or are closed
# implicitly.
ALIKE = ["div", "span", "section", "main", "nav", "h2", "a", "header", "ul",
         "table", "label", "html", "body"]
UNALIKE = ["p", "li", "dt", "dd", "tr", "td", "th", "thead", "tbody",
           "tfoot", "option", "optgroup", "script", "style", "textarea",
           "title", "img", "br", "input"]
TEXTS = [" a &amp; b &lt;c&gt; ", "x & y", "&#60;&copy", "section heading"]


def respond(answer: str) -> str:
    """A ``Thought:`` / ``CORRECTED:`` response that carries ``answer``."""
    fence = "`"
    while fence in answer:
        fence += "`"
    return f"Thought: t\nCORRECTED: {fence}{answer}{fence}"


def end_tag(tag: str) -> str:
    return "" if tag in dom.VOID_ELEMENTS else f"</{tag}>"


def answers(snippet: str) -> list:
    """Answers built from a canonical ``snippet``: attribute edits, renames
    into every tag above, wraps of its children and of itself in each, and
    appended text."""
    old, content = dom.split_element(snippet)
    tag, attrs = old.tag, list(old.attrs.items())
    close = end_tag(tag)
    edited = [attrs + [("data-fix", 'a "q" & <b>')], attrs[1:],
              [(name, value + "x") for name, value in attrs]]
    built = [start_tag(tag, a) + content + close for a in edited]
    for new in ALIKE + UNALIKE:
        built.append(start_tag(new, attrs) + content + end_tag(new))
        built.append(start_tag(new, [("class", "w")]) + snippet + end_tag(new))
        if close:
            built.append(start_tag(tag, attrs) + f"<{new}>" + content
                         + end_tag(new) + close)
    if close:
        built += [start_tag(tag, attrs) + content + text + close
                  for text in TEXTS]
        built.append(start_tag(tag, attrs) + content + "<b>x</b>" + close)
    return built


def check_answers(snippet: str) -> list:
    """For every answer built from ``snippet``: the proposal that
    ``parse_fix`` makes with the snippet has the corrected element and the
    thought it makes without it, and an edit other than ``Replace`` run on
    the parsed snippet gives the corrected element parsed, which is one
    element. The edit types found, one per answer."""
    kinds = []
    for answer in answers(snippet):
        raw = respond(answer)
        try:
            plain = parse_fix(raw)
        except Exception as exc:  # noqa: BLE001 - the same error with both
            with pytest.raises(type(exc)):
                parse_fix(raw, snippet=snippet)
            kinds.append(None)
            continue
        proposal = parse_fix(raw, snippet=snippet)
        assert (proposal.corrected_html, proposal.thought) == \
            (plain.corrected_html, plain.thought)
        kinds.append(type(proposal.edit))
        if isinstance(proposal.edit, Replace):
            continue
        expected = parse_fragment_element(proposal.corrected_html)
        el = parse_fragment_element(snippet)
        proposal.edit(el)
        assert serialize_node(el) == serialize_node(expected), \
            (snippet, answer)
        assert el == expected, (snippet, answer)
    return kinds


def audited_snippets(html: str) -> list:
    """The page's whole snippets; ``test_bounded_snippets`` reads answers
    to snippets cut to their start tag."""
    return list(dict.fromkeys(
        v.html_snippet for v in rules.audit(dom.parse_html(html), web_url="f")
        if not dom.is_cut(v.html_snippet)))


def openings(snippet: str) -> list:
    """Answers built from ``snippet``, a start tag cut from its content:
    attribute edits, renames into every tag above, wraps of the element
    and of its children in each, the root's body wrap, content after a
    start tag, and text."""
    old, _ = dom.split_element(snippet)
    tag, attrs = old.tag, list(old.attrs.items())
    edited = attrs + [("data-fix", 'a "q" & <b>')]
    changed = [(name, value + "x") for name, value in attrs]
    built = [start_tag(tag, a) for a in (edited, attrs[1:], changed)]
    for new in ALIKE + UNALIKE:
        built.append(start_tag(new, attrs))
        built.append(start_tag(new, [("class", "w")]) + snippet)
        built.append(snippet + start_tag(new, [("class", "w")]))
    built += [snippet + '<body><main id="m">', snippet + "<b>x</b>",
              snippet + end_tag(tag), start_tag(tag, edited) + "<b>x</b>",
              "text"]
    return built


def answer_rows(pages) -> list:
    """(snippet, answer, read) for the answers built from every snippet
    that the audit of ``pages`` emits: ``answers`` of a whole snippet,
    ``openings`` of one cut to its start tag. ``read`` is the repr of the
    edit that ``parse_fix`` reads with the snippet, or the name of the
    error it raises."""
    rows = []
    for html in pages:
        snippets = dict.fromkeys(
            v.html_snippet
            for v in rules.audit(dom.parse_html(html), web_url="f"))
        for snippet in snippets:
            built = openings if dom.is_cut(snippet) else answers
            for answer in built(snippet):
                try:
                    read = repr(parse_fix(respond(answer),
                                          snippet=snippet).edit)
                except Exception as exc:  # noqa: BLE001 - pinned by name
                    read = type(exc).__name__
                rows.append((snippet, answer, read))
    return rows


ANSWERS_READ_SHA256 = (
    "7e67af6bb56fe50091a26683a8f5cf9c33f9d541d5f25ef04e93b1267f6cc818"
)


def test_answers_read_as_pinned(corpus_dir, corpus_manifest, rules_dir,
                                rules_manifest):
    """What ``parse_fix`` reads from every answer built from the snippets
    of the corpus and the rule fixtures, row by row."""
    pages = [(corpus_dir / name).read_text("utf-8")
             for name in sorted(corpus_manifest)]
    pages += [(rules_dir / name).read_text("utf-8")
              for name in sorted(rules_manifest)]
    digest = hashlib.sha256()
    for row in answer_rows(pages):
        digest.update(repr(row).encode("utf-8"))
    assert digest.hexdigest() == ANSWERS_READ_SHA256


def test_corpus_answers_apply_as_their_parse(corpus_paths):
    kinds = set()
    for path in corpus_paths:
        for snippet in audited_snippets(Path(path).read_text("utf-8")):
            kinds.update(check_answers(snippet))
    assert {StartTag, WrapChildren, WrapSelf, AppendText, Replace} <= kinds


@settings(max_examples=150, deadline=None)
@given(tag_soup)
def test_tag_soup_answers_apply_as_their_parse(html):
    for snippet in audited_snippets(html):
        check_answers(snippet)


@pytest.mark.parametrize("new", ALIKE + UNALIKE)
@pytest.mark.parametrize("old", ["div", "section", "p", "li", "td"])
def test_a_rename_is_an_edit_when_both_tags_parse_alike(old, new):
    """Or when the new tag does: the old one is only the element's own
    parse, whose content a tag that parses alike reads as a ``<div>``
    does."""
    snippet = f'<{old} id="k">a<b>b</b></{old}>'
    answer = f'<{new} id="k">a<b>b</b>{end_tag(new)}'
    edit = parse_fix(respond(answer), snippet=snippet).edit
    alike = old == new or dom.parses_alike(new)
    assert isinstance(edit, StartTag) == alike
    assert alike or isinstance(edit, Replace)


SNIPPET = '<div id="k">x<b>y</b></div>'


@pytest.mark.parametrize("snippet,answer", [
    (SNIPPET, '<p id="k">x<b>y</b></p>'),
    (SNIPPET, '<li id="k">x<b>y</b></li>'),
    (SNIPPET, '<td id="k">x<b>y</b></td>'),
    (SNIPPET, '<option id="k">x<b>y</b></option>'),
    (SNIPPET, '<script id="k">x<b>y</b></script>'),
    (SNIPPET, '<textarea id="k">x<b>y</b></textarea>'),
    (SNIPPET, '<div  id="k">x<b>y</b></div>'),
    (SNIPPET, "<div id='k'>x<b>y</b></div>"),
    (SNIPPET, '<DIV id="k">x<b>y</b></DIV>'),
    (SNIPPET, '<div id="k" id="j">x<b>y</b></div>'),
    (SNIPPET, '<div id="k">x<b>z</b></div>'),
    (SNIPPET, '<div id="k">x<b>y</b>tail<i>i</i></div>'),
    (SNIPPET, '<div id="k"><p>x<b>y</b></p></div>'),
    ('<span id="k">x</span>', '<p><span id="k">x</span></p>'),
    ('<li id="k">x</li>', '<li id="k"><td>x</td></li>'),
    ("<script>x<y</script>", "<script>x<y z</script>"),
], ids=["into-p", "into-li", "into-td", "into-option", "into-script",
        "into-textarea", "spaced-start-tag", "single-quotes", "upper-case",
        "duplicate-attribute", "changed-content", "text-and-element",
        "p-wraps-children", "p-wraps-element", "li-children-wrapped",
        "raw-text-appended"])
def test_answers_that_are_parsed(snippet, answer):
    proposal = parse_fix(respond(answer), snippet=snippet)
    assert proposal.corrected_html == answer
    assert isinstance(proposal.edit, Replace)
    assert proposal.edit.element is not None


@pytest.mark.parametrize(
    "old", [tag for tag in ALIKE + UNALIKE if tag not in dom.VOID_ELEMENTS])
def test_a_children_wrap_is_an_edit_unless_a_p_or_raw_text_is_wrapped(old):
    """A wrapper that parses alike reads the element's content as its own;
    only a ``<p>``, which the wrapper's start tag closes, and raw text,
    which is not markup, read it otherwise."""
    snippet = f'<{old} id="k">a<b>b</b></{old}>'
    answer = f'<{old} id="k"><section>a<b>b</b></section></{old}>'
    try:
        edit = parse_fix(respond(answer), snippet=snippet).edit
    except UnparseableResponseError:
        edit = None
    wraps = old != "p" and old not in dom.RAW_TEXT_ELEMENTS
    assert (edit == WrapChildren("section", ())) == wraps
    if wraps:
        el = parse_fragment_element(snippet)
        edit(el)
        assert el == parse_fragment_element(answer)


def test_a_fragment_of_several_elements_drops_no_wrapper():
    """``<p class="w"><h1></h1></p>`` parses as ``<p class="w"></p>`` and
    ``<h1></h1>``. No balanced element inside that fragment is taken for
    the answer, which would drop the model's wrapper without a trace: the
    fix is recorded as parse_failed. One outside it still counts."""
    answer = respond('<p class="w"><h1></h1></p>')
    with pytest.raises(UnparseableResponseError):
        parse_fix(answer, snippet="<h1></h1>")
    after = parse_fix(answer + "\nor <h1>x</h1>", snippet="<h1></h1>")
    assert after.edit == AppendText("x")
    doc = dom.parse_html(
        '<html lang="en"><body><main><h1></h1></main></body></html>')
    [v] = rules.audit(doc, web_url="f")
    provider = RemoteProvider(
        ProviderConfig(kind="remote", endpoint_url="https://example.test/v1",
                       model_name="m"),
        post_json=lambda *a: {"choices": [{"message": {"content": answer}}]})
    _, [record] = correct_document(doc, [v], provider)
    assert record.outcome == PARSE_FAILED


def test_appended_text_is_unescaped_and_merged():
    """Text written as the serializer writes it is an ``AppendText``. Any
    other text is no edit's ``render``, so it is parsed: the ``Replace``
    gives the same element."""
    snippet = "<h2>a &amp; b</h2>"
    canonical = parse_fix(respond("<h2>a &amp; b &amp; b &lt;c&gt;</h2>"),
                          snippet=snippet)
    assert canonical.edit == AppendText(" & b <c>")
    loose = parse_fix(respond("<h2>a &amp; b &lt;c&gt; &amp &copy</h2>"),
                      snippet=snippet)
    assert isinstance(loose.edit, Replace)
    for proposal, text in [(canonical, "a & b & b <c>"),
                           (loose, "a & b <c> & \xa9")]:
        el = parse_fragment_element(snippet)
        proposal.edit(el)
        assert el.children == [dom.Text(text)]


def test_without_a_snippet_every_answer_is_parsed():
    proposal = parse_fix(respond('<div id="k">x</div>'))
    assert isinstance(proposal.edit, Replace)


def test_a_parsed_answer_is_handed_over_once():
    """The first application takes the answer's parse; a later one parses
    afresh, so no two documents share a subtree."""
    proposal = parse_fix(respond('<p id="k"><b>x</b></p>'))
    parsed = proposal.edit.element
    first, second = dom.Element("p"), dom.Element("p")
    proposal.edit(first)
    assert proposal.edit.element is None
    assert first.children is parsed.children
    proposal.edit(second)
    assert second == first and second.children[0] is not first.children[0]


def test_a_proposal_made_without_an_edit_replaces():
    proposal = FixProposal("<img alt=a>", None, "<img alt=a>")
    assert proposal.edit.html == "<img alt=a>"
    el = dom.Element("img", {"src": "x"})
    proposal.edit(el)
    assert el == dom.Element("img", {"alt": "a"})


# Pages whose heuristic answers rename a <p> (an extra main, a landmark
# nested in <main>, a heading out of order) or wrap the children of an <li>,
# a <td> or an <option> (stray text), each with a whole snippet and with one
# cut to its start tag by a text longer than dom.SNIPPET_LIMIT.
RENAMED_OR_WRAPPED = [
    '<html lang="en"><head><title>t</title></head><body>'
    + body.format(text) + "</body></html>"
    for body in [
        '<main>a</main><p role="main">{}</p>',
        '<main><p role="banner">{}</p></main>',
        '<main><h1>a</h1><p role="heading" aria-level="4">{}</p></main>',
        "<main>m</main><ul><li>{}</li></ul>",
        "<main>m</main><table><tr><td>{}</td></tr></table>",
        '<main>m</main><select aria-label="s"><option>{}</option></select>',
    ]
    for text in ["x", "w" * dom.SNIPPET_LIMIT]
]


def test_heuristic_answers_replay_as_the_same_edits(corpus_paths,
                                                    composed_pages):
    """A heuristic answer, read back by ``parse_fix`` with its snippet, is
    the edit value that the recipe made, except for the root wrap of a
    whole page, which is rendered by a parse."""
    pages = [Path(path).read_text("utf-8") for path in corpus_paths]
    pages += [html for _, html in composed_pages] + RENAMED_OR_WRAPPED
    compared, shapes = 0, set()
    for html in pages:
        for v in rules.audit(dom.parse_html(html), web_url="f"):
            fix = heuristic_fix(v)
            cut = dom.is_cut(v.html_snippet)
            if (v.rule_id, v.index) == ("landmark-one-main", 0) and not cut:
                continue
            read = parse_fix(fix.raw_response, snippet=v.html_snippet)
            assert read.edit == fix.edit, v.html_snippet
            compared += 1
            if html in RENAMED_OR_WRAPPED:
                shapes.add((cut, type(fix.edit)))
    assert compared > 1000
    assert shapes == {(cut, kind) for cut in (False, True)
                      for kind in (StartTag, WrapChildren)}


def assert_replay_runs_as_the_heuristic(pages):
    """Replaying the heuristic's own transcript corrects each page as the
    heuristic run did, and no answer fails to read."""
    entries = [CorpusEntry(f"page-{i}.html", html)
               for i, html in enumerate(pages)]
    replay = ReplayProvider(build_replay_transcript(entries))
    for ran, replayed in zip(run_pages(entries, HeuristicProvider()),
                             run_pages(entries, replay)):
        outcomes = [r.outcome for r in replayed.records]
        assert (replayed.error, replayed.corrected_html, outcomes) == (
            ran.error, ran.corrected_html, [r.outcome for r in ran.records])
        assert not {PARSE_FAILED, PROVIDER_FAILED} & set(outcomes)


def test_replay_of_renames_and_wraps_runs_as_the_heuristic():
    assert_replay_runs_as_the_heuristic(RENAMED_OR_WRAPPED)


@settings(max_examples=150, deadline=None)
@given(tag_soup)
def test_replay_of_tag_soup_runs_as_the_heuristic(html):
    assert_replay_runs_as_the_heuristic([html])


def test_remote_answers_are_edits_parsed_outside_the_slot(monkeypatch):
    """A remote answer is read against the prompt's snippet after the
    request gives its concurrency slot back."""
    doc = dom.parse_html('<html lang="en"><body><main><img src="a.png">'
                         "</main></body></html>")
    [v] = rules.audit(doc, web_url="f")
    answer = heuristic_fix(v).raw_response
    provider = RemoteProvider(
        ProviderConfig(kind="remote", endpoint_url="https://example.test/v1",
                       model_name="m", max_in_flight=1),
        post_json=lambda *a: {"choices": [{"message": {"content": answer}}]})
    free = []
    parse = providers.parse_fix

    def checking(*args):
        slots = provider._slots
        free.append(slots.acquire(blocking=False))
        if free[-1]:
            slots.release()
        return parse(*args)

    monkeypatch.setattr(providers, "parse_fix", checking)
    _, [record] = correct_document(doc, [v], provider)
    assert record.outcome == APPLIED
    assert free == [True]
    assert isinstance(record.proposal.edit, StartTag)


def assert_snippets_read_back(doc):
    for v in rules.audit(doc, web_url="f"):
        el = parse_fragment_element(v.html_snippet)
        if dom.is_cut(v.html_snippet):
            assert start_tag(el.tag, el.attrs.items()) == v.html_snippet
        else:
            assert serialize_node(el) == v.html_snippet


@settings(max_examples=150, deadline=None)
@given(tag_soup)
def test_audited_snippets_parse_back_to_themselves(html):
    """Every snippet that the audit emits, before and after heuristic
    correction, is one element that serializes to itself, or to the
    snippet's start tag if that is all the snippet holds: ``parse_fix``
    relies on it when it reads an answer against the snippet."""
    assert_snippets_read_back(dom.parse_html(html))
    assert_snippets_read_back(corrected(html))
