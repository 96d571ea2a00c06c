"""Snippets bounded as axe-core bounds an element's ``html``: the outer HTML
when that is at most 300 characters, else the start tag alone.

A target whose snippet is its start tag can be reached only by a fix on its
own element, so it is asked up front unless another violation on the same
element comes after it. Its answers are edits read from the forms that
``render`` gives such a snippet, never a parse. Serialization work per
audit and per correction is linear in the page on nested shapes, where
whole snippets made it quadratic.
"""

import importlib.util
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from accessfix import dom, rules
from accessfix.corrector import APPLIED, correct_document
from accessfix.errors import UnparseableResponseError
from accessfix.harness import CorpusEntry, build_replay_transcript, run_pages
from accessfix.prompts import (AppendText, StartTag, WrapBody, WrapChildren,
                               WrapSelf, build_prompt, parse_fix)
from accessfix.providers import (HeuristicProvider, ProviderConfig,
                                 RemoteProvider, ReplayProvider, heuristic_fix,
                                 request_hash)
from test_start_tag_fixes import tag_soup

REPO = Path(__file__).resolve().parents[1]
LIMIT = dom.SNIPPET_LIMIT


@pytest.fixture(scope="module")
def shapes():
    path = REPO / "tools" / "shapes.py"
    spec = importlib.util.spec_from_file_location("shapes", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def cut(snippet: str) -> bool:
    return dom.is_cut(snippet)


def respond(answer: str) -> str:
    fence = "`"
    while fence in answer:
        fence += "`"
    return f"Thought: t\nCORRECTED: {fence}{answer}{fence}"


@pytest.mark.parametrize("html, expected", [
    ("<p>" + "x" * (LIMIT - 7) + "</p>", None),
    ("<p>" + "x" * (LIMIT - 6) + "</p>", "<p>"),
    # Escaping counts: 60 "&" are 300 characters written.
    ("<p>" + "&amp;" * 60 + "</p>", "<p>"),
    ('<p title="' + "t" * 400 + '">x</p>', '<p title="' + "t" * 400 + '">'),
    ('<img alt="' + "a" * 400 + '">', None),
    ("<div><p>" + "y" * 10 ** 6 + "</p></div>", "<div>"),
])
def test_snippet_is_the_outer_html_up_to_the_limit_else_the_start_tag(
        html, expected):
    el = dom.parse_fragment_element(html)
    assert dom.snippet(el) == (expected or dom.serialize_node(el))


def test_audit_snippets_are_bounded(corpus_paths):
    whole = 0
    for path in corpus_paths:
        doc = dom.parse_html(Path(path).read_text("utf-8"))
        elements = dom.preorder(doc.root).elements
        for v in rules.audit(doc):
            el = elements[v.index]
            if cut(v.html_snippet):
                assert len(dom.serialize_node(el)) > LIMIT
                assert v.html_snippet == dom.start_tag(el.tag,
                                                       el.attrs.items())
            else:
                assert v.html_snippet == dom.serialize_node(el)
                whole += 1
    assert whole == 171 - 18


# Two violations on one element whose snippet is its start tag: a <p> over
# 300 characters with a duplicate id and low-contrast text, and a page's
# <html> without lang or main landmark.
WORDS = "words " * 60
CHAINS = {
    "p": ('<html lang="en"><head><title>t</title></head><body><main>'
          '<p id="a">first</p><p id="a" style="color:#777777; '
          f'background-color:#ffffff">{WORDS}</p></main></body></html>',
          {"duplicate-id", "color-contrast"}),
    "html": (f"<html><head><title>t</title></head><body><nav>{WORDS}</nav>"
             "</body></html>", {"html-has-lang", "landmark-one-main"}),
}


def remote(transcript, max_in_flight=4) -> RemoteProvider:
    """A RemoteProvider whose endpoint answers from ``transcript``."""
    def post_json(url, payload, headers, timeout):
        content = transcript.entries[request_hash(payload["messages"])]
        return {"choices": [{"message": {"content": content}}]}

    return RemoteProvider(
        ProviderConfig(kind="remote", endpoint_url="https://example.test/v1",
                       model_name="m", max_in_flight=max_in_flight),
        post_json=post_json)


@pytest.mark.parametrize("kind", ["heuristic", "replay", "remote"])
def test_same_element_chains_keep_every_fix(kind):
    entries = [CorpusEntry(f"{name}.html", html)
               for name, (html, _) in CHAINS.items()]
    transcript = build_replay_transcript(entries)
    provider = {"heuristic": HeuristicProvider,
                "replay": lambda: ReplayProvider(transcript),
                "remote": lambda: remote(transcript)}[kind]()
    for (html, pair), page in zip(CHAINS.values(), run_pages(entries,
                                                             provider)):
        assert not page.error
        chained = [r.violation for r in page.records if r.violation.rule_id
                   in pair]
        assert len(chained) == 2 and len({v.index for v in chained}) == 1
        assert all(cut(v.html_snippet) for v in chained)
        assert {r.outcome for r in page.records} == {APPLIED}
        assert page.final.violations == []


def test_a_renamed_element_keeps_a_whole_snippet():
    """heading-order renames the <h4> before its duplicate-id fix, which
    waits for it: that prompt is the renamed element's whole snippet, as
    the audited snippet was whole."""
    doc = dom.parse_html('<html lang="en"><body><main><h2>a</h2>'
                         '<p id="x">b</p><h4 id="x">text</h4></main></body>'
                         "</html>")
    violations = rules.audit(doc)
    assert [v.rule_id for v in violations] == ["duplicate-id", "heading-order"]
    prompted = []

    class Recording(HeuristicProvider):
        def propose(self, bundle, violation=None):
            prompted.append(bundle.values["html"])
            return super().propose(bundle, violation)

    _, records = correct_document(doc, violations, Recording())
    assert {r.outcome for r in records} == {APPLIED}
    assert prompted == ['<h4 id="x">text</h4>', '<h3 id="x">text</h3>']


CUT = '<div id="k" class="c">'
ATTRS = (("id", "k"), ("class", "c"))


@pytest.mark.parametrize("snippet, answer, edit", [
    (CUT, '<div id="k" class="c" lang="en">',
     StartTag("div", ATTRS + (("lang", "en"),))),
    (CUT, '<section id="k">', StartTag("section", (("id", "k"),))),
    # What follows a start tag that is no opening form is not read.
    (CUT, '<div id="k" title="t">and <b>more</b></div>',
     StartTag("div", (("id", "k"), ("title", "t")))),
    (CUT, CUT + "<span>x</span>", StartTag("div", ATTRS)),
    (CUT, CUT + "</div>", StartTag("div", ATTRS)),
    (CUT, CUT + '<section aria-label="r">',
     WrapChildren("section", (("aria-label", "r"),))),
    (CUT, "<main>" + CUT, WrapSelf("main", ())),
    ("<li>", "<li><section>", WrapChildren("section", ())),
    # The <section> would close the <p>: no WrapChildren, and the rest of
    # the answer is not read.
    ("<p>", "<p><section>", StartTag("p", ())),
    ('<html dir="ltr">', '<html dir="ltr"><body><main id="m">',
     WrapBody("main", (("id", "m"),))),
    ("<html>", "<html><main>", WrapChildren("main", ())),
    ("<html>", '<html lang="en"><body><main>',
     StartTag("html", (("lang", "en"),))),
    # Only the tag that the answer writes need parse alike.
    ('<p role="heading">', '<h3 role="heading">',
     StartTag("h3", (("role", "heading"),))),
    ("<li>", "<section>", StartTag("section", ())),
])
def test_an_answer_to_a_start_tag_is_an_edit(snippet, answer, edit):
    assert cut(snippet)
    proposal = parse_fix(respond(answer), snippet=snippet)
    assert proposal.edit == edit and type(proposal.edit) is type(edit)
    assert proposal.corrected_html == answer


@pytest.mark.parametrize("snippet, answer", [
    (CUT, '<li id="k">'),  # a rename between tags that parse apart
    (CUT, "<div id=k>"),  # not canonical
    (CUT, "<p>" + CUT),  # a <p> wrapper would be closed by the <div>
    (CUT, "text"),
])
def test_an_answer_to_a_start_tag_is_never_parsed(snippet, answer):
    with pytest.raises(UnparseableResponseError):
        parse_fix(respond(answer), snippet=snippet)


WHOLE = '<div id="k" class="c">t <b>x</b></div>'


def admits(edit, snippet: str) -> bool:
    """Whether ``parse_fix`` reads ``edit.render(snippet)`` as ``edit``:
    the tag that the answer writes parses alike, or a rename keeps the tag;
    a renamed element is not raw text, an element whose children are
    wrapped is neither a ``p``, raw text nor void, and text is appended
    only to an element neither void nor raw text."""
    old, _ = dom.split_element(snippet)
    markup = old.tag not in dom.RAW_TEXT_ELEMENTS
    if isinstance(edit, StartTag):
        return edit.tag == old.tag or (dom.parses_alike(edit.tag) and markup)
    if isinstance(edit, WrapSelf):
        return dom.parses_alike(edit.tag)
    content = markup and old.tag not in dom.VOID_ELEMENTS
    if isinstance(edit, WrapChildren):
        return dom.parses_alike(edit.tag) and content and old.tag != "p"
    return content


def whole_and_cut(html: str) -> list:
    """The whole snippets that the audit of ``html`` emits, and each such
    snippet of a non-void element cut to its start tag."""
    whole = [v.html_snippet for v in rules.audit(dom.parse_html(html))
             if not cut(v.html_snippet)]
    return whole + [dom.snippet_parts(snippet)[0] for snippet in whole
                    if dom.snippet_parts(snippet)[2]]


@pytest.mark.parametrize("edit", [
    StartTag("div", ATTRS + (("role", "none"),)), StartTag("span", ()),
    WrapChildren("section", (("aria-label", 'a "b"'),)),
    WrapSelf("main", (("id", "m"),)),
    AppendText("a < b & c"),
])
@settings(max_examples=100, deadline=None)
@given(tag_soup)
def test_each_opening_form_reads_back_as_its_edit(edit, html):
    """An edit's ``render`` of a snippet, whole or cut to its start tag (its
    opening form), reads back as the edit exactly where the edit keeps the
    parse, and the edit run on the snippet parsed then gives the answer
    parsed. Appended text has no opening form: a cut snippet shows no
    content."""
    for snippet in [CUT, WHOLE] + whole_and_cut(html):
        if isinstance(edit, AppendText) and cut(snippet):
            continue
        answer = edit.render(snippet)
        try:
            read = parse_fix(respond(answer), snippet=snippet).edit
        except UnparseableResponseError:
            read = None
        assert (read == edit) == admits(edit, snippet), (snippet, answer)
        if read == edit:
            el = dom.parse_fragment_element(snippet)
            edit(el)
            assert el == dom.parse_fragment_element(answer), (snippet, answer)


def test_the_root_wrap_of_a_long_page_reads_back():
    html, _ = CHAINS["html"]
    doc = dom.parse_html(html)
    [v] = [v for v in rules.audit(doc) if v.rule_id == "landmark-one-main"]
    assert v.index == 0 and v.html_snippet == "<html>"
    fix = heuristic_fix(v)
    assert fix.edit == WrapBody("main", ())
    assert fix.corrected_html == "<html><body><main>"
    assert parse_fix(fix.raw_response, snippet=v.html_snippet).edit == fix.edit


def test_a_prompt_holds_a_bounded_snippet_and_help(corpus_paths, shapes):
    """Every snippet is at most 300 characters or a start tag no longer than
    300, and every help at most 160, so a prompt is its template and
    no more than that; the long names of the labelledby shapes included."""
    pages = [Path(path).read_text("utf-8") for path in corpus_paths]
    pages += [shapes.SHAPES[name](200) for name in shapes.SHAPES
              if name != "multiref-nav"]
    prompts = 0
    for html in pages:
        for v in rules.audit(dom.parse_html(html)):
            bundle = build_prompt(v, "react")
            assert len(bundle.values["html"]) <= LIMIT
            assert len(bundle.values["help"]) <= 160, v.help
            prompts += 1
    assert prompts > 2000


NESTED_WORK = ("checkbox", "empty-heading", "region", "nav")
# Visits per element and text node: 27 to 100 on these shapes (a nested
# <div>x writes 6 characters per two nodes), the same at n = 1000 and 2000.
VISITS_PER_NODE = 64


@pytest.mark.parametrize("name", NESTED_WORK)
def test_serialization_work_is_linear_in_the_page(name, shapes, monkeypatch):
    """Counts the nodes (and pending end tags) that ``dom._serialize``
    visits, per audit and per ``correct_document``: each call goes through
    ``_node_type`` once per visit when no node type is taken as known.
    With whole snippets a nested page of n elements costs ~n^2 / 2."""
    doc = dom.parse_html(shapes.SHAPES[name](1000))
    elements = dom.preorder(doc.root).elements
    nodes = len(elements) + sum(isinstance(kid, dom.Text)
                                for el in elements for kid in el.children)
    visits = []
    node_type = dom._node_type

    def counting(node):
        visits.append(1)
        return node_type(node)

    monkeypatch.setattr(dom, "_NODE_TYPES", frozenset())
    monkeypatch.setattr(dom, "_node_type", counting)
    violations = rules.audit(doc)
    assert len(violations) >= 999  # the first <nav> is unique
    audited, visits[:] = len(visits), []
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert {r.outcome for r in records} == {APPLIED}
    assert 0 < audited <= VISITS_PER_NODE * nodes
    assert 0 < len(visits) <= VISITS_PER_NODE * nodes


def test_nested_checkboxes_run_in_linear_time_and_bounded_memory(shapes):
    """8000 nested checkboxes through ``run_pages`` in under 2 s of CPU
    time; the peak memory that ``tracemalloc`` sees, which slows the run
    about tenfold, is checked at n = 1000 against an eighth of 50 MB.
    ``tools/shapes.py`` reports the peak at n = 8000."""
    html = shapes.SHAPES["checkbox"](8000)
    start = time.process_time()
    [page] = run_pages([CorpusEntry("p.html", html)], HeuristicProvider())
    seconds = time.process_time() - start
    assert page.final.violations == [] and len(page.records) == 8000
    assert seconds < 2.0
    tracemalloc.start()
    try:
        [page] = run_pages([CorpusEntry("p.html", shapes.SHAPES["checkbox"](
            1000))], HeuristicProvider())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert page.final.violations == []
    assert peak < 50e6 / 8


def test_the_size_exponent_is_fitted_over_every_size(shapes):
    """A power law gives its exponent; two sizes give the two-point slope;
    a third size moves the fit."""
    sizes = [1000, 2000, 4000, 8000]
    assert shapes.exponent([3e-6 * n ** 1.5 for n in sizes], sizes) == \
        pytest.approx(1.5)
    assert shapes.exponent([0.1, 0.4], [1000, 2000]) == pytest.approx(2.0)
    assert shapes.exponent([0.1, 0.2, 0.8], [1000, 2000, 4000]) == \
        pytest.approx(1.5)
