"""The heuristic fixer's rendered answers against the route they replace.

``heuristic_fix`` runs each recipe once, on a fresh element made from the
snippet's start tag, and the recipe returns its edit (a start tag, a wrap
or appended text). The answer is that edit's ``render`` of the snippet,
string work that keeps the content byte for byte, and the corrector runs
the edit on the live element instead of parsing the answer. ``oracle_fix``
is the whole-snippet route: parse the snippet, run the recipe's edit on
it, serialize the element.
"""

import copy
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from accessfix import dom, providers, rules
from accessfix.corrector import APPLIED, apply_fix, correct_document
from accessfix.errors import NoRecipeError
from accessfix.harness import CorpusEntry, run_pages
from accessfix.prompts import (AppendText, StartTag, WrapBody, WrapChildren,
                               WrapSelf)
from accessfix.providers import HeuristicProvider, heuristic_fix


def oracle_fix(v):
    """(corrected_html, raw_response) of parse -> the recipe's edit ->
    serialize_node, or the type of the error it raises. The recipe is given
    a copy of the parsed element's start tag."""
    el = dom.parse_fragment_element(v.html_snippet)
    try:
        edit, thought = providers._RECIPES[v.rule_id](
            dom.Element(el.tag, dict(el.attrs)), v)
        edit(el)
    except NoRecipeError:
        return NoRecipeError
    corrected = dom.serialize_node(el)
    fence = "`"
    while fence in corrected:
        fence += "`"
    raw = f"Thought: {thought}\nCORRECTED: {fence}{corrected}{fence}"
    return corrected, raw


def fixed(v):
    try:
        proposal = heuristic_fix(v)
    except NoRecipeError:
        return NoRecipeError
    return proposal.corrected_html, proposal.raw_response


def assert_routes_agree(html):
    """On each whole snippet; a snippet cut to its start tag has no parse
    route (``test_bounded_snippets`` reads those answers back)."""
    for v in rules.audit(dom.parse_html(html), web_url="f"):
        if not dom.is_cut(v.html_snippet):
            assert fixed(v) == oracle_fix(v), (v.rule_id, v.html_snippet)


def test_routes_agree_on_the_corpus_and_the_rule_fixtures(
        corpus_paths, rules_dir, rules_manifest):
    pages = [Path(path).read_text("utf-8") for path in corpus_paths]
    pages += [(rules_dir / name).read_text("utf-8")
              for name in sorted(rules_manifest)]
    for html in pages:
        assert_routes_agree(html)


# Tag soup for the recipes' renames (heading-order to h<n>, an extra main to
# section, a nested landmark to div), void elements, script and style
# content, and pages with and without lang.
_OPEN = st.builds(
    "<{}{}>".format,
    st.sampled_from(["div", "p", "span", "a", "main", "header", "footer",
                     "nav", "section", "h1", "h2", "h4", "h6", "li", "ul",
                     "td", "table", "label", "img", "input", "br", "hr",
                     "meta"]),
    st.sampled_from(["", ' id="a"', ' role="main"', ' role="banner"',
                     ' role="heading" aria-level="5"', ' role="checkbox"',
                     ' aria-label="L"', ' href="#main"', ' href="/x"',
                     ' src="a-b.png"', ' name="user_name"',
                     ' style="color:#777;background:#888"',
                     ' name="viewport" content="user-scalable=no"',
                     ' title="a `b` c"']),
)
_RAW = st.builds("<{0}{1}>{2}</{0}>".format,
                 st.sampled_from(["script", "style"]),
                 st.sampled_from(["", ' id="a"', ' role="banner"',
                                  ' role="heading" aria-level="4"']),
                 st.sampled_from(["", "a<b>&amp;", "x</p>y", "`q`"]))
_CLOSE = st.builds("</{}>".format, st.sampled_from(
    ["div", "p", "main", "header", "section", "h2", "li", "td"]))
# The long text cuts the snippet of any element that holds it (see
# ``dom.SNIPPET_LIMIT``), so the recipes run on cut snippets below the body.
_TEXT = st.sampled_from(["text", " ", "a &amp; b", "x<y", "``", "<!-- c -->",
                         "long " * 64])
tag_soup = st.builds(
    "{}{}".format,
    st.sampled_from(["", "<html>", '<html lang="en">']),
    st.lists(st.one_of(_OPEN, _RAW, _CLOSE, _TEXT), max_size=40).map("".join),
)


def test_tag_soup_reaches_cut_snippets():
    """Some tag-soup page flags an element inside its body whose snippet is
    cut to its start tag. Without the long text, 150 pages give cut
    snippets of the root and the body alone."""

    def cut_below_the_body(html):
        for v in rules.audit(dom.parse_html(html), web_url="soup"):
            el, content = dom.split_element(v.html_snippet)
            if content is None and el.tag not in ("html", "body"):
                return True
        return False

    find(tag_soup, cut_below_the_body,
         settings=settings(max_examples=150, phases=[Phase.generate]))


@settings(max_examples=150, deadline=None)
@given(tag_soup)
def test_routes_agree_on_tag_soup(html):
    assert_routes_agree(html)


@pytest.mark.parametrize("html", [
    '<main>a</main><script role="main">x<y&amp;</script>',
    '<h1>a</h1><main><style role="heading" aria-level="4">x<y</style></main>',
    '<nav><script role="banner">x<y</script></nav>',
], ids=["extra-main", "heading-order", "nested-landmark"])
def test_renamed_raw_text_is_escaped(html):
    """No recipe renames a script or style, which may sit in an open <p>,
    so its raw content is never escaped under a new tag: ``render`` writes
    it as it stands, as the parsed snippet does."""
    assert_routes_agree(html)

    def raw_text_tags(doc):
        return [el.tag for el in dom.preorder(doc.root).elements
                if el.tag in dom.RAW_TEXT_ELEMENTS]

    assert raw_text_tags(corrected(html)) == \
        raw_text_tags(dom.parse_html(html))


@settings(max_examples=100, deadline=None)
@example('<section role="main"><p role="heading"><tr role="main">')
@given(tag_soup)
def test_heuristic_runs_complete_on_tag_soup(html):
    [page] = run_pages([CorpusEntry("soup", html)], HeuristicProvider())
    assert page.error == ""


def count_fragment_parses(monkeypatch):
    """Count calls of ``dom.parse_fragment_element`` from every accessfix
    module that binds it."""
    calls = []
    original = dom.parse_fragment_element

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "accessfix" or name.startswith("accessfix."):
            if getattr(module, "parse_fragment_element", None) is original:
                monkeypatch.setattr(module, "parse_fragment_element",
                                    counting)
    return calls


LOW_CONTRAST = "color:#777777; background-color:#ffffff"


def paragraph(i):
    """A paragraph of the benchmark's wide pages: a duplicate id and low
    contrast on the <p>, an empty link and an image without alt in it."""
    return (
        f'<h2 id="para-{i}">Section {i}</h2>'
        f'<p id="para-{i}" style="{LOW_CONTRAST}">Paragraph {i} of the page. '
        f'<a href="/more-{i}"></a> <img src="photo-{i}.png"></p>'
    )


def test_wide_page_fixes_parse_nothing_and_solve_contrast_once(monkeypatch):
    html = ('<!DOCTYPE html><html lang="en"><head><title>Wide</title>'
            '<meta name="viewport" content="width=device-width">'
            "</head><body><main><h1>Wide</h1>"
            + "".join(paragraph(i) for i in range(50))
            + "</main></body></html>")
    doc = dom.parse_html(html)
    violations = rules.audit(doc, web_url="f")
    assert len(violations) == 200
    calls = count_fragment_parses(monkeypatch)
    providers.rescale_for_contrast.cache_clear()
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert {r.outcome for r in records} == {APPLIED}
    assert calls == []
    search = providers.rescale_for_contrast.cache_info()
    # Each recipe runs once: the live element gets the answer's start tag.
    assert (search.misses, search.hits) == (1, 49)
    assert rules.audit(doc, web_url="f") == []


def test_nested_checkbox_fixes_parse_nothing(monkeypatch):
    n = 500
    doc = dom.parse_html('<html lang="en"><body><main>'
                         + '<div role="checkbox">x' * n + "</div>" * n
                         + "</main></body></html>")
    violations = rules.audit(doc, web_url="f")
    assert len(violations) == n
    calls = count_fragment_parses(monkeypatch)
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert {r.outcome for r in records} == {APPLIED}
    assert calls == []
    assert rules.audit(doc, web_url="f") == []


@pytest.mark.parametrize("body", [
    "<main>" + "<h2>" * 500 + "</h2>" * 500 + "</main>",
    "<main></main>" + "<div>t" * 500 + "</div>" * 500,
    "<main></main>" + "<div><p>t</p>" * 500 + "</div>" * 500,
], ids=["empty-headings", "region-divs", "region-paragraphs"])
def test_nested_content_fixes_parse_nothing(monkeypatch, body):
    """The content edits (an appended heading text, a section around an
    element's children or around a <p>) are rendered on the snippet too."""
    doc = dom.parse_html('<html lang="en"><body>' + body + "</body></html>")
    violations = rules.audit(doc, web_url="f")
    assert len(violations) == 500
    calls = count_fragment_parses(monkeypatch)
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert {r.outcome for r in records} == {APPLIED}
    assert calls == []
    assert rules.audit(doc, web_url="f") == []


PAGE = ('<html lang="en"><body><main><img src="a.png">'
        '<p><img src="b.png"></p></main></body></html>')


@pytest.mark.parametrize("target", [0, 1], ids=["own", "other"])
def test_start_tag_answer_elsewhere_is_applied_whole(monkeypatch, target):
    """A start-tag answer sets its own start tag on whichever element it is
    applied to, as often as it is applied, and parses nothing: on another
    element it makes the change that parsing the answer would. The
    documents it is applied to share no attributes."""
    docs = [dom.parse_html(PAGE) for _ in range(2)]
    violations = rules.audit(docs[0], web_url="f")
    assert [v.rule_id for v in violations] == ["image-alt"] * 2
    proposal = heuristic_fix(violations[0])
    assert isinstance(proposal.edit, StartTag)
    expected = dom.parse_fragment_element(proposal.corrected_html)
    calls = count_fragment_parses(monkeypatch)
    for doc in docs:
        v = violations[target]
        el = dom.locate(dom.preorder(doc.root).elements, v.index,
                        v.html_snippet)
        assert apply_fix(el, v, proposal).outcome == APPLIED
        assert el == expected
    assert calls == []
    el0, el1 = (dom.preorder(doc.root).elements[violations[target].index]
                for doc in docs)
    assert el0 == el1 and el0.attrs is not el1.attrs


def test_start_tag_edit_is_a_value():
    """A start-tag edit equals its copy, and each document it is applied to
    gets attributes of its own."""
    docs = [dom.parse_html(PAGE) for _ in range(2)]
    v = rules.audit(docs[0], web_url="f")[0]
    edit = heuristic_fix(v).edit
    assert edit == copy.deepcopy(edit) == StartTag(
        "img", (("src", "a.png"), ("alt", "a")))
    assert hash(edit) == hash(copy.copy(edit))
    els = [dom.preorder(doc.root).elements[v.index] for doc in docs]
    for el in els:
        edit(el)
    assert els[0] == els[1] == dom.Element("img", {"src": "a.png", "alt": "a"})
    assert els[0].attrs is not els[1].attrs


def test_each_start_tag_fix_runs_its_recipe_once(monkeypatch, corpus_paths,
                                                 perfbench_pages):
    """Every recipe runs once per fix, on a fresh start tag, and the live
    element gets the edit value it returns. The root ``landmark-one-main``
    wrap is a ``WrapBody``, of a whole page and of one cut to its start
    tag alike."""
    calls = []
    for rule_id, recipe in providers._RECIPES.items():
        def counting(el, v, recipe=recipe):
            calls.append(v.rule_id)
            return recipe(el, v)
        monkeypatch.setitem(providers._RECIPES, rule_id, counting)
    pages = [Path(path).read_text("utf-8") for path in corpus_paths]
    pages += [html for name, html in perfbench_pages
              if name.endswith("wide.html")]
    pages += ["<p>stray</p><p>more</p>", "<p>no main</p>",
              "<p>" + "long " * 100 + "</p>"]
    expected, start_tags, kinds, cut_roots = [], set(), set(), 0
    for html in pages:
        doc = dom.parse_html(html)
        _, records = correct_document(doc, rules.audit(doc, web_url="f"),
                                      HeuristicProvider())
        for r in records:
            assert r.outcome == APPLIED
            edit = r.proposal.edit
            if isinstance(edit, WrapBody):
                assert (r.violation.rule_id, r.violation.index) == (
                    "landmark-one-main", 0)
                cut_roots += dom.is_cut(r.violation.html_snippet)
            expected.append(r.violation.rule_id)
            kinds.add(type(edit))
            if isinstance(edit, StartTag):
                start_tags.add(r.violation.rule_id)
    assert sorted(calls) == sorted(expected)
    assert cut_roots == 1
    assert len(start_tags) >= 10
    assert kinds == {StartTag, WrapChildren, WrapSelf, AppendText, WrapBody}


def corrected(html, name="f"):
    """``html`` parsed and corrected with the heuristic provider."""
    doc = dom.parse_html(html)
    correct_document(doc, rules.audit(doc, web_url=name), HeuristicProvider())
    return doc


def assert_reads_back(doc, name=""):
    """The corrected tree holds no ``str`` stand-in, and the page written
    out parses back to it byte for byte: what was re-audited is the page."""
    assert not any(isinstance(kid, str)
                   for el in dom.preorder(doc.root).elements
                   for kid in el.children), name
    out = doc.serialize()
    assert dom.parse_html(out).serialize() == out, name


def test_corrected_pages_read_back(corpus_paths, rules_dir, rules_manifest,
                                   composed_pages, perfbench_pages):
    pages = [(path, Path(path).read_text("utf-8")) for path in corpus_paths]
    pages += [(name, (rules_dir / name).read_text("utf-8"))
              for name in sorted(rules_manifest)]
    for name, html in pages + composed_pages + perfbench_pages:
        assert_reads_back(corrected(html, name), name)


@settings(max_examples=150, deadline=None)
@example('<p role="main"><script role="banner"></script>')
@given(tag_soup)
def test_corrected_tag_soup_reads_back(html):
    assert_reads_back(corrected(html))


@pytest.mark.parametrize("body", [
    '<main><h1>a</h1><p>t<span role="heading" aria-level="4">h</span></p>'
    "</main>",
    '<main><nav aria-label="n"><p>t<span role="banner">b</span></p></nav>'
    "</main>",
    '<main>a</main><p>t<span role="main">b</span></p>',
], ids=["heading-order", "nested-landmark", "extra-main"])
def test_fixes_inside_a_paragraph_leave_it_whole(body):
    """A recipe renames only a tag that closes an open <p>, so a fix inside a
    paragraph leaves it whole when the page is read back."""
    doc = corrected(f'<html lang="en"><body>{body}</body></html>')
    assert rules.audit(doc, web_url="f") == []
    assert_reads_back(doc)


def test_correction_keeps_every_element():
    """Fixes edit the live elements; none is swapped for a parsed copy."""
    doc = dom.parse_html('<html lang="en"><body><p id="k">x</p></body></html>')
    before = dom.preorder(doc.root).elements
    correct_document(doc, rules.audit(doc, web_url="f"), HeuristicProvider())
    after = {id(el) for el in dom.preorder(doc.root).elements}
    assert [el.tag for el in before] == ["html", "head", "body", "main"]
    assert all(id(el) in after for el in before)
