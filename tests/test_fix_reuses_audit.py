"""The fix stage of a page run reuses what the audit already has: its
``dom.preorder`` walk, handed to ``correct_document``, and each target
element, whose start tag the heuristic recipe reads. A recipe's answer text
is rendered only when it is read."""

import gc
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

from accessfix import corrector, dom, harness, providers, rules
from accessfix.errors import NoRecipeError
from accessfix.providers import HeuristicProvider, heuristic_fix
from accessfix.rules import Violation
from test_start_tag_fixes import tag_soup


@pytest.fixture(scope="module")
def pages(corpus_paths, rules_dir, rules_manifest, perfbench_pages):
    """(name, html) of the corpus, the rule fixtures and the seed-1 pages
    of both ``perfbench/gen.py`` mixes."""
    return ([(path, Path(path).read_text("utf-8")) for path in corpus_paths]
            + [(name, (rules_dir / name).read_text("utf-8"))
               for name in sorted(rules_manifest)]
            + [(name, html) for name, html in perfbench_pages
               if name.split(":")[1] == "1"])


def texts(p):
    return p and (p.corrected_html, p.raw_response, p.thought, repr(p.edit))


def corrected(html: str, handed: bool):
    """(records, each proposal's texts, corrected page) of correcting a
    fresh parse of ``html`` with the heuristic provider, handed the audit's
    walk or not."""
    doc = dom.parse_html(html)
    walk = dom.preorder(doc.root) if handed else None
    violations = rules.audit(doc, web_url="page", walk=walk)
    _, records = corrector.correct_document(
        doc, violations, HeuristicProvider(), walk=walk)
    return records, [texts(r.proposal) for r in records], doc.serialize()


def assert_walk_changes_nothing(html):
    assert corrected(html, True) == corrected(html, False)


def test_a_handed_walk_changes_no_output(pages):
    for name, html in pages:
        assert_walk_changes_nothing(html)


@settings(max_examples=150, deadline=None)
@given(tag_soup)
def test_a_handed_walk_changes_no_output_on_tag_soup(html):
    assert_walk_changes_nothing(html)


def assert_start_tags_split_back(html):
    """Each element's snippet splits back into the element's own start tag,
    on the page as audited and as corrected: so a recipe that reads the
    located element reads what the snippet's split would give."""
    doc = dom.parse_html(html)
    audited = dom.preorder(doc.root).elements
    corrector.correct_document(doc, rules.audit(doc), HeuristicProvider())
    for el in audited + dom.preorder(doc.root).elements:
        split = dom.split_element(dom.snippet(el))
        assert split is not None, dom.snippet(el)
        assert split[0] == dom.Element(el.tag, dict(el.attrs), [])


def test_every_snippet_splits_back_into_its_start_tag(pages):
    for name, html in pages:
        assert_start_tags_split_back(html)


@settings(max_examples=150, deadline=None)
@given(tag_soup)
def test_every_snippet_splits_back_into_its_start_tag_on_tag_soup(html):
    assert_start_tags_split_back(html)


def test_a_snippet_that_is_no_canonical_start_tag_has_no_recipe():
    """Without an element, the recipe needs the snippet's split."""
    v = Violation("duplicate-id", "minor", "d", "h", "<P ID=a>x</P>", 3,
                  "page", {"rename_to": "a-2"})
    with pytest.raises(NoRecipeError, match="duplicate-id snippet is not "
                                            "canonical"):
        heuristic_fix(v)
    el = dom.Element("p", {"id": "a"}, [dom.Text("x")])
    proposal = heuristic_fix(Violation(
        v.rule_id, v.impact, v.description, v.help, '<p id="a">x</p>',
        v.index, v.web_url, v.data, el))
    assert proposal.corrected_html == '<p id="a-2">x</p>'
    assert el.attrs == {"id": "a"}  # the recipe ran on a copy


def test_a_heuristic_run_neither_locates_nor_splits(corpus_paths,
                                                    monkeypatch):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(corrector, "locate")
    counting(providers, "split_element")
    runs = list(harness.run_pages(harness.ingest(corpus_paths),
                                  HeuristicProvider()))
    assert [run.error for run in runs if run.error] == []
    assert Counter(r.outcome for run in runs for r in run.records) == \
        {corrector.APPLIED: 171}
    assert calls == {}
    # Without the walk, or without the element, each is called again.
    doc = dom.parse_html(Path(corpus_paths[0]).read_text("utf-8"))
    violations = rules.audit(doc)
    corrector.correct_document(doc, violations, HeuristicProvider())
    heuristic_fix(violations[0])
    assert calls == {"locate": len({(v.index, v.html_snippet)
                                    for v in violations}),
                     "split_element": 1}


def reaches_an_element(obj) -> bool:
    """Whether an ``Element`` can be reached from ``obj`` through the
    objects it refers to, classes and strings left out."""
    seen, stack = set(), [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dom.Element):
            return True
        if id(item) not in seen and not isinstance(item, (type, str)):
            seen.add(id(item))
            stack.extend(gc.get_referents(item))
    return False


# Bytes a record of the dense page below retains, as ``tracemalloc`` counts
# them on CPython 3.11: 1252 when a heuristic proposal held its rendered
# answer texts, 1031 now that it renders them when they are first read.
RECORD_BYTES = 1140


def test_a_record_retains_few_bytes_and_no_element():
    entries = [harness.CorpusEntry(
        "dense", '<p id="d"><img><a href></a></p>' * 2000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = harness.run_benchmark(entries, HeuristicProvider())[2]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 6001
    assert {r.outcome for r in records} == {corrector.APPLIED}
    assert retained / len(records) < RECORD_BYTES
    assert not any(reaches_an_element(r.violation)
                   or reaches_an_element(r.proposal) for r in records)
    v = records[0].violation
    assert reaches_an_element(Violation(
        v.rule_id, v.impact, v.description, v.help, v.html_snippet, v.index,
        v.web_url, v.data, dom.Element("img")))
