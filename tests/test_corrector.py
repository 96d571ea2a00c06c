import concurrent.futures
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from accessfix import dom, prompts, rules
from accessfix.corrector import (
    APPLIED,
    MATCH_FAILED,
    NO_RECIPE,
    PARSE_FAILED,
    PROVIDER_FAILED,
    _independent,
    correct_document,
)
from accessfix.errors import (InvalidFragmentError, NoRecipeError,
                              ProviderUnavailableError)
from accessfix.harness import (CorpusEntry, build_replay_transcript, ingest,
                               run_pages)
from accessfix.prompts import FixProposal
from accessfix.providers import (
    HeuristicProvider,
    ReplayProvider,
    heuristic_fix,
)

PAGE = (
    '<html lang="en"><body>'
    '<header><a href="#m">Skip to content</a></header>'
    '<main id="m"><img src="a.png"><p>keep me</p><a href="/about"></a></main>'
    "</body></html>"
)


def get_violation(doc, rule_id):
    return next(v for v in rules.audit(doc, web_url="f") if v.rule_id == rule_id)


def proposal(html):
    return FixProposal(corrected_html=html, thought=None,
                       raw_response=html, provider_id="test")


class StubProvider:
    """Answers each prompt with the next response: a proposal as it is, an
    exception raised, or corrected HTML in a fresh proposal."""

    provider_id = "stub"

    def __init__(self, responses):
        self.responses = list(responses)

    def propose(self, bundle, violation=None):
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        if isinstance(item, FixProposal):
            return item
        return FixProposal(corrected_html=item, thought=None,
                           raw_response=item, provider_id=self.provider_id)


def correct_one(doc, v, p):
    """The record of correcting ``v`` alone in ``doc``, answered with ``p``
    (see ``StubProvider``): ``correct_document`` locates it and
    ``apply_fix`` applies the proposal."""
    _, [record] = correct_document(doc, [v], StubProvider([p]))
    return record


def test_apply_fix_with_fresh_locator():
    doc = dom.parse_html(PAGE)
    v = get_violation(doc, "image-alt")
    record = correct_one(doc, v, proposal('<img src="a.png" alt="a">'))
    assert record.outcome == APPLIED
    assert 'alt="a"' in doc.serialize()
    assert "<p>keep me</p>" in doc.serialize()


def test_applied_proposal_shares_no_tree_between_documents():
    docs = [dom.parse_html(PAGE) for _ in range(2)]
    p = proposal('<img src="a.png" alt="a">')
    for doc in docs:
        assert correct_one(doc, get_violation(doc, "image-alt"), p).outcome \
            == APPLIED
    img = docs[0].root.children[1].children[1].children[0]
    img.attrs["alt"] = "changed"
    assert 'alt="changed"' not in docs[1].serialize()
    assert 'alt="a"' in docs[1].serialize()


def test_apply_fix_stale_locator_leaves_document_unchanged():
    doc = dom.parse_html(PAGE)
    v = get_violation(doc, "image-alt")
    # Move the image by inserting a node before it: its locator goes stale.
    main = doc.root.children[1].children[1]
    main.children.insert(0, dom.parse_fragment_element("<p>new first</p>"))
    before = doc.serialize()
    record = correct_one(doc, v, proposal('<img src="a.png" alt="a">'))
    assert record.outcome == MATCH_FAILED
    assert doc.serialize() == before


def test_apply_fix_no_match_leaves_document_unchanged():
    doc = dom.parse_html(PAGE)
    v = get_violation(doc, "image-alt")
    before = doc.serialize()
    stranger = replace(v, html_snippet='<img src="not-here.png">')
    record = correct_one(doc, stranger, proposal('<img alt="a">'))
    assert record.outcome == MATCH_FAILED
    assert doc.serialize() == before


def test_apply_fix_unparseable_fragment_is_rejected_before_mutation():
    doc = dom.parse_html(PAGE)
    v = get_violation(doc, "image-alt")
    before = doc.serialize()
    for bad in ("<img", "", "just words", "<p>a</p><p>b</p>"):
        record = correct_one(doc, v, proposal(bad))
        assert record.outcome == PARSE_FAILED
        assert doc.serialize() == before


def test_correct_document_one_record_per_violation():
    doc = dom.parse_html(PAGE)
    violations = rules.audit(doc, web_url="f")
    assert violations
    fixed, records = correct_document(doc, violations, HeuristicProvider(), "react")
    assert len(records) == len(violations)
    assert {r.outcome for r in records} == {APPLIED}
    assert rules.audit(fixed, web_url="f") == []


def test_correct_document_empty_list():
    doc = dom.parse_html(PAGE)
    _, records = correct_document(doc, [], HeuristicProvider(), "react")
    assert records == []


def test_correct_document_mixed_outcomes():
    doc = dom.parse_html(PAGE)
    violations = rules.audit(doc, web_url="f")
    # Proposals are requested from the last violation to the first.
    stub = StubProvider(
        [heuristic_fix(v).corrected_html for v in reversed(violations[2:])]
        + ["<img"]
        + [ProviderUnavailableError("down")]
    )
    _, records = correct_document(doc, violations, stub, "react")
    outcomes = [r.outcome for r in records]
    assert outcomes[0] == PROVIDER_FAILED
    assert outcomes[1] == PARSE_FAILED
    assert set(outcomes[2:]) <= {APPLIED}


def test_a_provider_without_a_recipe_is_recorded_as_no_recipe():
    doc = dom.parse_html(PAGE)
    before = doc.serialize()
    record = correct_one(doc, get_violation(doc, "image-alt"),
                         NoRecipeError("no recipe for image-alt"))
    assert (record.outcome, record.proposal, record.detail) == \
        (NO_RECIPE, None, "no recipe for image-alt")
    assert doc.serialize() == before


def test_fragment_error_while_proposing_fails_only_that_fix():
    """A provider may parse while it proposes; an InvalidFragmentError from
    it is that violation's parse failure, not the page's."""
    violations = rules.audit(dom.parse_html(PAGE), web_url="f")
    stub = StubProvider(
        [InvalidFragmentError("fragment must contain exactly one element")]
        + [heuristic_fix(v).corrected_html for v in reversed(violations[:-1])]
    )
    [page] = run_pages([CorpusEntry("f", PAGE)], stub)
    assert page.error == ""
    outcomes = [r.outcome for r in page.records]
    assert outcomes == [APPLIED] * (len(violations) - 1) + [PARSE_FAILED]
    assert "exactly one element" in page.records[-1].detail


def test_an_edit_without_a_recipe_at_its_turn_fails_only_that_fix():
    """An earlier fix renamed the body, so the root's main wrap finds no
    body when it is applied: that fix is recorded as no_recipe, and the
    rest of the page is corrected. The page is over 300 characters, so the
    root and body snippets are cut to their start tags and the wrap runs
    only when it is applied."""
    page = ("<html><body>" + "".join(f"<p>para {i} text</p>" for i in range(30))
            + "</body></html>")

    class RenamesBody:
        provider_id = "stub"

        def propose(self, bundle, violation=None):
            if violation.rule_id == "region":
                assert violation.html_snippet == "<body>"
                return prompts.parse_fix("CORRECTED: `<div>`", self.provider_id,
                                         violation.html_snippet)
            return heuristic_fix(violation)

    [run] = run_pages([CorpusEntry("f", page)], RenamesBody())
    assert run.error == ""
    assert [(r.violation.rule_id, r.outcome, r.detail) for r in run.records] \
        == [("html-has-lang", APPLIED, ""),
            ("landmark-one-main", NO_RECIPE, "document has no body to wrap"),
            ("region", APPLIED, "")]
    assert run.corrected_html.startswith('<html lang="en"><head></head><div>')
    assert "<main" not in run.corrected_html


@pytest.mark.parametrize("html", [
    # An extra main with role="main" became a section that is still a main.
    '<main>a</main><div role="main">b</div>',
    # Text appended to a raw-text heading is not its text.
    '<script role="heading"></script>',
    # A content recipe parsed a snippet that re-parsed as two elements, and
    # its InvalidFragmentError failed the page.
    '<section role="main"><p role="heading"><tr role="main">',
    # A <main> whose explicit role is banner counted as a main, and the
    # nested-banner fix removed the page's only main.
    '<nav><main role="banner">x',
    # The skip link was retargeted at "#main-content", and the root wrap
    # made a main with no id.
    "<a href='#main'>",
    # A nested <html role="main"> was taken for the root: the root wrap
    # found a main, did nothing, and the outcome read applied.
    '<select role="main"><html role="main">',
    # Text appended to the root heading landed after <body>, and the page
    # written out read back with it inside the body.
    '<html role="heading"> ',
])
def test_heuristic_mends_end_at_zero(html):
    [page] = run_pages([CorpusEntry("f", html)], HeuristicProvider())
    assert page.error == ""
    assert {r.outcome for r in page.records} == {APPLIED}
    assert page.final.violations == []
    out = page.corrected_html
    assert dom.parse_html(out).serialize() == out


def test_correct_document_records_carry_violation_and_outcome_metadata():
    doc = dom.parse_html(PAGE)
    violations = rules.audit(doc, web_url="f")
    _, records = correct_document(doc, violations, HeuristicProvider(), "react")
    for record, v in zip(records, violations):
        assert record.violation.rule_id == v.rule_id
        assert record.proposal.corrected_html
        assert record.proposal.raw_response


def test_fixes_compose(composed_pages):
    assert len(composed_pages) == 2 + 5 + 210
    for name, html in composed_pages:
        doc = dom.parse_html(html)
        violations = rules.audit(doc, web_url=name)
        _, records = correct_document(doc, violations, HeuristicProvider())
        assert [r.outcome for r in records] == [APPLIED] * len(violations), name
        assert rules.audit(doc, web_url=name) == [], name


def test_in_process_providers_start_no_thread(corpus_paths, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an in-process provider started a thread pool")

    entries = ingest(corpus_paths)
    replay = ReplayProvider(build_replay_transcript(entries))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    for provider in (HeuristicProvider(), replay):
        for entry in entries:
            doc = dom.parse_html(entry.html_text)
            _, records = correct_document(doc, rules.audit(doc), provider)
            assert {r.outcome for r in records} == {APPLIED}, entry.source_id


def count_renders(monkeypatch) -> list:
    """Record each user message that ``prompts`` renders."""
    calls = []

    def counting(parts, values):
        calls.append(values)
        return render(parts, values)

    render = prompts._render
    monkeypatch.setattr(prompts, "_render", counting)
    return calls


def test_heuristic_correction_renders_no_prompt_text(monkeypatch):
    """The heuristic provider reads the violation, not the prompt, so no
    user message is rendered, for independent and dependent targets alike."""
    html = ('<html><body><div role="checkbox">x<div role="checkbox">y'
            '<img src="a.png"></div></div>' + PAGE + "</body></html>")
    doc = dom.parse_html(html)
    violations = rules.audit(doc, web_url="f")
    calls = count_renders(monkeypatch)
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert {r.outcome for r in records} == {APPLIED}
    assert len(records) > 5
    assert calls == []


def test_replay_renders_one_user_message_per_request(corpus_paths,
                                                     monkeypatch):
    entries = ingest(corpus_paths)
    replay = ReplayProvider(build_replay_transcript(entries))
    calls = count_renders(monkeypatch)
    requests = 0
    for entry in entries:
        doc = dom.parse_html(entry.html_text)
        _, records = correct_document(doc, rules.audit(doc), replay)
        assert {r.outcome for r in records} == {APPLIED}, entry.source_id
        requests += len(records)
    assert len(calls) == requests


def dependent_targets(paths, cut) -> set:
    """Positions of the violations, given their elements' paths and whether
    each one's snippet is its start tag alone, that another one's fix can
    reach first: a later one on the same element, or one on an element
    inside it unless the snippet is cut (no such fix changes a start
    tag)."""
    return {
        i for i, p in enumerate(paths)
        if any(q[:len(p)] == p and (q != p or j > i)
               and (q == p or not cut[i])
               for j, q in enumerate(paths) if j != i)
    }


def cut_snippets(violations) -> list:
    """Whether each violation's snippet is its element's start tag alone."""
    return [dom.is_cut(v.html_snippet) for v in violations]


def test_independent_targets_are_those_outside_every_other_fix(
        corpus_paths, composed_pages, path_of):
    pages = [(path, Path(path).read_text("utf-8")) for path in corpus_paths]
    for name, html in pages + composed_pages:
        doc = dom.parse_html(html)
        violations = rules.audit(doc, web_url=name)
        pre = dom.preorder(doc.root)
        targets = [(pre.elements[v.index], v) for v in violations]
        paths = [path_of(pre, v.index) for v in violations]
        assert _independent(targets, pre.end) == set(range(len(violations))) \
            - dependent_targets(paths, cut_snippets(violations)), name


def test_each_target_is_serialized_once_unless_a_fix_can_reach_it(
        corpus_paths, perfbench_pages, monkeypatch, path_of):
    """``correct_document`` locates each distinct target once, and
    serializes again, at its turn, only a target that another fix can
    reach and whose snippet is not cut to its start tag, which is written
    without ``_serialize``; every other prompt shows the audited
    snippet."""
    pages = [(path, Path(path).read_text("utf-8")) for path in corpus_paths]
    pages += [(name, html) for name, html in perfbench_pages
              if name == "wide_fix:1:0000-wide.html"]
    replay = ReplayProvider(build_replay_transcript(
        [CorpusEntry(name, html) for name, html in pages]))
    serialize = dom._serialize
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return serialize(*args, **kwargs)

    monkeypatch.setattr(dom, "_serialize", counting)
    for name, html in pages:
        doc = dom.parse_html(html)
        violations = rules.audit(doc, web_url=name)
        pre = dom.preorder(doc.root)
        paths = [path_of(pre, v.index) for v in violations]
        calls.clear()
        _, records = correct_document(doc, violations, replay)
        assert {r.outcome for r in records} == {APPLIED}, name
        located = {(v.index, v.html_snippet) for v in violations}
        cut = cut_snippets(violations)
        again = {i for i in dependent_targets(paths, cut) if not cut[i]}
        assert len(calls) == len(located) + len(again), name


FIX_OUTPUT_SHA256 = (
    "b21b5f9db3e80598aa33e93aca680b4640d892e750c79cd6c1734fb00d673839"
)


def fix_digest(pages) -> str:
    """SHA-256 over a heuristic run of ``pages``, (name, html) pairs: each
    proposal's text, response and edit, each record's outcome and detail,
    and each corrected page."""
    digest = hashlib.sha256()
    for page in run_pages([CorpusEntry(name, html) for name, html in pages],
                          HeuristicProvider()):
        assert not page.error, (page.source_id, page.error)
        digest.update(page.source_id.encode("utf-8"))
        for r in page.records:
            p = r.proposal
            digest.update(repr((
                r.violation.rule_id, r.outcome, r.detail,
                p and (p.corrected_html, p.raw_response, repr(p.edit)),
            )).encode("utf-8"))
        digest.update(page.corrected_html.encode("utf-8"))
    return digest.hexdigest()


def test_fix_output_pinned(corpus_dir, corpus_manifest, rules_dir,
                           rules_manifest):
    """The heuristic fix stage on the corpus and the rule fixtures, and the
    corpus replay transcript, byte for byte."""
    corpus = [(f"corpus/{name}", (corpus_dir / name).read_text("utf-8"))
              for name in sorted(corpus_manifest)]
    fixtures = [(f"rules/{name}", (rules_dir / name).read_text("utf-8"))
                for name in sorted(rules_manifest)]
    digest = hashlib.sha256(fix_digest(corpus + fixtures).encode("ascii"))
    transcript = build_replay_transcript(
        [CorpusEntry(name, html) for name, html in corpus])
    for key, raw in sorted(transcript.entries.items()):
        digest.update(f"{key}\0{raw}\0".encode("utf-8"))
    assert digest.hexdigest() == FIX_OUTPUT_SHA256
