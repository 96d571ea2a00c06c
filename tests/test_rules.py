import hashlib
import html
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accessfix import dom, harness, rules
from accessfix.corrector import APPLIED, correct_document
from accessfix.errors import UnknownRuleError
from accessfix.providers import HeuristicProvider


def audit_counts(html, **kwargs):
    violations = rules.audit(dom.parse_html(html), **kwargs)
    return Counter(v.rule_id for v in violations)


def test_missing_alt_is_critical():
    violations = rules.audit(dom.parse_html(
        '<html lang="en"><body><main><img src="x.png"></main></body></html>'
    ))
    flagged = [v for v in violations if v.rule_id == "image-alt"]
    assert len(flagged) == 1
    assert flagged[0].impact == "critical"
    assert flagged[0].html_snippet == '<img src="x.png">'


def test_present_alt_not_flagged():
    counts = audit_counts(
        '<html lang="en"><body><main><img src="x.png" alt="logo">'
        "</main></body></html>"
    )
    assert counts["image-alt"] == 0


def test_missing_lang_flags_root():
    violations = rules.audit(dom.parse_html("<html><body><main>x</main></body></html>"))
    lang = [v for v in violations if v.rule_id == "html-has-lang"]
    assert len(lang) == 1
    assert lang[0].locator.path == ()


def test_heading_skip_flags_the_skipping_heading():
    violations = rules.audit(dom.parse_html(
        '<html lang="en"><body><main><h1>A</h1><h3>B</h3></main></body></html>'
    ))
    flagged = [v for v in violations if v.rule_id == "heading-order"]
    assert len(flagged) == 1
    assert flagged[0].html_snippet == "<h3>B</h3>"
    assert "previous heading level was h1" in flagged[0].help


def test_all_text_in_main_has_no_region_violation():
    counts = audit_counts(
        '<html lang="en"><body><main><p>everything here</p></main></body></html>'
    )
    assert counts["region"] == 0


def test_contiguous_stray_siblings_collapse_to_parent():
    violations = rules.audit(dom.parse_html(
        '<html lang="en"><body><main>ok</main>'
        "<div>stray one</div><div>stray two</div></body></html>"
    ))
    region = [v for v in violations if v.rule_id == "region"]
    assert len(region) == 1
    assert region[0].html_snippet.startswith("<body>")


def test_separated_strays_flagged_individually():
    violations = rules.audit(dom.parse_html(
        '<html lang="en"><body><div>one</div><main>ok</main>'
        "<div>two</div></body></html>"
    ))
    region = [v for v in violations if v.rule_id == "region"]
    assert len(region) == 2


def test_duplicate_id_suggests_unique_rename():
    violations = rules.audit(dom.parse_html(
        '<html lang="en"><body><main><p id="x">a</p><p id="x">b</p>'
        '<p id="x-2">c</p></main></body></html>'
    ))
    dup = [v for v in violations if v.rule_id == "duplicate-id"]
    assert len(dup) == 1
    assert '"x-3"' in dup[0].help  # x-2 is taken


def data_of(html, rule_id, key):
    violations = rules.audit(dom.parse_html(html))
    return [v.data[key] for v in violations if v.rule_id == rule_id]


LINKED_NAV = '<nav{}><a href="/">H</a></nav>'


@pytest.mark.parametrize("body, labels", [
    (LINKED_NAV.format(' aria-label="Menu 2"')
     + LINKED_NAV.format(' aria-label="Menu"') * 3, ["Menu 3", "Menu 4"]),
    ('<aside>a</aside><aside>b</aside><nav title="nav 2">c</nav>'
     "<nav>d</nav><nav>e</nav>", ["aside 2", "nav 3"]),
], ids=["named", "unnamed"])
def test_landmark_unique_label_skips_the_names_on_the_page(body, labels):
    page = f'<html lang="en"><body><main>{body}</main></body></html>'
    assert data_of(page, "landmark-unique", "label") == labels


def test_section_labels_skip_the_names_of_landmarks():
    page = ('<html lang="en"><body><main>a</main>'
            '<section aria-label="region-2">b</section>'
            '<p>one</p><nav>n</nav><p>two</p>'
            '<main>c</main><main aria-label="section-2">d</main></body></html>')
    assert data_of(page, "region", "label") == ["region-3", "region-4"]
    assert data_of(page, "landmark-one-main", "label") == [
        "section-3", "section-4"]


def test_only_the_first_region_run_of_a_page_without_main_gets_main():
    violations = rules.audit(dom.parse_html(
        '<html lang="en"><body><p>a</p><nav>x</nav><p>b</p><aside>y</aside>'
        "<p>c</p></body></html>"
    ))
    assert [v.data for v in violations if v.rule_id == "region"] == [
        {"wrap_in": "main"},
        {"wrap_in": "section", "label": "region-2"},
        {"wrap_in": "section", "label": "region-3"},
    ]


def test_aria_required_attr_names_what_is_missing():
    assert data_of(
        '<html lang="en"><body><main><div role="scrollbar" aria-valuenow="1">'
        '</div><div role="scrollbar"></div></main></body></html>',
        "aria-required-attr", "missing",
    ) == [("aria-controls",), ("aria-controls", "aria-valuenow")]


def test_many_copies_of_one_id_fix_in_linear_time():
    page = ('<html lang="en"><body><main>' + '<p id="x">t</p>' * 8000
            + "</main></body></html>")
    entries = [harness.CorpusEntry.from_text("ids.html", page)]
    start = time.perf_counter()
    (run,) = harness.run_pages(entries, HeuristicProvider())
    elapsed = time.perf_counter() - start
    assert run.error == ""
    assert run.initial.num_violations == 7999
    assert {r.outcome for r in run.records} == {APPLIED}
    assert run.final.violations == []
    assert elapsed < 2.0


def test_unknown_rule_is_configuration_error():
    with pytest.raises(UnknownRuleError):
        rules.audit(dom.parse_html("<p>x</p>"), ruleset=("no-such-rule",))
    with pytest.raises(UnknownRuleError):
        rules.audit(dom.parse_html("<p>x</p>"), ruleset=())


def test_impact_override():
    violations = rules.audit(
        dom.parse_html('<html lang="en"><body><main><img src="x.png"></main></body></html>'),
        impacts={"image-alt": "minor"},
    )
    assert [v.impact for v in violations if v.rule_id == "image-alt"] == ["minor"]


def test_audit_is_deterministic(corpus_dir, corpus_manifest):
    name = sorted(corpus_manifest)[0]
    doc_text = (corpus_dir / name).read_text("utf-8")
    first = rules.audit(dom.parse_html(doc_text), web_url=name)
    second = rules.audit(dom.parse_html(doc_text), web_url=name)
    assert first == second


def test_violations_in_document_order(corpus_dir, corpus_manifest):
    for name in sorted(corpus_manifest)[:5]:
        violations = rules.audit(
            dom.parse_html((corpus_dir / name).read_text("utf-8")), web_url=name
        )
        paths = [v.locator.path for v in violations]
        assert paths == sorted(paths)


def test_rule_fixture_suite_exact_match(rules_dir, rules_manifest):
    # Soundness and completeness on the crafted per-rule corpus: every
    # seeded violation detected, nothing else flagged.
    for name, seeded in sorted(rules_manifest.items()):
        counts = audit_counts((rules_dir / name).read_text("utf-8"))
        assert dict(counts) == seeded, name


def test_corpus_manifest_exact_match(corpus_dir, corpus_manifest):
    for name, seeded in sorted(corpus_manifest.items()):
        counts = audit_counts((corpus_dir / name).read_text("utf-8"))
        assert dict(counts) == seeded, name


def test_contrast_rule_skips_unstyled_text():
    counts = audit_counts(
        '<html lang="en"><body><main><p>plain text</p></main></body></html>'
    )
    assert counts["color-contrast"] == 0


def test_contrast_rule_large_text_threshold():
    html = (
        '<html lang="en"><body><main>'
        '<p style="color:#777777; background-color:#ffffff; font-size:24px">'
        "big text</p></main></body></html>"
    )
    counts = audit_counts(html)
    assert counts["color-contrast"] == 0  # 4.48 passes the 3:1 large-text bar


def test_meta_viewport_max_scale_below_two():
    counts = audit_counts(
        '<html lang="en"><head><meta name="viewport" '
        'content="maximum-scale=1.5"></head><body><main>x</main></body></html>'
    )
    assert counts["meta-viewport"] == 1


# A role is read by its first token, by every rule and by the heuristic
# recipes: each page's audit, then its heuristic correction and re-audit.
@pytest.mark.parametrize("body, found", [
    ('<div role="main navigation"><p>Hi</p></div>', {}),
    ('<main><h1>A</h1><div role="heading dummy" aria-level="4">x</div></main>',
     {"heading-order": 1}),
    ('<main><div role="checkbox focusable">x</div></main>',
     {"aria-required-attr": 1}),
    ('<main><img src="a.png" alt="" role="presentation none"></main>', {}),
], ids=["main", "heading", "checkbox", "presentation"])
def test_role_is_its_first_token(body, found):
    doc = dom.parse_html(f'<html lang="en"><body>{body}</body></html>')
    violations = rules.audit(doc)
    assert Counter(v.rule_id for v in violations) == found
    _, records = correct_document(doc, violations, HeuristicProvider())
    assert [r.outcome for r in records] == [APPLIED] * len(violations)
    assert rules.audit(doc) == []


# Declarations that the style parsing admits and that int(), float() or
# RgbColor reject.
UNUSABLE_STYLES = {
    "superscript-weight": "font-weight:\u00b2",  # str.isdigit accepts it
    "weight-past-int-limit": "font-weight:" + "9" * 5000,
    "size-with-two-points": "font-size:1.2.3px",
    "size-without-digits": "font-size:.px",
    "overflowing-rgb": "color: rgb(1e999,0,0)",
}


def contrast_page(style):
    """Low-contrast text whose <p> carries ``style``."""
    return (
        '<html lang="en"><body><main>'
        '<div style="color:#777777; background-color:#ffffff">'
        f'<p style="{html.escape(style)}">x</p></div></main></body></html>'
    )


@pytest.mark.parametrize("style", UNUSABLE_STYLES.values(),
                         ids=UNUSABLE_STYLES.keys())
def test_unusable_style_value_is_ignored(style):
    assert audit_counts(contrast_page(style)) == audit_counts(contrast_page(""))
    assert audit_counts(contrast_page(""))["color-contrast"] == 1


STYLE_PROPERTIES = ("color", "background-color", "background", "font-size",
                    "font-weight")
numbers = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),  # with inf, nan and 1e+300
    st.text(alphabet="0123456789.e+-", min_size=1, max_size=8),
    st.text(alphabet="0123456789\u00b2\u0663", min_size=1),  # isdigit()
)
style_values = st.one_of(
    st.text(max_size=12),
    st.builds("{}{}".format, numbers, st.sampled_from(["", "px", "%"])),
    st.lists(numbers, min_size=3, max_size=4).map(
        lambda parts: f"rgb({','.join(parts)})"),
)
style_texts = st.one_of(
    st.text(),
    st.lists(st.tuples(st.sampled_from(STYLE_PROPERTIES), style_values),
             max_size=4).map(
        lambda decls: "; ".join(f"{prop}:{value}" for prop, value in decls)),
)


@settings(max_examples=500, deadline=None)
@given(style_texts)
def test_audit_never_raises_on_any_inline_style(style):
    rules.audit(dom.parse_html(contrast_page(style)))


# SHA-256 of every reported field of every violation on the bundled pages.
# Any change to a field or to the order changes them; update them only for a
# deliberate change of audit output.
CORPUS_AUDIT_SHA256 = (
    "a6c148170ecc5c3584a941c56669bf7ef489c1eb796f149680683b9e43471430"
)
RULES_AUDIT_SHA256 = (
    "202db3771454e355bd754d659bb6c1ce8b46b7486cc1178096a968127af61b9a"
)


def audit_digest(folder, manifest):
    digest = hashlib.sha256()
    for name in sorted(manifest):
        digest.update(name.encode("utf-8"))
        doc = dom.parse_html((folder / name).read_text("utf-8"))
        for v in rules.audit(doc, web_url=name):
            assert v.locator.snippet is v.html_snippet
            digest.update(repr((
                v.rule_id, v.impact, v.help, v.html_snippet, v.locator.path,
                sorted(v.data.items()),
            )).encode("utf-8"))
    return digest.hexdigest()


def test_audit_output_pinned(corpus_dir, corpus_manifest, rules_dir,
                             rules_manifest):
    assert audit_digest(corpus_dir, corpus_manifest) == CORPUS_AUDIT_SHA256
    assert audit_digest(rules_dir, rules_manifest) == RULES_AUDIT_SHA256


def test_audit_serializes_each_violation_once(corpus_dir, corpus_manifest,
                                              monkeypatch):
    calls = []
    serialize = dom._serialize

    def counting(node, normalized):
        calls.append(node)
        return serialize(node, normalized)

    monkeypatch.setattr(dom, "_serialize", counting)
    for name in sorted(corpus_manifest):
        doc = dom.parse_html((corpus_dir / name).read_text("utf-8"))
        calls.clear()
        violations = rules.audit(doc)
        assert violations
        assert len(calls) == len(violations), name


TREE_TAGS = ("div", "span", "p", "a", "label", "main", "section", "script",
             "style")
MAX_DEPTH = 30

tree_events = st.lists(st.one_of(
    st.tuples(st.just("open"), st.sampled_from(TREE_TAGS),
              st.sampled_from(["", "a", "b", "c"])),
    st.just(("close",)),
    st.tuples(st.just("text"), st.text(max_size=4)),
    st.tuples(st.just("comment"), st.text(max_size=4)),
), max_size=150)


def build_tree(events) -> dom.DomDocument:
    """Element tree straight from events, bypassing the parser's repairs."""
    root = dom.Element("html")
    stack = [root]
    for event in events:
        if event[0] == "open" and len(stack) <= MAX_DEPTH:
            el = dom.Element(event[1], {"id": event[2]} if event[2] else {})
            stack[-1].children.append(el)
            stack.append(el)
        elif event[0] == "close" and len(stack) > 1:
            stack.pop()
        elif event[0] == "text":
            stack[-1].children.append(dom.Text(event[1]))
        elif event[0] == "comment":
            stack[-1].children.append(dom.Comment(event[1]))
    return dom.DomDocument(root)


def reference_walk(el, path=()):
    """Recursive pre-order (path, element) walk."""
    yield path, el
    for i, child in enumerate(el.children):
        if isinstance(child, dom.Element):
            yield from reference_walk(child, path + (i,))


@settings(max_examples=200, deadline=None)
@given(tree_events)
def test_index_matches_recursive_reference_walk(events):
    doc = build_tree(events)
    ix = rules._Index.build(doc, rules.DEFAULT_THRESHOLDS)
    expected = list(reference_walk(doc.root))
    assert [id(el) for el in ix.elements] == [id(el) for _, el in expected]
    first = {}
    for i, (path, el) in enumerate(expected):
        assert ix.path(i) == path
        subtree = [
            id(sub) for sub_path, sub in expected
            if len(sub_path) > len(path) and sub_path[:len(path)] == path
        ]
        assert [id(sub) for sub in ix.elements[i + 1:ix.end[i]]] == subtree
        if el.attrs.get("id") and el.attrs["id"] not in first:
            first[el.attrs["id"]] = el
    assert {k: id(v) for k, v in ix.ids.items()} == \
        {k: id(v) for k, v in first.items()}
