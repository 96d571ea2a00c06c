"""Crafted fixture corpus: 25 benchmark pages plus per-rule positive and
negative fixtures, each with a manifest of seeded violations.

The benchmark corpus is generated deterministically and targets the same
aggregate shape used by the scoring examples: 171 seeded violations with a
total severity of 614 over 25 pages. Run ``python3 tests/fixturegen.py
OUTDIR`` to (re)write the files; the package bundles them in
``src/accessfix/fixtures``.
"""

from __future__ import annotations

import json
import os
from collections import Counter

PAGE_COUNT = 25

# Page-level seeds: page index ranges carrying each whole-page defect.
_NO_LANG_PAGES = set(range(0, 18))
_BAD_VIEWPORT_PAGES = set(range(0, 8))
_BAD_SKIP_PAGES = set(range(3, 18))
_EXTRA_MAIN_PAGES = set(range(18, 25))

# Element seeds: (rule, count, first page); instance j lands on page
# (first + j) % PAGE_COUNT, at most one instance per rule per page.
_ELEMENT_SEEDS = (
    ("region", 21, 0),
    ("landmark-no-duplicate-content", 16, 2),
    ("color-contrast", 12, 5),
    ("label", 12, 9),
    ("landmark-unique", 11, 13),
    ("aria-required-attr", 10, 0),
    ("heading-order", 10, 15),
    ("duplicate-id", 9, 7),
    ("link-name", 9, 11),
    ("image-alt", 8, 17),
    ("empty-heading", 5, 20),
)

# Ordering of seed chunks within a page's main element.
_SEED_ORDER = (
    "aria-required-attr", "landmark-no-duplicate-content", "color-contrast",
    "duplicate-id", "label", "link-name", "landmark-unique",
    "heading-order", "image-alt", "empty-heading",
)


def _in_main_chunk(rule: str, n: int) -> str:
    if rule == "aria-required-attr":
        return f'<div role="checkbox" tabindex="0">Accept the terms {n}</div>'
    if rule == "landmark-no-duplicate-content":
        return (f'<header aria-label="Promo {n}">'
                f'<p>Limited time offer number {n}.</p></header>')
    if rule == "color-contrast":
        return (f'<p style="color:#777777; background-color:#ffffff">'
                f'Muted caption {n} with low contrast.</p>')
    if rule == "duplicate-id":
        return (f'<p id="note-{n}">First remark {n}.</p>'
                f'<p id="note-{n}">Second remark {n}.</p>')
    if rule == "label":
        return f'<input type="text" name="contact-field-{n}">'
    if rule == "link-name":
        return f'<a href="/more-{n}"></a>'
    if rule == "landmark-unique":
        return (f'<nav aria-label="Archive {n}"><a href="/a{n}">Older {n}</a></nav>'
                f'<nav aria-label="Archive {n}"><a href="/b{n}">Newer {n}</a></nav>')
    if rule == "heading-order":
        return (f'<h2>Topic {n}</h2><p>Topic text {n}.</p>'
                f'<h4>Deep dive {n}</h4><p>Detail text {n}.</p>')
    if rule == "image-alt":
        return f'<img src="chart-{n}.png">'
    if rule == "empty-heading":
        return "<h2></h2>"
    raise ValueError(rule)


def build_benchmark_corpus() -> list:
    """Return [(name, html, {rule: count})] for the 25 bundled pages."""
    assignments = {i: {} for i in range(PAGE_COUNT)}
    n = 0
    for rule, count, first in _ELEMENT_SEEDS:
        for j in range(count):
            n += 1
            assignments[(first + j) % PAGE_COUNT][rule] = n

    pages = []
    for idx in range(PAGE_COUNT):
        manifest = Counter()
        lang = "" if idx in _NO_LANG_PAGES else ' lang="en"'
        if idx in _NO_LANG_PAGES:
            manifest["html-has-lang"] += 1
        if idx in _BAD_VIEWPORT_PAGES:
            viewport = "width=device-width, user-scalable=no, maximum-scale=1"
            manifest["meta-viewport"] += 1
        else:
            viewport = "width=device-width, initial-scale=1"
        if idx in _BAD_SKIP_PAGES:
            skip_href = f"#missing-target-{idx}"
            manifest["skip-link"] += 1
        else:
            skip_href = "#main-content"

        main_chunks = []
        for rule in _SEED_ORDER:
            if rule in assignments[idx]:
                main_chunks.append(_in_main_chunk(rule, assignments[idx][rule]))
                manifest[rule] += 1

        after_main = []
        if "region" in assignments[idx]:
            m = assignments[idx]["region"]
            after_main.append(
                f'<div class="stray">Orphan note {m} sits outside '
                f"the landmarks.</div>"
            )
            manifest["region"] += 1
        if idx in _EXTRA_MAIN_PAGES:
            after_main.append(
                f'<main aria-label="Extra panel {idx}">'
                f"<p>Side content {idx}.</p></main>"
            )
            manifest["landmark-one-main"] += 1

        html = (
            f"<html{lang}><head><title>Fixture page {idx + 1}</title>"
            f'<meta name="viewport" content="{viewport}"></head><body>'
            f'<header><a href="{skip_href}">Skip to content</a>'
            f"<p>Fixture {idx + 1} banner.</p></header>"
            f'<nav aria-label="Site"><a href="/home">Home</a>'
            f'<a href="/about">About</a></nav>'
            f'<main id="main-content"><h1>Fixture page {idx + 1}</h1>'
            f"<p>Intro paragraph for fixture {idx + 1}.</p>"
            + "".join(main_chunks)
            + "</main>"
            + "".join(after_main)
            + f"<footer><p>Contact page {idx + 1} maintainers.</p></footer>"
            "</body></html>"
        )
        pages.append((f"page-{idx + 1:02d}.html", html, dict(manifest)))
    return pages


def _clean_page(content: str, lang: bool = True, head_extra: str = "",
                before_main: str = "", after_main: str = "") -> str:
    lang_attr = ' lang="en"' if lang else ""
    return (
        f"<html{lang_attr}><head><title>Rule fixture</title>{head_extra}</head>"
        f'<body>{before_main}<main id="main-content"><h1>Fixture</h1>'
        f"{content}</main>{after_main}</body></html>"
    )


def build_rule_fixtures() -> list:
    """Return [(name, html, {rule: count})]: one positive and one negative
    fixture per catalog rule."""
    fixtures = []

    def add(rule, kind, html, count=1):
        manifest = {rule: count} if kind == "pos" else {}
        fixtures.append((f"{rule}-{kind}.html", html, manifest))

    add("image-alt", "pos", _clean_page('<img src="logo.png">'))
    add("image-alt", "neg",
        _clean_page('<img src="logo.png" alt="Company logo">'))

    add("link-name", "pos", _clean_page('<a href="/news"></a>'))
    add("link-name", "neg", _clean_page('<a href="/news">Latest news</a>'))

    add("label", "pos", _clean_page('<input type="text" name="email">'))
    add("label", "neg", _clean_page(
        '<input type="text" name="email" aria-label="Email address">'))

    add("html-has-lang", "pos",
        _clean_page("<p>Untagged language.</p>", lang=False))
    add("html-has-lang", "neg", _clean_page("<p>Tagged language.</p>"))

    add("duplicate-id", "pos",
        _clean_page('<p id="note">One.</p><p id="note">Two.</p>'))
    add("duplicate-id", "neg",
        _clean_page('<p id="note-a">One.</p><p id="note-b">Two.</p>'))

    add("heading-order", "pos",
        _clean_page("<h2>Topic</h2><h4>Detail</h4>"))
    add("heading-order", "neg",
        _clean_page("<h2>Topic</h2><h3>Detail</h3>"))

    add("empty-heading", "pos", _clean_page("<h2></h2>"))
    add("empty-heading", "neg", _clean_page("<h2>Overview</h2>"))

    add("region", "pos", _clean_page(
        "<p>Inside main.</p>",
        after_main="<div>Stray text outside the landmarks.</div>"))
    add("region", "neg", _clean_page("<p>All content inside main.</p>"))

    add("landmark-one-main", "pos",
        '<html lang="en"><head><title>Rule fixture</title></head><body>'
        '<nav aria-label="Menu"><a href="/home">Home</a>'
        "<p>All content lives in the nav.</p></nav></body></html>")
    add("landmark-one-main", "neg", _clean_page("<p>Exactly one main.</p>"))

    add("landmark-unique", "pos", _clean_page(
        "<p>Body.</p>",
        after_main='<nav aria-label="Archive"><a href="/a">A</a></nav>'
                   '<nav aria-label="Archive"><a href="/b">B</a></nav>'))
    add("landmark-unique", "neg", _clean_page(
        "<p>Body.</p>",
        after_main='<nav aria-label="Older"><a href="/a">A</a></nav>'
                   '<nav aria-label="Newer"><a href="/b">B</a></nav>'))

    add("landmark-no-duplicate-content", "pos", _clean_page(
        '<header aria-label="Promo"><p>Nested banner.</p></header>'))
    add("landmark-no-duplicate-content", "neg", _clean_page(
        "<p>Body.</p>", before_main="<header><p>Top-level banner.</p></header>"))

    add("skip-link", "pos", _clean_page(
        "<p>Body.</p>",
        before_main='<header><a href="#nowhere">Skip to content</a></header>'))
    add("skip-link", "neg", _clean_page(
        "<p>Body.</p>",
        before_main='<header><a href="#main-content">Skip to content</a>'
                    "</header>"))

    add("aria-required-attr", "pos", _clean_page(
        '<div role="checkbox" tabindex="0">Accept</div>'))
    add("aria-required-attr", "neg", _clean_page(
        '<div role="checkbox" tabindex="0" aria-checked="false">Accept</div>'))

    add("meta-viewport", "pos", _clean_page(
        "<p>Body.</p>",
        head_extra='<meta name="viewport" '
                   'content="width=device-width, user-scalable=no">'))
    add("meta-viewport", "neg", _clean_page(
        "<p>Body.</p>",
        head_extra='<meta name="viewport" '
                   'content="width=device-width, initial-scale=1">'))

    add("color-contrast", "pos", _clean_page(
        '<p style="color:#777777; background-color:#ffffff">Fine print</p>'))
    add("color-contrast", "neg", _clean_page(
        '<p style="color:#111111; background-color:#ffffff">Fine print</p>'))

    return fixtures


def write_fixture_set(pages, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {}
    for name, html, seeded in pages:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            handle.write(html)
        manifest[name] = seeded
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_all(base_dir: str) -> None:
    write_fixture_set(build_benchmark_corpus(), os.path.join(base_dir, "corpus"))
    write_fixture_set(build_rule_fixtures(), os.path.join(base_dir, "rules"))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Write the bundled fixture corpus to a directory."
    )
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)
    write_all(args.out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
