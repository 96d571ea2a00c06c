"""Seeded page generator for the benchmark: wide, deep and malformed pages.

Every page is plain HTML written to disk; the program under test only reads
the files through ``harness.ingest``. Wide and deep pages come with a
manifest of their seeded violations in the shape of the bundled
``fixtures/corpus/manifest.json``: ``{"page.html": {"rule-id": count}}``.
Malformed pages have no manifest, because what the permissive parser makes
of them is part of what is being measured.

    python3 perfbench/gen.py --mix scan_mixed --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

LOW_CONTRAST = "color:#777777; background-color:#ffffff"  # 4.48:1 < 4.5:1

# Page kinds in one pass of each mix. A run goes through whole passes, so
# every run of a mix sees the same size distribution whatever the seed; a
# pass is short so that a run times each page several times.
#   wide_fix:   wide pages, and small malformed pages without lang.
#   scan_mixed: wide pages, deep pages below the default recursion limit,
#               deep pages beyond it, and malformed pages.
PASSES = {
    "wide_fix": {"wide": 20, "malformed": 5},
    "scan_mixed": {"wide": 15, "deep": 5, "deep_beyond": 2, "malformed": 3},
}

# (low, high, spread) of the size knob per (mix, kind): paragraphs for wide
# pages, blocks for malformed pages, unclosed <div> depth for deep pages.
# The n pages of a kind take the quantiles (j + 0.5) / n, j < n, of the
# range, so every seed has the same sizes; the seed sets the page order and
# the content of the malformed pages. Depths stay clear of the 900-1100 band
# where the failure point of a recursive parser moves with the caller's own
# stack depth, so a page fails or passes the same way traced and untraced.
SIZES = {
    ("wide_fix", "wide"): (10, 100, "log"),
    ("wide_fix", "malformed"): (2, 8, "linear"),
    ("scan_mixed", "wide"): (6, 600, "log"),
    ("scan_mixed", "deep"): (50, 900, "linear"),
    ("scan_mixed", "deep_beyond"): (1100, 5000, "linear"),
    ("scan_mixed", "malformed"): (2, 40, "linear"),
}


@dataclass
class Page:
    name: str
    html: str
    manifest: Optional[dict]  # seeded violations by rule; None if unknown


def _head(title: str, lang: bool) -> str:
    lang_attr = ' lang="en"' if lang else ""
    return (
        f"<!DOCTYPE html><html{lang_attr}><head><title>{title}</title>"
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "</head><body>"
    )


def _paragraph(tag: str, i: int) -> str:
    """A heading that owns an id, then a <p> that repeats the id (duplicate-id)
    in low-contrast text (color-contrast) holding an empty link (link-name)
    and an image without alt (image-alt)."""
    return (
        f'<h2 id="{tag}-{i}">Section {i}</h2>'
        f'<p id="{tag}-{i}" style="{LOW_CONTRAST}">Paragraph {i} of the page. '
        f'<a href="/more-{i}"></a> <img src="photo-{i}.png"></p>'
    )


def wide_page(name: str, paragraphs: int) -> Page:
    html = (
        _head(f"Wide page {name}", lang=True)
        + f"<main><h1>Wide page {name}</h1>"
        + "".join(_paragraph("para", i) for i in range(paragraphs))
        + "</main></body></html>"
    )
    manifest = {
        "color-contrast": paragraphs,
        "duplicate-id": paragraphs,
        "image-alt": paragraphs,
        "link-name": paragraphs,
    }
    return Page(name, html, manifest)


def deep_page(name: str, depth: int) -> Page:
    """A chain of ``depth`` unclosed <div>s inside main, with three seeded
    violations at the bottom of the chain."""
    html = (
        _head(f"Deep page {name}", lang=True)
        + f"<main><h1>Deep page {name}</h1>"
        + "<div>" * depth
        + f'<p style="{LOW_CONTRAST}">Bottom of the chain.</p>'
        + f'<img src="deep-{depth}.png"><a href="/deep-{depth}"></a>'
        + "</main></body></html>"
    )
    manifest = {"color-contrast": 1, "image-alt": 1, "link-name": 1}
    return Page(name, html, manifest)


def _malformed_block(rng: random.Random, i: int) -> str:
    choice = rng.randrange(5)
    if choice == 0:  # misnested table: unclosed cells, a div across </td>
        return (
            f"<table><tr><td>Cell {i}<td>Next {i}<tr><td><div>Block {i}"
            "</td></div></tr></table>"
        )
    if choice == 1:  # misnested lists
        return (
            f"<ul><li>Item {i}<li>Item {i}b<ol><li>Inner {i}</ul></ol>"
        )
    if choice == 2:  # stray end tags
        return f"</span></div><p>Stray end tags {i}</b></p></i></td>"
    if choice == 3:  # duplicate attributes
        return (
            f'<img src="a-{i}.png" src="b-{i}.png" alt="" ALT="Photo {i}">'
            f'<p class="x" CLASS="y" id="m-{i}" id="n-{i}">Text {i}</p>'
        )
    return _paragraph("mal", i)


def malformed_page(name: str, blocks: int, rng: random.Random,
                   lang: bool) -> Page:
    """Small page of misnested tables and lists, stray end tags, duplicate
    attributes and violating paragraphs, partly outside any landmark."""
    chunks = [_malformed_block(rng, i) for i in range(blocks)]
    outside = rng.randrange(blocks + 1)  # blocks left outside any landmark
    html = (
        _head(f"Malformed page {name}", lang)
        + "".join(chunks[:outside])
        + f"<main><h1>Malformed page {name}</h1>"
        + "".join(chunks[outside:])
        + "</main></body></html>"
    )
    return Page(name, html, None)


def _size(q: float, low: int, high: int, spread: str) -> int:
    if spread == "log":
        return round(low * (high / low) ** q)
    return round(low + (high - low) * q)


def build(mix: str, seed: int) -> list:
    """Return one pass of the named mix in a seeded order; the same seed
    gives the same pages."""
    rng = random.Random(f"{mix}:{seed}")
    plan = []
    for kind, count in sorted(PASSES[mix].items()):
        plan.extend((kind, (j + 0.5) / count) for j in range(count))
    rng.shuffle(plan)
    pages = []
    for index, (kind, q) in enumerate(plan):
        size = _size(q, *SIZES[(mix, kind)])
        name = f"{index:04d}-{kind}.html"
        if kind == "wide":
            pages.append(wide_page(name, size))
        elif kind in ("deep", "deep_beyond"):
            pages.append(deep_page(name, size))
        else:
            lang = mix == "scan_mixed" and rng.random() < 0.5
            pages.append(malformed_page(name, size, rng, lang))
    return pages


def write(pages, out_dir: str) -> list:
    """Write the pages and ``manifest.json`` (wide and deep pages only);
    return the page paths in order."""
    os.makedirs(out_dir, exist_ok=True)
    paths, manifest = [], {}
    for page in pages:
        path = os.path.join(out_dir, page.name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(page.html)
        paths.append(path)
        if page.manifest is not None:
            manifest[page.name] = page.manifest
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mix", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(build(args.mix, args.seed), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
