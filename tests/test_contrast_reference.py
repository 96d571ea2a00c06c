"""The contrast path against its plain reference algorithms.

``relative_luminance`` and ``contrast_ratio`` are the WCAG 2 formulas,
``rescale_for_contrast`` is a cached search through ``contrast_ratio``, and
``check_color_contrast`` inherits and caches style facts. The references
below are written out directly: luminance by ``_linearize``, the search on
``RgbColor`` objects with the outward step loop it once had, and the
per-element walk that parses every style. Each must give the same bits.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from accessfix import colors, dom, rules
from accessfix.colors import (
    RgbColor,
    _linearize,
    composite_over,
    parse_color,
    relative_luminance,
)
from accessfix.providers import rescale_for_contrast

GEN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


# --- references -------------------------------------------------------------


def reference_luminance(c):
    return (
        0.2126 * _linearize(c.r)
        + 0.7152 * _linearize(c.g)
        + 0.0722 * _linearize(c.b)
    )


def reference_contrast_ratio(fg, bg):
    if fg.alpha < 1.0:
        fg = composite_over(fg, bg)
    l1 = reference_luminance(fg)
    l2 = reference_luminance(bg)
    lighter, darker = max(l1, l2), min(l1, l2)
    return (lighter + 0.05) / (darker + 0.05)


def reference_scaled(color, t, toward_white):
    if toward_white:
        return RgbColor(
            round(color.r + (255 - color.r) * t),
            round(color.g + (255 - color.g) * t),
            round(color.b + (255 - color.b) * t),
        )
    return RgbColor(
        round(color.r * (1 - t)), round(color.g * (1 - t)), round(color.b * (1 - t))
    )


def reference_rescale(fg, bg, threshold):
    target = threshold + 0.05
    bg_lum = reference_luminance(bg)
    toward_white = (1.05 / (bg_lum + 0.05)) > ((bg_lum + 0.05) / 0.05)
    lo, hi = 0.0, 1.0
    for _ in range(20):
        mid = (lo + hi) / 2
        if reference_contrast_ratio(reference_scaled(fg, mid, toward_white),
                                    bg) >= target:
            hi = mid
        else:
            lo = mid
    candidate = reference_scaled(fg, hi, toward_white)
    while reference_contrast_ratio(candidate, bg) < target and hi < 1.0:
        hi = min(hi + 0.02, 1.0)
        candidate = reference_scaled(fg, hi, toward_white)
    return candidate


def reference_check_color_contrast(ix):
    """Every element parses its own style; nothing is inherited unparsed."""
    thresholds = ix.thresholds
    findings = []
    state = [None] * len(ix.elements)
    state[0] = (None, None, 16.0, False)
    for i in ix.rendered_body:
        el = ix.elements[i]
        fg, bg, size, bold = state[ix.parent[i]]
        decls = rules._parse_style(el.attrs.get("style", ""))
        if "color" in decls:
            c = parse_color(decls["color"])
            if c is not None:
                fg = c
        elif el.tag == "font" and el.attrs.get("color"):
            c = parse_color(el.attrs.get("color"))
            if c is not None:
                fg = c
        bg_value = decls.get("background-color") or decls.get("background")
        if bg_value:
            c = rules._first_color_token(bg_value)
            if c is not None:
                bg = c
        elif el.attrs.get("bgcolor"):
            c = parse_color(el.attrs.get("bgcolor"))
            if c is not None:
                bg = c
        m = rules._FONT_SIZE_RE.match(decls.get("font-size", ""))
        if m:
            try:
                size = float(m.group(1))
            except ValueError:
                pass
        weight = decls.get("font-weight", "").lower()
        try:
            if weight in ("bold", "bolder") or (
                    weight.isdigit() and int(weight) >= 600):
                bold = True
        except ValueError:
            pass
        if el.tag in ("b", "strong"):
            bold = True
        state[i] = (fg, bg, size, bold)

        if ix.has_text[i] and (fg is not None or bg is not None):
            effective_fg = fg if fg is not None else RgbColor(0, 0, 0)
            effective_bg = bg if bg is not None else RgbColor(255, 255, 255)
            large = size >= thresholds["large_font_px"] or (
                size >= thresholds["large_bold_font_px"] and bold
            )
            required = (
                thresholds["contrast_large"] if large
                else thresholds["contrast_normal"]
            )
            ratio = reference_contrast_ratio(effective_fg, effective_bg)
            if ratio < required - 1e-9:
                if effective_fg.alpha < 1.0:
                    effective_fg = composite_over(effective_fg, effective_bg)
                findings.append((
                    i,
                    f"The text color {effective_fg.to_hex()} on background "
                    f"{effective_bg.to_hex()} has a contrast ratio of "
                    f"{ratio:.2f}; at least {required:.2f}:1 is required.",
                    {"fg": effective_fg, "bg": effective_bg,
                     "required": required},
                ))
    return findings


# --- luminance ----------------------------------------------------------------


def test_luminance_is_bit_identical_to_linearize():
    rng = random.Random(1401)
    for _ in range(5000):
        c = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        assert relative_luminance(c) == reference_luminance(c)


@pytest.mark.parametrize("color", [
    RgbColor(12.5, 0, 0),
    RgbColor(0, 200.25, 7),
    RgbColor(254.9, 0.1, 128.0),
    RgbColor(True, 3, 4),
])
def test_non_integer_channels_are_linearized(color):
    assert relative_luminance(color) == reference_luminance(color)


def test_contrast_ratio_is_bit_identical_to_reference():
    rng = random.Random(1402)
    for _ in range(5000):
        fg = RgbColor(rng.randrange(256), rng.randrange(256),
                      rng.randrange(256), rng.choice([1.0, rng.random()]))
        bg = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        assert colors.contrast_ratio(fg, bg) == reference_contrast_ratio(fg, bg)


# --- the contrast fix's search ----------------------------------------------------


def random_triples(seed, count):
    rng = random.Random(seed)
    fixed = (3.0, 4.5, 7.0)
    for k in range(count):
        fg = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        bg = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        threshold = fixed[k % 4] if k % 4 < 3 else rng.uniform(1.0, 21.0)
        yield fg, bg, threshold


def test_rescale_matches_the_object_search_on_seeded_triples():
    checked = 0
    for fg, bg, threshold in random_triples(1403, 6000):
        got = rescale_for_contrast(fg, bg, threshold)
        assert got == reference_rescale(fg, bg, threshold), (fg, bg, threshold)
        assert type(got.r) is type(got.g) is type(got.b) is int
        checked += 1
    assert checked == 6000


@pytest.mark.parametrize("fg, bg, threshold", [
    (RgbColor(12.5, 100.5, 3), RgbColor(255, 255, 255), 4.5),
    (RgbColor(119, 119, 119, 0.4), RgbColor(0, 0, 0), 7.0),
    (RgbColor(0, 0, 0), RgbColor(0, 0, 0), 21.0),
    (RgbColor(255, 255, 255), RgbColor(255, 255, 255), 4.5),
    (RgbColor(119, 119, 119), RgbColor(128, 128, 128), 25.0),
])
def test_rescale_matches_the_object_search_on_edge_cases(fg, bg, threshold):
    assert rescale_for_contrast(fg, bg, threshold) == \
        reference_rescale(fg, bg, threshold)


def count_calls(monkeypatch, original):
    """Replace ``original`` in every accessfix module that binds it with a
    counting wrapper; returns the list the wrapper appends to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "accessfix" or name.startswith("accessfix."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


# --- the audit check ----------------------------------------------------------


COLORS = ["#777", "#777777", "#fff", "#000", "white", "gray", "navy",
          "rgb(119, 119, 119)", "rgba(0, 0, 0, 0.3)", "rgba(255,0,0,.5)",
          "rgb(10,20,30", "#zzz", "transparent", "", "rgb(1e999,0,0)"]
BACKGROUNDS = COLORS + ["url(x.png) #eee no-repeat", "none", "url(a) white",
                        "#222 url(y.png)"]
SIZES = ["24px", "18.5px", "14px", "19px", "1.2.3px", ".px", "2em", "px",
         "18.66px", "100px"]
WEIGHTS = ["bold", "BOLDER", "700", "600", "599", "400", "normal",
           "²", "9" * 5000, "٣٠٠"]
PROPERTIES = {
    "color": COLORS,
    "background-color": BACKGROUNDS,
    "background": BACKGROUNDS,
    "font-size": SIZES,
    "font-weight": WEIGHTS,
}


def random_style(rng):
    decls = []
    for _ in range(rng.randrange(1, 4)):
        prop = rng.choice(list(PROPERTIES))
        name = prop.upper() if rng.random() < 0.1 else prop
        decls.append(f"{name}: {rng.choice(PROPERTIES[prop])}")
    if rng.random() < 0.1:
        decls.append("garbage")
    return "; ".join(decls)


def random_soup(rng):
    """A nested page of styled elements drawn from small pools, so that
    style values repeat within a page."""
    styles = [random_style(rng) for _ in range(rng.randrange(1, 6))]
    out = []

    def element(depth):
        tag = rng.choice(["div", "p", "span", "font", "b", "strong", "em",
                          "section", "td", "script", "style"])
        attrs = ""
        if rng.random() < 0.45:
            attrs += f' style="{rng.choice(styles)}"'
        elif rng.random() < 0.1:
            attrs += ' style=""'
        if rng.random() < 0.15:
            attrs += f' bgcolor="{rng.choice(COLORS)}"'
        if tag == "font" and rng.random() < 0.7:
            attrs += f' color="{rng.choice(COLORS)}"'
        out.append(f"<{tag}{attrs}>")
        for _ in range(rng.randrange(0, 4) if depth < 5 else 0):
            if rng.random() < 0.4:
                out.append(rng.choice(["text", " ", "more words", ""]))
            else:
                element(depth + 1)
        if rng.random() < 0.5:
            out.append("tail")
        out.append(f"</{tag}>")

    body_style = f' style="{rng.choice(styles)}"' if rng.random() < 0.3 else ""
    out.append(f'<html lang="en"><body{body_style}><main>')
    for _ in range(rng.randrange(1, 5)):
        element(0)
    out.append("</main></body></html>")
    return "".join(out)


def findings_of(ix):
    return [(f.index, f.help, f.data) for f in rules.check_color_contrast(ix)]


def test_check_matches_the_per_element_walk_on_style_soups():
    rng = random.Random(1405)
    alternate = dict(rules.DEFAULT_THRESHOLDS, large_font_px=19.0,
                     contrast_normal=7.0)
    found = 0
    for n in range(1500):
        doc = dom.parse_html(random_soup(rng))
        thresholds = rules.DEFAULT_THRESHOLDS if n % 2 else alternate
        ix = rules._Index.build(doc, dict(thresholds))
        expected = reference_check_color_contrast(ix)
        assert findings_of(ix) == expected, n
        found += len(expected)
    assert found > 1500  # the soups do exercise the failing branch


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PY)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return gen


def test_each_style_value_is_parsed_once_per_audit(monkeypatch):
    page = load_gen().wide_page("w.html", 30)
    doc = dom.parse_html(page.html)
    styles = [el.attrs["style"] for el in dom.preorder(doc.root).elements
              if el.attrs.get("style")]
    assert len(styles) == 30 and len(set(styles)) == 1
    calls = count_calls(monkeypatch, rules._parse_style)
    for audits in (1, 2):
        violations = rules.audit(doc)
        assert len(calls) == audits * len(set(styles))
    assert sum(v.rule_id == "color-contrast" for v in violations) == 30



def test_each_distinct_state_is_judged_once_per_audit(monkeypatch):
    doc = dom.parse_html(load_gen().wide_page("w.html", 30).html)
    calls = count_calls(monkeypatch, colors.contrast_ratio)
    rules.audit(doc, ("color-contrast",))
    # Every <p> has the same colours, size and weight.
    assert len(calls) == 1
