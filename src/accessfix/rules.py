"""Accessibility rule catalog and the audit that applies it.

Each checker is a simplified, statically-evaluated approximation of the
corresponding well-known WCAG rule: no CSS cascade (inline styles and
presentational attributes only), no scripted state, and implicit landmark
roles applied regardless of nesting context. Each checker's docstring notes
its delta from the full rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .colors import RgbColor, composite_over, contrast_ratio, parse_color
from .dom import (
    DomDocument,
    Element,
    NodeLocator,
    Text,
    iter_elements,
    make_locator,
    serialize_node,
)
from .errors import UnknownRuleError

IMPACT_LEVELS = ("cosmetic", "minor", "moderate", "serious", "critical")

DEFAULT_WEIGHTS = {
    "cosmetic": 1,
    "minor": 2,
    "moderate": 3,
    "serious": 4,
    "critical": 5,
}

DEFAULT_IMPACTS = {
    "image-alt": "critical",
    "link-name": "serious",
    "label": "critical",
    "html-has-lang": "serious",
    "duplicate-id": "minor",
    "heading-order": "moderate",
    "empty-heading": "minor",
    "region": "moderate",
    "landmark-one-main": "moderate",
    "landmark-unique": "moderate",
    "landmark-no-duplicate-content": "moderate",
    "skip-link": "moderate",
    "aria-required-attr": "critical",
    "meta-viewport": "critical",
    "color-contrast": "serious",
}

RULE_DESCRIPTIONS = {
    "image-alt": "Images must have alternate text so screen readers can describe them.",
    "link-name": "Links must have discernible text so their purpose is clear.",
    "label": "Form fields must have labels so users know what to enter.",
    "html-has-lang": "The html element must declare a language so screen readers pronounce content correctly.",
    "duplicate-id": "Element ids must be unique so references resolve unambiguously.",
    "heading-order": "Heading levels should increase by at most one so the outline stays navigable.",
    "empty-heading": "Headings must have text so the document outline is meaningful.",
    "region": "All page content should be contained by landmarks so it is reachable by navigation.",
    "landmark-one-main": "The document should have exactly one main landmark.",
    "landmark-unique": "Landmarks of the same role must be distinguishable by accessible name.",
    "landmark-no-duplicate-content": "Banner and contentinfo landmarks must not be nested inside another landmark.",
    "skip-link": "A skip link must point at an existing target so keyboard users can bypass repeated content.",
    "aria-required-attr": "Elements with ARIA roles must carry the role's required states and properties.",
    "meta-viewport": "The viewport meta tag must not disable zooming.",
    "color-contrast": "Text must have sufficient contrast against its background.",
}

RULE_HELP = {
    "image-alt": "Add a non-empty alt attribute, or alt=\"\" with role=\"presentation\" for decorative images.",
    "link-name": "Add text content or an aria-label to the link.",
    "label": "Associate a label element with the field or add an aria-label.",
    "html-has-lang": "Add a lang attribute such as lang=\"en\" to the html element.",
    "duplicate-id": "Rename the duplicate id so every id is unique.",
    "heading-order": "Lower the heading level so levels increase by at most one.",
    "empty-heading": "Add text content to the heading or remove it.",
    "region": "Wrap this content in a landmark such as main or a labeled section.",
    "landmark-one-main": "Keep exactly one main landmark.",
    "landmark-unique": "Add a distinguishing aria-label to this landmark.",
    "landmark-no-duplicate-content": "Move this landmark out of its containing landmark.",
    "skip-link": "Point the skip link at an existing id.",
    "aria-required-attr": "Add the missing required ARIA attributes.",
    "meta-viewport": "Remove user-scalable=no and allow a maximum-scale of at least 2.",
    "color-contrast": "Adjust the text color to meet the contrast threshold.",
}

LANDMARK_ROLES = {
    "main", "navigation", "banner", "contentinfo",
    "complementary", "region", "form", "search",
}
_NAME_REQUIRED_ROLES = {"region", "form"}
_IMPLICIT_LANDMARK_TAGS = {
    "main": "main",
    "nav": "navigation",
    "header": "banner",
    "footer": "contentinfo",
    "aside": "complementary",
}

ARIA_REQUIRED_ATTRS = {
    "checkbox": ("aria-checked",),
    "slider": ("aria-valuenow",),
    "combobox": ("aria-expanded",),
    "heading": ("aria-level",),
    "scrollbar": ("aria-controls", "aria-valuenow"),
}

_UNLABELED_INPUT_TYPES_EXEMPT = {"hidden", "submit", "button", "reset", "image"}

DEFAULT_THRESHOLDS = {
    "contrast_normal": 4.5,
    "contrast_large": 3.0,
    "large_font_px": 24.0,
    "large_bold_font_px": 18.66,
}


@dataclass
class Violation:
    rule_id: str
    impact: str
    description: str
    help: str
    html_snippet: str
    locator: NodeLocator
    web_url: str
    data: dict = field(default_factory=dict)  # fix parameters, per rule


@dataclass
class _Finding:
    path: tuple
    element: Element
    help: Optional[str] = None
    data: dict = field(default_factory=dict)


def _text_of(el: Element) -> str:
    if el.tag in ("script", "style"):
        return ""
    parts = []
    for child in el.children:
        if isinstance(child, Text):
            parts.append(child.data)
        elif isinstance(child, Element):
            parts.append(_text_of(child))
    return "".join(parts)


def _collect_ids(doc: DomDocument) -> dict:
    """First element per id value, in document order."""
    ids = {}
    for _, el in iter_elements(doc):
        value = el.get("id")
        if value and value not in ids:
            ids[value] = el
    return ids


def _accessible_name(el: Element, ids: dict) -> str:
    label = el.get("aria-label")
    if label and label.strip():
        return label.strip()
    labelledby = el.get("aria-labelledby")
    if labelledby:
        texts = []
        for ref in labelledby.split():
            target = ids.get(ref)
            if target is not None:
                texts.append(" ".join(_text_of(target).split()))
        joined = " ".join(t for t in texts if t)
        if joined:
            return joined
    title = el.get("title")
    if title and title.strip():
        return title.strip()
    return ""


def _landmark_role(el: Element, ids: dict) -> Optional[str]:
    role = (el.get("role") or "").split()
    if role:
        role = role[0].lower()
        if role in LANDMARK_ROLES:
            if role in _NAME_REQUIRED_ROLES and not _accessible_name(el, ids):
                return None
            return role
        return None
    implicit = _IMPLICIT_LANDMARK_TAGS.get(el.tag)
    if implicit:
        return implicit
    if el.tag in ("section", "form"):
        if _accessible_name(el, ids):
            return "region" if el.tag == "section" else "form"
    return None


def _is_landmark(el: Element, ids: dict) -> bool:
    return _landmark_role(el, ids) is not None


def _find_body(doc: DomDocument) -> Optional[Element]:
    for child in doc.root.children:
        if isinstance(child, Element) and child.tag == "body":
            return child
    return None


# --- checkers -------------------------------------------------------------


def check_image_alt(doc, ctx):
    """Full rule also accepts aria-label; we require alt or presentation role."""
    findings = []
    for path, el in iter_elements(doc):
        if el.tag != "img":
            continue
        alt = el.get("alt")
        if alt is not None and alt.strip():
            continue
        if alt == "" and (el.get("role") or "").lower() in ("presentation", "none"):
            continue
        findings.append(_Finding(path, el))
    return findings


def check_link_name(doc, ctx):
    findings = []
    for path, el in iter_elements(doc):
        if el.tag != "a" or el.get("href") is None:
            continue
        if _text_of(el).strip():
            continue
        if _accessible_name(el, ctx["ids"]):
            continue
        has_described_img = any(
            sub.tag == "img" and (sub.get("alt") or "").strip()
            for _, sub in _subelements(el)
        )
        if has_described_img:
            continue
        findings.append(_Finding(path, el))
    return findings


def _subelements(el: Element):
    for i, child in enumerate(el.children):
        if isinstance(child, Element):
            yield (i,), child
            for sub_path, sub in _subelements(child):
                yield (i,) + sub_path, sub


def check_label(doc, ctx):
    """Simplified: title/aria-label/label[for]/wrapping label all count."""
    label_for = set()
    for _, el in iter_elements(doc):
        if el.tag == "label" and el.get("for"):
            label_for.add(el.get("for"))
    findings = []
    for path, el in iter_elements(doc):
        if el.tag == "input":
            input_type = (el.get("type") or "text").lower()
            if input_type in _UNLABELED_INPUT_TYPES_EXEMPT:
                continue
        elif el.tag not in ("select", "textarea"):
            continue
        if _accessible_name(el, ctx["ids"]):
            continue
        if el.get("id") and el.get("id") in label_for:
            continue
        if any(anc.tag == "label" for anc in ctx["ancestors"][id(el)]):
            continue
        findings.append(_Finding(path, el))
    return findings


def check_html_has_lang(doc, ctx):
    lang = doc.root.get("lang")
    if lang and lang.strip():
        return []
    return [_Finding((), doc.root)]


def check_duplicate_id(doc, ctx):
    seen = {}
    all_ids = set()
    ordered = []
    for path, el in iter_elements(doc):
        value = el.get("id")
        if not value:
            continue
        all_ids.add(value)
        ordered.append((path, el, value))
    findings = []
    suggested = set()
    for path, el, value in ordered:
        if value not in seen:
            seen[value] = el
            continue
        n = 2
        while f"{value}-{n}" in all_ids or f"{value}-{n}" in suggested:
            n += 1
        candidate = f"{value}-{n}"
        suggested.add(candidate)
        findings.append(_Finding(
            path, el,
            f'Multiple elements share the id "{value}"; '
            f'rename this one to "{candidate}".',
            {"rename_to": candidate},
        ))
    return findings


def _heading_level(el: Element) -> Optional[int]:
    if len(el.tag) == 2 and el.tag[0] == "h" and el.tag[1] in "123456":
        return int(el.tag[1])
    if (el.get("role") or "").lower() == "heading":
        try:
            return int(el.get("aria-level") or 2)
        except ValueError:
            return 2
    return None


def check_heading_order(doc, ctx):
    findings = []
    previous = None
    for path, el in iter_elements(doc):
        level = _heading_level(el)
        if level is None:
            continue
        if previous is not None and level > previous + 1:
            findings.append(_Finding(
                path, el,
                f"Heading levels should increase by one; "
                f"the previous heading level was h{previous}.",
                {"previous_level": previous},
            ))
        previous = level
    return findings


def check_empty_heading(doc, ctx):
    findings = []
    for path, el in iter_elements(doc):
        if _heading_level(el) is None:
            continue
        if _text_of(el).strip() or _accessible_name(el, ctx["ids"]):
            continue
        if any(
            sub.tag == "img" and (sub.get("alt") or "").strip()
            for _, sub in _subelements(el)
        ):
            continue
        findings.append(_Finding(path, el))
    return findings


def check_region(doc, ctx):
    """Flags parents of text outside landmarks; contiguous flagged siblings
    collapse to one finding on their shared parent."""
    body = _find_body(doc)
    if body is None:
        return []
    ids = ctx["ids"]
    has_main = any(
        el.tag == "main" or (el.get("role") or "").lower() == "main"
        for _, el in iter_elements(doc)
    )
    wrap_in = "section" if has_main else "main"
    hint = (
        "Wrap this content in a labeled section landmark."
        if has_main
        else "Wrap this content in a main landmark."
    )

    flagged = {}  # id(element) -> (path, element), insertion ordered

    def walk(el, path, in_landmark):
        if el.tag in ("script", "style"):
            return
        in_landmark = in_landmark or _is_landmark(el, ids)
        for i, child in enumerate(el.children):
            if isinstance(child, Text):
                if child.data.strip() and not in_landmark:
                    flagged.setdefault(id(el), (path, el))
            elif isinstance(child, Element):
                walk(child, path + (i,), in_landmark)

    body_path = ctx["paths"][id(body)]
    walk(body, body_path, _is_landmark(body, ids))

    # Collapse contiguous flagged siblings onto their parent.
    by_parent = {}
    for path, el in flagged.values():
        by_parent.setdefault(path[:-1], []).append((path, el))
    findings = []
    for parent_path, group in sorted(by_parent.items()):
        group.sort(key=lambda item: item[0])
        runs = []
        current = [group[0]]
        for item in group[1:]:
            prev_idx = current[-1][0][-1]
            parent = ctx["nodes_at"][parent_path]
            between = parent.children[prev_idx + 1 : item[0][-1]]
            contiguous = all(
                isinstance(n, Text) and not n.data.strip()
                or not isinstance(n, (Element, Text))
                for n in between
            )
            if contiguous:
                current.append(item)
            else:
                runs.append(current)
                current = [item]
        runs.append(current)
        for run in runs:
            if len(run) > 1:
                path, el = parent_path, ctx["nodes_at"][parent_path]
            else:
                path, el = run[0]
            findings.append(_Finding(path, el, hint, {"wrap_in": wrap_in}))
    findings.sort(key=lambda f: f.path)
    return findings


def _mains(doc):
    return [
        (path, el)
        for path, el in iter_elements(doc)
        if el.tag == "main" or (el.get("role") or "").lower() == "main"
    ]


def check_landmark_one_main(doc, ctx):
    mains = _mains(doc)
    if not mains:
        return [_Finding(
            (), doc.root, "Add a main landmark around the page content."
        )]
    return [
        _Finding(path, el,
                 "Convert this extra main landmark into a labeled section.")
        for path, el in mains[1:]
    ]


def check_landmark_unique(doc, ctx):
    seen = set()
    findings = []
    for path, el in iter_elements(doc):
        role = _landmark_role(el, ctx["ids"])
        if role is None:
            continue
        key = (role, _accessible_name(el, ctx["ids"]))
        if key in seen:
            findings.append(_Finding(path, el))
        else:
            seen.add(key)
    return findings


def check_landmark_no_duplicate_content(doc, ctx):
    """Simplified: header/footer map to banner/contentinfo regardless of depth."""
    findings = []
    for path, el in iter_elements(doc):
        role = _landmark_role(el, ctx["ids"])
        if role not in ("banner", "contentinfo"):
            continue
        if any(_is_landmark(anc, ctx["ids"]) for anc in ctx["ancestors"][id(el)]):
            findings.append(_Finding(path, el))
    return findings


def check_skip_link(doc, ctx):
    first_link = None
    for path, el in iter_elements(doc):
        if el.tag == "a" and el.get("href") is not None:
            first_link = (path, el)
            break
    if first_link is None:
        return []
    path, el = first_link
    href = el.get("href") or ""
    if not href.startswith("#") or len(href) < 2:
        return []
    if href[1:] in ctx["ids"]:
        return []
    existing = next(iter(ctx["ids"]), None)
    if existing:
        return [_Finding(
            path, el,
            f"The skip link target does not exist; point it at an existing id "
            f'such as "{existing}".',
            {"target": existing},
        )]
    return [_Finding(
        path, el,
        "The skip link target does not exist; add the target anchor id.",
    )]


def check_aria_required_attr(doc, ctx):
    findings = []
    for path, el in iter_elements(doc):
        role = (el.get("role") or "").lower()
        required = ARIA_REQUIRED_ATTRS.get(role)
        if not required:
            continue
        missing = [a for a in required if not (el.get(a) or "").strip()]
        if missing:
            findings.append(_Finding(
                path, el,
                f'The role "{role}" requires the attributes: '
                + ", ".join(missing) + ".",
            ))
    return findings


def _parse_viewport_content(content: str) -> dict:
    pairs = {}
    for chunk in re.split(r"[,;]", content):
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            pairs[key.strip().lower()] = value.strip().lower()
    return pairs


def check_meta_viewport(doc, ctx):
    findings = []
    for path, el in iter_elements(doc):
        if el.tag != "meta" or (el.get("name") or "").lower() != "viewport":
            continue
        pairs = _parse_viewport_content(el.get("content") or "")
        bad = pairs.get("user-scalable") in ("no", "0")
        max_scale = pairs.get("maximum-scale")
        if max_scale is not None:
            try:
                bad = bad or float(max_scale) < 2
            except ValueError:
                pass
        if bad:
            findings.append(_Finding(path, el))
    return findings


def _parse_style(style: str) -> dict:
    decls = {}
    for chunk in (style or "").split(";"):
        if ":" in chunk:
            prop, _, value = chunk.partition(":")
            decls[prop.strip().lower()] = value.strip()
    return decls


def _first_color_token(value: str):
    for token in value.split():
        color = parse_color(token)
        if color is not None:
            return color
    return parse_color(value)


_FONT_SIZE_RE = re.compile(r"^([\d.]+)px$")


def check_color_contrast(doc, ctx):
    """Static resolution only: inline style, color=/bgcolor= attributes, and
    inheritance through the tree. Elements with no explicit color anywhere in
    their ancestor chain are skipped rather than assumed black-on-white."""
    body = _find_body(doc)
    if body is None:
        return []
    thresholds = ctx["thresholds"]
    findings = []

    def walk(el, path, fg, bg, size, bold):
        if el.tag in ("script", "style"):
            return
        decls = _parse_style(el.get("style") or "")
        if "color" in decls:
            c = parse_color(decls["color"])
            if c is not None:
                fg = c
        elif el.tag == "font" and el.get("color"):
            c = parse_color(el.get("color"))
            if c is not None:
                fg = c
        bg_value = decls.get("background-color") or decls.get("background")
        if bg_value:
            c = _first_color_token(bg_value)
            if c is not None:
                bg = c
        elif el.get("bgcolor"):
            c = parse_color(el.get("bgcolor"))
            if c is not None:
                bg = c
        m = _FONT_SIZE_RE.match(decls.get("font-size", ""))
        if m:
            size = float(m.group(1))
        weight = decls.get("font-weight", "").lower()
        if weight in ("bold", "bolder") or weight.isdigit() and int(weight) >= 600:
            bold = True
        if el.tag in ("b", "strong"):
            bold = True

        has_direct_text = any(
            isinstance(c, Text) and c.data.strip() for c in el.children
        )
        if has_direct_text and (fg is not None or bg is not None):
            effective_fg = fg if fg is not None else RgbColor(0, 0, 0)
            effective_bg = bg if bg is not None else RgbColor(255, 255, 255)
            large = size >= thresholds["large_font_px"] or (
                size >= thresholds["large_bold_font_px"] and bold
            )
            required = (
                thresholds["contrast_large"] if large
                else thresholds["contrast_normal"]
            )
            ratio = contrast_ratio(effective_fg, effective_bg)
            if ratio < required - 1e-9:
                if effective_fg.alpha < 1.0:
                    effective_fg = composite_over(effective_fg, effective_bg)
                findings.append(_Finding(
                    path, el,
                    f"The text color {effective_fg.to_hex()} on background "
                    f"{effective_bg.to_hex()} has a contrast ratio of "
                    f"{ratio:.2f}; at least {required:.2f}:1 is required.",
                    {"fg": effective_fg, "bg": effective_bg,
                     "required": required},
                ))
        for i, child in enumerate(el.children):
            if isinstance(child, Element):
                walk(child, path + (i,), fg, bg, size, bold)

    walk(body, ctx["paths"][id(body)], None, None, 16.0, False)
    return findings


RULE_CATALOG = {
    "image-alt": check_image_alt,
    "link-name": check_link_name,
    "label": check_label,
    "html-has-lang": check_html_has_lang,
    "duplicate-id": check_duplicate_id,
    "heading-order": check_heading_order,
    "empty-heading": check_empty_heading,
    "region": check_region,
    "landmark-one-main": check_landmark_one_main,
    "landmark-unique": check_landmark_unique,
    "landmark-no-duplicate-content": check_landmark_no_duplicate_content,
    "skip-link": check_skip_link,
    "aria-required-attr": check_aria_required_attr,
    "meta-viewport": check_meta_viewport,
    "color-contrast": check_color_contrast,
}

ALL_RULES = tuple(RULE_CATALOG)


def _build_context(doc: DomDocument, thresholds: dict) -> dict:
    paths = {}
    nodes_at = {}
    ancestors = {}

    def walk(el, path, chain):
        paths[id(el)] = path
        nodes_at[path] = el
        ancestors[id(el)] = chain
        for i, child in enumerate(el.children):
            if isinstance(child, Element):
                walk(child, path + (i,), chain + [el])

    walk(doc.root, (), [])
    return {
        "ids": _collect_ids(doc),
        "paths": paths,
        "nodes_at": nodes_at,
        "ancestors": ancestors,
        "thresholds": thresholds,
    }


def audit(
    doc: DomDocument,
    ruleset=None,
    web_url: str = "",
    impacts=None,
    thresholds=None,
) -> list:
    """Run the rule catalog over a document, returning violations in document
    order (ties broken by catalog order)."""
    if ruleset is None:
        ruleset = ALL_RULES
    if not ruleset:
        raise UnknownRuleError("ruleset must not be empty")
    for rule_id in ruleset:
        if rule_id not in RULE_CATALOG:
            raise UnknownRuleError(f"unknown rule id: {rule_id}")
    impact_map = dict(DEFAULT_IMPACTS)
    if impacts:
        impact_map.update(impacts)
    threshold_map = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        threshold_map.update(thresholds)

    ctx = _build_context(doc, threshold_map)
    collected = []
    for rule_index, rule_id in enumerate(ruleset):
        for finding in RULE_CATALOG[rule_id](doc, ctx):
            collected.append((finding.path, rule_index, rule_id, finding))
    collected.sort(key=lambda item: (item[0], item[1]))

    violations = []
    seen = set()
    for path, _, rule_id, finding in collected:
        locator = make_locator(doc, path)
        key = (rule_id, locator)
        if key in seen:
            continue
        seen.add(key)
        violations.append(Violation(
            rule_id=rule_id,
            impact=impact_map[rule_id],
            description=RULE_DESCRIPTIONS[rule_id],
            help=finding.help or RULE_HELP[rule_id],
            html_snippet=serialize_node(finding.element),
            locator=locator,
            web_url=web_url,
            data=finding.data,
        ))
    return violations
