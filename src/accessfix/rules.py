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
from functools import cached_property
from typing import Optional

from .colors import RgbColor, composite_over, contrast_ratio, parse_color
from .dom import (
    DomDocument,
    Element,
    NodeLocator,
    Text,
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
    index: int  # pre-order index of ``element`` in the document index
    element: Element
    help: Optional[str] = None
    data: dict = field(default_factory=dict)


def _text_of(el: Element) -> str:
    parts = []
    stack = [el]
    while stack:
        node = stack.pop()
        if isinstance(node, Text):
            parts.append(node.data)
        elif isinstance(node, Element) and node.tag not in ("script", "style"):
            stack.extend(reversed(node.children))
    return "".join(parts)


def _accessible_name(el: Element, ids: dict) -> str:
    label = el.attrs.get("aria-label")
    if label and label.strip():
        return label.strip()
    labelledby = el.attrs.get("aria-labelledby")
    if labelledby:
        texts = []
        for ref in labelledby.split():
            target = ids.get(ref)
            if target is not None:
                texts.append(" ".join(_text_of(target).split()))
        joined = " ".join(t for t in texts if t)
        if joined:
            return joined
    title = el.attrs.get("title")
    if title and title.strip():
        return title.strip()
    return ""


def _landmark_role(el: Element, role: str, ids: dict) -> Optional[str]:
    if role:
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


class _Names:
    """Fresh names for one audit: ``stem + n``, with ``n`` the smallest from 2
    up that neither ``taken`` (the page's names) nor an earlier call holds.
    The next ``n`` is kept per stem, so k names from one stem cost O(k)."""

    def __init__(self, taken):
        self.taken = taken
        self.next = {}

    def __call__(self, stem: str) -> str:
        n = self.next.get(stem, 2)
        while f"{stem}{n}" in self.taken:
            n += 1
        self.next[stem] = n + 1
        return f"{stem}{n}"


@dataclass
class _Index:
    """One pre-order pass over the document, read by every checker.

    Element 0 is the root. Element ``i``'s subtree is
    ``elements[i + 1:end[i]]``, so a forward loop over that range visits every
    element after its parent. An explicit role is the first token of
    ``role``, lowercased, or ""; the full rule takes the first token the user
    agent recognises.
    """

    elements: list
    parent: list  # index of each element's parent, -1 for the root
    slot: list  # index of each element among its parent's children
    end: list  # one past each element's last descendant
    role: list  # explicit role of each element
    has_text: list  # a child text node is non-blank
    text: list  # the subtree holds non-blank text outside script and style
    described_img: list  # an <img> with a non-blank alt lies below
    ids: dict  # id value -> first element carrying it
    landmark: list  # _landmark_role of each element
    thresholds: dict

    @classmethod
    def build(cls, doc: DomDocument, thresholds: dict) -> "_Index":
        elements, parent, slot, role, has_text, ids = [], [], [], [], [], {}
        stack = [(doc.root, -1, 0)]
        while stack:
            el, up, at = stack.pop()
            here = len(elements)
            elements.append(el)
            parent.append(up)
            slot.append(at)
            words = el.attrs.get("role", "").split()
            role.append(words[0].lower() if words else "")
            value = el.attrs.get("id")
            if value and value not in ids:
                ids[value] = el
            nonblank = False
            for k in range(len(el.children) - 1, -1, -1):
                child = el.children[k]
                if isinstance(child, Element):
                    stack.append((child, here, k))
                elif not nonblank and isinstance(child, Text):
                    nonblank = bool(child.data.strip())
            has_text.append(nonblank)
        end = list(range(1, len(elements) + 1))
        shown = [el.tag not in ("script", "style") for el in elements]
        text = [t and s for t, s in zip(has_text, shown)]
        img = [False] * len(elements)
        for i in range(len(elements) - 1, 0, -1):
            up, el = parent[i], elements[i]
            end[up] = max(end[up], end[i])
            if text[i] and shown[up]:
                text[up] = True
            if img[i] or el.tag == "img" and el.attrs.get("alt", "").strip():
                img[up] = True
        landmark = [_landmark_role(el, r, ids) for el, r in zip(elements, role)]
        return cls(elements, parent, slot, end, role, has_text, text, img,
                   ids, landmark, thresholds)

    @cached_property
    def mains(self) -> list:
        """Indices of the main landmarks: ``<main>`` or role "main"."""
        return [i for i, el in enumerate(self.elements)
                if el.tag == "main" or self.role[i] == "main"]

    @cached_property
    def new_id(self) -> _Names:
        """Ids that the page does not use yet."""
        return _Names(self.ids)

    @cached_property
    def new_label(self) -> _Names:
        """Labels that no landmark on the page is named yet."""
        return _Names({_accessible_name(el, self.ids)
                       for el, role in zip(self.elements, self.landmark)
                       if role is not None})

    def path(self, i: int) -> tuple:
        steps = []
        while i > 0:
            steps.append(self.slot[i])
            i = self.parent[i]
        return tuple(reversed(steps))

    def ancestors(self, i: int):
        i = self.parent[i]
        while i >= 0:
            yield i
            i = self.parent[i]

    def rendered_body(self):
        """Indices of the elements of the root's first body child, skipping
        script and style subtrees, in document order."""
        body = next((i for i, up in enumerate(self.parent)
                     if up == 0 and self.elements[i].tag == "body"), None)
        if body is None:
            return
        i = body
        while i < self.end[body]:
            if self.elements[i].tag in ("script", "style"):
                i = self.end[i]
            else:
                yield i
                i += 1


# --- checkers -------------------------------------------------------------


def check_image_alt(ix):
    """Full rule also accepts aria-label; we require alt or presentation role."""
    findings = []
    for i, el in enumerate(ix.elements):
        if el.tag != "img":
            continue
        alt = el.attrs.get("alt")
        if alt is not None and alt.strip():
            continue
        if alt == "" and ix.role[i] in ("presentation", "none"):
            continue
        findings.append(_Finding(i, el))
    return findings


def check_link_name(ix):
    findings = []
    for i, el in enumerate(ix.elements):
        if el.tag != "a" or el.attrs.get("href") is None:
            continue
        if ix.text[i] or ix.described_img[i] or _accessible_name(el, ix.ids):
            continue
        findings.append(_Finding(i, el))
    return findings


def check_label(ix):
    """Simplified: title/aria-label/label[for]/wrapping label all count."""
    label_for = set()
    for el in ix.elements:
        if el.tag == "label" and el.attrs.get("for"):
            label_for.add(el.attrs.get("for"))
    findings = []
    for i, el in enumerate(ix.elements):
        if el.tag == "input":
            input_type = (el.attrs.get("type") or "text").lower()
            if input_type in _UNLABELED_INPUT_TYPES_EXEMPT:
                continue
        elif el.tag not in ("select", "textarea"):
            continue
        if _accessible_name(el, ix.ids):
            continue
        if el.attrs.get("id") and el.attrs.get("id") in label_for:
            continue
        if any(ix.elements[a].tag == "label" for a in ix.ancestors(i)):
            continue
        findings.append(_Finding(i, el))
    return findings


def check_html_has_lang(ix):
    root = ix.elements[0]
    lang = root.attrs.get("lang")
    if lang and lang.strip():
        return []
    return [_Finding(0, root)]


def check_duplicate_id(ix):
    findings = []
    for i, el in enumerate(ix.elements):
        value = el.attrs.get("id")
        if not value or ix.ids[value] is el:
            continue
        candidate = ix.new_id(f"{value}-")
        findings.append(_Finding(
            i, el,
            f'Multiple elements share the id "{value}"; '
            f'rename this one to "{candidate}".',
            {"rename_to": candidate},
        ))
    return findings


def _heading_level(el: Element, role: str) -> Optional[int]:
    if len(el.tag) == 2 and el.tag[0] == "h" and el.tag[1] in "123456":
        return int(el.tag[1])
    if role == "heading":
        try:
            return int(el.attrs.get("aria-level") or 2)
        except ValueError:
            return 2
    return None


def check_heading_order(ix):
    findings = []
    previous = None
    for i, el in enumerate(ix.elements):
        level = _heading_level(el, ix.role[i])
        if level is None:
            continue
        if previous is not None and level > previous + 1:
            findings.append(_Finding(
                i, el,
                f"Heading levels should increase by one; "
                f"the previous heading level was h{previous}.",
                {"previous_level": previous},
            ))
        previous = level
    return findings


def check_empty_heading(ix):
    findings = []
    for i, el in enumerate(ix.elements):
        if _heading_level(el, ix.role[i]) is None:
            continue
        if ix.text[i] or ix.described_img[i] or _accessible_name(el, ix.ids):
            continue
        findings.append(_Finding(i, el))
    return findings


def check_region(ix):
    """Flags parents of text outside landmarks; contiguous flagged siblings
    collapse to one finding on their shared parent. On a page without a main
    landmark the first run is wrapped in one; every other run is wrapped in a
    labeled section."""
    # An element is covered when it or an ancestor is a landmark. The body's
    # parent is the root, never covered.
    covered = [False] * len(ix.elements)
    by_parent = {}  # parent index -> flagged children, in document order
    for i in ix.rendered_body():
        covered[i] = covered[ix.parent[i]] or ix.landmark[i] is not None
        if not covered[i] and ix.has_text[i]:
            by_parent.setdefault(ix.parent[i], []).append(i)

    # Collapse contiguous flagged siblings onto their parent. The first
    # parent's first run holds the first flagged element of the page.
    findings = []
    main_wanted = not ix.mains
    for up, group in by_parent.items():
        siblings = ix.elements[up].children
        runs = [[group[0]]]
        for i in group[1:]:
            between = siblings[ix.slot[runs[-1][-1]] + 1 : ix.slot[i]]
            contiguous = all(
                isinstance(n, Text) and not n.data.strip()
                or not isinstance(n, (Element, Text))
                for n in between
            )
            if contiguous:
                runs[-1].append(i)
            else:
                runs.append([i])
        for run in runs:
            at = up if len(run) > 1 else run[0]
            if main_wanted:
                main_wanted = False
                hint = "Wrap this content in a main landmark."
                data = {"wrap_in": "main"}
            else:
                label = ix.new_label("region-")
                hint = ("Wrap this content in a section landmark labeled "
                        f'"{label}".')
                data = {"wrap_in": "section", "label": label}
            findings.append(_Finding(at, ix.elements[at], hint, data))
    return findings


def check_landmark_one_main(ix):
    if not ix.mains:
        return [_Finding(
            0, ix.elements[0], "Add a main landmark around the page content."
        )]
    findings = []
    for i in ix.mains[1:]:
        label = ix.new_label("section-")
        findings.append(_Finding(
            i, ix.elements[i],
            f"Convert this extra main landmark into a section labeled "
            f'"{label}" unless it has a label.',
            {"label": label},
        ))
    return findings


def check_landmark_unique(ix):
    seen = set()
    findings = []
    for i, el in enumerate(ix.elements):
        role = ix.landmark[i]
        if role is None:
            continue
        name = _accessible_name(el, ix.ids)
        if (role, name) in seen:
            label = ix.new_label(f"{name or el.tag} ")
            findings.append(_Finding(
                i, el, f'Add the distinguishing aria-label "{label}" to this '
                "landmark.", {"label": label}))
        else:
            seen.add((role, name))
    return findings


def check_landmark_no_duplicate_content(ix):
    """Simplified: header/footer map to banner/contentinfo regardless of depth."""
    findings = []
    for i, el in enumerate(ix.elements):
        if ix.landmark[i] not in ("banner", "contentinfo"):
            continue
        if any(ix.landmark[a] is not None for a in ix.ancestors(i)):
            findings.append(_Finding(i, el))
    return findings


def check_skip_link(ix):
    first_link = None
    for i, el in enumerate(ix.elements):
        if el.tag == "a" and el.attrs.get("href") is not None:
            first_link = (i, el)
            break
    if first_link is None:
        return []
    i, el = first_link
    href = el.attrs.get("href", "")
    if not href.startswith("#") or len(href) < 2:
        return []
    if href[1:] in ix.ids:
        return []
    existing = next(iter(ix.ids), None)
    if existing:
        return [_Finding(
            i, el,
            f"The skip link target does not exist; point it at an existing id "
            f'such as "{existing}".',
            {"target": existing},
        )]
    return [_Finding(
        i, el,
        "The skip link target does not exist; add the target anchor id.",
    )]


def check_aria_required_attr(ix):
    findings = []
    for i, el in enumerate(ix.elements):
        role = ix.role[i]
        required = ARIA_REQUIRED_ATTRS.get(role)
        if not required:
            continue
        missing = [a for a in required if not el.attrs.get(a, "").strip()]
        if missing:
            findings.append(_Finding(
                i, el,
                f'The role "{role}" requires the attributes: '
                + ", ".join(missing) + ".",
                {"missing": tuple(missing)},
            ))
    return findings


def _parse_viewport_content(content: str) -> dict:
    pairs = {}
    for chunk in re.split(r"[,;]", content):
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            pairs[key.strip().lower()] = value.strip().lower()
    return pairs


def check_meta_viewport(ix):
    findings = []
    for i, el in enumerate(ix.elements):
        if el.tag != "meta" or el.attrs.get("name", "").lower() != "viewport":
            continue
        pairs = _parse_viewport_content(el.attrs.get("content", ""))
        bad = pairs.get("user-scalable") in ("no", "0")
        max_scale = pairs.get("maximum-scale")
        if max_scale is not None:
            try:
                bad = bad or float(max_scale) < 2
            except ValueError:
                pass
        if bad:
            findings.append(_Finding(i, el))
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


def check_color_contrast(ix):
    """Static resolution only: inline style, color=/bgcolor= attributes, and
    inheritance through the tree. Elements with no explicit color anywhere in
    their ancestor chain are skipped rather than assumed black-on-white."""
    thresholds = ix.thresholds
    findings = []

    # (fg, bg, font size, bold) per element, inherited from the parent; the
    # body's parent is the root.
    state = [None] * len(ix.elements)
    state[0] = (None, None, 16.0, False)
    for i in ix.rendered_body():
        el = ix.elements[i]
        fg, bg, size, bold = state[ix.parent[i]]
        decls = _parse_style(el.attrs.get("style", ""))
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
            c = _first_color_token(bg_value)
            if c is not None:
                bg = c
        elif el.attrs.get("bgcolor"):
            c = parse_color(el.attrs.get("bgcolor"))
            if c is not None:
                bg = c
        m = _FONT_SIZE_RE.match(decls.get("font-size", ""))
        if m:
            try:
                size = float(m.group(1))
            except ValueError:  # "1.2.3px", ".px": ignored, as bad colours are
                pass
        weight = decls.get("font-weight", "").lower()
        try:
            if weight in ("bold", "bolder") or (
                    weight.isdigit() and int(weight) >= 600):
                bold = True
        except ValueError:  # digits int() rejects: "²", a run past its limit
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
            ratio = contrast_ratio(effective_fg, effective_bg)
            if ratio < required - 1e-9:
                if effective_fg.alpha < 1.0:
                    effective_fg = composite_over(effective_fg, effective_bg)
                findings.append(_Finding(
                    i, el,
                    f"The text color {effective_fg.to_hex()} on background "
                    f"{effective_bg.to_hex()} has a contrast ratio of "
                    f"{ratio:.2f}; at least {required:.2f}:1 is required.",
                    {"fg": effective_fg, "bg": effective_bg,
                     "required": required},
                ))
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


def check_ruleset(ruleset=None) -> tuple:
    """The rule ids to run, every catalog rule for None; raises
    UnknownRuleError if the ruleset is empty or names an unknown rule."""
    if ruleset is None:
        return ALL_RULES
    if not ruleset:
        raise UnknownRuleError("ruleset must not be empty")
    for rule_id in ruleset:
        if rule_id not in RULE_CATALOG:
            raise UnknownRuleError(f"unknown rule id: {rule_id}")
    return tuple(ruleset)


def audit(
    doc: DomDocument,
    ruleset=None,
    web_url: str = "",
    impacts=None,
    thresholds=None,
) -> list:
    """Run the rule catalog over a document, returning violations in document
    order (ties broken by catalog order)."""
    ruleset = check_ruleset(ruleset)
    impact_map = dict(DEFAULT_IMPACTS)
    if impacts:
        impact_map.update(impacts)
    threshold_map = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        threshold_map.update(thresholds)

    ix = _Index.build(doc, threshold_map)
    collected = []
    for rule_index, rule_id in enumerate(ruleset):
        for finding in RULE_CATALOG[rule_id](ix):
            collected.append((finding.index, rule_index, rule_id, finding))
    # Pre-order index order is document (path) order.
    collected.sort(key=lambda item: (item[0], item[1]))

    violations = []
    seen = set()
    snippets = {}  # index -> snippet, shared by every rule flagging it
    for index, _, rule_id, finding in collected:
        if (index, rule_id) in seen:
            continue
        seen.add((index, rule_id))
        if index not in snippets:
            snippets[index] = serialize_node(finding.element)
        snippet = snippets[index]
        violations.append(Violation(
            rule_id=rule_id,
            impact=impact_map[rule_id],
            description=RULE_DESCRIPTIONS[rule_id],
            help=finding.help or RULE_HELP[rule_id],
            html_snippet=snippet,
            locator=NodeLocator(ix.path(index), snippet),
            web_url=web_url,
            data=finding.data,
        ))
    return violations
