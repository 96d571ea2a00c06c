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
from operator import itemgetter
from typing import Optional

from .colors import RgbColor, composite_over, contrast_ratio, parse_color
from .dom import (
    Comment,
    DomDocument,
    Element,
    Text,
    preorder,
    snippet,
)
from .errors import NoRecipeError, UnknownRuleError

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
# Tags that may be a landmark without an explicit role.
_LANDMARK_TAGS = {*_IMPLICIT_LANDMARK_TAGS, "section", "form"}
_HEADING_TAGS = ("h1", "h2", "h3", "h4", "h5", "h6")
_HIDDEN = ("script", "style")  # tags whose content is not rendered

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
    """A rule's finding on one element. The audit never sets ``element``,
    which ``corrector.correct_document`` sets on what it hands a provider."""

    rule_id: str
    impact: str
    description: str
    help: str
    html_snippet: str  # dom.snippet of the element when audited: its outer
    # HTML up to 300 characters, else its start tag
    index: int  # pre-order position of the element in the document
    web_url: str
    data: dict = field(default_factory=dict)  # fix parameters, per rule
    element: Optional[Element] = field(default=None, compare=False, repr=False)


@dataclass
class _Finding:
    index: int  # pre-order index of the flagged element
    help: Optional[str] = None
    data: dict = field(default_factory=dict)


def _text_of(el: Element) -> str:
    parts = []
    stack = [el]
    while stack:
        node = stack.pop()
        if isinstance(node, Text):
            parts.append(node.data)
        elif isinstance(node, Element) and node.tag not in _HIDDEN:
            stack.extend(reversed(node.children))
    return "".join(parts)


class _Refs(dict):
    """id -> the text that an ``aria-labelledby`` reference to it names: the
    text of the first element carrying the id, whitespace collapsed, "" if
    none does. Each id's text is computed once, on its first reference."""

    def __init__(self, ids: dict):
        super().__init__()
        self.ids = ids

    def __missing__(self, ref: str) -> str:
        target = self.ids.get(ref)
        text = "" if target is None else " ".join(_text_of(target).split())
        self[ref] = text
        return text


def _accessible_name(el: Element, refs: _Refs) -> str:
    label = el.attrs.get("aria-label")
    if label and label.strip():
        return label.strip()
    labelledby = el.attrs.get("aria-labelledby")
    if labelledby:
        joined = " ".join(text for text in map(refs.__getitem__,
                                               labelledby.split()) if text)
        if joined:
            return joined
    title = el.attrs.get("title")
    if title and title.strip():
        return title.strip()
    return ""


def _landmark_role(el: Element, role: str, refs: _Refs) -> Optional[str]:
    if role:
        if role in LANDMARK_ROLES:
            if role in _NAME_REQUIRED_ROLES and not _accessible_name(el, refs):
                return None
            return role
        return None
    implicit = _IMPLICIT_LANDMARK_TAGS.get(el.tag)
    if implicit:
        return implicit
    if el.tag in ("section", "form"):
        if _accessible_name(el, refs):
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
    """The document's ``dom.preorder`` walk, per-element facts and each
    checker's candidates, read by every checker.

    A forward loop over element ``i``'s subtree, ``range(i + 1, end[i])``,
    visits every element after its parent. An explicit role is the first
    token of ``role``, lowercased, or ""; the full rule takes the first token
    the user agent recognises. Every list of indices is in document order.
    """

    elements: list  # elements, parent, slot, end: as in dom.Preorder
    parent: list
    slot: list
    end: list
    role: list  # explicit role of each element
    has_text: list  # a child text node is non-blank
    text: list  # the subtree holds non-blank text outside script and style
    described_img: list  # an <img> with a non-blank alt lies below
    ids: dict  # id value -> first element carrying it
    refs: _Refs  # id value -> the text a reference to it names
    landmark: list  # _landmark_role of each element
    tags: dict  # tag -> indices of the elements with that tag
    id_carriers: list  # indices of the elements with a non-empty id
    role_carriers: list  # indices of the elements with an explicit role
    landmarks: list  # indices of the elements whose landmark is not None
    thresholds: dict

    @classmethod
    def build(cls, doc: DomDocument, thresholds: dict, walk=None) -> "_Index":
        elements, parent, slot, end = walk or preorder(doc.root)
        role, has_text, text, ids = [], [], [], {}
        tags, id_carriers, role_carriers = {}, [], []
        for i, el in enumerate(elements):
            attrs, tag = el.attrs, el.tag
            bucket = tags.get(tag)
            if bucket is None:
                tags[tag] = [i]
            else:
                bucket.append(i)
            words = attrs["role"].split() if "role" in attrs else None
            if words:
                role.append(words[0].lower())
                role_carriers.append(i)
            else:
                role.append("")
            value = attrs.get("id")
            if value:
                id_carriers.append(i)
                if value not in ids:
                    ids[value] = el
            for child in el.children:
                if isinstance(child, Text) and child.data.strip():
                    has_text.append(True)
                    text.append(tag not in _HIDDEN)
                    break
            else:
                has_text.append(False)
                text.append(False)
        img = [False] * len(elements)
        for i in tags.get("img", ()):
            if i and elements[i].attrs.get("alt", "").strip():
                img[parent[i]] = True
        for i in range(len(elements) - 1, 0, -1):
            up = parent[i]
            if text[i] and not text[up] and elements[up].tag not in _HIDDEN:
                text[up] = True
            if img[i]:
                img[up] = True
        refs = _Refs(ids)
        landmark = [None] * len(elements)
        landmarks = []
        for i in _tagged(tags, _LANDMARK_TAGS, role_carriers):
            landmark[i] = _landmark_role(elements[i], role[i], refs)
            if landmark[i] is not None:
                landmarks.append(i)
        return cls(elements, parent, slot, end, role, has_text, text, img,
                   ids, refs, landmark, tags, id_carriers, role_carriers,
                   landmarks, thresholds)

    @cached_property
    def mains(self) -> list:
        """Indices of the main landmarks, by ``landmark``: one role each."""
        return [i for i in self.landmarks if self.landmark[i] == "main"]

    @cached_property
    def body(self) -> Optional[int]:
        """Index of the root's first body child, None if it has none."""
        return next((i for i in self.tags.get("body", ())
                     if self.parent[i] == 0), None)

    @cached_property
    def headings(self) -> list:
        """(index, level) of each heading: h1 to h6, and the elements whose
        explicit role is heading."""
        role = self.role
        found = _tagged(self.tags, _HEADING_TAGS,
                        [i for i in self.role_carriers if role[i] == "heading"])
        return [(i, _heading_level(self.elements[i], role[i])) for i in found]

    @cached_property
    def skip_target(self) -> Optional[tuple]:
        """(index, target) of the page's first link when its href is
        ``#target`` and no element has that id, else None."""
        for i in self.tags.get("a", ()):
            href = self.elements[i].attrs.get("href")
            if href is not None:
                target = href[1:]
                if href[:1] == "#" and target and target not in self.ids:
                    return i, target
                return None
        return None

    @cached_property
    def new_id(self) -> _Names:
        """Ids that the page does not use yet."""
        return _Names(self.ids)

    @cached_property
    def names(self) -> dict:
        """Index -> accessible name of each landmark."""
        return {i: _accessible_name(self.elements[i], self.refs)
                for i in self.landmarks}

    @cached_property
    def new_label(self) -> _Names:
        """Labels that no landmark on the page is named yet."""
        return _Names(set(self.names.values()))

    @cached_property
    def rendered_body(self) -> list:
        """Indices of the elements of the root's first body child, skipping
        script and style subtrees."""
        body = self.body
        if body is None:
            return []
        shown, start, stop = [], body, self.end[body]
        for i in _tagged(self.tags, _HIDDEN):
            if i >= stop:
                break
            if i >= start:
                shown.extend(range(start, i))
                start = self.end[i]
        shown.extend(range(start, stop))
        return shown


def _tagged(tags: dict, names, extra=()) -> list:
    """The indices in ``tags`` under any of ``names``, with ``extra``, each
    once and in document order."""
    found = set(extra)
    for name in names:
        if name in tags:
            found.update(tags[name])
    return sorted(found)


def main_wrap(root: Element, attrs=()) -> Optional[Element]:
    """Wrap the body content under ``root`` in a new ``<main>`` with
    ``attrs``, (name, value) pairs, and return it; None if the page has a
    main landmark. The target of a dangling skip link is the main's id
    unless ``attrs`` give one. Leading banners and trailing contentinfos
    (and blank text and comments among them) stay outside, as they would
    nest in the main. Raises NoRecipeError if ``root`` has no body."""
    ix = _Index.build(DomDocument(root), {})
    if ix.mains:
        return None
    body = ix.body
    if body is None:
        raise NoRecipeError("document has no body to wrap")
    kids = ix.elements[body].children
    role = {ix.slot[i]: ix.landmark[i]
            for i in ix.landmarks if ix.parent[i] == body}
    blank = [isinstance(node, Comment) or (
        isinstance(node, Text) and not node.data.strip()) for node in kids]
    start = 0
    for k in range(len(kids)):
        if role.get(k) == "banner":
            start = k + 1
        elif not blank[k]:
            break
    stop = len(kids)
    for k in range(len(kids) - 1, start - 1, -1):
        if role.get(k) == "contentinfo":
            stop = k
        elif not blank[k]:
            break
    attrs = dict(attrs)
    if ix.skip_target:
        attrs.setdefault("id", ix.skip_target[1])
    main = Element("main", attrs, kids[start:stop])
    ix.elements[body].children = kids[:start] + [main] + kids[stop:]
    return main


# --- checkers -------------------------------------------------------------


def check_image_alt(ix):
    """Full rule also accepts aria-label; we require alt or presentation role."""
    findings = []
    for i in ix.tags.get("img", ()):
        alt = ix.elements[i].attrs.get("alt")
        if alt is not None and alt.strip():
            continue
        if alt == "" and ix.role[i] in ("presentation", "none"):
            continue
        findings.append(_Finding(i))
    return findings


def check_link_name(ix):
    findings = []
    for i in ix.tags.get("a", ()):
        el = ix.elements[i]
        if el.attrs.get("href") is None:
            continue
        if ix.text[i] or ix.described_img[i] or _accessible_name(el, ix.refs):
            continue
        findings.append(_Finding(i))
    return findings


def check_label(ix):
    """Simplified: title/aria-label/label[for]/wrapping label all count."""
    label_for = set()
    for i in ix.tags.get("label", ()):
        target = ix.elements[i].attrs.get("for")
        if target:
            label_for.add(target)
    findings = []
    inside = 0  # end of the subtree of the outermost <label> seen so far
    for i in _tagged(ix.tags, ("label", "input", "select", "textarea")):
        el = ix.elements[i]
        if el.tag == "label":
            if i >= inside:
                inside = ix.end[i]
            continue
        if el.tag == "input":
            input_type = (el.attrs.get("type") or "text").lower()
            if input_type in _UNLABELED_INPUT_TYPES_EXEMPT:
                continue
        if _accessible_name(el, ix.refs):
            continue
        if el.attrs.get("id") and el.attrs.get("id") in label_for:
            continue
        if i < inside:
            continue
        findings.append(_Finding(i))
    return findings


def check_html_has_lang(ix):
    root = ix.elements[0]
    lang = root.attrs.get("lang")
    if lang and lang.strip():
        return []
    return [_Finding(0)]


def check_duplicate_id(ix):
    findings = []
    for i in ix.id_carriers:
        el = ix.elements[i]
        value = el.attrs["id"]
        if ix.ids[value] is el:
            continue
        candidate = ix.new_id(f"{value}-")
        findings.append(_Finding(
            i, f'Multiple elements share the id "{value}"; '
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
    for i, level in ix.headings:
        if previous is not None and level > previous + 1:
            findings.append(_Finding(
                i, f"Heading levels should increase by one; "
                f"the previous heading level was h{previous}.",
                {"previous_level": previous},
            ))
        previous = level
    return findings


def check_empty_heading(ix):
    findings = []
    for i, _ in ix.headings:
        if ix.text[i] or ix.described_img[i] or _accessible_name(
                ix.elements[i], ix.refs):
            continue
        findings.append(_Finding(i))
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
    for i in ix.rendered_body:
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
            findings.append(_Finding(at, hint, data))
    return findings


def check_landmark_one_main(ix):
    if not ix.mains:
        return [_Finding(0, "Add a main landmark around the page content.")]
    findings = []
    for i in ix.mains[1:]:
        if ix.elements[i].attrs.get("aria-label", "").strip():
            hint, data = ("Convert this extra main landmark into a section "
                          "that keeps its label."), {}
        else:
            label = ix.new_label("section-")
            hint = ("Convert this extra main landmark into a section labeled "
                    f'"{label}" unless it has a label.')
            data = {"label": label}
        findings.append(_Finding(i, hint, data))
    return findings


_STEM_LIMIT = 40  # longest label stem copied from a name


def _stem(name: str) -> str:
    """``name`` cut to at most ``_STEM_LIMIT`` characters: at its last space
    there, so no word is cut, or within a word longer than the limit."""
    if len(name) <= _STEM_LIMIT:
        return name
    return name[:_STEM_LIMIT + 1].rpartition(" ")[0].rstrip() \
        or name[:_STEM_LIMIT]


def check_landmark_unique(ix):
    """A label stem is the name cut by ``_stem``, so the help, the
    ``label`` and the fix stay short whatever the name."""
    seen = set()
    findings = []
    for i, name in ix.names.items():
        role = ix.landmark[i]
        if (role, name) in seen:
            label = ix.new_label(_stem(name or ix.elements[i].tag) + " ")
            findings.append(_Finding(
                i, f'Add the distinguishing aria-label "{label}" to this '
                "landmark.", {"label": label}))
        else:
            seen.add((role, name))
    return findings


def check_landmark_no_duplicate_content(ix):
    """Simplified: header/footer map to banner/contentinfo regardless of depth."""
    findings = []
    inside = 0  # end of the subtree of the outermost landmark seen so far
    for i in ix.landmarks:
        if i < inside:
            if ix.landmark[i] in ("banner", "contentinfo"):
                findings.append(_Finding(i))
        else:
            inside = ix.end[i]
    return findings


def check_skip_link(ix):
    if ix.skip_target is None:
        return []
    existing = next(iter(ix.ids), None)
    hint = (f'point it at an existing id such as "{existing}".' if existing
            else "add the target anchor id.")
    return [_Finding(ix.skip_target[0], "The skip link target does not exist; "
                     + hint, {"target": existing} if existing else {})]


def check_aria_required_attr(ix):
    findings = []
    for i in ix.role_carriers:
        role = ix.role[i]
        required = ARIA_REQUIRED_ATTRS.get(role)
        if not required:
            continue
        attrs = ix.elements[i].attrs
        missing = [a for a in required if not attrs.get(a, "").strip()]
        if missing:
            findings.append(_Finding(
                i, f'The role "{role}" requires the attributes: '
                + ", ".join(missing) + ".",
                {"missing": tuple(missing)},
            ))
    return findings


def viewport_items(content: str) -> list:
    """The ``name=value`` items of a viewport ``content`` value in order,
    as stripped (name, value) pairs; a chunk without "=" is no item."""
    pairs = (chunk.partition("=") for chunk in re.split(r"[,;]", content))
    return [(name.strip(), value.strip()) for name, eq, value in pairs if eq]


def blocks_zoom(name: str, value: str) -> bool:
    """Whether one viewport item disables zoom: ``user-scalable`` no or 0,
    or a ``maximum-scale`` below 2. Names and values are caseless."""
    name = name.lower()
    if name == "user-scalable":
        return value.lower() in ("no", "0")
    try:
        return name == "maximum-scale" and float(value) < 2
    except ValueError:
        return False


def check_meta_viewport(ix):
    """Of items that share a name, the last counts."""
    findings = []
    for i in ix.tags.get("meta", ()):
        el = ix.elements[i]
        if el.attrs.get("name", "").lower() != "viewport":
            continue
        last = {name.lower(): (name, value) for name, value
                in viewport_items(el.attrs.get("content", ""))}
        if any(blocks_zoom(*item) for item in last.values()):
            findings.append(_Finding(i))
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


def _style_facts(style: str) -> tuple:
    """What a ``style`` value sets for contrast: (color declared, its colour
    or None, background declared, its colour or None, px size or None,
    bold). A declared colour that does not parse is ignored but still
    shadows ``<font color>`` and ``bgcolor``, as do bad sizes and weights."""
    decls = _parse_style(style)
    has_color = "color" in decls
    color = parse_color(decls["color"]) if has_color else None
    bg_value = decls.get("background-color") or decls.get("background")
    background = _first_color_token(bg_value) if bg_value else None
    size = None
    m = _FONT_SIZE_RE.match(decls.get("font-size", ""))
    if m:
        try:
            size = float(m.group(1))
        except ValueError:  # "1.2.3px", ".px": ignored, as bad colours are
            pass
    weight = decls.get("font-weight", "").lower()
    try:
        bold = weight in ("bold", "bolder") or (
            weight.isdigit() and int(weight) >= 600)
    except ValueError:  # digits int() rejects: "²", a run past its limit
        bold = False
    return has_color, color, bool(bg_value), background, size, bold


def _contrast_verdict(state: tuple, thresholds: dict):
    """(help, fg, bg, required) for text in ``state`` = (fg, bg, font size,
    bold) whose contrast is too low, None if it passes. A missing colour is
    black text or a white background."""
    fg, bg, size, bold = state
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
    if ratio >= required - 1e-9:
        return None
    if effective_fg.alpha < 1.0:
        effective_fg = composite_over(effective_fg, effective_bg)
    return (
        f"The text color {effective_fg.to_hex()} on background "
        f"{effective_bg.to_hex()} has a contrast ratio of "
        f"{ratio:.2f}; at least {required:.2f}:1 is required.",
        effective_fg, effective_bg, required,
    )


_NO_STYLE = (False, None, False, None, None, False)
_STATE_TAGS = ("font", "b", "strong")  # tags that set colour or weight


def check_color_contrast(ix):
    """Static resolution only: inline style, color=/bgcolor= attributes, and
    inheritance through the tree. Elements with no explicit color anywhere in
    their ancestor chain are skipped rather than assumed black-on-white.

    An element with no style, no bgcolor and none of ``_STATE_TAGS`` takes
    its parent's state as it is. Each distinct style value is parsed once
    per call, and each distinct state of an element with text is judged
    once per call."""
    thresholds = ix.thresholds
    elements, parent, has_text = ix.elements, ix.parent, ix.has_text
    findings = []
    facts = {}  # style value -> _style_facts(style value)
    verdicts = {}  # state -> _contrast_verdict(state, thresholds)

    # (fg, bg, font size, bold) per element, inherited from the parent; the
    # body's parent is the root.
    state = [None] * len(elements)
    state[0] = (None, None, 16.0, False)
    for i in ix.rendered_body:
        el = elements[i]
        attrs = el.attrs
        style = attrs.get("style")
        if not style and not attrs.get("bgcolor") and el.tag not in _STATE_TAGS:
            state[i] = here = state[parent[i]]
        else:
            fg, bg, size, bold = state[parent[i]]
            if style:
                if style not in facts:
                    facts[style] = _style_facts(style)
                has_color, color, has_bg, background, px, heavy = facts[style]
            else:
                has_color, color, has_bg, background, px, heavy = _NO_STYLE
            if has_color:
                if color is not None:
                    fg = color
            elif el.tag == "font" and attrs.get("color"):
                c = parse_color(attrs.get("color"))
                if c is not None:
                    fg = c
            if has_bg:
                if background is not None:
                    bg = background
            elif attrs.get("bgcolor"):
                c = parse_color(attrs.get("bgcolor"))
                if c is not None:
                    bg = c
            if px is not None:
                size = px
            if heavy or el.tag in ("b", "strong"):
                bold = True
            state[i] = here = (fg, bg, size, bold)

        if not has_text[i] or (here[0] is None and here[1] is None):
            continue
        if here not in verdicts:
            verdicts[here] = _contrast_verdict(here, thresholds)
        verdict = verdicts[here]
        if verdict is not None:
            help_text, fg, bg, required = verdict
            findings.append(_Finding(
                i, help_text, {"fg": fg, "bg": bg, "required": required}))
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
    walk=None,
) -> list:
    """Run the rule catalog over a document, returning violations in document
    order (ties broken by ruleset order; a repeated rule id runs once).
    ``walk``, if given, is ``dom.preorder(doc.root)``, then not made again."""
    ruleset = check_ruleset(ruleset)
    impact_map = dict(DEFAULT_IMPACTS)
    if impacts:
        impact_map.update(impacts)
    threshold_map = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        threshold_map.update(thresholds)

    ix = _Index.build(doc, threshold_map, walk)
    run = []  # (rule id, impact, description, default help) per rule run
    collected = []
    for rule_id in dict.fromkeys(ruleset):
        rule_index = len(run)
        run.append((rule_id, impact_map[rule_id], RULE_DESCRIPTIONS[rule_id],
                    RULE_HELP[rule_id]))
        for finding in RULE_CATALOG[rule_id](ix):
            collected.append((finding.index, rule_index, finding))
    # Pre-order index order is document order. The sort is stable, so a
    # rule's repeated findings on one element stay adjacent, first first.
    collected.sort(key=itemgetter(0, 1))

    violations = []
    last = None
    snippets = {}  # index -> snippet, shared by every rule flagging it
    for index, rule_index, finding in collected:
        if (index, rule_index) == last:
            continue
        last = index, rule_index
        if index not in snippets:
            snippets[index] = snippet(ix.elements[index])
        rule_id, impact, description, help_text = run[rule_index]
        violations.append(Violation(
            rule_id, impact, description, finding.help or help_text,
            snippets[index], index, web_url, finding.data))
    return violations
