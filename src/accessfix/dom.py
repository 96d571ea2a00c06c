"""Permissive HTML parsing, canonical serialization, and subtree surgery.

The parser tolerates malformed markup (unclosed tags, duplicate attributes,
stray content) and always yields a normalized tree with a single ``html``
root containing ``head`` and ``body``. Serialization is canonical: stored
attribute order, double-quoted values, a fixed escaping table, and void
elements without closing tags, so equal trees always serialize identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Iterator, Optional, Union

from .errors import (
    EncodingError,
    InvalidFragmentError,
    InvalidSnippetError,
    StaleLocatorError,
)

VOID_ELEMENTS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

RAW_TEXT_ELEMENTS = {"script", "style"}

HEAD_ELEMENTS = {"title", "meta", "link", "base", "style"}

# Start tags that implicitly close an open <p>.
_P_CLOSERS = {
    "address", "article", "aside", "blockquote", "details", "div", "dl",
    "fieldset", "figcaption", "figure", "footer", "form", "h1", "h2", "h3",
    "h4", "h5", "h6", "header", "hr", "main", "menu", "nav", "ol", "p",
    "pre", "section", "table", "ul",
}

# Start tag -> set of open tags it implicitly closes (applied repeatedly).
_AUTO_CLOSE = {
    "li": {"li"},
    "dt": {"dt", "dd"},
    "dd": {"dt", "dd"},
    "tr": {"tr", "td", "th"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "tbody": {"td", "th", "tr", "thead", "tbody"},
    "tfoot": {"td", "th", "tr", "tbody", "thead"},
    "option": {"option"},
    "optgroup": {"option", "optgroup"},
}


@dataclass
class Text:
    data: str


@dataclass
class Comment:
    data: str


@dataclass
class Doctype:
    data: str


@dataclass
class Element:
    tag: str
    attrs: list = field(default_factory=list)  # ordered (name, value) pairs
    children: list = field(default_factory=list)

    def get(self, name: str, default=None):
        name = name.lower()
        for k, v in self.attrs:
            if k == name:
                return v
        return default

    def set(self, name: str, value: str) -> None:
        name = name.lower()
        for i, (k, _) in enumerate(self.attrs):
            if k == name:
                self.attrs[i] = (k, value)
                return
        self.attrs.append((name, value))

    def remove_attr(self, name: str) -> None:
        name = name.lower()
        self.attrs = [(k, v) for k, v in self.attrs if k != name]


Node = Union[Element, Text, Comment, Doctype]


class _TreeBuilder(HTMLParser):
    """Builds an Element tree, recovering from unclosed/misnested tags."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.top = Element("#fragment")
        self.stack = [self.top]

    def _implicit_close(self, tag: str) -> None:
        while len(self.stack) > 1:
            open_tag = self.stack[-1].tag
            if open_tag == "p" and tag in _P_CLOSERS:
                self.stack.pop()
            elif tag in _AUTO_CLOSE and open_tag in _AUTO_CLOSE[tag]:
                self.stack.pop()
            else:
                break

    def _dedup(self, attrs):
        out, seen = [], set()
        for name, value in attrs:
            name = name.lower()
            if name in seen:
                continue
            seen.add(name)
            out.append((name, value if value is not None else ""))
        return out

    def handle_starttag(self, tag, attrs):
        self._implicit_close(tag)
        el = Element(tag, self._dedup(attrs))
        self.stack[-1].children.append(el)
        if tag not in VOID_ELEMENTS:
            self.stack.append(el)

    def handle_startendtag(self, tag, attrs):
        self._implicit_close(tag)
        self.stack[-1].children.append(Element(tag, self._dedup(attrs)))

    def handle_endtag(self, tag):
        if tag in VOID_ELEMENTS:
            return
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # Unmatched close tag: ignore.

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(Text(data))

    def handle_comment(self, data):
        self.stack[-1].children.append(Comment(data))

    def handle_decl(self, decl):
        self.stack[-1].children.append(Doctype(decl))


def _merge_text(top: Element) -> None:
    stack = [top]
    while stack:
        el = stack.pop()
        merged = []
        for child in el.children:
            if isinstance(child, Text) and merged and isinstance(merged[-1], Text):
                merged[-1] = Text(merged[-1].data + child.data)
            else:
                merged.append(child)
                if isinstance(child, Element):
                    stack.append(child)
        el.children = merged


def _tokenize(text: str) -> Element:
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    _merge_text(builder.top)
    return builder.top


def parse_fragment(text: str) -> list:
    """Parse HTML text into a list of top-level nodes without normalization."""
    return _tokenize(text).children


def parse_fragment_element(text: str, error=InvalidFragmentError) -> Element:
    """Parse text that must contain exactly one top-level element.

    Whitespace-only text, comments, and doctypes around the element are
    ignored; any other top-level content raises ``error``.
    """
    elements = []
    for node in parse_fragment(text):
        if isinstance(node, Element):
            elements.append(node)
        elif isinstance(node, Text) and node.data.strip():
            raise error("fragment contains top-level text")
    if len(elements) != 1:
        raise error(
            "fragment must contain exactly one element, got %d" % len(elements)
        )
    return elements[0]


def _normalize_document(top: Element) -> Element:
    roots = [n for n in top.children if isinstance(n, Element)]
    if len(roots) == 1 and roots[0].tag == "html":
        html = roots[0]
    else:
        html = Element("html", [], [
            n for n in top.children
            if not isinstance(n, Doctype)
            and not (isinstance(n, Text) and not n.data.strip())
        ])

    head = body = None
    extra_head, extra_body = [], []
    for child in html.children:
        if isinstance(child, Element) and child.tag == "head" and head is None:
            head = child
        elif isinstance(child, Element) and child.tag == "body" and body is None:
            body = child
        elif isinstance(child, Element) and child.tag in HEAD_ELEMENTS:
            extra_head.append(child)
        elif isinstance(child, Text) and not child.data.strip():
            continue
        else:
            extra_body.append(child)
    if head is None:
        head = Element("head")
    if body is None:
        body = Element("body")
    head.children.extend(extra_head)
    body.children.extend(extra_body)
    html.children = [head, body]
    return html


@dataclass
class DomDocument:
    root: Element

    def serialize(self) -> str:
        return serialize_node(self.root)


def parse_html(text) -> DomDocument:
    """Parse (possibly malformed) HTML text into a normalized document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(str(exc)) from exc
    return DomDocument(_normalize_document(_tokenize(text)))


def _escape_text(data: str) -> str:
    return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(data: str) -> str:
    return (
        data.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize_node(node: Node) -> str:
    """Canonical serialization of a node and its subtree."""
    return _serialize(node, normalized=False)


def _serialize(node: Node, normalized: bool) -> str:
    """Serialize with an explicit stack of nodes and pending end tags.

    The normalized form sorts attributes, collapses whitespace in text, and
    drops comments, doctypes and whitespace-only text.
    """
    parts = []
    stack = [(node, False)]  # (node or end tag, parent is raw text)
    while stack:
        node, raw = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Text):
            data = " ".join(node.data.split()) if normalized else node.data
            parts.append(data if raw else _escape_text(data))
        elif normalized and isinstance(node, (Comment, Doctype)):
            continue
        elif isinstance(node, Comment):
            parts.append(f"<!--{node.data}-->")
        elif isinstance(node, Doctype):
            parts.append(f"<!{node.data}>")
        else:
            parts.append(f"<{node.tag}")
            for name, value in sorted(node.attrs) if normalized else node.attrs:
                parts.append(f' {name}="{_escape_attr(value)}"')
            parts.append(">")
            if node.tag in VOID_ELEMENTS:
                continue
            stack.append((f"</{node.tag}>", False))
            child_raw = node.tag in RAW_TEXT_ELEMENTS
            stack.extend((child, child_raw) for child in reversed(node.children))
    return "".join(parts)


def serialize(doc: DomDocument) -> str:
    return doc.serialize()


def iter_elements(doc: DomDocument) -> Iterator[tuple]:
    """Yield (path, element) pairs in document (preorder) order."""
    stack = [((), doc.root)]
    while stack:
        path, el = stack.pop()
        yield path, el
        for i in range(len(el.children) - 1, -1, -1):
            if isinstance(el.children[i], Element):
                stack.append((path + (i,), el.children[i]))


def normalized_outer_html(el: Element) -> str:
    """Comparison form: sorted attrs, collapsed whitespace, no comments."""
    return _serialize(el, normalized=True)


def _snippet_hash(el: Element) -> str:
    return hashlib.sha1(normalized_outer_html(el).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class NodeLocator:
    path: tuple  # child indices from the root element
    snippet_hash: str


def make_locator(doc: DomDocument, path: tuple) -> NodeLocator:
    el = _node_at(doc, path)
    if el is None:
        raise StaleLocatorError(f"no element at path {path}")
    return NodeLocator(tuple(path), _snippet_hash(el))


def _node_at(doc: DomDocument, path: tuple) -> Optional[Element]:
    node = doc.root
    for idx in path:
        if not isinstance(node, Element) or idx >= len(node.children):
            return None
        node = node.children[idx]
    return node if isinstance(node, Element) else None


def resolve(doc: DomDocument, loc: NodeLocator) -> Element:
    """Resolve a locator, raising StaleLocatorError if the node moved or changed."""
    el = _node_at(doc, loc.path)
    if el is None or _snippet_hash(el) != loc.snippet_hash:
        raise StaleLocatorError(f"locator {loc.path} is stale")
    return el


def find_by_snippet(doc: DomDocument, snippet: str) -> list:
    """Locate all elements whose normalized outer HTML equals the snippet's."""
    target = normalized_outer_html(
        parse_fragment_element(snippet, error=InvalidSnippetError)
    )
    found = []
    for path, el in iter_elements(doc):
        if normalized_outer_html(el) == target:
            found.append(NodeLocator(path, _snippet_hash(el)))
    return found


def rewrite(el: Element, replacement: Element) -> None:
    """Give ``el`` the tag, attributes and children of ``replacement``."""
    el.tag, el.attrs, el.children = (replacement.tag, replacement.attrs,
                                     replacement.children)


def replace_node(doc: DomDocument, loc: NodeLocator,
                 replacement: Element) -> DomDocument:
    """Rewrite the located element in place with ``replacement``."""
    rewrite(resolve(doc, loc), replacement)
    return doc
