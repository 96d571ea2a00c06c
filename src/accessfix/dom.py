"""Permissive HTML parsing, canonical serialization, and subtree surgery.

The parser is a scanner that reads its input once, in time linear in its
length whatever the markup. It tolerates malformed markup (unclosed tags,
duplicate attributes, stray content) with html.parser's tolerant tag
grammar, follows WHATWG tokenization where end of input cuts a construct
off, and always yields a normalized tree with a single ``html`` root
containing ``head`` and ``body``. Serialization is canonical: stored
attribute order, double-quoted values, a fixed escaping table, and void
elements without closing tags, so equal trees always serialize identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from typing import NamedTuple, Optional, Union

from .errors import InvalidFragmentError, StaleLocatorError

VOID_ELEMENTS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

RAW_TEXT_ELEMENTS = {"script", "style"}

HEAD_ELEMENTS = {"title", "meta", "link", "base", "style"}

# Start tags that implicitly close an open <p>.
P_CLOSERS = {
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

# Tags whose content parses otherwise than under a <div>: void and raw-text
# elements, textarea and title (whose content a browser reads as text),
# <p>, which P_CLOSERS close, and every tag that _AUTO_CLOSE closes or that
# closes one.
_CONTEXT_TAGS = (VOID_ELEMENTS | RAW_TEXT_ELEMENTS | {"textarea", "title", "p"}
                 | set(_AUTO_CLOSE).union(*_AUTO_CLOSE.values()))


def parses_alike(tag: str) -> bool:
    """Whether ``tag`` reads the serialized children of any element that a
    parse gave, raw text aside, as a ``<div>`` does, and none of their
    start tags closes it: an element may be renamed into such a tag, or
    wrapped in one, as a string (``prompts._edits``)."""
    return tag not in _CONTEXT_TAGS


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
    attrs: dict = field(default_factory=dict)  # lowercase name -> value
    children: list = field(default_factory=list)


Node = Union[Element, Text, Comment, Doctype]


# The scanner. One compiled regex is matched at the current position and
# names the token it found: text, start tag, end tag, comment, doctype,
# bogus comment, a dropped construct (processing instruction, marked
# section, "</>"), an end tag that end of input cut off, or a lone "<" (a
# start tag so cut off matches without its ">"). Every repetition is
# possessive, atomic, or lazy up to a fixed closer, so a match never
# backtracks into what it consumed, and an alternative that fails scans no
# further than the one that then matches or than end of input, where
# scanning stops. The one exception, a quoted value that never closes, is
# scanned to end of input at most once per quote character. So parsing is
# linear in the input.

# One attribute: name, then optionally "=" and a quoted or bare value. The
# value group backtracks only inside itself, as html.parser's does.
_ATTR = (
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*+)"""
    r"""(?>\s*=+\s*(?:'([^']*+)'|"([^"]*+)"|(?!['"])([^>\s]*+)))?"""
    r"""(?:\s|/(?!>))*+"""
)
_ATTR_RE = re.compile(_ATTR)
_TOKEN = re.compile(
    r"(?P<text>[^<]++)"
    r"|(?P<start><(?P<tag>[a-zA-Z][^\t\n\r\f />\x00]*+)"
    r"(?:(?!\x00)|(?<=['\"\s]))"
    r"(?:\s|/(?!>))*+(?P<attrs>(?:" + _ATTR + r")*+)(?P<close>/?>)?)"
    # NUL right after a tag name that no attribute may follow: the "<" and
    # the name are text, kept as written.
    r"|(?P<raw><[a-zA-Z][^\t\n\r\f />\x00]*+)"
    r"|(?P<end></(?:\s*+(?P<name>[a-zA-Z][-.a-zA-Z0-9:_]*+)\s*+>"
    r"|(?P<name2>[a-zA-Z][^\t\n\r\f />\x00]*+)[^>]*+>))"
    r"|(?P<comment><!--(?P<comment_data>.*?)(?:--\s*+>|\Z))"
    r"|(?P<doctype><!(?P<decl>(?ai:doctype)[^>]*+)>?)"
    r"|(?P<drop></>|<\?[^>]*+>?|<!\[(?ai:"
    r"(?:cdata|temp|ignore|include|rcdata)(?![-_.a-zA-Z0-9])"
    r".*?(?:\]\s*+\]\s*+>|\Z)"
    r"|(?:if|else|endif)(?![-_.a-zA-Z0-9]).*?(?:\]\s*+>|\Z)))"
    r"|(?P<bogus><(?:!|/(?=[^a-zA-Z]))(?P<bogus_data>[^>]*+)>?)"
    r"|(?P<cut></(?=[a-zA-Z]))"
    r"|(?P<lt><)",
    re.S,
)
_RAW_END = {
    tag: re.compile(r"</\s*%s\s*>" % tag, re.I) for tag in RAW_TEXT_ELEMENTS
}


def _attrs(text: str, start: int, end: int) -> dict:
    """An attribute blob's names and values in source order; first one wins."""
    attrs = {}
    for name, single, double, bare in _ATTR_RE.findall(text, start, end):
        attrs.setdefault(name.lower(), unescape(single or double or bare))
    return attrs


def _tokenize(text: str) -> Element:
    """Scan ``text`` once and build its tree under a ``#fragment`` root.

    Construction recovers from unclosed and misnested tags: a start tag
    implicitly closes an open ``p`` (``P_CLOSERS``) or list item, cell,
    row or option (``_AUTO_CLOSE``); an end tag closes up to the nearest
    open element of its name and is skipped when none is open; of
    duplicate attributes the first wins; adjacent text is merged.
    End of input inside a start or end tag drops the tag. Inside a
    comment, doctype or bogus comment it ends them, and inside raw text
    it ends the text, as WHATWG tokenization does.
    """
    top = Element("#fragment")
    stack = [top]
    open_count = {}  # tag -> elements of that name on the stack
    text_node, parts = None, []  # the text node that text merges into
    pos, n = 0, len(text)
    match = _TOKEN.match
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        pos = m.end()
        parent = stack[-1]
        if kind in ("text", "lt", "raw"):
            data = m.group(kind)
            if kind == "text":
                data = unescape(data)
            if parent.children and parent.children[-1] is text_node:
                parts.append(data)
                continue
            if len(parts) > 1:
                text_node.data = "".join(parts)
            text_node, parts = Text(data), [data]
            parent.children.append(text_node)
        elif kind == "start":
            close = m.group("close")
            if close is None:
                break  # end of input inside the tag
            tag = m.group("tag").lower()
            closes = _AUTO_CLOSE.get(tag, ())
            while parent is not top and (
                parent.tag in closes
                or (parent.tag == "p" and tag in P_CLOSERS)
            ):
                stack.pop()
                open_count[parent.tag] -= 1
                parent = stack[-1]
            start, end = m.span("attrs")
            el = Element(tag, _attrs(text, start, end) if start < end else {},
                         [])
            parent.children.append(el)
            if close == "/>" or tag in VOID_ELEMENTS:
                continue
            if tag in RAW_TEXT_ELEMENTS:
                # Raw text runs to the matching end tag or to end of input.
                end = _RAW_END[tag].search(text, pos)
                stop = end.start() if end else n
                if stop > pos:
                    el.children.append(Text(text[pos:stop]))
                pos = end.end() if end else n
                continue
            stack.append(el)
            open_count[tag] = open_count.get(tag, 0) + 1
        elif kind == "end":
            tag = (m.group("name") or m.group("name2")).lower()
            if open_count.get(tag):
                while True:
                    closed = stack.pop().tag
                    open_count[closed] -= 1
                    if closed == tag:
                        break
        elif kind in ("comment", "bogus"):
            parent.children.append(Comment(m.group(kind + "_data")))
        elif kind == "doctype":
            parent.children.append(Doctype(m.group("decl")))
        elif kind == "cut":
            break  # end of input inside an end tag
    if len(parts) > 1:
        text_node.data = "".join(parts)
    return top


def parse_fragment_element(text: str) -> Element:
    """Parse text that must contain exactly one top-level element.

    Whitespace-only text, comments, and doctypes around the element are
    ignored; any other top-level content raises ``InvalidFragmentError``.
    """
    elements = []
    for node in _tokenize(text).children:
        if isinstance(node, Element):
            elements.append(node)
        elif isinstance(node, Text) and node.data.strip():
            raise InvalidFragmentError("fragment contains top-level text")
    if len(elements) != 1:
        raise InvalidFragmentError(
            f"fragment must contain exactly one element, got {len(elements)}",
            len(elements))
    return elements[0]


def _normalize_document(top: Element) -> Element:
    roots = [n for n in top.children if isinstance(n, Element)]
    if len(roots) == 1 and roots[0].tag == "html":
        html = roots[0]
    else:
        html = Element("html", {}, [
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


def parse_html(text: str) -> DomDocument:
    """Parse (possibly malformed) HTML text into a normalized document."""
    return DomDocument(_normalize_document(_tokenize(text)))


def escape_text(data: str) -> str:
    """``data`` as the canonical serialization writes text."""
    return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(data: str) -> str:
    return (
        data.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def start_tag(tag: str, attrs) -> str:
    """The canonical start tag of ``tag`` with ``attrs``, (name, value)
    pairs in the order they are written."""
    if not attrs:
        return f"<{tag}>"
    text = "<" + tag
    for name, value in attrs:
        if "&" in value or "<" in value or ">" in value or '"' in value:
            value = _escape_attr(value)
        text += f' {name}="{value}"'
    return text + ">"


def split_start(html: str, pos: int = 0) -> Optional[tuple]:
    """(element, end): the canonical start tag at ``pos`` in ``html`` as an
    element with no children, and the offset just past it; None if no
    canonical start tag starts there."""
    m = _TOKEN.match(html, pos)
    if m is None or m.lastgroup != "start" or m.group("close") is None:
        return None
    start, end = m.span("attrs")
    tag = m.group("tag").lower()
    attrs = _attrs(html, start, end) if start < end else {}
    opened = m.end()
    if html[pos:opened] != start_tag(tag, attrs.items()):
        return None
    return Element(tag, attrs, []), opened


def split_element(html: str) -> Optional[tuple]:
    """(start, content) of ``html``, a snippet (see ``snippet``): its start
    tag as an element with no children, and its content as
    ``snippet_parts`` reads it.

    Only the start tag is parsed. None unless ``html`` is a canonical start
    tag, alone or followed by content and the matching end tag (for a void
    element, alone): only then is the start tag ``snippet_parts``' head.
    The content is not checked: it is canonical when ``html`` is a
    serialization.
    """
    split = split_start(html)
    if split is None:
        return None
    el, opened = split
    head, content, _ = snippet_parts(html)
    return (el, content) if len(head) == opened else None


def serialize_node(node: Node) -> str:
    """Canonical serialization of a node and its subtree."""
    return _serialize(node)


SNIPPET_LIMIT = 300  # longest outer HTML a snippet holds whole


def snippet(el: Element) -> str:
    """``el`` as axe-core reports an element (``dq-element.js``): its
    canonical outer HTML when that is at most ``SNIPPET_LIMIT`` characters,
    else its start tag alone. Serialization stops once it passes the limit,
    so a snippet costs O(``SNIPPET_LIMIT``) beyond the start tag."""
    html = _serialize(el, SNIPPET_LIMIT)
    return start_tag(el.tag, el.attrs.items()) if html is None else html


def snippet_parts(html: str) -> tuple:
    """(start tag, content, end tag) of ``html``, a snippet, by string work
    alone: a canonical start tag ends at its first ">", which attribute
    values escape. A void element's content and end tag are ""; a snippet
    cut to its start tag has content None and end tag "". Only the snippet
    is read, so a fix that renamed the element since changes nothing."""
    opened = html.find(">") + 1
    tag = html[1:opened - 1].partition(" ")[0]
    if tag in VOID_ELEMENTS:
        return html, "", ""
    close = f"</{tag}>"
    if not html.endswith(close):
        return html, None, ""
    return html[:opened], html[opened:-len(close)], close


def is_cut(html: str) -> bool:
    """Whether ``html``, a snippet, is its element's start tag alone: the
    whole snippet of a non-void element ends with its end tag."""
    return snippet_parts(html)[1] is None


_NODE_TYPES = frozenset((Element, Text, str, Comment, Doctype))


def _node_type(node) -> type:
    """The node class that ``node`` is an instance of; TypeError if none."""
    for kind in (str, Text, Comment, Doctype, Element):
        if isinstance(node, kind):
            return kind
    raise TypeError(f"cannot serialize a {type(node).__name__} node")


def _serialize(node: Node, limit: Optional[int] = None) -> Optional[str]:
    """The canonical form of ``node`` and its subtree, written with an
    explicit stack of nodes and pending end tags; a ``str`` on the stack is
    written as it is.

    Text under script or style is written unescaped, and a void element
    gets no end tag and no children. With a ``limit``, the result is None
    once it is longer than ``limit`` characters, and no node after the one
    that passed it is visited.
    """
    parts = []
    append = parts.append
    stack = [node]
    pop, push = stack.pop, stack.extend
    size = 0  # characters written, counted only with a limit
    while stack:
        node = pop()
        kind = type(node)
        if kind not in _NODE_TYPES:
            kind = _node_type(node)
        if kind is Element:
            tag, attrs, children = node.tag, node.attrs, node.children
            piece = start_tag(tag, attrs.items()) if attrs else f"<{tag}>"
            if tag in VOID_ELEMENTS:
                pass  # no end tag, and no children written
            elif not children:
                piece += f"</{tag}>"
            else:
                stack.append(f"</{tag}>")
                if tag in RAW_TEXT_ELEMENTS:
                    push([kid.data if isinstance(kid, Text) else kid
                          for kid in reversed(children)])
                else:
                    push(reversed(children))
        elif kind is Text:
            piece = node.data
            if limit is not None:  # no more than may still be written
                piece = piece[:limit - size + 1]
            if "&" in piece or "<" in piece or ">" in piece:
                piece = escape_text(piece)
        elif kind is str:
            piece = node
        elif kind is Comment:
            piece = f"<!--{node.data}-->"
        else:
            piece = f"<!{node.data}>"
        append(piece)
        if limit is not None:
            size += len(piece)
            if size > limit:
                return None
    return "".join(parts)


class Preorder(NamedTuple):
    """The elements under a root in document order, the root first. Element
    ``i`` is child ``slot[i]`` (of all nodes) of element ``parent[i]`` (-1
    for the root), and its subtree is ``elements[i + 1:end[i]]``."""

    elements: list
    parent: list
    slot: list
    end: list


def preorder(root: Element) -> Preorder:
    """Walk the elements under ``root`` once, with an explicit stack."""
    elements, parent, slot = [], [], []
    stack = [(root, -1, 0)]
    while stack:
        el, up, at = stack.pop()
        here = len(elements)
        elements.append(el)
        parent.append(up)
        slot.append(at)
        kids = el.children
        for k in range(len(kids) - 1, -1, -1):
            kid = kids[k]
            kind = type(kid)
            if kind is Element or (kind is not Text
                                   and isinstance(kid, Element)):
                stack.append((kid, here, k))
    end = list(range(1, len(elements) + 1))
    for i in range(len(elements) - 1, 0, -1):
        up = parent[i]
        if end[i] > end[up]:
            end[up] = end[i]
    return Preorder(elements, parent, slot, end)


@dataclass(frozen=True)
class NodeLocator:
    index: int  # pre-order position of the element in the document
    snippet: str  # the element's snippet when it was located


def locate(elements: list, index: int, html: str) -> Optional[Element]:
    """Element ``index`` of a document's pre-order ``elements`` if its
    ``snippet`` is exactly ``html``; None if stale or missing."""
    if 0 <= index < len(elements):
        el = elements[index]
        if snippet(el) == html:
            return el
    return None


def resolve(doc: DomDocument, loc: NodeLocator) -> Element:
    """``locate`` after one walk of ``doc``; StaleLocatorError if stale."""
    el = loc and locate(preorder(doc.root).elements, loc.index, loc.snippet)
    if el is None:
        raise StaleLocatorError(f"locator {loc and loc.index} is stale")
    return el


def find_by_snippet(doc: DomDocument, html: str) -> list:
    """A ``NodeLocator`` for each element of ``doc`` whose ``snippet`` is
    exactly ``html``, in document order: ``locate`` at every index of one
    walk."""
    elements = preorder(doc.root).elements
    return [NodeLocator(i, html) for i in range(len(elements))
            if locate(elements, i, html) is not None]


def replace_node(el: Element, replacement: Element) -> None:
    """Give ``el`` the tag, attributes and children of ``replacement``."""
    el.tag, el.attrs, el.children = (replacement.tag, replacement.attrs,
                                     replacement.children)
