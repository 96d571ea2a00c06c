"""The DOM kernels against the loops they replaced.

``reference_serialize``, ``reference_preorder`` and ``reference_index`` are
the serializer, the pre-order walk and the audit index build as they were
before their per-node loops were rewritten, copied verbatim apart from the
names they call. Every output must stay byte for byte the same: the
canonical serialization of each element, every ``Preorder`` list, and every
``_Index`` fact. Each checker's candidate list in the index is checked
against the filter of every element that it replaced.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from accessfix import dom, rules
from accessfix.dom import (RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Comment, Doctype,
                           Element, Text)
from test_start_tag_fixes import tag_soup


def reference_escape_text(data: str) -> str:
    return data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def reference_escape_attr(data: str) -> str:
    return (
        data.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def reference_start_tag(tag: str, attrs) -> str:
    if not attrs:
        return f"<{tag}>"
    text = "<" + tag
    for name, value in attrs:
        text += f' {name}="{reference_escape_attr(value)}"'
    return text + ">"


def reference_serialize(node) -> str:
    parts = []
    stack = [(node, False)]  # (node or end tag, parent is raw text)
    while stack:
        node, raw = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Text):
            data = node.data
            parts.append(data if raw else reference_escape_text(data))
        elif isinstance(node, Comment):
            parts.append(f"<!--{node.data}-->")
        elif isinstance(node, Doctype):
            parts.append(f"<!{node.data}>")
        else:
            parts.append(reference_start_tag(node.tag, node.attrs.items()))
            if node.tag in VOID_ELEMENTS:
                continue
            stack.append((f"</{node.tag}>", False))
            child_raw = node.tag in RAW_TEXT_ELEMENTS
            stack.extend((child, child_raw) for child in reversed(node.children))
    return "".join(parts)


def reference_preorder(root):
    elements, parent, slot = [], [], []
    stack = [(root, -1, 0)]
    while stack:
        el, up, at = stack.pop()
        here = len(elements)
        elements.append(el)
        parent.append(up)
        slot.append(at)
        for k in range(len(el.children) - 1, -1, -1):
            if isinstance(el.children[k], Element):
                stack.append((el.children[k], here, k))
    end = list(range(1, len(elements) + 1))
    for i in range(len(elements) - 1, 0, -1):
        end[parent[i]] = max(end[parent[i]], end[i])
    return dom.Preorder(elements, parent, slot, end)


def reference_index(doc):
    """The ``_Index`` fields, in order, but ``thresholds``."""
    elements, parent, slot, end = reference_preorder(doc.root)
    role, has_text, ids = [], [], {}
    for el in elements:
        words = el.attrs.get("role", "").split()
        role.append(words[0].lower() if words else "")
        value = el.attrs.get("id")
        if value and value not in ids:
            ids[value] = el
        has_text.append(any(isinstance(child, Text) and child.data.strip()
                            for child in el.children))
    shown = [el.tag not in ("script", "style") for el in elements]
    text = [t and s for t, s in zip(has_text, shown)]
    img = [False] * len(elements)
    for i in range(len(elements) - 1, 0, -1):
        up, el = parent[i], elements[i]
        if text[i] and shown[up]:
            text[up] = True
        if img[i] or el.tag == "img" and el.attrs.get("alt", "").strip():
            img[up] = True
    landmark = [rules._landmark_role(el, r, ids)
                for el, r in zip(elements, role)]
    return (elements, parent, slot, end, role, has_text, text, img, ids,
            landmark)


def reference_rendered_body(ix):
    """The walk of the body that the rendered-body list replaced."""
    body = i = next((i for i, up in enumerate(ix.parent)
                     if up == 0 and ix.elements[i].tag == "body"), None)
    if body is None:
        return
    while i < ix.end[body]:
        if ix.elements[i].tag in ("script", "style"):
            i = ix.end[i]
        else:
            yield i
            i += 1


def assert_candidates_agree(ix):
    """Each checker's candidate list against the filter of every element."""
    every = list(enumerate(ix.elements))
    tags = {}
    for i, el in every:
        tags.setdefault(el.tag, []).append(i)
    assert ix.tags == tags
    assert ix.id_carriers == [i for i, el in every if el.attrs.get("id")]
    assert ix.role_carriers == [
        i for i, el in every if el.attrs.get("role", "").split()]
    assert ix.landmarks == [i for i, role in enumerate(ix.landmark)
                            if role is not None]
    assert ix.headings == [
        (i, rules._heading_level(el, ix.role[i])) for i, el in every
        if rules._heading_level(el, ix.role[i]) is not None]
    assert ix.rendered_body == list(reference_rendered_body(ix))


def identities(value):
    """``value`` with every node replaced by its id, so lists of nodes
    compare by identity."""
    if isinstance(value, list):
        return [identities(v) for v in value]
    if isinstance(value, dict):
        return {k: identities(v) for k, v in value.items()}
    if isinstance(value, (Element, Text, Comment, Doctype)):
        return id(value)
    return value


SUBTREE_LIMIT = 50  # elements; bigger subtrees are covered by the root's


def assert_kernels_agree(doc):
    pre = dom.preorder(doc.root)
    assert identities(list(pre)) == \
        identities(list(reference_preorder(doc.root)))
    ix = rules._Index.build(doc, {})
    fields = (ix.elements, ix.parent, ix.slot, ix.end, ix.role, ix.has_text,
              ix.text, ix.described_img, ix.ids, ix.landmark)
    assert identities(list(fields)) == identities(list(reference_index(doc)))
    assert_candidates_agree(ix)
    for i, el in enumerate(pre.elements):
        if i and pre.end[i] - i > SUBTREE_LIMIT:
            continue  # deep pages would cost the square of their depth
        assert dom._serialize(el) == reference_serialize(el), i


def test_kernels_agree_on_the_corpus_and_the_rule_fixtures(
        corpus_paths, rules_dir, rules_manifest):
    pages = [Path(path).read_text("utf-8") for path in corpus_paths]
    pages += [(rules_dir / name).read_text("utf-8")
              for name in sorted(rules_manifest)]
    for html in pages:
        assert_kernels_agree(dom.parse_html(html))


def test_kernels_agree_on_the_benchmark_pages(perfbench_pages):
    for name, html in perfbench_pages:
        assert_kernels_agree(dom.parse_html(html))


@settings(max_examples=200, deadline=None)
@given(tag_soup)
def test_kernels_agree_on_tag_soup(html):
    assert_kernels_agree(dom.parse_html(html))


def hand_built():
    """A tree no parse makes: a template with a ``str`` child, an element
    under a script, comments and a doctype anywhere, and the escaped
    characters in attribute values and in text, together and alone."""
    odd = '&<>"'
    template = Element("p", {"title": odd}, ["<b>kept</b> as &amp; is"])
    script = Element("script", {"data-x": odd}, [
        Text(" a <b> && c "), Comment("in script"),
        Element("b", {"z": "1", "a": odd}, [Text(odd + "  two  words")]),
        "<raw str>",
    ])
    style = Element("style", {}, [Text("x > y { }")])
    body = Element("body", {"class": "a  b"}, [
        Comment(" c "), Text("  "), template, script, style,
        Element("div", {"role": " Main  x", "id": odd}, [
            Text(odd), Element("br", {}, [Text("dropped")]),
            Element("section", {"aria-label": "S"}, [Doctype("doctype x")]),
        ]),
        Element("img", {"alt": 'say "y"', "src": "a&b.png"}),
        Element("form", {}, [Text("\n")]),
        Element("form", {"aria-label": "F"}, [Text("a > b")]),
    ])
    head = Element("head", {}, [Element("title", {}, [Text("t")])])
    return dom.DomDocument(Element("html", {"lang": odd}, [
        Doctype("DOCTYPE html"), head, body]))


def test_kernels_agree_on_hand_built_trees():
    doc = hand_built()
    assert_kernels_agree(doc)
    out = doc.serialize()
    assert '<p title="&amp;&lt;&gt;&quot;"><b>kept</b> as &amp; is</p>' in out
    assert "<script" in out and " a <b> && c <!--in script-->" in out


@pytest.mark.parametrize("html, roles, headings", [
    ('<h1 role="">a</h1><div role="">b</div><p role="  ">c</p>',
     [], [("h1", 1)]),
    ('<div role="  Heading x" aria-level="3">a</div><p role="x Heading">',
     [("div", "heading"), ("p", "x")], [("div", 3)]),
    ('<h1 role="checkbox">a</h1><h3 role="heading" aria-level="1">b</h3>',
     [("h1", "checkbox"), ("h3", "heading")], [("h1", 1), ("h3", 3)]),
    ('<script role="heading">x</script><nav role="">n</nav>',
     [("script", "heading")], [("script", 2)]),
])
def test_candidates_agree_on_role_edge_cases(html, roles, headings):
    doc = dom.parse_html(f'<html lang="en"><body><main>{html}</main></body>'
                         "</html>")
    assert_kernels_agree(doc)
    ix = rules._Index.build(doc, {})
    tag = [el.tag for el in ix.elements]
    assert [(tag[i], ix.role[i]) for i in ix.role_carriers] == roles
    assert [(tag[i], level) for i, level in ix.headings] == headings


class Para(Element):
    pass


class Words(Text):
    pass


def test_node_subclasses_serialize_and_walk_as_their_base():
    inner = Para("em", {"title": "<"}, [Words("a<b")])
    doc = dom.DomDocument(Element("html", {}, [
        Element("head"), Para("body", {}, [
            inner, Element("script", {}, [Words("x<y")]), Words(" & ")]),
    ]))
    assert_kernels_agree(doc)
    assert doc.serialize() == (
        '<html><head></head><body><em title="&lt;">a&lt;b</em>'
        "<script>x<y</script> &amp; </body></html>")
    assert rules._Index.build(doc, {}).has_text[2]


def test_a_foreign_node_is_a_type_error_naming_it():
    class Widget:
        tag, attrs, children = "w", {}, []

    tree = Element("div", {}, [Text("a"), Widget()])
    with pytest.raises(TypeError, match="Widget"):
        dom._serialize(tree)
