import pytest

from accessfix import dom
from accessfix.errors import InvalidFragmentError, StaleLocatorError


def test_parse_minimal_document():
    doc = dom.parse_html("<p>hi</p>")
    assert doc.serialize() == "<html><head></head><body><p>hi</p></body></html>"


def test_parse_empty_input_synthesizes_skeleton():
    doc = dom.parse_html("")
    assert doc.serialize() == "<html><head></head><body></body></html>"


def test_auto_close_list_items():
    doc = dom.parse_html("<ul><li>a<li>b</ul>")
    body = doc.root.children[1]
    ul = body.children[0]
    lis = [c for c in ul.children if isinstance(c, dom.Element)]
    assert [li.tag for li in lis] == ["li", "li"]
    assert [dom.serialize_node(li) for li in lis] == ["<li>a</li>", "<li>b</li>"]


def test_head_elements_routed_to_head():
    doc = dom.parse_html("<title>t</title><p>x</p>")
    head, body = doc.root.children
    assert [c.tag for c in head.children] == ["title"]
    assert [c.tag for c in body.children] == ["p"]


def test_attribute_escaping():
    doc = dom.parse_html('<img src="x.png" alt="a&b">')
    assert '<img src="x.png" alt="a&amp;b">' in doc.serialize()


def test_text_escaping_round_trips():
    doc = dom.parse_html("<p>a &amp; b &lt; c</p>")
    assert "<p>a &amp; b &lt; c</p>" in doc.serialize()
    again = dom.parse_html(doc.serialize())
    assert again.serialize() == doc.serialize()


def test_duplicate_attributes_keep_first():
    doc = dom.parse_html('<p id="a" id="b">x</p>')
    assert '<p id="a">x</p>' in doc.serialize()


def test_attrs_are_a_dict_in_source_order():
    body = dom.parse_html('<p B="1" a="2" b="3">').root.children[1]
    attrs = body.children[0].attrs
    assert attrs == {"b": "1", "a": "2"}
    assert list(attrs) == ["b", "a"]


def test_void_elements_have_no_close_tag():
    doc = dom.parse_html("<br><hr><input>")
    out = doc.serialize()
    assert "</br>" not in out and "</hr>" not in out and "</input>" not in out


def test_script_content_preserved_verbatim():
    doc = dom.parse_html("<script>if (a < b && c) { go(); }</script>")
    assert "if (a < b && c) { go(); }" in doc.serialize()


def test_round_trip_idempotence_over_corpus(corpus_dir, corpus_manifest):
    for name in sorted(corpus_manifest):
        text = (corpus_dir / name).read_text("utf-8")
        once = dom.parse_html(text).serialize()
        assert dom.parse_html(once).serialize() == once


def test_split_element_reads_only_the_start_tag(corpus_dir, corpus_manifest):
    split = 0
    for name in corpus_manifest:
        doc = dom.parse_html((corpus_dir / name).read_text("utf-8"))
        for el in dom.preorder(doc.root).elements:
            snippet = dom.serialize_node(el)
            start, content = dom.split_element(snippet)
            assert isinstance(content, str)
            assert start == dom.Element(el.tag, el.attrs, [])
            end = "" if el.tag in dom.VOID_ELEMENTS else f"</{el.tag}>"
            assert dom.start_tag(start.tag, start.attrs.items()) + content \
                + end == snippet
            assert dom.snippet_parts(snippet)[1:] == (content, end)
            split += 1
    assert split > 600


@pytest.mark.parametrize("html", [
    "<P>x</P>", "<p >x</p>", '<img src=x.png>', "<p title='a'></p>",
    '<p id="a" id="b"></p>', "<p>x", "<p>x</div>", "<br>x", "x<p></p>",
    " <p></p>", "<!-- c --><p></p>", "", "<p", "<br></br>",
    '<img alt="a"></img>',
])
def test_split_element_takes_only_a_canonical_start_tag(html):
    assert dom.split_element(html) is None


def test_split_element_of_a_cut_snippet():
    """A non-void start tag alone is a snippet cut from its content."""
    assert dom.split_element("<div>") == (dom.Element("div"), None)


def test_find_by_snippet_finds_only_the_canonical_snippet():
    """An element is found by its snippet as written, not by another
    spelling of the same element."""
    doc = dom.parse_html('<img src="x.png" alt="logo">')
    found = dom.find_by_snippet(doc, '<img src="x.png" alt="logo">')
    assert [dom.resolve(doc, loc).tag for loc in found] == ["img"]
    assert dom.find_by_snippet(doc, '<IMG ALT="logo"  SRC="x.png" >') == []
    assert dom.find_by_snippet(doc, '<img alt="logo" src="x.png">') == []


def test_find_by_snippet_no_match_is_empty():
    doc = dom.parse_html("<p>hi</p>")
    assert dom.find_by_snippet(doc, "<em>nope</em>") == []


def test_find_by_snippet_multiple_matches_in_document_order():
    doc = dom.parse_html('<a href="#"></a><p>x</p><a href="#"></a>')
    found = dom.find_by_snippet(doc, '<a href="#"></a>')
    assert len(found) == 2
    assert found[0].index < found[1].index


def test_find_by_snippet_agrees_with_brute_force(corpus_dir, corpus_manifest):
    name = sorted(corpus_manifest)[0]
    doc = dom.parse_html((corpus_dir / name).read_text("utf-8"))
    snippet = '<a href="/home">Home</a>'
    expected = [
        i for i, el in enumerate(dom.preorder(doc.root).elements)
        if dom.snippet(el) == snippet
    ]
    assert expected
    found = dom.find_by_snippet(doc, snippet)
    assert [loc.index for loc in found] == expected
    assert {loc.snippet for loc in found} == {snippet}


def test_find_by_snippet_rejects_multi_element_snippet():
    """No element's snippet is several elements, so none is found."""
    doc = dom.parse_html("<p>a</p><p>b</p>")
    assert dom.find_by_snippet(doc, "<p>a</p><p>b</p>") == []
    assert len(dom.find_by_snippet(doc, "<p>a</p>")) == 1


def test_replace_node_changes_only_target_subtree():
    doc = dom.parse_html('<p>keep</p><img src="x.png"><p>also keep</p>')
    loc = dom.find_by_snippet(doc, '<img src="x.png">')[0]
    dom.replace_node(
        dom.resolve(doc, loc),
        dom.parse_fragment_element('<img src="x.png" alt="logo">'),
    )
    out = doc.serialize()
    assert '<img src="x.png" alt="logo">' in out
    assert "<p>keep</p>" in out and "<p>also keep</p>" in out


def test_replace_node_with_own_serialization_is_identity():
    doc = dom.parse_html("<p>hi</p>")
    before = doc.serialize()
    loc = dom.find_by_snippet(doc, "<p>hi</p>")[0]
    dom.replace_node(dom.resolve(doc, loc),
                     dom.parse_fragment_element("<p>hi</p>"))
    assert doc.serialize() == before


def test_replace_node_rejects_multi_element_fragment():
    doc = dom.parse_html("<p>hi</p>")
    loc = dom.find_by_snippet(doc, "<p>hi</p>")[0]
    with pytest.raises(InvalidFragmentError):
        dom.replace_node(dom.resolve(doc, loc),
                         dom.parse_fragment_element("<p>a</p><p>b</p>"))


def test_stale_locator_detected_after_mutation():
    doc = dom.parse_html("<p>hi</p>")
    loc = dom.find_by_snippet(doc, "<p>hi</p>")[0]
    dom.replace_node(dom.resolve(doc, loc),
                     dom.parse_fragment_element("<p>changed</p>"))
    with pytest.raises(StaleLocatorError):
        dom.resolve(doc, loc)
    with pytest.raises(StaleLocatorError):
        dom.replace_node(dom.resolve(doc, loc),
                         dom.parse_fragment_element("<p>again</p>"))


def test_locator_survives_text_before_its_element_but_not_a_change_to_it():
    doc = dom.parse_html('<p>a</p><img src="x.png">')
    loc = dom.find_by_snippet(doc, '<img src="x.png">')[0]
    body = doc.root.children[1]
    body.children.insert(0, dom.Text("new text"))
    assert dom.resolve(doc, loc) is body.children[2]
    body.children[2].attrs["alt"] = "x"
    with pytest.raises(StaleLocatorError):
        dom.resolve(doc, loc)


def test_replace_root_element():
    doc = dom.parse_html("<p>hi</p>")
    loc = dom.NodeLocator(0, doc.serialize())
    dom.replace_node(dom.resolve(doc, loc), dom.parse_fragment_element(
        '<html lang="en"><head></head><body><p>hi</p></body></html>'
    ))
    assert doc.root.attrs.get("lang") == "en"
