"""The scanner against html.parser, which serves as its oracle here only.

On input where no construct is still open at end of input, the scanner
builds the same tree as html.parser's tokenizer driving the same
construction rules. At end of input it follows WHATWG instead; those cases
are pinned one by one below.
"""

from html.parser import HTMLParser
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accessfix import dom


class _Oracle(HTMLParser):
    """html.parser's tokens, built with the package's construction rules."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = [dom.Element("#fragment")]

    def _append(self, node):
        children = self.stack[-1].children
        if (isinstance(node, dom.Text) and children
                and isinstance(children[-1], dom.Text)):
            children[-1] = dom.Text(children[-1].data + node.data)
        else:
            children.append(node)

    def handle_startendtag(self, tag, attrs):
        while len(self.stack) > 1 and (
            self.stack[-1].tag in dom._AUTO_CLOSE.get(tag, ())
            or (self.stack[-1].tag == "p" and tag in dom._P_CLOSERS)
        ):
            self.stack.pop()
        first = {}
        for name, value in attrs:
            first.setdefault(name.lower(), value or "")
        self._append(dom.Element(tag, first))

    def handle_starttag(self, tag, attrs):
        self.handle_startendtag(tag, attrs)
        if tag not in dom.VOID_ELEMENTS:
            self.stack.append(self.stack[-1].children[-1])

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if data:
            self._append(dom.Text(data))

    def handle_comment(self, data):
        self._append(dom.Comment(data))

    def handle_decl(self, decl):
        self._append(dom.Doctype(decl))


def oracle_fragment(text):
    parser = _Oracle()
    parser.feed(text)
    parser.close()
    return parser.stack[0].children


def dump(nodes):
    """Pre-order events of a node list, walked with an explicit stack."""
    events, stack = [], list(reversed(nodes))
    while stack:
        node = stack.pop()
        if node is None:
            events.append(("end",))
        elif isinstance(node, dom.Element):
            events.append(("start", node.tag, tuple(node.attrs.items())))
            stack.append(None)
            stack.extend(reversed(node.children))
        else:
            events.append((type(node).__name__, node.data))
    return events


def agrees(text):
    return dump(dom.parse_fragment(text)) == dump(oracle_fragment(text))


def test_scanner_matches_oracle_on_bundled_and_generated_pages(
        perfbench_pages):
    fixtures = resources.files("accessfix") / "fixtures"
    pages = [
        (f"{folder}/{path.name}", path.read_text("utf-8"))
        for folder in ("corpus", "rules")
        for path in sorted((fixtures / folder).iterdir(), key=str)
        if path.name.endswith(".html")
    ]
    pages += perfbench_pages
    assert len(pages) > 150
    assert [name for name, html in pages if not agrees(html)] == []


# Near-well-formed HTML: every construct is complete, but tags misnest,
# end tags go unmatched, attributes repeat, and entities, quotes, ">" in
# values, stray "<", comments, raw text and dropped markup all appear.
_names = st.sampled_from([
    "p", "P", "div", "span", "a", "li", "ul", "td", "tr", "table", "option",
    "img", "br", "input", "h1", "main", "section", "x-y", "svg:g",
])
_entities = st.sampled_from([
    "&amp;", "&lt;", "&quot;", "&#65;", "&#x41;", "&copy", "&nbsp;", "& ",
    "&", "&am", "&#", "&#x;",
])
_text = st.lists(st.one_of(
    st.text(alphabet="ab Z1\n\t;#=\"'/>-!?]", max_size=6), _entities,
), max_size=4).map("".join)


def _quoted(quote):
    inner = st.lists(st.one_of(
        st.text(alphabet="a >&;/=" + ("'\"".replace(quote, "")), max_size=4),
        _entities,
    ), max_size=3).map("".join)
    return st.builds("{0}{1}{2}{1}".format,
                     st.sampled_from(["=", " = ", "=="]), st.just(quote), inner)


_value = st.one_of(
    st.just(""), _quoted('"'), _quoted("'"),
    st.builds("={}".format, st.lists(st.one_of(
        st.text(alphabet="a;/='\"", min_size=1, max_size=4), _entities,
    ), min_size=1, max_size=3).map("".join).filter(
        lambda v: v[0] not in "'\"=")),
)
_attr = st.builds(
    "{}{}{}".format, st.sampled_from([" ", "  ", "\n", "\t ", "/", " /"]),
    st.sampled_from(["id", "ID", "class", "href", "alt", "data-x", "title",
                     "x:y"]),
    _value,
)
_start = st.builds(
    "<{}{}{}{}".format, _names, st.lists(_attr, max_size=3).map("".join),
    st.sampled_from(["", " ", "\n"]), st.sampled_from([">", "/>"]),
)
_end = st.builds("</{}{}{}>".format, st.sampled_from(["", " ", "\n"]),
                 _names, st.sampled_from(["", " ", "\n"]))
_raw = st.builds(
    "<{0}>{1}</{2}{0}{3}>".format,
    st.sampled_from(["script", "style", "SCRIPT"]),
    st.text(alphabet="ab <>/&;'\"!-", max_size=8),
    st.sampled_from(["", " "]), st.sampled_from(["", " ", "\n"]),
)
_other = st.one_of(
    st.builds("<!--{}{}".format, st.text(alphabet="ab <>-!&/", max_size=6),
              st.sampled_from(["-->", "-- >", "--\n>"])),
    st.sampled_from([
        "<!DOCTYPE html>", "<!doctype html>", "< ", "<3", "</>", "<?pi x?>",
        "<!x>", "</ x>", "</1>", "<![CDATA[a<b]]>", "<![CDATA[a] >b] ]>",
        "<![RCDATA[x]]>", "<![temp[ x ]]>", "<![if x]>", "<![else]>",
        "<![endif] >", "<a&amp;\x00b>", "<a\"\x00b>",
    ]),
)


def _nothing_open_at_end(text):
    """html.parser holds back unparsed only a construct still open at end of
    input. Pieces can join into one: a bare value can swallow the next
    attribute's opening quote and leave its closing quote open."""
    parser = HTMLParser()
    parser.feed(text)
    return not parser.rawdata.startswith("<")


near_well_formed = st.lists(
    st.one_of(_text, _start, _end, _raw, _other), max_size=25,
).map("".join).filter(_nothing_open_at_end)


@settings(max_examples=250, deadline=None)
@given(near_well_formed)
def test_scanner_matches_oracle_on_near_well_formed_html(text):
    assert dump(dom.parse_fragment(text)) == dump(oracle_fragment(text))


T, C, D = dom.Text, dom.Comment, dom.Doctype


@pytest.mark.parametrize("text, nodes", [
    # A start or end tag still open at end of input is dropped, with all
    # that follows it; so is a quoted value that never closes.
    ("x<a b", [T("x")]),
    ("x<a title=\"y>z</a>w", [T("x")]),
    ("x<p id=;/id=\" ;=\">", [T("x")]),
    ("x</a", [T("x")]),
    # Comments, doctypes and bogus comments end at end of input.
    ("x<!--y<p>", [T("x"), C("y<p>")]),
    ("x<!DOCTYPE html", [T("x"), D("DOCTYPE html")]),
    ("x<!y", [T("x"), C("y")]),
    ("x</1", [T("x"), C("1")]),
    # A processing instruction or marked section is dropped, as when closed.
    ("x<?pi", [T("x")]),
    ("x<![CDATA[y", [T("x")]),
    # Raw text runs to end of input.
    ("<script>a<b", [dom.Element("script", {}, [T("a<b")])]),
    ("<style>", [dom.Element("style")]),
], ids=["start-tag", "quoted-value", "swallowed-quote", "end-tag", "comment",
        "doctype", "bogus-comment", "bogus-end-tag", "pi", "marked-section",
        "raw-text", "empty-raw-text"])
def test_end_of_input_follows_whatwg(text, nodes):
    assert dom.parse_fragment(text) == nodes


def test_unknown_marked_section_is_a_bogus_comment():
    # html.parser raises AssertionError here.
    assert dom.parse_fragment("<![foo]>x") == [C("[foo]"), T("x")]
