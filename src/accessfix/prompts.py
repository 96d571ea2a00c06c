"""Prompt construction and provider-response parsing.

Three strategies are supported: ``react`` (one worked example with a
labeled Thought), ``few_shot`` (four incorrect/corrected example pairs, no
Thought), and ``chain_of_thought`` (a step-by-step instruction with no
worked example). Template text lives in ``templates/`` as plain files with
{{rule_id}}, {{html}}, {{description}}, and {{help}} placeholders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from importlib import resources
from typing import Callable, Optional

from .dom import (RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Element, Text,
                  escape_text, is_cut, parse_fragment_element, parses_alike,
                  replace_node, serialize_node, snippet_parts, split_element,
                  split_start, start_tag)
from .errors import (
    IncompleteViolationError,
    InvalidFragmentError,
    UnparseableResponseError,
)
from .rules import Violation, main_wrap

STRATEGIES = ("react", "few_shot", "chain_of_thought")

_TEMPLATES = {
    name: resources.files("accessfix").joinpath(
        "templates", f"{name}.txt"
    ).read_text("utf-8")
    for name in (
        "react_system", "few_shot_system", "chain_of_thought_system",
        "user_message",
    )
}


@dataclass(eq=False)
class PromptBundle:
    """A system/user message pair. The user message is the user template
    filled with ``values``, rendered when it is first read, so a provider
    that reads no prompt text costs no rendering. Bundles compare by their
    strategy and messages."""

    strategy: str
    system_message: str
    values: dict = field(repr=False)  # placeholder name -> its text
    _user: Optional[str] = field(default=None, init=False, repr=False)

    @property
    def user_message(self) -> str:
        # Not a cached_property, whose lock on first read costs more than
        # the rendering. Two threads that race here render the same text.
        if self._user is None:
            self._user = _render(_USER_PARTS, self.values)
        return self._user

    def __eq__(self, other):
        if not isinstance(other, PromptBundle):
            return NotImplemented
        return ((self.strategy, self.system_message, self.user_message)
                == (other.strategy, other.system_message, other.user_message))

    def messages(self) -> list:
        return [
            {"role": "system", "content": self.system_message},
            {"role": "user", "content": self.user_message},
        ]


@dataclass(frozen=True)
class _TagEdit:
    """An edit made with one start tag. ``attrs`` holds (name, value) pairs;
    each element it is applied to gets an ``attrs`` dict of its own. Edits
    of two kinds never compare equal. The kinds subclass this one frozen
    dataclass, so importing the module sets up one dataclass, not four.

    ``render(snippet)`` is the answer that makes the edit of ``snippet``,
    which ``parse_fix`` reads back as this edit: string work on a whole
    snippet or on one cut to its start tag (``dom.snippet_parts``)."""

    tag: str
    attrs: tuple


class StartTag(_TagEdit):
    """An edit that gives an element this start tag and keeps its
    children."""

    def __call__(self, el: Element) -> None:
        el.tag = self.tag
        el.attrs = dict(self.attrs)

    def render(self, snippet: str) -> str:
        content = snippet_parts(snippet)[1]
        tag = start_tag(self.tag, self.attrs)
        if content is None or self.tag in VOID_ELEMENTS:
            return tag
        return f"{tag}{content}</{self.tag}>"


class WrapChildren(_TagEdit):
    """An edit that puts an element's children into a new element with
    this start tag, its one child."""

    def __call__(self, el: Element) -> None:
        el.children = [Element(self.tag, dict(self.attrs), el.children)]

    def render(self, snippet: str) -> str:
        head, content, end = snippet_parts(snippet)
        tag = start_tag(self.tag, self.attrs)
        if content is None:
            return snippet + tag
        return f"{head}{tag}{content}</{self.tag}>{end}"


class WrapSelf(_TagEdit):
    """An edit that turns an element into a new element with this start
    tag around a copy of the original, which keeps its tag, attributes and
    children."""

    def __call__(self, el: Element) -> None:
        el.tag, el.attrs, el.children = (
            self.tag, dict(self.attrs), [Element(el.tag, el.attrs, el.children)])

    def render(self, snippet: str) -> str:
        tag = start_tag(self.tag, self.attrs)
        if is_cut(snippet):
            return tag + snippet
        return f"{tag}{snippet}</{self.tag}>"


class WrapBody(_TagEdit):
    """An edit of a page's root that wraps the content of its body in a new
    ``main`` with these attributes (``rules.main_wrap``), unless the page
    has a main landmark; ``tag`` is "main"."""

    def __call__(self, el: Element) -> None:
        main_wrap(el, self.attrs)

    def render(self, snippet: str) -> str:
        """A whole snippet, a page of at most ``dom.SNIPPET_LIMIT``
        characters, is parsed for ``main_wrap`` to run on."""
        if is_cut(snippet):
            return snippet + "<body>" + start_tag(self.tag, self.attrs)
        root = parse_fragment_element(snippet)
        self(root)
        return serialize_node(root)


@dataclass(frozen=True)
class AppendText:
    """An edit that adds text after an element's children, merged into a
    trailing text node as the parser merges adjacent text."""

    data: str

    def __call__(self, el: Element) -> None:
        kids = el.children
        if kids and isinstance(kids[-1], Text):
            kids[-1] = Text(kids[-1].data + self.data)
        else:
            kids.append(Text(self.data))

    def render(self, snippet: str) -> str:
        """Of a whole snippet only: one cut to its start tag shows no
        content to add text to."""
        head, content, end = snippet_parts(snippet)
        return head + content + escape_text(self.data) + end


@dataclass(eq=False)
class Replace:
    """An edit that hands an element over whole: the element ``html``
    parses to. ``element`` is that parse, if it is already made; the first
    application takes it, and a later one parses again.

    The document owns what it took; an edit that kept it would also keep
    alive every subtree that a later fix replaces, and would share it with
    the next document it is applied to.
    """

    html: str
    element: Optional[Element] = field(default=None, repr=False)

    def __call__(self, el: Element) -> None:
        replacement, self.element = self.element, None
        if replacement is None:
            replacement = parse_fragment_element(self.html)
        replace_node(el, replacement)


@dataclass
class FixProposal:
    """A fix: the corrected element as text, and the ``edit`` that makes it
    of the element it was asked for. The edit is one of ``StartTag``,
    ``WrapChildren``, ``WrapSelf``, ``WrapBody`` (the root
    ``landmark-one-main`` wrap) and ``AppendText``, or ``Replace``, which
    parses ``corrected_html``: the default. A recipe's proposal (``answer``)
    holds its edit, thought and snippet, and renders its texts on read."""

    corrected_html: str
    thought: Optional[str]
    raw_response: str
    provider_id: str = ""
    edit: Optional[Callable] = field(default=None, repr=False,
                                     compare=False)

    def __post_init__(self):
        if self.edit is None:
            self.edit = Replace(self.corrected_html)

    @classmethod
    def answer(cls, snippet: str, thought: str, provider_id: str,
               edit: Callable) -> "FixProposal":
        """The proposal of ``edit``, whose texts are rendered on first read:
        the ``Thought:`` / ``CORRECTED:`` response that offers
        ``edit.render(snippet)``, in the form ``parse_fix`` reads back; the
        fence has one backtick more than the longest run inside it."""
        proposal = cls.__new__(cls)
        proposal.thought, proposal.provider_id = thought, provider_id
        proposal.edit, proposal._snippet = edit, snippet
        return proposal

    def __getattr__(self, name: str):
        if name not in ("corrected_html", "raw_response"):  # see ``answer``
            raise AttributeError(name)
        corrected = self.edit.render(self._snippet)
        fence = "`"
        while fence in corrected:
            fence += "`"
        self.corrected_html = corrected
        self.raw_response = (f"Thought: {self.thought}\n"
                             f"CORRECTED: {fence}{corrected}{fence}")
        return getattr(self, name)


# The user message split at its placeholders: odd parts are their names.
_USER_PARTS = re.split(r"\{\{(\w+)\}\}", _TEMPLATES["user_message"])


def _render(parts: list, values: dict) -> str:
    """Fill the placeholders of a split template in one pass, so no value
    is searched for placeholders (a page's text may contain ``{{html}}``)."""
    return "".join(values[part] if i % 2 else part
                   for i, part in enumerate(parts))


def build_prompt(v: Violation, strategy: str) -> PromptBundle:
    """Build the deterministic system/user message pair for one violation.

    Every check runs here: an unknown strategy raises ValueError, an empty
    snippet or a missing description or help IncompleteViolationError. The
    user message is rendered only when it is first read."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    if not v.html_snippet.strip():
        raise IncompleteViolationError("violation has an empty HTML snippet")
    if not v.description.strip() or not v.help.strip():
        raise IncompleteViolationError("violation is missing description or help")
    return PromptBundle(strategy, _TEMPLATES[f"{strategy}_system"], {
        "rule_id": v.rule_id,
        "description": v.description,
        "help": v.help,
        "html": v.html_snippet,
    })


_CORRECTED_RE = re.compile(r"CORRECTED:\s*(`+)(?!`)(.+?)\1(?!`)", re.S)
_FENCE_RE = re.compile(r"```[a-zA-Z]*\n?(.*?)```", re.S)
_THOUGHT_RE = re.compile(
    r"Thought:\s*(.+?)(?=\n\s*\n|\nCORRECTED:|\n```|$)", re.S
)
_TAG_RE = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9-]*+)([\s/>]?)")


def _balanced_elements(text: str) -> list:
    """The (start, end) span of each balanced element in ``text``, in the
    order of its start tags.

    A tag runs from its "<" to the first ">" after it. A void or "/>"
    start tag is an element of its own. Any other start tag, from itself
    on, counts the tags of its name that a space, "/" or ">" follows: +1
    for a start tag, -1 for an end tag, 0 for a "/>" one. Its element ends
    with the tag at which the count comes back to 0. Of the tags of one
    name that end at the same ">", only the first counts, except that the
    count starts at the first one at or after the start tag itself.

    One pass keeps, per name, the running count over the counted tags; a
    start tag waits for the next tag of its name, then for the count to
    return to the level at which its own count is 0.
    """
    ends = {}  # start offset -> end offset of its element
    starts = []
    pending = {}  # name -> start offsets waiting for a tag of that name
    waiting = {}  # (name, count) -> start offsets waiting for that count
    count = {}  # name -> running count over the counted tags
    counted_at = {}  # name -> the ">" of the last counted tag
    gt = -1
    for m in _TAG_RE.finditer(text):
        if gt < m.start():
            gt = text.find(">", m.start())
            if gt < 0:
                break
        slash, name, follow = m.groups()
        name = name.lower()
        if not slash:
            starts.append(m.start())
            if name in VOID_ELEMENTS or text[gt - 1] == "/":
                ends[m.start()] = gt + 1
            else:
                pending.setdefault(name, []).append(m.start())
        if not follow:
            continue
        step = -1 if slash else 0 if text[gt - 1] == "/" else 1
        if counted_at.get(name) != gt:
            counted_at[name] = gt
            count[name] = count.get(name, 0) + step
            for start in waiting.pop((name, count[name]), ()):
                ends[start] = gt + 1
        for start in pending.pop(name, ()):
            if step == 0:
                ends[start] = gt + 1
            else:
                key = (name, count[name] - step)
                waiting.setdefault(key, []).append(start)
    return [(start, ends[start]) for start in starts if start in ends]


def _spans(text: str):
    """(start, end, fenced) of each candidate fragment in priority order:
    the fragment between equal backtick runs after a CORRECTED: label and
    each fenced code block's body (fenced), then each balanced element
    anywhere in the text."""
    m = _CORRECTED_RE.search(text)
    if m:
        yield (*m.span(2), True)
    for fence in _FENCE_RE.finditer(text):
        yield (*fence.span(1), True)
    for start, end in _balanced_elements(text):
        yield start, end, False


def _edits(answer: str, snippet: str, old: Element, content):
    """The edits that may make ``answer`` of the element that ``snippet``
    serializes, in the order ``parse_fix`` tries them: those that the
    answer's first one or two canonical start tags name. ``old`` and
    ``content`` are ``dom.split_element(snippet)``. Each edit, run on the
    element, gives the element that parsing its ``render(snippet)`` gives,
    so only edits that keep the parse are named. ``dom.parses_alike`` is
    asked only of a tag that the answer writes; the snippet's tag, itself
    a parse, is checked only for what it is:

    - a ``StartTag`` of the first tag, if it is kept, or if it parses
      alike and the snippet's tag is not raw text;
    - a ``WrapSelf`` in the first tag, if it parses alike;
    - if the first tag is the snippet's own:
      - a ``WrapChildren`` in the second tag, if that parses alike and
        the snippet's tag is neither a ``p``, which the new start tag
        would close, raw text nor void;
      - on an ``html`` snippet cut to its start tag, a ``WrapBody`` of
        the attributes of the start tag after a ``<body>``;
      - on a whole snippet of an element neither void nor raw text, an
        ``AppendText`` of the text between its content and its end tag,
        unescaped as the parser reads it, if that text holds no "<".
    """
    split = split_start(answer)
    if split is None:
        return
    new, opened = split
    attrs = tuple(new.attrs.items())
    markup = old.tag not in RAW_TEXT_ELEMENTS
    if new.tag == old.tag or (parses_alike(new.tag) and markup):
        yield StartTag(new.tag, attrs)
    if parses_alike(new.tag):
        yield WrapSelf(new.tag, attrs)
    # The first tag is the snippet's own if the snippet starts with it: a
    # canonical start tag ends at its one ">".
    if not snippet.startswith(answer[:opened]):
        return
    holds = markup and old.tag not in VOID_ELEMENTS
    inner = split_start(answer, opened)
    if inner is not None:
        wrapper, stop = inner
        if holds and old.tag != "p" and parses_alike(wrapper.tag):
            yield WrapChildren(wrapper.tag, tuple(wrapper.attrs.items()))
        if content is None and old.tag == "html" \
                and answer[opened:stop] == "<body>":
            main = split_start(answer, stop)
            if main is not None:
                yield WrapBody("main", tuple(main[0].attrs.items()))
    if content is not None and holds:
        end = len(old.tag) + 3  # the length of the end tag
        rest = answer[len(snippet) - end:len(answer) - end]
        if "<" not in rest:
            yield AppendText(unescape(rest))


def parse_fix(raw_response: str, provider_id: str = "",
              snippet: Optional[str] = None) -> FixProposal:
    """Extract the corrected tag from a response.

    The first candidate (see ``_spans``; each is stripped) that is an edit of
    ``snippet``, the element the prompt carried, or that parses as exactly
    one element wins. The edit is the first of ``_edits`` whose
    ``render(snippet)`` is the candidate; it is applied without a parse.
    A parsed answer is a ``Replace`` that holds its parse. Without a
    snippet every candidate is parsed. A candidate that is an edit of a
    whole element would have parsed, so such a snippet changes no winner.
    An answer to a snippet cut to its start tag is never parsed: it would
    hand over an element without the children that the model did not see.
    The model saw no content, so its answer changes none: failing a
    rendered form, it is a ``StartTag`` of its first start tag, whatever
    follows that, if ``_edits`` names one: a cut ``<script>`` renamed, or
    a rename into ``li``, is still refused.
    A fragment after ``CORRECTED:`` or in a fence that parses as more than
    one element, and nothing else, holds no candidate: a balanced element
    inside it would drop the rest of the model's answer. Never raises on
    arbitrary text except the typed unparseable-response error.
    """
    tm = _THOUGHT_RE.search(raw_response)
    thought = tm.group(1).strip() if tm else None
    old = split_element(snippet) if snippet is not None else None
    cut = old is not None and old[1] is None
    several = None  # marks the offsets inside a fragment of several elements
    for start, end, fenced in _spans(raw_response):
        if several is not None and several[start] and not fenced:
            continue
        candidate = raw_response[start:end].strip()
        edit = None
        for option in _edits(candidate, snippet, *old) if old else ():
            if option.render(snippet) == candidate:
                edit = option
                break
            if cut and type(option) is StartTag:
                edit = option  # unless a later option renders the answer
        if edit is None:
            if cut:
                continue
            try:
                edit = Replace(candidate, parse_fragment_element(candidate))
            except InvalidFragmentError as exc:
                if fenced and exc.elements > 1:
                    several = several or bytearray(len(raw_response))
                    several[start:end] = b"\1" * (end - start)
                continue
        return FixProposal(candidate, thought, raw_response, provider_id,
                           edit)
    raise UnparseableResponseError(
        "no corrected HTML element found in response"
    )
