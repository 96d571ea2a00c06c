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
from functools import cached_property
from importlib import resources
from typing import Callable, Optional

from .dom import (VOID_ELEMENTS, Element, parse_fragment_element,
                  replace_node, serialize_node)
from .errors import (
    IncompleteViolationError,
    InvalidFragmentError,
    UnparseableResponseError,
)
from .rules import Violation

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
class StartTag:
    """An edit that gives an element this start tag and keeps its children.
    ``attrs`` holds (name, value) pairs; each element it is applied to gets
    an ``attrs`` dict of its own."""

    tag: str
    attrs: tuple

    def __call__(self, el: Element) -> None:
        el.tag = self.tag
        el.attrs = dict(self.attrs)


@dataclass
class FixProposal:
    corrected_html: str
    thought: Optional[str]
    raw_response: str
    provider_id: str = ""
    # What makes ``corrected_html`` of the element that was asked for, run
    # on the live element instead of parsing the answer: a ``StartTag``, or
    # a recipe that edits the content; None for a parsed answer.
    edit: Optional[Callable] = field(default=None, repr=False,
                                     compare=False)

    @cached_property
    def element(self) -> Element:
        """``corrected_html`` parsed; ``InvalidFragmentError`` unless it is
        exactly one element. Parsed on first read only."""
        return parse_fragment_element(self.corrected_html)

    def apply_to(self, el: Element) -> None:
        """Rewrite ``el`` into the proposed element: run ``edit`` on it (a
        ``StartTag`` sets the answer's start tag, a recipe runs again), or
        hand over the answer's element whole; ``InvalidFragmentError``
        (``el`` untouched) unless that answer is exactly one element.

        A handed-over element is dropped from the proposal, so applying it
        again parses afresh. The document owns what it took; a proposal
        that kept it would also keep alive every subtree that a later fix
        replaces, and would share it with the next document it is applied
        to.
        """
        if self.edit is not None:
            self.edit(el)
            return
        replacement = self.element
        del self.element
        replace_node(el, replacement)

    @classmethod
    def answer(cls, el: Element, thought: str, provider_id: str,
               edit: Callable) -> "FixProposal":
        """The ``Thought:`` / ``CORRECTED:`` response that offers ``el``, in
        the form ``parse_fix`` reads back; the fence has one backtick more
        than the longest run inside it. ``edit`` makes on the element it is
        given the change that made ``el``."""
        corrected = serialize_node(el)
        fence = "`"
        while fence in corrected:
            fence += "`"
        raw = f"Thought: {thought}\nCORRECTED: {fence}{corrected}{fence}"
        return cls(corrected, thought, raw, provider_id, edit)


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
    """Each balanced element in ``text``, in the order of its start tags.

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
    return [text[start:ends[start]] for start in starts if start in ends]


def _candidates(text: str):
    """Candidate fragments in priority order: the fragment between equal
    backtick runs after a CORRECTED: label, each fenced code block's body,
    then each balanced element anywhere in the text."""
    m = _CORRECTED_RE.search(text)
    if m:
        yield m.group(2).strip()
    for fence in _FENCE_RE.finditer(text):
        yield fence.group(1).strip()
    yield from _balanced_elements(text)


def parse_fix(raw_response: str, provider_id: str = "") -> FixProposal:
    """Extract the corrected tag from a response.

    The first candidate (see ``_candidates``) that parses as exactly one
    element wins; its parse is kept on the proposal's ``element``. Never
    raises on arbitrary text except the typed unparseable-response error.
    """
    tm = _THOUGHT_RE.search(raw_response)
    thought = tm.group(1).strip() if tm else None
    for candidate in _candidates(raw_response):
        proposal = FixProposal(candidate, thought, raw_response, provider_id)
        try:
            proposal.element
        except InvalidFragmentError:
            continue
        return proposal
    raise UnparseableResponseError(
        "no corrected HTML element found in response"
    )
