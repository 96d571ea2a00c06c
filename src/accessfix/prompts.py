"""Prompt construction and provider-response parsing.

Three strategies are supported: ``react`` (one worked example with a
labeled Thought), ``few_shot`` (four incorrect/corrected example pairs, no
Thought), and ``chain_of_thought`` (a step-by-step instruction with no
worked example). Template text lives in ``templates/`` as plain files with
{{rule_id}}, {{html}}, {{description}}, and {{help}} placeholders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Optional

from .dom import VOID_ELEMENTS, Element, parse_fragment_element
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


@dataclass
class PromptBundle:
    strategy: str
    system_message: str
    user_message: str

    def messages(self) -> list:
        return [
            {"role": "system", "content": self.system_message},
            {"role": "user", "content": self.user_message},
        ]


@dataclass
class FixProposal:
    corrected_html: str
    thought: Optional[str]
    raw_response: str
    provider_id: str = ""

    @cached_property
    def element(self) -> Element:
        """``corrected_html`` parsed; ``InvalidFragmentError`` unless it is
        exactly one element. Parsed on first read only."""
        return parse_fragment_element(self.corrected_html)


def _render(template: str, values: dict) -> str:
    for key, value in values.items():
        template = template.replace("{{" + key + "}}", value)
    return template


def build_prompt(v: Violation, strategy: str) -> PromptBundle:
    """Build the deterministic system/user message pair for one violation."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    if not v.html_snippet.strip():
        raise IncompleteViolationError("violation has an empty HTML snippet")
    if not v.description.strip() or not v.help.strip():
        raise IncompleteViolationError("violation is missing description or help")
    user = _render(_TEMPLATES["user_message"], {
        "rule_id": v.rule_id,
        "description": v.description,
        "help": v.help,
        "html": v.html_snippet,
    })
    return PromptBundle(
        strategy=strategy,
        system_message=_TEMPLATES[f"{strategy}_system"],
        user_message=user,
    )


_CORRECTED_RE = re.compile(r"CORRECTED:\s*(`+)(?!`)(.+?)\1(?!`)", re.S)
_FENCE_RE = re.compile(r"```[a-zA-Z]*\n?(.*?)```", re.S)
_THOUGHT_RE = re.compile(
    r"Thought:\s*(.+?)(?=\n\s*\n|\nCORRECTED:|\n```|$)", re.S
)
_TAG_START_RE = re.compile(r"<([a-zA-Z][a-zA-Z0-9-]*)")


def _candidates(text: str):
    """Candidate fragments in priority order: the fragment between equal
    backtick runs after a CORRECTED: label, each fenced code block's body,
    then each balanced element anywhere in the text."""
    m = _CORRECTED_RE.search(text)
    if m:
        yield m.group(2).strip()
    for fence in _FENCE_RE.finditer(text):
        yield fence.group(1).strip()
    for m in _TAG_START_RE.finditer(text):
        tag = m.group(1).lower()
        start = m.start()
        gt = text.find(">", start)
        if gt == -1:
            continue
        if tag in VOID_ELEMENTS or text[gt - 1] == "/":
            yield text[start : gt + 1]
            continue
        depth = 0
        for tm in re.finditer(
            rf"</?{re.escape(tag)}(?=[\s/>])[^>]*>|</?{re.escape(tag)}>",
            text[start:],
            re.IGNORECASE,
        ):
            token = tm.group(0)
            if token.startswith("</"):
                depth -= 1
            elif not token.endswith("/>"):
                depth += 1
            if depth == 0:
                yield text[start : start + tm.end()]
                break


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
