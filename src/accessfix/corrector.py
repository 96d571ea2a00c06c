"""Apply fix proposals to documents and record per-violation outcomes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .dom import (
    DomDocument,
    Element,
    resolve,
    rewrite,
    serialize_node,
)
from .errors import (
    IncompleteViolationError,
    InvalidFragmentError,
    NoRecipeError,
    ProviderUnavailableError,
    ReplayMissError,
    StaleLocatorError,
    UnparseableResponseError,
)
from .prompts import FixProposal, build_prompt
from .rules import Violation

APPLIED = "applied"
PROVIDER_FAILED = "provider_failed"
PARSE_FAILED = "parse_failed"
MATCH_FAILED = "match_failed"
NO_RECIPE = "no_recipe"
_STALE = "missing or stale locator"  # detail of a MATCH_FAILED record


@dataclass
class CorrectionRecord:
    violation: Violation
    proposal: Optional[FixProposal]
    outcome: str
    detail: str = ""


def _target(doc: DomDocument, v: Violation) -> Optional[Element]:
    """The violation's element; None if its locator is missing or stale."""
    try:
        return resolve(doc, v.locator) if v.locator else None
    except StaleLocatorError:
        return None


def _apply(el: Element, v: Violation, p: FixProposal) -> CorrectionRecord:
    try:
        replacement = p.element
    except InvalidFragmentError as exc:
        return CorrectionRecord(v, p, PARSE_FAILED, str(exc))
    # The document now owns the parse; a record that kept it would also
    # keep alive every subtree that a later fix replaces.
    del p.element
    rewrite(el, replacement)
    return CorrectionRecord(v, p, APPLIED)


def apply_fix(doc: DomDocument, v: Violation, p: FixProposal) -> CorrectionRecord:
    """Rewrite the violating element in place with the corrected fragment.

    The violation's locator must still be fresh. Failures leave the document
    untouched. The element takes over the lists of ``p.element``, which the
    proposal then drops, so applying it again parses afresh.
    """
    el = _target(doc, v)
    if el is None:
        return CorrectionRecord(v, p, MATCH_FAILED, _STALE)
    return _apply(el, v, p)


def _correct(el: Optional[Element], v: Violation, provider, strategy: str):
    if el is None:
        return CorrectionRecord(v, None, MATCH_FAILED, _STALE)
    # A fix that already landed inside the target shows in its prompt.
    current = serialize_node(el)
    seen = v if current == v.html_snippet else replace(v, html_snippet=current)
    try:
        proposal = provider.propose(build_prompt(seen, strategy), seen)
    except NoRecipeError as exc:
        return CorrectionRecord(v, None, NO_RECIPE, str(exc))
    except (ProviderUnavailableError, ReplayMissError) as exc:
        return CorrectionRecord(v, None, PROVIDER_FAILED, str(exc))
    except (IncompleteViolationError, UnparseableResponseError) as exc:
        return CorrectionRecord(v, None, PARSE_FAILED, str(exc))
    return _apply(el, v, proposal)


def correct_document(
    doc: DomDocument,
    violations,
    provider,
    strategy: str = "react",
) -> tuple:
    """Run prompt -> propose -> apply for each violation, from the last in
    document order (the order ``rules.audit`` returns) to the first.

    Every target is resolved before any fix, and a fix rewrites its element
    in place, so no fix moves a target still waiting for its own. Failures
    are recorded and skipped: one record per violation, in input order.
    """
    targets = [(_target(doc, v), v) for v in violations]
    records = [_correct(el, v, provider, strategy) for el, v in targets[::-1]]
    return doc, records[::-1]
