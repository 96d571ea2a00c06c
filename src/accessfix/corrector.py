"""Apply fix proposals to documents and record per-violation outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dom import (
    DomDocument,
    find_by_snippet,
    parse_fragment_element,
    replace_node,
    resolve,
)
from .errors import (
    IncompleteViolationError,
    InvalidFragmentError,
    InvalidSnippetError,
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


@dataclass
class CorrectionRecord:
    violation: Violation
    proposal: Optional[FixProposal]
    outcome: str
    detail: str = ""


def apply_fix(doc: DomDocument, v: Violation, p: FixProposal) -> CorrectionRecord:
    """Replace the violating node with the corrected fragment.

    Target resolution: the violation's locator when still fresh, otherwise the
    first document-order match of its snippet. Failures leave the document
    untouched.
    """
    try:
        replacement = parse_fragment_element(p.corrected_html)
    except InvalidFragmentError as exc:
        return CorrectionRecord(v, p, PARSE_FAILED, str(exc))

    locator = None
    try:
        if v.locator is None:
            raise StaleLocatorError("violation has no locator")
        resolve(doc, v.locator)
        locator = v.locator
    except StaleLocatorError:
        try:
            matches = find_by_snippet(doc, v.html_snippet)
        except InvalidSnippetError as exc:
            return CorrectionRecord(v, p, MATCH_FAILED, str(exc))
        if not matches:
            return CorrectionRecord(
                v, p, MATCH_FAILED, "stale locator and no snippet match"
            )
        locator = matches[0]

    replace_node(doc, locator, replacement)
    return CorrectionRecord(v, p, APPLIED)


def correct_document(
    doc: DomDocument,
    violations,
    provider,
    strategy: str = "react",
) -> tuple:
    """Run prompt -> propose -> apply for each violation in document order.

    Per-violation failures are recorded and skipped; exactly one record is
    returned per input violation.
    """
    records = []
    for v in violations:
        try:
            bundle = build_prompt(v, strategy)
        except IncompleteViolationError as exc:
            records.append(CorrectionRecord(v, None, PARSE_FAILED, str(exc)))
            continue
        try:
            proposal = provider.propose(bundle, v)
        except NoRecipeError as exc:
            records.append(CorrectionRecord(v, None, NO_RECIPE, str(exc)))
            continue
        except (ProviderUnavailableError, ReplayMissError) as exc:
            records.append(CorrectionRecord(v, None, PROVIDER_FAILED, str(exc)))
            continue
        except UnparseableResponseError as exc:
            records.append(CorrectionRecord(v, None, PARSE_FAILED, str(exc)))
            continue
        records.append(apply_fix(doc, v, proposal))
    return doc, records
