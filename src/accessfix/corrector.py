"""Apply fix proposals to documents and record per-violation outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .dom import (
    DomDocument,
    Element,
    is_cut,
    locate,
    preorder,
    snippet,
    start_tag,
)
from .errors import (
    IncompleteViolationError,
    InvalidFragmentError,
    NoRecipeError,
    ProviderUnavailableError,
    ReplayMissError,
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


def apply_fix(el: Element, v: Violation, p: FixProposal) -> CorrectionRecord:
    """Rewrite ``el`` in place into ``p``'s element by running ``p.edit``
    on it. A ``Replace`` raises ``InvalidFragmentError`` unless its answer
    is exactly one element, and an edit with no recipe at its turn
    ``NoRecipeError``; either is recorded, and leaves ``el`` as is."""
    try:
        p.edit(el)
    except InvalidFragmentError as exc:
        return CorrectionRecord(v, p, PARSE_FAILED, str(exc))
    except NoRecipeError as exc:
        return CorrectionRecord(v, p, NO_RECIPE, str(exc))
    return CorrectionRecord(v, p, APPLIED)


def _correct(el: Optional[Element], v: Violation, propose) -> CorrectionRecord:
    if el is None:
        return CorrectionRecord(v, None, MATCH_FAILED, _STALE)
    try:
        proposal = propose()
    except NoRecipeError as exc:
        return CorrectionRecord(v, None, NO_RECIPE, str(exc))
    except (ProviderUnavailableError, ReplayMissError) as exc:
        return CorrectionRecord(v, None, PROVIDER_FAILED, str(exc))
    except (IncompleteViolationError, InvalidFragmentError,
            UnparseableResponseError) as exc:
        return CorrectionRecord(v, None, PARSE_FAILED, str(exc))
    return apply_fix(el, v, proposal)


def _independent(targets, end: list) -> set:
    """Indices of the located targets that no other target's fix can reach.

    In ``(index, i)`` order an element's subtree follows it, so a
    target is independent when the next one lies at or past its pre-order
    ``end``. A second violation on the same element lies inside it. A
    target whose snippet is its start tag alone reaches only to its own
    element: no fix below an element changes its start tag.
    """
    located = sorted((v.index, i)
                     for i, (el, v) in enumerate(targets) if el is not None)
    following = [at for at, _ in located[1:]] + [len(end)]
    return {i for (at, i), after in zip(located, following)
            if after >= end[at] or after > at
            and is_cut(targets[i][1].html_snippet)}


def correct_document(
    doc: DomDocument,
    violations,
    provider,
    strategy: str = "react",
    walk=None,
) -> tuple:
    """Run prompt -> propose -> apply for each violation, from the last in
    document order (the order ``rules.audit`` returns) to the first.

    Violation ``v``'s target is element ``v.index`` of ``walk``, if given:
    the ``dom.preorder`` walk that ``rules.audit`` found ``violations`` on,
    of ``doc`` unchanged since. Else each distinct (index, snippet) is
    located (``dom.locate``) after one walk. A fix rewrites its element in
    place, so no fix moves a target still waiting for its own; a recipe's
    answer edits that element (``apply_fix`` runs the proposal's ``edit``).
    Failures are recorded and skipped: one record per violation, in input
    order.

    A target that no other fix can reach (see ``_independent``) is prompted
    with its audited snippet; any other with its element's snippet at its
    turn, so a fix that landed inside it shows, or with its element's start
    tag if the audited snippet was the start tag alone. The provider gets a
    copy of the violation whose ``element`` is the target; the record keeps
    the violation. A provider whose ``max_in_flight`` is above 1
    (``RemoteProvider``) is asked for every independent target up front,
    on a pool of that many threads. The fixes, their order, the prompts and
    the records are those of a provider asked one violation at a time.
    """
    elements, _, _, end = walk or preorder(doc.root)
    if walk is None:
        found = {key: locate(elements, *key)
                 for key in {(v.index, v.html_snippet) for v in violations}}
        targets = [(found[v.index, v.html_snippet], v) for v in violations]
    else:
        targets = [(elements[v.index], v) for v in violations]
    independent = _independent(targets, end)

    def ask(i: int) -> FixProposal:
        el, v = targets[i]
        html = v.html_snippet
        if i not in independent:
            html = (start_tag(el.tag, el.attrs.items())
                    if is_cut(html) else snippet(el))
        v = Violation(v.rule_id, v.impact, v.description, v.help,
                      html, v.index, v.web_url, v.data, el)
        return provider.propose(build_prompt(v, strategy), v)

    early = {}
    pool = None
    try:
        in_flight = getattr(provider, "max_in_flight", 1)
        if in_flight > 1 and independent:
            # Imported on first use: in-process providers start no thread.
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(in_flight)
            for i in sorted(independent, reverse=True):
                early[i] = pool.submit(ask, i).result
        records = [_correct(el, v, early.get(i) or partial(ask, i))
                   for i, (el, v) in reversed(list(enumerate(targets)))]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return doc, records[::-1]
