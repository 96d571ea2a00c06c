"""Corpus ingestion, the one per-page path (audit -> fix -> re-audit), the
benchmark over it, and report rendering."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

from . import corrector, dom, prompts, rules, scoring
from .errors import ConfigError, SchemaError
from .providers import HeuristicProvider, Transcript, request_hash
from .scoring import AuditReport, BenchmarkResult, fmt2, fmt3

# Dataset column -> DatasetRow field, in export order.
_ROW_FIELDS = {
    "webURL": "web_url", "numViolations": "num_violations", "id": "rule_id",
    "initialScore": "initial_score", "description": "description",
    "help": "help", "html": "html", "DOM": "dom",
    "DOMCorrected": "dom_corrected",
}
ROW_COLUMNS = tuple(_ROW_FIELDS)
FETCH_TIMEOUT_S = 30.0
USER_AGENT = "accessfix/0.1"


@dataclass
class CorpusEntry:
    source_id: str
    html_text: str
    error: str = ""


def _default_fetch(url, timeout, user_agent) -> bytes:
    import urllib.request  # slow (http.client, ssl): import on first use

    request = urllib.request.Request(url, headers={"User-Agent": user_agent})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def _read(source, cache_dir, fetch, refresh) -> bytes:
    """A local file's bytes, or a URL's from the cache or else ``fetch``,
    which the cache then keeps unchanged."""
    if not source.startswith(("http://", "https://")):
        with open(source, "rb") as handle:
            return handle.read()
    cache_path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        key = hashlib.sha256(source.encode("utf-8")).hexdigest()[:24]
        cache_path = os.path.join(cache_dir, key + ".html")
        if os.path.exists(cache_path) and not refresh:
            with open(cache_path, "rb") as handle:
                return handle.read()
    data = fetch(source, FETCH_TIMEOUT_S, USER_AGENT)
    if cache_path:
        with open(cache_path, "wb") as handle:
            handle.write(data)
    return data


def ingest(sources, cache_dir=None, fetch=None, refresh=False) -> list:
    """Read local paths and fetch URLs (cached by source) into corpus entries.

    Every source's bytes are decoded here, as UTF-8, with "\\r\\n" and "\\r"
    read as "\\n". A source that cannot be read, fetched or decoded yields an
    entry with ``error`` set; the run continues.
    """
    fetch = fetch or _default_fetch
    entries = []
    for source in sources:
        try:
            text = _read(source, cache_dir, fetch, refresh).decode("utf-8")
        except Exception as exc:  # noqa: BLE001 - isolation per source
            entries.append(CorpusEntry(source, "", error=str(exc)))
            continue
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        entries.append(CorpusEntry(source, text))
    return entries


@dataclass
class DatasetRow:
    web_url: str
    num_violations: int
    rule_id: str
    initial_score: int
    description: str
    help: str
    html: str
    dom: str
    dom_corrected: str = ""

    def to_record(self) -> dict:
        return {column: getattr(self, name)
                for column, name in _ROW_FIELDS.items()}

    @classmethod
    def from_record(cls, record: dict, where: str) -> "DatasetRow":
        if not isinstance(record, dict):
            raise SchemaError(f"{where}: not an object")
        for column in ROW_COLUMNS:
            if column not in record:
                raise SchemaError(f"{where}: missing column '{column}'")
        values = {name: record[column] for column, name in _ROW_FIELDS.items()}
        try:
            for name in ("num_violations", "initial_score"):
                values[name] = int(values[name])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: non-integer count or score") from exc
        values["dom_corrected"] = values["dom_corrected"] or ""
        return cls(**values)


def rows_for_entry(entry, violations, score, dom_text,
                   dom_corrected="") -> list:
    return [
        DatasetRow(
            web_url=entry.source_id,
            num_violations=len(violations),
            rule_id=v.rule_id,
            initial_score=score,
            description=v.description,
            help=v.help,
            html=v.html_snippet,
            dom=dom_text,
            dom_corrected=dom_corrected,
        )
        for v in violations
    ]


@dataclass
class PageRun:
    """One page through audit and score and, with a provider, through
    correct, re-audit and score again. ``error`` is set instead when the
    page could not be ingested or its processing raised."""

    source_id: str
    error: str = ""
    initial: AuditReport | None = None
    final: AuditReport | None = None
    rows: list = field(default_factory=list)
    records: list = field(default_factory=list)
    corrected_html: str = ""


def run_pages(entries, provider=None, ruleset=None, strategy: str = "react",
              impacts=None, thresholds=None, weights=None, workers: int = 1):
    """Yield a PageRun per entry, in entry order, as each is done; without a
    provider a page is only audited and scored. A bad ruleset, a worker
    count below 1 or, with a provider, an unknown strategy raises before
    the first page; a page that fails yields a PageRun with ``error`` set."""
    ruleset = rules.check_ruleset(ruleset)
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if provider is not None and strategy not in prompts.STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    # A remote provider asks the endpoint once per distinct request of a run.
    provider = getattr(provider, "for_run", lambda: provider)()

    def audit(doc, source_id, walk=None):
        violations = rules.audit(doc, ruleset, web_url=source_id,
                                 impacts=impacts, thresholds=thresholds,
                                 walk=walk)
        return AuditReport.from_violations(violations, weights)

    def run_page(entry):
        page = PageRun(entry.source_id, entry.error)
        if entry.error:
            return page
        try:
            doc = dom.parse_html(entry.html_text)
            dom_text = doc.serialize()
            walk = dom.preorder(doc.root)
            page.initial = audit(doc, entry.source_id, walk)
            if provider is not None:
                corrected, page.records = corrector.correct_document(
                    doc, page.initial.violations, provider, strategy, walk
                )
                page.corrected_html = corrected.serialize()
                page.final = audit(corrected, entry.source_id)
            page.rows = rows_for_entry(entry, page.initial.violations,
                                       page.initial.score, dom_text,
                                       page.corrected_html)
        except Exception as exc:  # noqa: BLE001 - isolation per page
            page = PageRun(entry.source_id, f"{type(exc).__name__}: {exc}")
        return page

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # import on first use

        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run_page, entries)
    else:
        yield from map(run_page, entries)


def run_benchmark(entries, provider, ruleset=None, strategy: str = "react",
                  impacts=None, thresholds=None, weights=None,
                  model_name: str = "", workers: int = 1):
    """Audit, correct, and re-audit every corpus entry.

    Returns (BenchmarkResult, rows, records, failures); failures are
    (source_id, error) pairs for entries that could not be ingested and
    for pages whose processing raised, which are left out of the result.
    Pages run and report in source order, whatever the worker count.
    """
    runs, failures = [], []
    for run in run_pages(sorted(entries, key=lambda e: e.source_id),
                         provider, ruleset, strategy, impacts, thresholds,
                         weights, workers):
        if run.error:
            failures.append((run.source_id, run.error))
        else:
            runs.append(run)
    result = scoring.aggregate(
        [run.initial.score for run in runs],
        [run.final.score for run in runs],
        [v for run in runs for v in run.initial.violations],
        [v for run in runs for v in run.final.violations],
        model_name=model_name or getattr(provider, "provider_id", ""),
        strategy=strategy,
    )
    rows = [row for run in runs for row in run.rows]
    records = [record for run in runs for record in run.records]
    return result, rows, records, failures


def _is_json(path) -> bool:
    """A rows file is JSON when its name ends in ``.json``, else CSV."""
    return str(path).endswith(".json")


def export_rows(rows, path) -> None:
    """Write dataset rows as CSV or JSON, as the path's extension says."""
    if not _is_json(path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=ROW_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row.to_record())
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([row.to_record() for row in rows], handle, indent=2)
            handle.write("\n")


def import_rows(path) -> list:
    """Read dataset rows back, validating the schema row by row; the format
    is the path's, as for ``export_rows``."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read rows file {path}: {exc}") from exc
    rows = []
    if not _is_json(path):
        # A field is no longer than the file it is in.
        csv.field_size_limit(max(csv.field_size_limit(), len(text)))
        reader = csv.DictReader(io.StringIO(text, newline=""))
        try:
            header = reader.fieldnames or []
            for column in ROW_COLUMNS:
                if column not in header:
                    raise SchemaError(f"header: missing column '{column}'")
            for i, record in enumerate(reader):
                rows.append(DatasetRow.from_record(record, f"row {i + 1}"))
        except csv.Error as exc:
            raise SchemaError(f"{path}: malformed CSV: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"{path}: malformed JSON: {exc}") from exc
        if not isinstance(data, list):
            raise SchemaError("JSON dataset must be an array of objects")
        for i, record in enumerate(data):
            rows.append(DatasetRow.from_record(record, f"row {i + 1}"))
    return rows


@dataclass
class _RecordingProvider(HeuristicProvider):
    """The heuristic oracle, recording each response under its request hash."""

    transcript: Transcript

    def propose(self, bundle, violation=None):
        proposal = super().propose(bundle, violation)
        self.transcript.record(request_hash(bundle.messages()),
                               proposal.raw_response)
        return proposal


def build_replay_transcript(entries, ruleset=None, strategy: str = "react",
                            impacts=None, thresholds=None) -> Transcript:
    """Record heuristic-oracle responses, keyed by request hash, for later
    replay runs, while correcting every page as a replay run corrects it."""
    transcript = Transcript()
    provider = _RecordingProvider(transcript)
    for _ in run_pages(entries, provider, ruleset, strategy, impacts,
                       thresholds):
        pass
    return transcript


def render_report(result: BenchmarkResult, style: str = "summary") -> str:
    """Render a benchmark result as one of the aggregate table styles."""
    if style == "json":
        return json.dumps(result.to_json_dict(), indent=2)
    if style == "summary":
        header = (
            f"{'Model':<24} {'Prompt':<18} {'Initial / Avg':<16} "
            f"{'Final / Avg':<16} {'% Score Decrease'}"
        )
        initial = f"{result.total_initial} / {fmt2(result.r_initial)}"
        final = f"{result.total_final} / {fmt2(result.r_final)}"
        row = (
            f"{result.model_name or '-':<24} {result.strategy or '-':<18} "
            f"{initial:<16} {final:<16} {fmt3(result.improvement_percent)}%"
        )
        return header + "\n" + row
    if style == "rates":
        return _table("Error ID                        Percentage Corrected",
                      result.per_rule_correction_rate, 0)
    if style == "distribution":
        return _table("Error Type                      Percentage",
                      result.rule_distribution, 2)
    raise SchemaError(f"unknown report style: {style}")


def _table(header: str, percents: dict, digits: int) -> str:
    """``header`` over one row per rule, by falling percentage and then
    rule id: the rule padded to 32 columns, then its percentage."""
    ordered = sorted(percents.items(), key=lambda item: (-item[1], item[0]))
    return "\n".join([header] + [f"{rule:<32}{float(pct):.{digits}f}%"
                                  for rule, pct in ordered])
