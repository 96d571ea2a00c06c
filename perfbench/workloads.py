"""The benchmark's four workloads: their inputs, the public library call that
one unit of work makes, and the checks on that call's output.

A unit is the set of HTML files one public call handles: one page, or the
whole bundled corpus for ``remote_sim``. Every workload calls accessfix
through module attributes (``harness.run_benchmark``, not a name imported
from it), so the tracer's patches see each call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass

from accessfix import dom, harness, providers, rules, scoring

import gen

CORPUS_DIR = os.path.join("src", "accessfix", "fixtures", "corpus")
CORPUS_VIOLATIONS = 171

# ``harness.render_report(result, "summary")`` for the whole bundled corpus,
# byte for byte: severity 614 -> 0, a 100.000% decrease.
_SUMMARY_HEADER = (
    "Model                    Prompt             Initial / Avg    "
    "Final / Avg      % Score Decrease\n"
)
EXPECTED_SUMMARY = {
    provider_id: _SUMMARY_HEADER + f"{provider_id:<24} react              "
    "614 / 24.56      0 / 0.00         100.000%"
    for provider_id in ("replay", "remote")
}

# Per-request latency of the simulated remote endpoint.
SIM_LATENCY_S = 0.010


@dataclass(frozen=True)
class Unit:
    paths: tuple  # HTML files handed to harness.ingest, in order
    pages: int


class IngestFailed(Exception):
    """A page file could not be read through harness.ingest."""


def _ingest(paths) -> list:
    entries = harness.ingest(list(paths))
    errors = [e.error for e in entries if e.error]
    if errors:
        raise IngestFailed("; ".join(errors))
    return entries


def _read_manifest(directory) -> dict:
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as f:
        return json.load(f)


class Workload:
    """Base: one pass of units (``order``), repeated by the closed loop."""

    provider_kind = ""  # what the fresh-process set-up builds
    transcript_path = ""
    cpu_bound = True  # times are scaled to a reference machine speed

    def __init__(self, root, seed, work_dir):
        self.order = []  # units, in the order the loop runs them
        self.manifest = {}  # page file name -> {rule: count}

    def units(self):
        return itertools.cycle(self.order)

    def page_bytes(self) -> dict:
        return {
            path: os.path.getsize(path)
            for unit in self.order for path in unit.paths
        }

    def _check_pages(self, rule_ids_by_url) -> list:
        """Compare found violations with the seeded manifest, page by page."""
        problems = []
        for url, found in rule_ids_by_url.items():
            expected = self.manifest.get(os.path.basename(url))
            if expected is not None and dict(found) != expected:
                problems.append(
                    f"{url}: found {dict(sorted(found.items()))}, "
                    f"seeded {expected}"
                )
        return problems

    def _check_benchmark(self, unit, out, tally) -> list:
        """Checks on the output of harness.run_benchmark for a unit."""
        result, rows, records, failures = out
        found = {path: Counter() for path in unit.paths}
        for row in rows:
            found[row.web_url][row.rule_id] += 1
        problems = self._check_pages(found)
        if len(records) != len(rows):
            problems.append(
                f"{len(records)} correction records for {len(rows)} violations"
            )
        if failures:
            problems.append(f"ingest failures: {failures}")
        tally["handed"] += len(records)
        tally["applied"] += sum(r.outcome == "applied" for r in records)
        tally["initial"] += result.total_initial
        tally["final"] += result.total_final
        return problems

    def final_check(self) -> list:
        return []


class _CorpusWorkload(Workload):
    """Shared set-up of the bundled-corpus workloads: the replay transcript is
    recorded from the heuristic oracle and saved for the set-up probe."""

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        corpus = os.path.join(root, CORPUS_DIR)
        self.manifest = _read_manifest(corpus)
        self.paths = [os.path.join(corpus, name) for name in sorted(self.manifest)]
        self.transcript = harness.build_replay_transcript(_ingest(self.paths))
        os.makedirs(work_dir, exist_ok=True)
        self.transcript_path = os.path.join(work_dir, "transcript.jsonl")
        self.transcript.save(self.transcript_path)

    def _check_summary(self, result, rows, provider_id) -> list:
        problems = []
        if len(rows) != CORPUS_VIOLATIONS:
            problems.append(
                f"corpus: {len(rows)} violations, expected {CORPUS_VIOLATIONS}"
            )
        text = harness.render_report(result, "summary")
        if text != EXPECTED_SUMMARY[provider_id]:
            problems.append(f"corpus summary differs:\n{text}")
        return problems


class CorpusReplay(_CorpusWorkload):
    """The 25 bundled pages, one page per call, replayed from a transcript."""

    provider_kind = "replay"

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        self.provider = providers.ReplayProvider(self.transcript)
        start = seed % len(self.paths)
        rotated = self.paths[start:] + self.paths[:start]
        self.order = [Unit((path,), 1) for path in rotated]

    def call(self, unit):
        return harness.run_benchmark(_ingest(unit.paths), self.provider)

    def observe(self, unit, out, tally) -> list:
        problems = self._check_benchmark(unit, out, tally)
        if out[0].total_final != 0:
            problems.append(f"{unit.paths[0]}: final score {out[0].total_final}")
        return problems

    def final_check(self) -> list:
        result, rows, _, _ = harness.run_benchmark(
            _ingest(self.paths), self.provider
        )
        return self._check_summary(result, rows, "replay")


class SimEndpoint:
    """In-process chat-completion endpoint for RemoteProvider's ``post_json``:
    a fixed latency per request, answers from the replay transcript, no
    network. ``handler`` is swapped for a traced wrapper in the traced run."""

    def __init__(self, transcript):
        self.transcript = transcript
        self.handler = self.respond

    def __call__(self, url, payload, headers, timeout):
        return self.handler(url, payload, headers, timeout)

    def respond(self, url, payload, headers, timeout):
        time.sleep(SIM_LATENCY_S)
        key = providers.request_hash(payload["messages"])
        content = self.transcript.entries[key]
        return {"choices": [{"message": {"content": content}}]}


class RemoteSim(_CorpusWorkload):
    """The bundled corpus as one batch per call through RemoteProvider and a
    two-worker run_benchmark; the simulated endpoint's latency dominates."""

    provider_kind = "remote"
    workers = 2
    cpu_bound = False  # mostly waiting on the endpoint's fixed latency

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        self.endpoint = SimEndpoint(self.transcript)
        cfg = providers.ProviderConfig(
            kind="remote",
            endpoint_url="http://sim.invalid/v1/chat/completions",
            model_name="sim",
        )
        self.provider = providers.RemoteProvider(cfg, post_json=self.endpoint)
        paths = list(self.paths)
        random.Random(seed).shuffle(paths)  # run_benchmark orders by source
        self.order = [Unit(tuple(paths), len(paths))]

    def call(self, unit):
        return harness.run_benchmark(
            _ingest(unit.paths), self.provider, workers=self.workers
        )

    def observe(self, unit, out, tally) -> list:
        problems = self._check_benchmark(unit, out, tally)
        return problems + self._check_summary(out[0], out[1], "remote")


class _GeneratedWorkload(Workload):
    mix = ""

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        paths = gen.write(gen.build(self.mix, seed), work_dir)
        self.manifest = _read_manifest(work_dir)
        self.order = [Unit((path,), 1) for path in paths]


class WideFix(_GeneratedWorkload):
    """Generated wide pages (and a few small malformed ones) through the
    heuristic provider; the fix stage and its stale-locator fallback
    dominate."""

    provider_kind = "heuristic"
    mix = "wide_fix"

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        self.provider = providers.HeuristicProvider()

    def call(self, unit):
        return harness.run_benchmark(_ingest(unit.paths), self.provider)

    def observe(self, unit, out, tally) -> list:
        return self._check_benchmark(unit, out, tally)


class ScanMixed(_GeneratedWorkload):
    """Audit only, as in the README's library example: parse, audit, score
    and export rows over wide, deep and malformed pages."""

    mix = "scan_mixed"

    def call(self, unit):
        entry = _ingest(unit.paths)[0]
        doc = dom.parse_html(entry.html_text)
        violations = rules.audit(doc, web_url=entry.source_id)
        score = scoring.url_score(violations)
        rows = harness.rows_for_entry(entry, violations, score, doc.serialize())
        return violations, rows

    def observe(self, unit, out, tally) -> list:
        violations, rows = out
        problems = self._check_pages(
            {unit.paths[0]: Counter(v.rule_id for v in violations)}
        )
        if len(rows) != len(violations):
            problems.append(f"{len(rows)} rows for {len(violations)} violations")
        return problems


WORKLOADS = {
    "corpus_replay": CorpusReplay,
    "wide_fix": WideFix,
    "scan_mixed": ScanMixed,
    "remote_sim": RemoteSim,
}
