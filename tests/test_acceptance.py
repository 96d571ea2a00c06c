"""End-to-end acceptance suite.

Each test prints a single PASS line and enforces its own wall-clock budget.
"""

import json
import random
import socket
import time
from fractions import Fraction

import pytest

from accessfix import dom, rules
from accessfix.colors import RgbColor, contrast_ratio
from accessfix.corrector import APPLIED, correct_document
from accessfix.harness import (
    build_replay_transcript,
    export_rows,
    import_rows,
    ingest,
    render_report,
    run_benchmark,
)
from accessfix.prompts import FixProposal, parse_fix
from accessfix.providers import HeuristicProvider, ReplayProvider
from accessfix.scoring import dataset_average, improvement_percent

BLACK = RgbColor(0, 0, 0)
WHITE = RgbColor(255, 255, 255)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.3f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({elapsed:.3f}s)")
        return False


def test_criterion_1_aggregate_score_arithmetic():
    with Budget("criterion-1 aggregate score arithmetic", 0.001):
        r_initial = dataset_average(614, 25)
        assert r_initial == Fraction(614, 25)
        assert float(r_initial) == 24.56
        r_final = dataset_average(299, 25)
        assert float(r_final) == 11.96
        for final, expected in ((299, 51.303), (334, 45.603), (372, 39.414)):
            got = improvement_percent(r_initial, dataset_average(final, 25))
            assert abs(float(got) - expected) <= 0.0005


def test_criterion_2_contrast_math():
    with Budget("criterion-2 contrast math", 1.0):
        assert contrast_ratio(BLACK, WHITE) == 21.0
        rng = random.Random(99)
        for _ in range(100):
            c = RgbColor(rng.randrange(256), rng.randrange(256),
                         rng.randrange(256))
            assert contrast_ratio(c, c) == 1.0
        grey_on_white = contrast_ratio(RgbColor(0x77, 0x77, 0x77), WHITE)
        assert 4.4 < grey_on_white < 4.5


def test_criterion_3_rule_fixture_suite(rules_dir, rules_manifest):
    with Budget("criterion-3 rule fixture suite", 5.0):
        positives, negatives = {}, {}
        for name, seeded in rules_manifest.items():
            text = (rules_dir / name).read_text("utf-8")
            found = {}
            for v in rules.audit(dom.parse_html(text), web_url=name):
                found[v.rule_id] = found.get(v.rule_id, 0) + 1
            assert found == seeded, name
            target = name[: -len("-pos.html")]
            if seeded:
                positives.setdefault(target, []).append(name)
            else:
                negatives.setdefault(target, []).append(name)
        for rule_id in rules.DEFAULT_IMPACTS:
            assert positives.get(rule_id), f"no positive fixture: {rule_id}"
            assert negatives.get(rule_id), f"no negative fixture: {rule_id}"


def test_criterion_4_deterministic_benchmark(corpus_paths):
    with Budget("criterion-4 deterministic benchmark", 30.0):
        reports = []
        for _ in range(3):
            entries = ingest([str(p) for p in corpus_paths])
            result, rows, records, failures = run_benchmark(
                entries, HeuristicProvider(), model_name="heuristic-oracle"
            )
            assert failures == []
            reports.append(render_report(result, "json").encode("utf-8"))
        assert float(result.improvement_percent) >= 50.0
        assert reports[0] == reports[1] == reports[2]


def test_criterion_5_per_rule_correction_rates(corpus_paths, rules_dir,
                                               rules_manifest):
    with Budget("criterion-5 per-rule correction rates", 30.0):
        must_be_perfect = ("label", "skip-link", "aria-required-attr",
                           "html-has-lang")
        fixture_paths = [
            str(rules_dir / name)
            for name, seeded in sorted(rules_manifest.items())
            if any(rule in must_be_perfect for rule in seeded)
        ]
        entries = ingest(fixture_paths + [str(p) for p in corpus_paths])
        result = run_benchmark(entries, HeuristicProvider(),
                               model_name="heuristic-oracle")[0]
        for rule_id in must_be_perfect:
            assert result.per_rule_correction_rate[rule_id] == 100, rule_id


class Offer:
    """A provider that answers every prompt with one proposal."""

    provider_id = "offer"

    def __init__(self, proposal):
        self.proposal = proposal

    def propose(self, bundle, violation=None):
        return self.proposal


def test_criterion_6_substitution_safety(corpus_paths):
    with Budget("criterion-6 substitution safety", 10.0):
        for path in corpus_paths:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            doc = dom.parse_html(text)
            # Parser idempotence: serialize is a fixed point after one parse.
            once = doc.serialize()
            assert dom.parse_html(once).serialize() == once
            violations = rules.audit(doc, web_url=str(path))
            # Failure isolation: garbage proposals never mutate the document.
            for v in violations[:3]:
                for bad in ("<img", "", "plain words", "<p>a</p><p>b</p>"):
                    _, [record] = correct_document(
                        doc, [v], Offer(FixProposal(bad, None, bad, "test")),
                    )
                    assert record.outcome != APPLIED
                    assert doc.serialize() == once
            # Record conservation: one record per violation, no exceptions.
            _, records = correct_document(
                doc, violations, HeuristicProvider(), "react"
            )
            assert len(records) == len(violations)


def test_criterion_7_replay_pipeline_offline(corpus_paths, monkeypatch):
    with Budget("criterion-7 replay pipeline offline", 30.0):
        entries = ingest([str(p) for p in corpus_paths])
        transcript = build_replay_transcript(entries, strategy="react")
        assert transcript.entries
        for raw in transcript.entries.values():
            proposal = parse_fix(raw)
            dom.parse_fragment_element(proposal.corrected_html)

        def no_network(*args, **kwargs):
            raise AssertionError("network access attempted during replay")

        monkeypatch.setattr(socket.socket, "connect", no_network)
        result, rows, records, failures = run_benchmark(
            entries, ReplayProvider(transcript), strategy="react",
            model_name="replay",
        )
        assert failures == []
        assert all(r.outcome == APPLIED for r in records)
        assert float(result.improvement_percent) >= 50.0


def test_criterion_8_dataset_round_trip(corpus_paths, tmp_path):
    entries = ingest([str(p) for p in corpus_paths])
    result, rows, _, _ = run_benchmark(entries, HeuristicProvider(),
                                       model_name="heuristic-oracle")
    assert len(rows) == 171
    with Budget("criterion-8 dataset round trip", 2.0):
        for fmt in ("csv", "json"):
            path = tmp_path / f"rows.{fmt}"
            export_rows(rows, path)
            assert import_rows(path) == rows
