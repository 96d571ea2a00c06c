"""The layer tracer of ``perfbench/run.py --trace 1`` patches accessfix
functions and methods by name; each must exist, or a traced run breaks."""

import ast
import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings

from accessfix import dom, harness, rules
from accessfix.prompts import FixProposal
from accessfix.providers import HeuristicProvider, ReplayProvider
from test_start_tag_fixes import tag_soup

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"
# Kept in ``dom`` only because the tracer names them; nothing else uses them.
TRACER_ONLY = {"NodeLocator", "resolve", "find_by_snippet"}


def load(monkeypatch, name, path):
    """The module at ``path``, loaded for one test and left uncompiled."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists(monkeypatch):
    run = load(monkeypatch, "perfbench_run", RUN_PY)
    functions, methods = run.trace_targets(run.AuditPhases())
    assert functions and methods
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in functions + methods
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_only_dom_uses_the_helpers_kept_for_the_tracer():
    """Retiring their trace targets can delete these helpers with no
    caller to chase: no module but ``dom`` names them."""
    used = {}
    for path in sorted((ROOT / "src" / "accessfix").glob("*.py")):
        if path.name == "dom.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name in TRACER_ONLY:
                used.setdefault(path.name, set()).add(name)
    assert used == {}


def assert_tracer_names_find_the_audited_elements(html) -> int:
    """Each violation of ``html``'s audit is found by ``find_by_snippet``
    with its snippet, and ``resolve`` gives the element that ``locate``
    gives; the number of violations checked."""
    doc = dom.parse_html(html)
    elements = dom.preorder(doc.root).elements
    violations = rules.audit(doc)
    for v in violations:
        found = dom.find_by_snippet(doc, v.html_snippet)
        assert v.index in [loc.index for loc in found], (v.rule_id, v.index)
        el = dom.locate(elements, v.index, v.html_snippet)
        assert el is not None
        assert dom.resolve(doc, dom.NodeLocator(v.index, v.html_snippet)) is el
    return len(violations)


def test_tracer_names_find_each_audited_element_by_its_snippet(
        corpus_paths, rules_dir, rules_manifest):
    """The helpers kept for the tracer and the live path agree on which
    element a violation names, over the corpus and the rule fixtures."""
    corpus = sum(assert_tracer_names_find_the_audited_elements(
        Path(path).read_text("utf-8")) for path in corpus_paths)
    assert corpus == 171
    for name in sorted(rules_manifest):
        assert_tracer_names_find_the_audited_elements(
            (rules_dir / name).read_text("utf-8"))


@settings(max_examples=100, deadline=None)
@given(tag_soup)
def test_tracer_names_find_each_audited_element_on_tag_soup(html):
    assert_tracer_names_find_the_audited_elements(html)


def test_a_traced_benchmark_run_is_correct(tmp_path):
    """``perfbench/run.py --trace 1`` on ``wide_fix``, run from a copy of
    ``src/`` and ``perfbench/`` so that its output stays out of the
    checkout: it exits 0, is correct, fails no page, and reports the
    tracer-kept helpers as never run and no locator as stale."""
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_fix",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    metrics = report["metrics"]
    assert metrics["dom.find_by_snippet.calls"]["value"] == 0
    assert metrics["dom.resolve.stale_ratio"]["value"] == 0


class Parsed(HeuristicProvider):
    """The heuristic answers without their edits, so each one is parsed and
    handed over whole."""

    provider_id = "parsed"

    def propose(self, bundle, violation=None):
        fix = super().propose(bundle, violation)
        return FixProposal(fix.corrected_html, fix.thought, fix.raw_response,
                           self.provider_id)


def test_traced_fix_stage_names_time_the_live_path(monkeypatch,
                                                   corpus_paths):
    """``corrector.apply_fix`` is the step that ``correct_document`` runs,
    and ``dom.replace_node`` the one that hands over a parsed answer; a
    replay run's answers are edits, so it parses and hands over none. The
    stale-locator helpers are not run."""
    run = load(monkeypatch, "perfbench_run", RUN_PY)
    tracing = load(monkeypatch, "tracer", RUN_PY.parent / "tracer.py")
    entries = harness.ingest(corpus_paths[:1])
    replay = ReplayProvider(harness.build_replay_transcript(entries))
    spans = {}
    for provider in (HeuristicProvider(), replay, Parsed()):
        tracer = tracing.Tracer()
        with tracer.installed(*run.trace_targets(run.AuditPhases())):
            _, _, records, failures = harness.run_benchmark(entries, provider)
        assert failures == []
        spans[provider.provider_id] = Counter(span[2] for span in tracer.spans)
        applying = [r for r in records if r.proposal is not None]
        assert applying
        assert spans[provider.provider_id]["corrector.apply_fix"] == \
            len(applying)
    assert spans["parsed"]["dom.replace_node"] == \
        spans["parsed"]["dom.parse_fragment_element"] == len(applying)
    assert spans["replay"]["dom.replace_node"] == 0
    assert spans["replay"]["dom.parse_fragment_element"] == 0
    for counts in spans.values():
        assert counts["dom.find_by_snippet"] == counts["dom.resolve"] == 0
