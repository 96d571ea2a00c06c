"""The layer tracer of ``perfbench/run.py --trace 1`` patches accessfix
functions and methods by name; each must exist, or a traced run breaks."""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from accessfix import harness
from accessfix.prompts import FixProposal
from accessfix.providers import HeuristicProvider, ReplayProvider

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"
# Kept in ``dom`` only because the tracer names them; nothing else uses them.
TRACER_ONLY = {"NodeLocator", "resolve", "find_by_snippet",
               "normalized_outer_html"}


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
