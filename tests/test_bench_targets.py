"""The layer tracer of ``perfbench/run.py --trace 1`` patches accessfix
functions and methods by name; each must exist, or a traced run breaks."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"
# Kept in ``dom`` only because the tracer names them; nothing else uses them.
TRACER_ONLY = {"NodeLocator", "resolve", "replace_node", "find_by_snippet",
               "normalized_outer_html"}


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)

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
