"""The layer tracer of ``perfbench/run.py --trace 1`` patches accessfix
functions and methods by name; each must exist, or a traced run breaks."""

import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


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
