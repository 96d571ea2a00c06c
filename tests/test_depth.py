"""Nesting depth is bounded by memory, not by the interpreter's recursion
limit: no tree code recurses."""

import ast
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import accessfix
from accessfix import dom, harness, rules
from accessfix.providers import HeuristicProvider

DEPTH = 5000

# The bottom of the chain is the benchmark generator's deep page: low
# contrast text, an image without alt and an empty link.
DEEP_PAGE = (
    '<!DOCTYPE html><html lang="en"><head><title>Deep</title></head><body>'
    "<main><h1>Deep page</h1>" + "<div>" * DEPTH
    + '<p style="color:#777777; background-color:#ffffff">'
    "Bottom of the chain.</p>"
    '<img src="deep.png"><a href="/deep"></a></main></body></html>'
)


def test_deep_page_audits_serializes_and_fixes(path_of):
    doc = dom.parse_html(DEEP_PAGE)
    violations = rules.audit(doc, web_url="deep.html")
    assert Counter(v.rule_id for v in violations) == {
        "color-contrast": 1, "image-alt": 1, "link-name": 1,
    }
    pre = dom.preorder(doc.root)
    assert all(len(path_of(pre, v.index)) > DEPTH for v in violations)

    text = doc.serialize()
    assert dom.parse_html(text).serialize() == text
    assert text.startswith('<html lang="en">')
    depth = [0] * len(pre.elements)
    for i in range(1, len(pre.elements)):
        depth[i] = depth[pre.parent[i]] + 1
    assert max(depth) > DEPTH

    entries = [harness.CorpusEntry("deep.html", DEEP_PAGE)]
    result, _, records, failures = harness.run_benchmark(
        entries, HeuristicProvider()
    )
    assert failures == []
    assert [r.outcome for r in records] == ["applied"] * 3
    assert result.total_final == 0


# Without a <main>, fixes add one around the bottom paragraph, deep in the
# chain, while the page's landmark-one-main violation waits on <html>.
DEEP_PAGE_WITHOUT_MAIN = (
    '<!DOCTYPE html><html lang="en"><head><title>Deep</title></head><body>'
    + "<div>" * DEPTH
    + '<p style="color:#777777; background-color:#ffffff">'
    "Bottom of the chain.</p>"
    '<img src="deep.png"></body></html>'
)


def test_deep_page_without_main_fixes_every_violation():
    entries = [harness.CorpusEntry("deep.html", DEEP_PAGE_WITHOUT_MAIN)]
    result, rows, records, failures = harness.run_benchmark(
        entries, HeuristicProvider()
    )
    assert failures == []
    assert Counter(row.rule_id for row in rows) == {
        "landmark-one-main": 1, "region": 1, "color-contrast": 1,
        "image-alt": 1,
    }
    assert [r.outcome for r in records] == ["applied"] * 4
    assert result.total_final == 0


def _self_calls(path: Path):
    """(line, name) of every call a function makes to itself by name."""
    tree = ast.parse(path.read_text("utf-8"))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                name = callee.id
            elif (isinstance(callee, ast.Attribute)
                  and isinstance(callee.value, ast.Name)
                  and callee.value.id in ("self", "cls")):
                name = callee.attr
            else:
                continue
            if name == fn.name:
                yield node.lineno, name


def test_no_function_calls_itself():
    package = Path(accessfix.__file__).parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _self_calls(path)
    ]
    assert found == []


def _absolute_imports(path: Path):
    """(line, top-level name) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    package = Path(accessfix.__file__).parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert found == []


# Each construct is still open at end of input; html.parser's close()
# rescans the rest of the input from each one.
HOSTILE = {
    "unterminated-attribute": "<a b=" * 20000,
    "unterminated-quote": "<p title='x" * 10000,
    "unterminated-start-tag": "<a" * 40000,
    "unterminated-comment": "<!--" * 40000,
    "unterminated-end-tag": "</a" * 40000,
    # Unmatched end tags under a deep stack of open elements.
    "deep-unmatched-end-tags": "<div>" * 5000 + "</x>" * 20000,
}


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_input_parses_in_linear_time(text):
    start = time.perf_counter()
    doc = dom.parse_html(text)
    assert time.perf_counter() - start < 1.0
    assert isinstance(doc, dom.DomDocument)


def test_import_loads_no_html_parser():
    code = (
        "import sys, accessfix, accessfix.cli; "
        "print('html.parser' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(accessfix.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "False"
