"""``tools/bench_pairs.py``: the order of the runs, their medians, and the
layout of the ``BENCH_<n>.json`` file it writes, on canned run outputs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    path = REPO / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def result(pages_per_s, correct=True):
    """A canned last line of ``perfbench/run.py --trace 0``, parsed."""
    values = {"pages_per_s": (pages_per_s, "pages/s"),
              "page_ms_p50": (1000 / pages_per_s, "ms"),
              "success_rate": (1.0, "ratio")}
    return {"correct": correct, "attempted": 100, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


def test_runs_alternate_which_side_goes_first(bench_pairs):
    calls = []

    def run(root, workload, seed, seconds):
        calls.append((root, workload))
        return result(100.0 + len(calls))

    roots = {"parent": "p", "change": "c"}
    results = bench_pairs.run_pairs(roots, ["wide_fix", "scan_mixed"], 3,
                                    seed=1, seconds=0.5, run=run)
    assert [root for root, _ in calls] == ["p", "c", "c", "p", "p", "c"] * 2
    assert [w for _, w in calls] == ["wide_fix"] * 6 + ["scan_mixed"] * 6
    assert [r["metrics"]["pages_per_s"]["value"]
            for r in results["change"]["wide_fix"]] == [102.0, 103.0, 106.0]


def test_side_summary_takes_each_metric_median(bench_pairs):
    summary = bench_pairs.side_summary("abc", {
        "wide_fix": [result(90.0), result(130.0), result(110.1234567)],
        "scan_mixed": [result(10.0), result(20.0)],
    })
    assert summary["commit"] == "abc" and summary["all_correct"] is True
    assert summary["runs"]["wide_fix"]["pages_per_s"] == [90.0, 130.0,
                                                           110.123457]
    assert summary["medians"]["wide_fix"]["pages_per_s"] == 110.123457
    assert summary["medians"]["wide_fix"]["page_ms_p50"] == \
        round(1000 / 110.1234567, 6)
    assert summary["medians"]["scan_mixed"]["pages_per_s"] == 15.0
    assert bench_pairs.side_summary("abc", {
        "wide_fix": [result(1.0), result(1.0, correct=False)],
    })["all_correct"] is False


def shape(value):
    """The key tree of a JSON document, with lists and scalars as leaves."""
    if isinstance(value, dict):
        return {key: shape(v) for key, v in value.items()}
    return type(value).__name__ if not isinstance(value, list) else "list"


def test_layout_has_the_shape_of_the_committed_trajectory(bench_pairs):
    committed = json.loads((REPO / "BENCH_20.json").read_text("utf-8"))
    committed.pop("note")  # a remark written by hand
    metrics = {name: {"value": values[0], "unit": ""} for name, values in
               committed["parent"]["runs"]["wide_fix"].items()}
    outs = {w: [{"correct": True, "metrics": metrics}] * 3
            for w in committed["parent"]["medians"]}
    document = bench_pairs.layout(bench_pairs.side_summary("p", outs),
                                  bench_pairs.side_summary("c", outs),
                                  runs=3, seed=1, seconds=20)
    assert shape(document) == shape(committed)
    written = json.loads((REPO / "BENCH_23.json").read_text("utf-8"))
    assert shape(written) == shape(committed)
    assert "--seed 1 --seconds 20 --trace 0, 3 runs" in document["what"]


def test_run_once_reads_the_last_line_in_the_checkout(bench_pairs, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, os, sys\n"
        "print('progress line')\n"
        "print(json.dumps({'argv': sys.argv[1:], 'cwd': os.getcwd()}))\n",
        "utf-8")
    out = bench_pairs.run_once(str(tmp_path), "scan_mixed", 2, 5.0)
    assert out["argv"] == ["--workload", "scan_mixed", "--seed", "2",
                           "--seconds", "5.0", "--trace", "0"]
    assert Path(out["cwd"]) == tmp_path


END_TO_END = [{"name": "pages_per_s", "better": "higher", "bound": 0.2},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def test_resolution_marks_a_spread_wider_than_the_bound(bench_pairs):
    parent = {"wide_fix": {"pages_per_s": [100.0, 101.0, 102.0],
                           "setup_s": [0.03, 0.06, 0.09]},
              "scan_mixed": {"setup_s": [0.03, 0.06, 0.09]}}
    change = {"wide_fix": {"pages_per_s": [102.0, 100.5, 103.0],
                           "setup_s": [0.05, 0.05, 0.10]},
              "scan_mixed": {"setup_s": [0.02, 0.01, 0.025]}}
    rows = bench_pairs.resolution(parent, change, END_TO_END)
    by_key = {(r["workload"], r["metric"]): r for r in rows}
    assert list(by_key) == [("wide_fix", "pages_per_s"),
                            ("wide_fix", "setup_s"), ("scan_mixed", "setup_s")]
    # Quartiles 100.5 and 101.5 about a median of 101: narrow, resolved.
    narrow = by_key["wide_fix", "pages_per_s"]
    assert narrow["spread"] == pytest.approx(1 / 101)
    assert (narrow["won"], narrow["pairs"], narrow["unresolved"]) == \
        (2, 3, False)
    # Quartiles 0.045 and 0.075 about 0.06: a spread of 0.5 > 0.25.
    wide = by_key["wide_fix", "setup_s"]
    assert wide["spread"] == pytest.approx(0.5)
    assert (wide["won"], wide["unresolved"]) == (1, True)
    # As wide, but every change run is lower than every parent run.
    apart = by_key["scan_mixed", "setup_s"]
    assert (apart["won"], apart["unresolved"]) == (3, False)
    table = bench_pairs.render_resolution(rows).splitlines()
    assert len(table) == 4
    assert [line.endswith("unresolved") for line in table[1:]] == \
        [False, True, False]


def test_spread_of_one_run_or_a_zero_median(bench_pairs):
    assert bench_pairs.spread([5.0]) == 0.0
    assert bench_pairs.spread([0.0, 0.0, 0.0]) == 0.0
    assert bench_pairs.spread([-1.0, 0.0, 1.0]) == float("inf")


def git(root, *args):
    subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


def test_the_working_tree_copy_holds_what_git_would_commit(bench_pairs,
                                                          tmp_path):
    tree = tmp_path / "tree"
    (tree / "pkg").mkdir(parents=True)
    (tree / ".gitignore").write_text("out/\n", "utf-8")
    (tree / "pkg" / "kept.py").write_text("committed\n", "utf-8")
    (tree / "gone.py").write_text("deleted after commit\n", "utf-8")
    git(tree, "init", "-q")
    git(tree, "add", "-A")
    git(tree, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
        "c")
    (tree / "pkg" / "kept.py").write_text("edited\n", "utf-8")
    (tree / "gone.py").unlink()
    (tree / "new.py").write_text("untracked\n", "utf-8")
    (tree / "out").mkdir()
    (tree / "out" / "trace.jsonl").write_text("ignored\n", "utf-8")
    bench_pairs.copy_worktree(str(tmp_path / "copy"), root=str(tree))
    copied = sorted(str(p.relative_to(tmp_path / "copy")).replace(os.sep, "/")
                    for p in (tmp_path / "copy").rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.py", "pkg/kept.py"]
    assert (tmp_path / "copy" / "pkg" / "kept.py").read_text("utf-8") == \
        "edited\n"


def test_both_sides_run_from_siblings_under_one_directory(bench_pairs,
                                                          tmp_path,
                                                          monkeypatch):
    seen = {}

    def fake_pairs(roots, workloads, runs, seed, seconds):
        seen.update(roots)
        for side, root in roots.items():
            seen[side + "_has_runner"] = os.path.isfile(
                os.path.join(root, "perfbench", "run.py"))
        return {side: {w: [result(100.0)] * runs for w in workloads}
                for side in roots}

    monkeypatch.setattr(bench_pairs, "run_pairs", fake_pairs)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out),
                             "--runs", "1", "--workload", "wide_fix"]) == 0
    parent, change = Path(seen["parent"]), Path(seen["change"])
    assert parent.parent == change.parent and parent != change
    assert REPO not in (parent, change) and REPO not in parent.parents
    assert seen["parent_has_runner"] and seen["change_has_runner"]
    assert not parent.parent.exists()  # removed after the runs
    written = json.loads(out.read_text("utf-8"))
    assert written["parent"]["medians"]["wide_fix"]["pages_per_s"] == 100.0


def test_medians_split_by_which_side_ran_first(bench_pairs):
    """A stub run that is faster when it goes first in its pair: the split
    shows the same gap on both sides, which the plain medians hide."""
    calls = []

    def run(root, workload, seed, seconds):
        first = len(calls) % 2 == 0
        calls.append(root)
        return result((120.0 if first else 100.0) + (root == "c"))

    results = bench_pairs.run_pairs({"parent": "p", "change": "c"},
                                    ["corpus_replay"], 4, seed=1, seconds=0.5,
                                    run=run)
    runs = [bench_pairs.side_summary(side, results[side])["runs"]
            for side in ("parent", "change")]
    assert runs[0]["corpus_replay"]["pages_per_s"] == [120.0, 100.0] * 2
    assert runs[1]["corpus_replay"]["pages_per_s"] == [101.0, 121.0] * 2
    rows = bench_pairs.order_split(*runs, END_TO_END)
    assert [(r["workload"], r["metric"]) for r in rows] == \
        [("corpus_replay", "pages_per_s")]
    assert {k: v for k, v in rows[0].items() if k in
            bench_pairs.SPLIT_COLUMNS} == {
        "parent_first": 120.0, "parent_second": 100.0,
        "change_first": 121.0, "change_second": 101.0}
    # One run: the change never ran first.
    [one] = bench_pairs.order_split({"w": {"pages_per_s": [5.0]}},
                                    {"w": {"pages_per_s": [6.0]}}, END_TO_END)
    assert (one["parent_first"], one["change_first"],
            one["change_second"]) == (5.0, None, 6.0)
    table = bench_pairs.render_order_split(rows + [one]).splitlines()
    assert len(table) == 3 and table[2].split()[-3:] == ["-", "-", "6"]
