#!/usr/bin/env python3
"""Measure a parent commit against the working tree with the benchmark and
write the trajectory file ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_23.json

Both sides run from sibling directories under one temporary directory: the
parent extracted with ``git archive``, and a copy of the working tree (its
tracked and untracked files, not the ignored ones), so that where a tree
lies does not tell the two apart. Each side runs its own
``perfbench/run.py --trace 0`` from its own root,
``--runs`` times per workload; for each run the two sides alternate which
goes first. The file holds each side's runs and their medians, per workload
and end-to-end metric, with the interpreter and the machine they ran on.

Afterwards it prints, per workload and end-to-end metric of
``BENCHMARK.json``, the parent's interquartile range over its median and
how many pairs the change won. A metric whose range is wider than its bound
is marked ``unresolved``, unless every change run beats every parent run:
such a comparison cannot tell a change within the bound from one beyond it.
Then it prints each side's medians split by whether that side ran first or
second in its pair, so that a gap which follows the order of the runs, not
the commit, shows.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("corpus_replay", "wide_fix", "scan_mixed", "remote_sim")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def extract(rev: str, dest: str) -> str:
    """The full commit id of ``rev``, after writing its tree under ``dest``."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def copy_worktree(dest: str, root: str = ROOT) -> None:
    """Copy the files of the working tree at ``root`` that git tracks or
    would track (untracked, not ignored) to ``dest``, as they are on disk."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout.decode("utf-8")
    for path in filter(None, listed.split("\0")):
        source = os.path.join(root, path)
        if os.path.isfile(source):  # a deleted tracked file is skipped
            target = os.path.join(dest, path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def checkouts(rev: str, scratch: str) -> tuple:
    """(roots, parent commit): ``rev`` extracted to ``scratch/parent`` and
    the working tree copied to ``scratch/change``."""
    roots = {side: os.path.join(scratch, side)
             for side in ("parent", "change")}
    commit = extract(rev, roots["parent"])
    copy_worktree(roots["change"])
    return roots, commit


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object that ``perfbench/run.py`` in ``root`` prints last."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(roots: dict, workloads, runs: int, seed: int, seconds: float,
              run=run_once) -> dict:
    """side -> workload -> the results of ``runs`` runs. ``roots`` maps
    "parent" and "change" to their checkouts; the parent goes first in even
    runs and the change in odd ones."""
    results = {side: {w: [] for w in workloads} for side in roots}
    for workload in workloads:
        for k in range(runs):
            order = ["parent", "change"]
            if k % 2:
                order.reverse()
            for side in order:
                result = run(roots[side], workload, seed, seconds)
                results[side][workload].append(result)
                print(f"{workload} run {k + 1} {side}: "
                      f"{result['metrics']['pages_per_s']['value']:.2f} "
                      f"pages/s, correct {result['correct']}", file=sys.stderr)
    return results


def side_summary(commit: str, results: dict) -> dict:
    """One side of the file: every run's metric values per workload and
    their medians, rounded to six decimals."""
    runs = {
        workload: {
            name: [round(r["metrics"][name]["value"], 6) for r in outs]
            for name in outs[0]["metrics"]
        }
        for workload, outs in results.items()
    }
    return {
        "commit": commit,
        "all_correct": all(r["correct"] for outs in results.values()
                           for r in outs),
        "medians": {
            workload: {name: round(statistics.median(values), 6)
                       for name, values in metrics.items()}
            for workload, metrics in runs.items()
        },
        "runs": runs,
    }


def spread(values) -> float:
    """Interquartile range over the median; 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def resolution(parent: dict, change: dict, end_to_end) -> list:
    """One row per workload and end-to-end metric that both sides ran:
    ``parent`` and ``change`` are ``side_summary(...)["runs"]``, and
    ``end_to_end`` is ``BENCHMARK.json``'s list of ``{name, better, bound}``.
    Run k of the change is paired with run k of the parent."""
    rows = []
    for workload, runs in parent.items():
        for metric in end_to_end:
            name = metric["name"]
            if name not in runs or name not in change.get(workload, {}):
                continue
            ours, theirs = change[workload][name], runs[name]
            if metric["better"] == "lower":
                ours, theirs = [-x for x in ours], [-x for x in theirs]
            width = spread(runs[name])
            rows.append({
                "workload": workload,
                "metric": name,
                "spread": width,
                "bound": metric["bound"],
                "won": sum(c > p for c, p in zip(ours, theirs)),
                "pairs": min(len(ours), len(theirs)),
                "unresolved": (width > metric["bound"]
                               and min(ours) <= max(theirs)),
            })
    return rows


def render_resolution(rows) -> str:
    lines = [f"{'workload':<14} {'metric':<13} {'IQR/median':>10} "
             f"{'bound':>6} {'won':>6}"]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<13} "
            f"{row['spread']:>10.3f} {row['bound']:>6.2f} "
            f"{row['won']:>3}/{row['pairs']:<2}"
            + ("  unresolved" if row["unresolved"] else ""))
    return "\n".join(lines)


def order_split(parent: dict, change: dict, end_to_end) -> list:
    """One row per workload and end-to-end metric that both sides ran: each
    side's median over the pairs in which it ran first, and over those in
    which it ran second, None where there are none. ``parent`` and
    ``change`` are ``side_summary(...)["runs"]``; as in ``run_pairs``, the
    parent runs first in even runs and the change in odd ones."""
    rows = []
    for workload, runs in parent.items():
        for metric in end_to_end:
            name = metric["name"]
            if name not in runs or name not in change.get(workload, {}):
                continue
            row = {"workload": workload, "metric": name}
            for side, values, first in (("parent", runs[name], 0),
                                        ("change", change[workload][name], 1)):
                for order, picked in (("first", values[first::2]),
                                      ("second", values[1 - first::2])):
                    row[f"{side}_{order}"] = (statistics.median(picked)
                                              if picked else None)
            rows.append(row)
    return rows


SPLIT_COLUMNS = ("parent_first", "parent_second", "change_first",
                 "change_second")


def render_order_split(rows) -> str:
    lines = [f"{'workload':<14} {'metric':<13}"
             + "".join(f"{column:>15}" for column in SPLIT_COLUMNS)]
    for row in rows:
        lines.append(f"{row['workload']:<14} {row['metric']:<13}" + "".join(
            f"{'-':>15}" if row[column] is None else f"{row[column]:>15.4g}"
            for column in SPLIT_COLUMNS))
    return "\n".join(lines)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def layout(parent: dict, change: dict, runs: int, seed: int,
           seconds: float) -> dict:
    """The whole file: what was run, where, and each side's summary."""
    return {
        "what": (
            "Medians of the end-to-end metrics of perfbench/run.py "
            f"--workload W --seed {seed} --seconds {seconds:g} --trace 0, "
            f"{runs} runs per commit and workload, parent and change "
            "alternating (which side runs first alternates)."),
        "interpreter": (f"{platform.python_implementation()} "
                        f"{platform.python_version()}"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "parent": parent,
        "change": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="the commit to compare the working tree with")
    parser.add_argument("--out", required=True, help="the file to write")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    # The change side is named by its commit, marked when the tree differs.
    change_commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain"):
        change_commit += "-dirty"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        roots, parent_commit = checkouts(args.parent, scratch)
        results = run_pairs(roots, args.workload or WORKLOADS, args.runs,
                            args.seed, args.seconds)
    document = layout(side_summary(parent_commit, results["parent"]),
                      side_summary(change_commit, results["change"]),
                      args.runs, args.seed, args.seconds)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1)
        out.write("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        end_to_end = json.load(spec)["end_to_end"]
    runs = document["parent"]["runs"], document["change"]["runs"]
    print(render_resolution(resolution(*runs, end_to_end)))
    print()
    print(render_order_split(order_split(*runs, end_to_end)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
