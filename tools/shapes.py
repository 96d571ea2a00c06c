#!/usr/bin/env python3
"""Run generated page shapes through parse, audit, correct and re-audit at
two or more sizes, and print how each stage's time grows with the size.

    python3 tools/shapes.py              # every shape, n = 4000, 8000, 16000
    python3 tools/shapes.py --sizes 2000 4000 8000 16000 --shape checkbox

A shape is one construct repeated n times, nested (each copy inside the
last) or wide (side by side). For each shape and stage it prints the size
exponent: the least-squares slope of log t over log n, across every size,
of the best of ``--repeat`` timings, the sizes taking turns:
1 is linear, 2 quadratic. Below a few thousand copies a page still fits
the processor's caches, which makes a small size look cheap per copy,
so the default sizes start above that. It also prints, at the smallest
size, the peak memory of the whole pipeline (``tracemalloc``, which slows
the run about tenfold), the corrected page's size over the input's, and
whether the corrected page holds at most twice the input plus 100 bytes
per violation. The correct stage uses the heuristic provider. Times are
the CPU time of this process, so other load on the machine moves them
less than wall clock. They are taken with the cyclic garbage collector
off, after a full collection: its passes cost in proportion to everything
the process holds, not to a stage's work, and on a linear shape they alone
raise the time per copy by about 1.7x from 4000 to 32000 copies, at the
parent commit as well.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from accessfix import corrector, dom, providers, rules  # noqa: E402

STAGES = ("parse", "audit", "correct", "reaudit")
LOW_CONTRAST = "color:#777777; background-color:#ffffff"
LABEL_2K = "label " * 341  # about 2 KB of words
LABEL_10K = "label " * 1707  # about 10 KB of words


def _page(body: str) -> str:
    return ('<html lang="en"><head><title>t</title></head>'
            f"<body>{body}</body></html>")


def _main(body: str) -> str:
    return _page(f"<main>{body}</main>")


# name -> n -> page. Nested shapes open a construct n times and close none;
# on a page without <main> (region, region-wide) the first run of stray
# content gets one.
SHAPES = {
    # nested
    "checkbox": lambda n: _main('<div role="checkbox">x' * n),
    "nav": lambda n: _main("<nav>x" * n),
    "label-input": lambda n: _main("<div><label>name</label><input>" * n),
    "labelledby-section": lambda n: _main(
        f'<p id="L">{LABEL_10K}</p>' + '<section aria-labelledby="L">x' * n),
    "heading": lambda n: _main('<div role="heading">x' * n),
    "empty-heading": lambda n: _main("<h2><span>" * n),
    "region": lambda n: _page("<div>x" * n),
    # wide
    "duplicate-id": lambda n: _main('<p id="d">x</p>' * n),
    "image": lambda n: _main('<img src="a.png">' * n),
    "nav-wide": lambda n: _main("<nav>x</nav>" * n),
    "heading-skip": lambda n: _main("<h1>a</h1><h3>b</h3>" * n),
    "contrast": lambda n: _main(f'<p style="{LOW_CONTRAST}">x</p>' * n),
    "region-wide": lambda n: _page('<p>x</p><img src="a.png" alt="a">' * n),
    "labelledby-nav": lambda n: _main(
        '<p id="L">label</p>' + '<nav aria-labelledby="L">x</nav>' * n),
    "multiref-nav": lambda n: _main(
        f'<p id="L">{LABEL_2K}</p>'
        + f'<nav aria-labelledby="{" ".join(["L"] * n)}">x</nav>' * 3),
}


def run(html: str) -> tuple:
    """(seconds per stage, violations, corrected page) of one pipeline,
    timed with the cyclic garbage collector off."""
    gc.collect()
    gc.disable()
    try:
        return _stages(html)
    finally:
        gc.enable()


def _stages(html: str) -> tuple:
    times = {}
    start = time.process_time()
    doc = dom.parse_html(html)
    times["parse"] = time.process_time() - start
    start = time.process_time()
    walk = dom.preorder(doc.root)  # as harness.run_pages hands it on
    violations = rules.audit(doc, walk=walk)
    times["audit"] = time.process_time() - start
    start = time.process_time()
    corrector.correct_document(doc, violations, providers.HeuristicProvider(),
                               walk=walk)
    times["correct"] = time.process_time() - start
    start = time.process_time()
    rules.audit(doc)
    times["reaudit"] = time.process_time() - start
    return times, len(violations), doc.serialize()


def best(pages, repeat: int) -> list:
    """Each page's least time per stage over ``repeat`` pipelines; the
    pages take turns, so a change in the machine's load falls on each."""
    runs = [[run(html)[0] for html in pages] for _ in range(repeat)]
    return [{stage: min(r[k][stage] for r in runs) for stage in STAGES}
            for k in range(len(pages))]


def exponent(times, sizes) -> float:
    """The least-squares slope of log time over log size."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-6)) for t in times]
    x0, y0 = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - x0) * (y - y0) for x, y in zip(xs, ys))
            / sum((x - x0) ** 2 for x in xs))


def measure(name: str, sizes, repeat: int) -> dict:
    """One shape's row: exponents per stage, the seconds of all stages at
    the largest size, and at the smallest size the peak memory, the byte
    ratio and the output bound."""
    pages = [SHAPES[name](n) for n in sizes]
    times = best(pages, repeat)
    html = pages[0]
    tracemalloc.start()
    _, violations, out = run(html)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "shape": name,
        "exponent": {s: exponent([t[s] for t in times], sizes)
                     for s in STAGES},
        "seconds": sum(times[-1].values()),
        "peak_mb": peak / 1e6,
        "ratio": len(out) / len(html),
        "bounded": len(out) <= 2 * len(html) + 100 * violations,
    }


def render(rows, sizes) -> str:
    lines = [f"{'shape':<19}" + "".join(f"{s:>9}" for s in STAGES)
             + f"{'s at ' + str(sizes[-1]):>12}"
             + f"{'MB at ' + str(sizes[0]):>12}{'out/in':>8}"
             + "  bounded"]
    for row in rows:
        lines.append(
            f"{row['shape']:<19}"
            + "".join(f"{row['exponent'][s]:>9.2f}" for s in STAGES)
            + f"{row['seconds']:>12.2f}{row['peak_mb']:>12.1f}"
            + f"{row['ratio']:>8.2f}  {'yes' if row['bounded'] else 'NO'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[4000, 8000, 16000], metavar="N")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--shape", action="append", choices=SHAPES,
                        help="a shape to run (repeatable; default all)")
    args = parser.parse_args(argv)
    sizes = args.sizes
    if len(sizes) < 2 or not all(0 < a < b for a, b in zip(sizes, sizes[1:])):
        parser.error("--sizes must be two or more increasing positive sizes")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = []
    for name in args.shape or SHAPES:
        rows.append(measure(name, args.sizes, args.repeat))
        print(render(rows[-1:], args.sizes).splitlines()[-1], file=sys.stderr)
    print(render(rows, args.sizes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
