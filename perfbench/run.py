#!/usr/bin/env python3
"""Benchmark of accessfix's audit -> prompt -> propose -> apply -> re-audit
pipeline, end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 perfbench/run.py --workload corpus_replay --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports accessfix from ``src/`` and
writes its generated pages, transcript and span file under
``perfbench/out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``correct`` is false when
an output check fails. ``failed`` counts pages whose public call raised;
such pages are recorded, count as +inf in the latency percentiles, and the
loop carries on with the next page.

With ``--trace 0`` the loop runs untraced through whole passes of the
workload's pages until ``--seconds`` and 100 pages are both reached, and
the end-to-end metrics are reported. With
``--trace 1`` it runs untraced for half the time, then traced over the same
units, then times each rule alone on the pages it saw, and reports the
per-layer metrics; the spans go to ``perfbench/out/trace-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from html.parser import HTMLParser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

MIN_PAGES = 100  # so each page of a 25-page pass is timed at least 4 times
LOOP_LIMIT_S = 120.0  # the loop stops here even short of MIN_PAGES
SETUP_PROBES = 7
RULE_PASS_SHARE = 0.2  # of --seconds, spent timing rules one by one
FAILED_SENTINEL = sys.float_info.max  # a percentile that fell on a failure

OUTCOMES = ("applied", "match_failed", "parse_failed", "no_recipe",
            "provider_failed")


@dataclass
class Run:
    wall_s: float = 0.0
    pages: int = 0
    failed: int = 0
    samples: list = field(default_factory=list)  # ms per page, one per unit run
    ok: list = field(default_factory=list)  # False where the call raised
    probes: list = field(default_factory=list)  # speed samples taken before each unit
    errors: Counter = field(default_factory=Counter)  # exception type -> pages
    units: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def drive(workload, seconds=None, units=None, min_pages=MIN_PAGES,
          before_unit=None, probe=None) -> Run:
    """Closed loop with one client: each unit starts when the previous one has
    finished. Runs ``units`` if given, else repeats whole passes of the
    workload's units until ``seconds`` and ``min_pages`` are both reached.
    ``before_unit(index)`` and the speed ``probe`` run between units."""
    run = Run()
    source = iter(units) if units is not None else workload.units()
    clock = time.perf_counter
    start = clock()
    for unit in source:
        elapsed = clock() - start
        if units is None and (elapsed >= LOOP_LIMIT_S or (
            elapsed >= seconds and run.pages >= min_pages
            and len(run.units) % len(workload.order) == 0
        )):
            break
        if before_unit is not None:
            before_unit(len(run.units))
        if probe is not None:
            probe.sample()
            run.probes.append(len(probe.samples))
        run.units.append(unit)
        t0 = clock()
        try:
            out = workload.call(unit)
        except Exception as exc:  # noqa: BLE001 - one page never aborts a run
            run.samples.append((clock() - t0) * 1000 / unit.pages)
            run.ok.append(False)
            run.failed += unit.pages
            if exc.__class__.__name__ not in run.errors:
                print(f"page failed: {unit.paths[0]}: {exc.__class__.__name__}:"
                      f" {str(exc)[:200]}", file=sys.stderr)
            run.errors[exc.__class__.__name__] += unit.pages
        else:
            run.samples.append((clock() - t0) * 1000 / unit.pages)
            run.ok.append(True)
            run.problems.extend(workload.observe(unit, out, run.tally))
        run.pages += unit.pages
    run.wall_s = clock() - start
    return run


def percentile(samples, q) -> float:
    """Nearest-rank percentile; +inf samples (failed pages) sort last."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def unit_medians(run) -> dict:
    """Each distinct unit's median call time (ms per page) over the passes,
    and whether its call succeeded (a page fails the same way every pass)."""
    times, ok = defaultdict(list), {}
    for unit, ms, good in zip(run.units, run.samples, run.ok):
        times[unit].append(ms)
        ok[unit] = good
    return {unit: (statistics.median(t), ok[unit]) for unit, t in times.items()}


def page_samples(run, medians) -> list:
    """Per-page call times for the percentiles, +inf where the call raised:
    each distinct page's median over the passes, or every repetition when
    one unit (a whole batch) makes up the pass."""
    if len(medians) == 1:
        return [ms if ok else math.inf for ms, ok in zip(run.samples, run.ok)]
    return [ms if ok else math.inf for ms, ok in medians.values()]


class SpeedProbe:
    """Machine speed, measured with a fixed standard-library task (html.parser
    and json over a fixed document) timed before every unit of work.

    On a machine shared with other processes the speed of the CPU changes by
    tens of percent from one second to the next, and it moves the stdlib task
    and accessfix alike. The CPU-bound workloads divide each call's time by
    the local factor ``median(task ms around the call) / NOMINAL_MS``, so
    times read as on a machine where the task takes NOMINAL_MS. The task
    depends on nothing in ``src/``."""

    NOMINAL_MS = 2.5
    WINDOW = 3  # task times each side of a unit that set its factor

    def __init__(self):
        self.samples = []
        self.document = "".join(
            f'<div class="c{i}"><p id="p{i}">Text {i} &amp; more</p>'
            f'<a href="/x{i}">Link {i}</a><img src="i{i}.png" alt=""></div>'
            for i in range(60)
        )

    def sample(self):
        start = time.perf_counter()
        parser = _TagCollector()
        parser.feed(self.document)
        parser.close()
        json.loads(json.dumps(parser.tags))
        self.samples.append((time.perf_counter() - start) * 1000)

    def factors(self, positions) -> list:
        """Local speed factor for units run when ``positions`` samples had
        been taken."""
        return [
            statistics.median(self.samples[max(k - self.WINDOW, 0):
                                           k + self.WINDOW]) / self.NOMINAL_MS
            for k in positions
        ]


class _TagCollector(HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags = []

    def handle_starttag(self, tag, attrs):
        self.tags.append((tag, dict(attrs)))


def setup_seconds(workload) -> float:
    """Median over fresh processes of import + provider + transcript load,
    scaled by the speed probe sampled around them (see SpeedProbe)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"),
           workload.provider_kind or "none"]
    if workload.transcript_path:
        cmd.append(workload.transcript_path)
    probe = SpeedProbe()
    values = []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            probe.sample()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    speed = statistics.median(probe.samples) / SpeedProbe.NOMINAL_MS
    return statistics.median(values) / speed


def end_to_end(run, setup_s, problems) -> dict:
    """Throughput is the pages of a pass finished without failure over the
    sum of the pass's median call times."""
    medians = unit_medians(run)
    pass_ms = sum(ms * unit.pages for unit, (ms, _) in medians.items())
    pass_ok = sum(unit.pages for unit, (_, ok) in medians.items() if ok)
    samples = page_samples(run, medians)
    metrics = {
        "pages_per_s": (pass_ok / pass_ms * 1000, "pages/s"),
        "page_ms_p50": (percentile(samples, 0.5), "ms"),
        "page_ms_p90": (percentile(samples, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((run.pages - run.failed) / run.pages, "ratio"),
    }
    for name in ("page_ms_p50", "page_ms_p90"):
        if not math.isfinite(metrics[name][0]):
            problems.append(f"{name} falls on a failed page")
            metrics[name] = (FAILED_SENTINEL, "ms")
    return metrics


# --- traced run -------------------------------------------------------------


class AuditPhases:
    """Notes for audit and correction spans. A document audited after
    correct_document returned it is a re-audit. Documents are held until the
    next unit so their ids cannot be reused within one."""

    def __init__(self):
        self.corrected = {}

    def new_unit(self):
        self.corrected.clear()

    def audit(self, args, kwargs, result):
        doc = args[0]
        url = kwargs.get("web_url", args[2] if len(args) > 2 else "")
        return {
            "url": url,
            "reaudit": id(doc) in self.corrected,
            "rules": dict(Counter(v.rule_id for v in result)),
        }

    def correct(self, args, kwargs, result):
        doc, records = result
        self.corrected[id(doc)] = doc
        return {
            "url": records[0].violation.web_url if records else "",
            "outcomes": dict(Counter(r.outcome for r in records)),
        }


def trace_targets(phases):
    from accessfix import (colors, corrector, dom, harness, prompts,
                           providers, rules)

    functions = [
        (harness, "ingest", "harness.ingest", None, False),
        (harness, "run_benchmark", "harness.run_benchmark", None, False),
        (dom, "parse_html", "dom.parse_html", None, False),
        (dom, "parse_fragment_element", "dom.parse_fragment_element", None,
         False),
        (dom, "find_by_snippet", "dom.find_by_snippet",
         lambda a, k, r: bool(r), False),
        (dom, "resolve", "dom.resolve", None, False),
        (dom, "replace_node", "dom.replace_node", None, False),
        (rules, "audit", "rules.audit", phases.audit, False),
        (colors, "contrast_ratio", "colors.contrast_ratio", None, True),
        (prompts, "build_prompt", "prompts.build_prompt", None, False),
        (prompts, "parse_fix", "prompts.parse_fix", None, False),
        (corrector, "correct_document", "corrector.correct_document",
         phases.correct, False),
        (corrector, "apply_fix", "corrector.apply_fix",
         lambda a, k, r: r.outcome, False),
    ]
    methods = [
        (dom.DomDocument, "serialize", "dom.serialize", None),
        (providers.HeuristicProvider, "propose", "providers.propose", None),
        (providers.ReplayProvider, "propose", "providers.propose", None),
        (providers.RemoteProvider, "propose", "providers.propose", None),
        (providers.Transcript, "lookup", "providers.replay.lookup", None),
    ]
    return functions, methods


def rule_times(units, budget_s) -> dict:
    """Mean ms per page of ``rules.audit(doc, (rule_id,))`` for each rule,
    over the distinct pages of ``units`` in order, until the budget is
    spent (checked between pages). Pages that fail to parse are skipped."""
    from accessfix import dom, harness, rules

    totals, pages = Counter(), 0
    clock = time.perf_counter
    start = clock()
    for path in dict.fromkeys(p for unit in units for p in unit.paths):
        if pages and clock() - start >= budget_s:
            break
        try:
            doc = dom.parse_html(harness.ingest([path])[0].html_text)
        except Exception:  # noqa: BLE001 - the main loop recorded it
            continue
        for rule_id in rules.ALL_RULES:
            t0 = clock()
            rules.audit(doc, (rule_id,))
            totals[rule_id] += clock() - t0
        pages += 1
    return {r: totals[r] * 1000 / max(pages, 1) for r in rules.ALL_RULES}


def _slope(points) -> float:
    """Least-squares slope of log(ms) against log(bytes)."""
    points = [(math.log(b), math.log(ms)) for b, ms in points if b > 0 and ms > 0]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    var = sum((x - mx) ** 2 for x, _ in points)
    if var == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in points) / var


def per_layer(run, untraced, tracer, rule_ms, page_bytes) -> dict:
    from tracer import self_times

    pages = max(run.pages, 1)
    by_name = defaultdict(list)
    names = {}
    for span in tracer.spans:
        by_name[span[2]].append(span)
        names[span[0]] = span[2]

    def ms(spans):
        return sum(s[5] - s[4] for s in spans) / 1e6

    def per_page(value):
        return value / pages

    def ratio(part, whole):
        return part / whole if whole else 0.0

    audits = [s for s in by_name["rules.audit"] if not s[7]["reaudit"]]
    reaudits = [s for s in by_name["rules.audit"] if s[7]["reaudit"]]
    checks = [s for s in by_name["dom.resolve"]
              if names.get(s[1]) == "corrector.apply_fix"]
    lookups = by_name["providers.replay.lookup"]
    posts = by_name["providers.remote.post_json"]
    finds = by_name["dom.find_by_snippet"]
    selfs = self_times(tracer.spans)
    outcomes = Counter()
    for span in by_name["corrector.correct_document"]:
        outcomes.update(span[7]["outcomes"])

    # Fix-induced violations: per unit and page, rules whose count rose
    # from the first audit to the re-audit.
    first, induced = {}, 0
    for span in sorted(by_name["rules.audit"], key=lambda s: s[4]):
        key = (span[3], span[7]["url"])
        if not span[7]["reaudit"]:
            first[key] = span[7]["rules"]
            continue
        before = first.get(key, {})
        induced += sum(max(n - before.get(rule, 0), 0)
                       for rule, n in span[7]["rules"].items())

    tally = run.tally
    metrics = {
        "harness.ingest.ms": (per_page(ms(by_name["harness.ingest"])), "ms/page"),
        "harness.run_benchmark.self_ms": (per_page(sum(
            selfs[s[0]] for s in by_name["harness.run_benchmark"]) / 1e6),
            "ms/page"),
        "dom.parse_html.ms": (per_page(ms(by_name["dom.parse_html"])), "ms/page"),
        "dom.serialize.ms": (per_page(ms(by_name["dom.serialize"])), "ms/page"),
        "dom.parse_fragment_element.calls": (
            per_page(len(by_name["dom.parse_fragment_element"])), "calls/page"),
        "dom.parse_fragment_element.ms": (
            per_page(ms(by_name["dom.parse_fragment_element"])), "ms/page"),
        "dom.find_by_snippet.calls": (per_page(len(finds)), "calls/page"),
        "dom.find_by_snippet.ms": (per_page(ms(finds)), "ms/page"),
        "dom.find_by_snippet.hit_ratio": (
            ratio(sum(bool(s[7]) for s in finds), len(finds)), "ratio"),
        "dom.resolve.stale_ratio": (ratio(
            sum(s[6] == "StaleLocatorError" for s in checks), len(checks)),
            "ratio"),
        "dom.replace_node.ms": (per_page(ms(by_name["dom.replace_node"])),
                                "ms/page"),
        "rules.audit.ms": (per_page(ms(audits)), "ms/page"),
        "rules.reaudit.ms": (per_page(ms(reaudits)), "ms/page"),
        "rules.audit.violations": (per_page(sum(
            sum(s[7]["rules"].values()) for s in audits)), "count/page"),
    }
    for rule_id, value in rule_ms.items():
        metrics[f"rules.rule.{rule_id}.ms"] = (value, "ms/page")
    metrics.update({
        "rules.audit.size_exponent": (_slope(
            (page_bytes.get(s[7]["url"], 0), (s[5] - s[4]) / 1e6)
            for s in audits), "slope"),
        "colors.contrast_ratio.calls": (
            per_page(tracer.counts["colors.contrast_ratio"]), "calls/page"),
        "prompts.build_prompt.ms": (per_page(ms(by_name["prompts.build_prompt"])),
                                    "ms/page"),
        "prompts.build_prompt.calls": (
            per_page(len(by_name["prompts.build_prompt"])), "calls/page"),
        "prompts.parse_fix.ms": (per_page(ms(by_name["prompts.parse_fix"])),
                                 "ms/page"),
        "prompts.parse_fix.calls": (per_page(len(by_name["prompts.parse_fix"])),
                                    "calls/page"),
        "providers.propose.ms": (per_page(ms(by_name["providers.propose"])),
                                 "ms/page"),
        "providers.propose.calls": (per_page(len(by_name["providers.propose"])),
                                    "calls/page"),
        "providers.replay.hit_ratio": (ratio(
            sum(s[6] is None for s in lookups), len(lookups)), "ratio"),
        "providers.remote.attempts": (per_page(len(posts)), "calls/page"),
        "providers.remote.wait_ms": (per_page(ms(posts)), "ms/page"),
        "providers.remote.in_flight_mean": (
            ms(posts) / 1000 / run.wall_s, "requests"),
        "corrector.correct_document.ms": (
            per_page(ms(by_name["corrector.correct_document"])), "ms/page"),
        "corrector.apply_fix.ms": (per_page(ms(by_name["corrector.apply_fix"])),
                                   "ms/page"),
        "corrector.apply_fix.calls": (
            per_page(len(by_name["corrector.apply_fix"])), "calls/page"),
    })
    for outcome in OUTCOMES:
        metrics[f"corrector.outcome.{outcome}"] = (
            per_page(outcomes[outcome]), "count/page")
    metrics.update({
        "corrector.size_exponent": (_slope(
            (page_bytes.get(s[7]["url"], 0), (s[5] - s[4]) / 1e6)
            for s in by_name["corrector.correct_document"]), "slope"),
        "trace.overhead_pct": (
            (run.wall_s - untraced.wall_s) / untraced.wall_s * 100, "%"),
        "fail_rate": (run.failed / pages, "ratio"),
        "fix_applied_ratio": (ratio(tally["applied"], tally["handed"]), "ratio"),
        "score_drop_pct": (
            (1 - ratio(tally["final"], tally["initial"])) * 100
            if tally["initial"] else 0.0, "%"),
        "induced_violations": (per_page(induced), "count/page"),
    })
    return metrics


def traced_metrics(workload, seconds, args) -> tuple:
    from tracer import Tracer

    untraced = drive(workload, seconds=seconds / 2, min_pages=1)
    tracer = Tracer()
    phases = AuditPhases()

    def before_unit(index):
        tracer.page = index
        phases.new_unit()

    functions, methods = trace_targets(phases)
    endpoint = getattr(workload, "endpoint", None)
    if endpoint is not None:
        endpoint.handler = tracer.span("providers.remote.post_json",
                                       endpoint.respond)
    with tracer.installed(functions, methods):
        run = drive(workload, units=untraced.units, before_unit=before_unit)
    if endpoint is not None:
        endpoint.handler = endpoint.respond
    rule_ms = rule_times(run.units, RULE_PASS_SHARE * seconds)
    metrics = per_layer(run, untraced, tracer, rule_ms, workload.page_bytes())
    tracer.write_jsonl(os.path.join(
        OUT, f"trace-{args.workload}-s{args.seed}.jsonl"))
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "accessfix", "__init__.py")):
        print(f"error: no accessfix package under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import accessfix
    import workloads

    if not os.path.abspath(accessfix.__file__).startswith(SRC + os.sep):
        print(f"error: imported accessfix from {accessfix.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir)
        if args.trace:
            run, metrics = traced_metrics(workload, args.seconds, args)
        else:
            setup_s = setup_seconds(workload)
            probe = SpeedProbe() if workload.cpu_bound else None
            run = drive(workload, seconds=args.seconds, probe=probe)
            if probe is not None:
                run.samples = [ms / f for ms, f in
                               zip(run.samples, probe.factors(run.probes))]
            metrics = end_to_end(run, setup_s, run.problems)
        run.problems.extend(workload.final_check())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {run.pages} pages in {run.wall_s:.2f} s, "
          f"failed {dict(run.errors)}, {len(run.problems)} check failures")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.pages,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
