"""Command-line entry point: scan, fix, bench, and report subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import corrector, harness, scoring
from .config import load_config
from .errors import AccessfixError
from .providers import make_provider

_STRATEGY_NAMES = {
    "react": "react",
    "few-shot": "few_shot",
    "cot": "chain_of_thought",
}


def _add_source_args(parser):
    parser.add_argument("sources", nargs="+",
                        help="HTML file paths or http(s) URLs")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory for fetched URLs")
    parser.add_argument("--refresh", action="store_true",
                        help="refetch URLs even when cached")


def _add_provider_args(parser):
    parser.add_argument("--provider", required=True,
                        choices=("heuristic", "remote", "replay"))
    parser.add_argument("--strategy", default="react",
                        choices=tuple(_STRATEGY_NAMES))
    parser.add_argument("--model", default=None)
    parser.add_argument("--endpoint", default=None)
    parser.add_argument("--transcript", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accessfix",
        description="Audit HTML for accessibility violations, correct them "
                    "via a fix provider, and score the improvement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="audit sources and emit dataset rows")
    _add_source_args(scan)
    scan.add_argument("--out", default=None,
                      help="write rows to this .csv or .json file")

    fix = sub.add_parser("fix", help="audit, correct, and save corrected HTML")
    _add_source_args(fix)
    _add_provider_args(fix)
    fix.add_argument("--out-dir", default="corrected",
                     help="directory for corrected documents")

    bench = sub.add_parser(
        "bench", help="full scan->fix->rescan benchmark with a report"
    )
    _add_source_args(bench)
    _add_provider_args(bench)
    bench.add_argument("--report", default="summary",
                       choices=("summary", "rates", "distribution", "json"))
    bench.add_argument("--rows", default=None,
                       help="also write dataset rows to this .csv/.json file")
    bench.add_argument("--workers", type=int, default=1)

    report = sub.add_parser("report", help="render a report from a rows file")
    report.add_argument("rows_file")
    report.add_argument("--style", default="summary",
                        choices=("summary", "rates", "distribution", "json"))
    report.add_argument("--config", default=None)
    return parser


def _setup(args):
    config = load_config(args.config)
    ruleset = None
    if args.rules:
        ruleset = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    entries = harness.ingest(args.sources, cache_dir=args.cache_dir,
                             refresh=args.refresh)
    settings = dict(ruleset=ruleset, impacts=config.impacts,
                    thresholds=config.thresholds, weights=config.weights)
    return config, entries, settings


def _provider_from_args(args, config):
    cfg = config.provider
    cfg.kind = args.provider
    if args.model:
        cfg.model_name = args.model
    if args.endpoint:
        cfg.endpoint_url = args.endpoint
    if args.transcript:
        cfg.transcript_path = args.transcript
    return make_provider(cfg)


def _cmd_scan(args) -> int:
    _, entries, settings = _setup(args)
    rows, failed = [], False
    for run in harness.run_pages(entries, **settings):
        if run.error:
            print(f"error: {run.source_id}: {run.error}", file=sys.stderr)
            failed = True
            continue
        rows.extend(run.rows)
        print(f"{run.source_id}: {run.initial.num_violations} violations, "
              f"score {run.initial.score}")
    if args.out:
        harness.export_rows(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 2 if failed else 0


def _out_name(source_id, taken) -> str:
    """A file name for a source's corrected page, unique among ``taken``
    (which it joins): ``index.html``, then ``index-2.html``, ..."""
    stem = os.path.splitext(os.path.basename(source_id))[0] or "page"
    name, n = stem, 1
    while name in taken:
        n += 1
        name = f"{stem}-{n}"
    taken.add(name)
    return f"{name}.html"


def _cmd_fix(args) -> int:
    config, entries, settings = _setup(args)
    provider = _provider_from_args(args, config)
    strategy = _STRATEGY_NAMES[args.strategy]
    os.makedirs(args.out_dir, exist_ok=True)
    summaries, taken, failed = [], set(), False
    for run in harness.run_pages(entries, provider, strategy=strategy,
                                 **settings):
        if run.error:
            print(f"error: {run.source_id}: {run.error}", file=sys.stderr)
            failed = True
            continue
        out_path = os.path.join(args.out_dir, _out_name(run.source_id, taken))
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(run.corrected_html)
        applied = sum(1 for r in run.records if r.outcome == corrector.APPLIED)
        summaries.append({
            "source": run.source_id,
            "corrected": out_path,
            "violations": run.initial.num_violations,
            "applied": applied,
            "outcomes": dict(Counter(r.outcome for r in run.records)),
        })
        print(f"{run.source_id}: applied {applied}/"
              f"{run.initial.num_violations} fixes -> {out_path}")
    with open(os.path.join(args.out_dir, "records.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summaries, handle, indent=2)
        handle.write("\n")
    return 2 if failed else 0


def _cmd_bench(args) -> int:
    config, entries, settings = _setup(args)
    provider = _provider_from_args(args, config)
    result, rows, _, failures = harness.run_benchmark(
        entries, provider, strategy=_STRATEGY_NAMES[args.strategy],
        model_name=args.model or args.provider, workers=args.workers,
        **settings,
    )
    print(harness.render_report(result, args.report))
    if args.rows:
        harness.export_rows(rows, args.rows)
    for source, error in failures:
        print(f"error: {source}: {error}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_report(args) -> int:
    config = load_config(args.config)
    rows = harness.import_rows(args.rows_file)
    first_rows = {}
    for row in rows:
        first_rows.setdefault(row.web_url, row)
    entries = [
        harness.CorpusEntry(url, first.dom_corrected or first.dom)
        for url, first in sorted(first_rows.items())
    ]
    initial_scores, final_scores, after, failed = [], [], [], set()
    for run in harness.run_pages(entries, impacts=config.impacts,
                                 thresholds=config.thresholds,
                                 weights=config.weights):
        if run.error:
            print(f"error: {run.source_id}: {run.error}", file=sys.stderr)
            failed.add(run.source_id)
            continue
        initial_scores.append(first_rows[run.source_id].initial_score)
        final_scores.append(run.initial.score)
        after.extend(run.initial.violations)
    before = [row for row in rows if row.web_url not in failed]
    result = scoring.aggregate(initial_scores, final_scores, before, after,
                               model_name="recorded")
    print(harness.render_report(result, args.style))
    return 2 if failed else 0


_COMMANDS = {
    "scan": _cmd_scan,
    "fix": _cmd_fix,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AccessfixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
