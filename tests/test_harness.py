import json
import sys
from importlib import resources

import pytest

from accessfix import cli
from accessfix.corpus import write_all
from accessfix.dom import parse_fragment_element
from accessfix.errors import SchemaError, UnknownRuleError
from accessfix.harness import (
    CorpusEntry,
    DatasetRow,
    build_replay_transcript,
    export_rows,
    import_rows,
    ingest,
    render_report,
    run_benchmark,
    run_pages,
)
from accessfix.providers import HeuristicProvider, ReplayProvider
from accessfix.scoring import fmt3


def load_entries(paths):
    return ingest([str(p) for p in paths])


# Backticks in a fix's text and attribute, which the response must fence.
BACKTICK_PAGE = (
    "backticks.html",
    '<html lang="en"><head><title>Ticks</title></head><body><main>'
    '<p style="color:#999999; background-color:#ffffff">run `ls` now</p>'
    '<p style="color:#999999; background-color:#ffffff" title="a ``b`` c">'
    "run `ls` now</p></main></body></html>",
)

# Composed pages whose identical elements each need a label of their own.
# The help of each violation names its label, so their prompts differ.
PROMPT_TWINS = ("same-label-navs.html", "unlabelled-navs.html",
                "stray-twins.html", "three-mains.html")


def sample_rows():
    return [
        DatasetRow(
            web_url="https://example.test/a",
            num_violations=2,
            rule_id="image-alt",
            initial_score=8,
            description='Images must have alternate text, "always".',
            help='Add an alt attribute, e.g. alt="cart, icon"',
            html='<img src="a.png" data-x="1,2">',
            dom="<html><body>\n<img></body></html>",
            dom_corrected='<html><body><img alt="a"></body></html>',
        ),
        DatasetRow(
            web_url="https://example.test/a",
            num_violations=2,
            rule_id="link-name",
            initial_score=8,
            description="Links must have discernible text",
            help="Give the link content",
            html='<a href="/x"></a>',
            dom="<html></html>",
        ),
    ]


def test_ingest_local_files_deterministic(tmp_path):
    p = tmp_path / "page.html"
    p.write_text("<html><body><p>hi</p></body></html>", encoding="utf-8")
    a = ingest([str(p)])
    b = ingest([str(p)])
    assert len(a) == 1 and not a[0].error
    assert a[0].html_text == b[0].html_text
    assert a[0].source_id == str(p)


def test_ingest_missing_file_is_isolated(tmp_path):
    good = tmp_path / "good.html"
    good.write_text("<p>ok</p>", encoding="utf-8")
    entries = ingest([str(tmp_path / "gone.html"), str(good)])
    assert len(entries) == 2
    assert entries[0].error
    assert not entries[1].error


def test_ingest_url_cache_avoids_refetch(tmp_path):
    calls = []

    def fake_fetch(url, timeout, user_agent):
        calls.append(url)
        return "<html><body><p>remote</p></body></html>"

    url = "https://example.test/page"
    first = ingest([url], cache_dir=str(tmp_path), fetch=fake_fetch)
    second = ingest([url], cache_dir=str(tmp_path), fetch=fake_fetch)
    assert calls == [url]
    assert first[0].html_text == second[0].html_text
    third = ingest([url], cache_dir=str(tmp_path), fetch=fake_fetch,
                   refresh=True)
    assert calls == [url, url]
    assert third[0].html_text == first[0].html_text


def test_ingest_fetch_error_is_isolated(tmp_path):
    def broken_fetch(url, timeout, user_agent):
        raise OSError("no route to host")

    entries = ingest(["https://down.test/x"], cache_dir=str(tmp_path),
                     fetch=broken_fetch)
    assert entries[0].error


@pytest.mark.parametrize("fmt,name", [("csv", "rows.csv"), ("json", "rows.json")])
def test_export_import_round_trip(tmp_path, fmt, name):
    rows = sample_rows()
    path = tmp_path / name
    export_rows(rows, fmt, path)
    assert import_rows(path) == rows


def test_import_rejects_missing_column(tmp_path):
    path = tmp_path / "rows.json"
    records = [r.to_record() for r in sample_rows()]
    del records[1]["help"]
    path.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        import_rows(path)
    assert "help" in str(exc.value)


def test_import_rejects_bad_csv_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("webURL,id\nx,y\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        import_rows(path)


@pytest.mark.parametrize("name,text", [
    ("missing.json", None),
    ("missing.csv", None),
    ("truncated.json", '[{"webURL": "x"'),
    ("numbers.json", "[1, 2]"),
    ("latin1.csv", b"webURL\xff\n"),
])
def test_import_unreadable_rows_file_is_schema_error(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, str):
        path.write_text(text, encoding="utf-8")
    elif text is not None:
        path.write_bytes(text)
    with pytest.raises(SchemaError) as exc:
        import_rows(path)
    if text is None or name == "truncated.json":
        assert str(path) in str(exc.value)


def test_export_import_round_trip_field_over_the_csv_limit(tmp_path):
    # The csv module's default field limit is 131072 characters.
    rows = sample_rows()
    rows[0].dom = "<html><body>" + "x" * 140_000 + "</body></html>"
    path = tmp_path / "rows.csv"
    export_rows(rows, "csv", path)
    assert import_rows(path) == rows


def test_run_benchmark_on_bundled_corpus(corpus_paths, corpus_manifest):
    entries = load_entries(corpus_paths)
    result, rows, records, failures = run_benchmark(
        entries, HeuristicProvider(), model_name="heuristic-oracle"
    )
    assert failures == []
    assert result.m == 25
    assert result.total_initial == 614
    assert len(rows) == 171
    assert float(result.improvement_percent) >= 50.0
    assert all(r.dom_corrected for r in rows)


def test_run_benchmark_worker_count_does_not_change_output(corpus_paths):
    entries = load_entries(corpus_paths[:6])
    serial = run_benchmark(entries, HeuristicProvider(), model_name="m")
    threaded = run_benchmark(entries, HeuristicProvider(), model_name="m",
                             workers=4)
    assert serial[0] == threaded[0]
    assert serial[1] == threaded[1]


def test_run_benchmark_reports_ingest_failures(corpus_paths, tmp_path):
    entries = load_entries(corpus_paths[:2]) + ingest(
        [str(tmp_path / "missing.html")]
    )
    result, rows, records, failures = run_benchmark(entries, HeuristicProvider())
    assert len(failures) == 1
    assert result.m == 2


def test_run_benchmark_rejects_an_unknown_rule_before_any_page(corpus_paths):
    entries = load_entries(corpus_paths[:2])
    with pytest.raises(UnknownRuleError):
        run_benchmark(entries, HeuristicProvider(), ruleset=("nope",))


def test_link_name_fix_adds_no_region_violation():
    # Text added to the link would sit outside every landmark.
    page = '<html lang="en"><body><div>intro</div><a href="/x"></a></body></html>'
    result, _, records, failures = run_benchmark(
        [CorpusEntry.from_text("link.html", page)], HeuristicProvider()
    )
    assert failures == []
    assert {r.outcome for r in records} == {"applied"}
    assert result.total_final == 0


def test_replay_transcript_skips_an_unreadable_source(corpus_paths, tmp_path):
    entries = load_entries(corpus_paths[:3])
    missing = ingest([str(tmp_path / "missing.html")])
    transcript = build_replay_transcript(entries[:1] + missing + entries[1:])
    assert transcript.entries
    assert transcript == build_replay_transcript(entries)


def test_replay_transcript_reproduces_heuristic_run(corpus_paths,
                                                   composed_pages):
    entries = load_entries(corpus_paths) + [
        CorpusEntry.from_text(name, html)
        for name, html in composed_pages + [BACKTICK_PAGE]
    ]
    transcript = build_replay_transcript(entries)
    replay = ReplayProvider(transcript)
    heuristic_result, heuristic_rows = run_benchmark(
        entries, HeuristicProvider(), model_name="m")[:2]
    replay_result, replay_rows, replay_records, _ = run_benchmark(
        entries, replay, model_name="m")
    assert {r.outcome for r in replay_records} == {"applied"}
    assert replay_result == heuristic_result
    assert replay_rows == heuristic_rows


def test_replay_gives_identical_landmarks_distinct_labels(composed_pages):
    """A replayed transcript has one response per prompt; the prompts of
    identical landmarks name the labels the audit chose, so replay ends each
    page at 0 as the heuristic oracle does."""
    entries = [CorpusEntry.from_text(name, html)
               for name, html in composed_pages if name in PROMPT_TWINS]
    assert len(entries) == len(PROMPT_TWINS)
    replay = ReplayProvider(build_replay_transcript(entries))
    for provider in (HeuristicProvider(), replay):
        for run in run_pages(entries, provider):
            assert {r.outcome for r in run.records} == {"applied"}
            assert run.final.violations == []
            assert run.final.score == 0


def test_replay_parses_each_fix_once(corpus_paths, monkeypatch):
    entries = load_entries(corpus_paths)
    replay = ReplayProvider(build_replay_transcript(entries))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_fragment_element(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "parse_fragment_element", None)
        if name.startswith("accessfix") and held is parse_fragment_element:
            monkeypatch.setattr(module, "parse_fragment_element", counting)
    records = run_benchmark(entries, replay)[2]
    applied = [r for r in records if r.outcome == "applied"]
    assert len(applied) == len(records) == 171
    assert len(calls) == 171


def test_corpus_generator_reproduces_bundled_fixtures(tmp_path):
    write_all(str(tmp_path))
    bundled = resources.files("accessfix") / "fixtures"
    for kind in ("corpus", "rules"):
        names = sorted(p.name for p in (bundled / kind).iterdir())
        assert sorted(p.name for p in (tmp_path / kind).iterdir()) == names
        for name in names:
            assert ((tmp_path / kind / name).read_bytes()
                    == (bundled / kind / name).read_bytes()), name


def test_render_report_summary_contains_expected_figures(corpus_paths):
    entries = load_entries(corpus_paths)
    result = run_benchmark(entries, HeuristicProvider(),
                           model_name="heuristic-oracle")[0]
    text = render_report(result, "summary")
    assert "614 / 24.56" in text
    assert fmt3(result.improvement_percent) + "%" in text
    assert "heuristic-oracle" in text


def test_render_report_other_styles(corpus_paths):
    entries = load_entries(corpus_paths[:4])
    result = run_benchmark(entries, HeuristicProvider(), model_name="m")[0]
    rates = render_report(result, "rates")
    assert "image-alt" in rates or "region" in rates
    distribution = render_report(result, "distribution")
    assert "%" in distribution
    parsed = json.loads(render_report(result, "json"))
    assert parsed["model"] == "m"


@pytest.mark.parametrize("workers", [1, 2])
def test_page_whose_provider_raises_is_a_recorded_failure(corpus_paths,
                                                          workers):
    entries = load_entries(corpus_paths)
    broken = entries[3].source_id

    class Raising(HeuristicProvider):
        def propose(self, bundle, violation=None):
            if violation.web_url == broken:
                raise RuntimeError("no answer")
            return super().propose(bundle, violation)

    result, rows, _, failures = run_benchmark(entries, Raising(),
                                              workers=workers)
    assert failures == [(broken, "RuntimeError: no answer")]
    others = [e for e in entries if e.source_id != broken]
    expected, expected_rows, _, _ = run_benchmark(others, HeuristicProvider())
    assert (result, rows) == (expected, expected_rows)
    assert result.total_final == 0


def test_bench_exits_2_when_a_page_raises(corpus_paths, monkeypatch, capsys):
    class Raising(HeuristicProvider):
        def propose(self, bundle, violation=None):
            raise RuntimeError("no answer")

    monkeypatch.setattr(cli, "_provider_from_args",
                        lambda args, config: Raising())
    assert cli.main(["bench", corpus_paths[0], "--provider", "heuristic"]) == 2
    err = capsys.readouterr().err
    assert f"error: {corpus_paths[0]}: RuntimeError: no answer" in err
