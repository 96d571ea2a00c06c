import json
import sys
from fractions import Fraction
from importlib import resources

import pytest

from accessfix import cli
from accessfix.dom import parse_fragment_element
from accessfix.errors import SchemaError, UnknownRuleError
from accessfix.harness import (
    CorpusEntry,
    DatasetRow,
    ROW_COLUMNS,
    build_replay_transcript,
    export_rows,
    import_rows,
    ingest,
    render_report,
    run_benchmark,
    run_pages,
)
from accessfix.prompts import Replace
from accessfix.providers import HeuristicProvider, ReplayProvider
from accessfix.scoring import BenchmarkResult, fmt3
from fixturegen import write_all


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
    latin1 = tmp_path / "latin1.html"
    latin1.write_bytes("<p>caf\u00e9</p>".encode("latin-1"))
    entries = ingest([str(tmp_path / "gone.html"), str(latin1), str(good)])
    assert len(entries) == 3
    assert entries[0].error
    assert "utf-8" in entries[1].error and entries[1].html_text == ""
    assert not entries[2].error


def test_ingest_url_cache_avoids_refetch(tmp_path):
    calls = []

    def fake_fetch(url, timeout, user_agent):
        calls.append(url)
        return b"<html><body><p>remote</p></body></html>"

    url = "https://example.test/page"
    first = ingest([url], cache_dir=str(tmp_path), fetch=fake_fetch)
    second = ingest([url], cache_dir=str(tmp_path), fetch=fake_fetch)
    assert calls == [url]
    assert first[0].html_text == second[0].html_text
    third = ingest([url], cache_dir=str(tmp_path), fetch=fake_fetch,
                   refresh=True)
    assert calls == [url, url]
    assert third[0].html_text == first[0].html_text


LATIN1_PAGE = "<p>caf\u00e9</p>".encode("latin-1")


def no_fetch(url, timeout, user_agent):
    raise AssertionError(f"fetched {url}, which is cached")


def test_ingest_fetched_page_that_does_not_decode_is_isolated():
    entries = ingest(["https://example.test/latin1"],
                     fetch=lambda *args: LATIN1_PAGE)
    assert "'utf-8' codec can't decode" in entries[0].error
    assert entries[0].html_text == ""


def test_ingest_cached_page_that_does_not_decode_is_isolated(tmp_path):
    url = "https://example.test/page"
    ingest([url], cache_dir=str(tmp_path), fetch=lambda *args: b"<p>ok</p>")
    (cached,) = tmp_path.iterdir()
    cached.write_bytes(LATIN1_PAGE)
    entries = ingest([url], cache_dir=str(tmp_path), fetch=no_fetch)
    assert "'utf-8' codec can't decode" in entries[0].error
    assert entries[0].html_text == ""


def test_fetched_cached_and_local_pages_decode_alike(tmp_path):
    data = "<p>caf\u00e9</p>\r\n<p>x</p>\r".encode("utf-8")
    local = tmp_path / "page.html"
    local.write_bytes(data)
    cache = tmp_path / "cache"
    url = "https://example.test/page"
    fetched = ingest([url], cache_dir=str(cache), fetch=lambda *args: data)
    (cached_file,) = cache.iterdir()
    assert cached_file.read_bytes() == data
    cached = ingest([url], cache_dir=str(cache), fetch=no_fetch)
    texts = {entries[0].html_text
             for entries in (fetched, cached, ingest([str(local)]))}
    assert texts == {"<p>caf\u00e9</p>\n<p>x</p>\n"}


def test_ingest_fetch_error_is_isolated(tmp_path):
    def broken_fetch(url, timeout, user_agent):
        raise OSError("no route to host")

    entries = ingest(["https://down.test/x"], cache_dir=str(tmp_path),
                     fetch=broken_fetch)
    assert entries[0].error


# The extension is the format: ".json" is JSON, any other is CSV.
@pytest.mark.parametrize("fmt,name", [
    ("csv", "rows.csv"), ("json", "rows.json"), ("csv", "rows.txt"),
])
def test_export_import_round_trip(tmp_path, fmt, name):
    rows = sample_rows()
    path = tmp_path / name
    export_rows(rows, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("[" if fmt == "json" else ",".join(ROW_COLUMNS))
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
    export_rows(rows, path)
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


def test_run_pages_rejects_an_unknown_strategy_before_any_page():
    pages = run_pages([CorpusEntry("f", "<p>x</p>")], HeuristicProvider(),
                      strategy="zero_shot")
    with pytest.raises(ValueError, match="unknown strategy: zero_shot"):
        next(pages)
    # Without a provider no prompt is built, so the strategy is not read.
    [run] = run_pages([CorpusEntry("f", "<p>x</p>")], strategy="zero_shot")
    assert run.error == ""


def test_link_name_fix_adds_no_region_violation():
    # Text added to the link would sit outside every landmark.
    page = '<html lang="en"><body><div>intro</div><a href="/x"></a></body></html>'
    result, _, records, failures = run_benchmark(
        [CorpusEntry("link.html", page)], HeuristicProvider()
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
        CorpusEntry(name, html)
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
    entries = [CorpusEntry(name, html)
               for name, html in composed_pages if name in PROMPT_TWINS]
    assert len(entries) == len(PROMPT_TWINS)
    replay = ReplayProvider(build_replay_transcript(entries))
    for provider in (HeuristicProvider(), replay):
        for run in run_pages(entries, provider):
            assert {r.outcome for r in run.records} == {"applied"}
            assert run.final.violations == []
            assert run.final.score == 0


def test_replay_parses_no_fragment(corpus_paths, monkeypatch):
    """Every replayed corpus answer is an edit of the snippet its prompt
    carried (``prompts.parse_fix``), so none is parsed, and each applies."""
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
    assert not any(isinstance(r.proposal.edit, Replace) for r in records)
    assert calls == []


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


CORPUS_RATES = "\n".join(
    ["Error ID                        Percentage Corrected"]
    + [f"{rule:<32}100%" for rule in (
        "aria-required-attr", "color-contrast", "duplicate-id",
        "empty-heading", "heading-order", "html-has-lang", "image-alt",
        "label", "landmark-no-duplicate-content", "landmark-one-main",
        "landmark-unique", "link-name", "meta-viewport", "region",
        "skip-link")])
CORPUS_DISTRIBUTION = """\
Error Type                      Percentage
region                          12.28%
html-has-lang                   10.53%
landmark-no-duplicate-content   9.36%
skip-link                       8.77%
color-contrast                  7.02%
label                           7.02%
landmark-unique                 6.43%
aria-required-attr              5.85%
heading-order                   5.85%
duplicate-id                    5.26%
link-name                       5.26%
image-alt                       4.68%
meta-viewport                   4.68%
landmark-one-main               4.09%
empty-heading                   2.92%"""


def test_rule_reports_pinned(corpus_paths):
    """The ``rates`` and ``distribution`` texts byte for byte: rows by
    falling percentage, ties by rule id, the rule padded to 32 columns."""
    result = run_benchmark(load_entries(corpus_paths), HeuristicProvider(),
                           model_name="m")[0]
    assert render_report(result, "rates") == CORPUS_RATES
    assert render_report(result, "distribution") == CORPUS_DISTRIBUTION
    made = BenchmarkResult(
        m=1, total_initial=0, total_final=0, r_initial=Fraction(0),
        r_final=Fraction(0), improvement_percent=Fraction(0),
        per_rule_correction_rate={
            "region": Fraction(5, 2), "label": Fraction(50),
            "image-alt": Fraction(50), "link-name": Fraction(1, 2)},
        rule_distribution={
            "region": Fraction(1, 3), "label": Fraction(99, 2),
            "image-alt": Fraction(99, 2), "link-name": Fraction(2, 3)})
    assert render_report(made, "rates") == (
        "Error ID                        Percentage Corrected\n"
        "image-alt                       50%\n"
        "label                           50%\n"
        "region                          2%\n"
        "link-name                       0%")
    assert render_report(made, "distribution") == (
        "Error Type                      Percentage\n"
        "image-alt                       49.50%\n"
        "label                           49.50%\n"
        "link-name                       0.67%\n"
        "region                          0.33%")


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
