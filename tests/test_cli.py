import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from accessfix import cli, dom, rules
from accessfix.cli import main
from accessfix.config import load_config
from accessfix.errors import ConfigError
from accessfix.harness import import_rows
from accessfix.providers import HeuristicProvider

PAGE = (
    '<html lang="en"><body>'
    '<header><a href="#m">Skip to content</a></header>'
    '<main id="m"><h1>Title</h1><img src="cart-icon.png"></main>'
    "</body></html>"
)

CLEAN = (
    '<html lang="en"><head><meta name="viewport" content="width=device-width">'
    "</head><body>"
    '<header><a href="#m">Skip to content</a></header>'
    '<main id="m"><h1>Title</h1><p>All good.</p></main>'
    "</body></html>"
)


def write_page(tmp_path, name="page.html", text=PAGE):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_scan_writes_rows(tmp_path, capsys):
    page = write_page(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["scan", page, "--out", str(out)]) == 0
    rows = import_rows(out)
    assert len(rows) == 1
    assert rows[0].rule_id == "image-alt"
    assert "1 violations" in capsys.readouterr().out


def test_scan_clean_page_yields_no_rows(tmp_path):
    page = write_page(tmp_path, text=CLEAN)
    out = tmp_path / "rows.json"
    assert main(["scan", page, "--out", str(out)]) == 0
    assert import_rows(out) == []


def test_scan_rule_filter(tmp_path):
    page = write_page(tmp_path, text="<html><body><img src='x.png'></body></html>")
    out = tmp_path / "rows.json"
    assert main(["scan", page, "--rules", "html-has-lang",
                 "--out", str(out)]) == 0
    rows = import_rows(out)
    assert [r.rule_id for r in rows] == ["html-has-lang"]


def test_fix_heuristic_writes_corrected_html(tmp_path, capsys):
    page = write_page(tmp_path)
    out_dir = tmp_path / "fixed"
    assert main(["fix", page, "--provider", "heuristic",
                 "--out-dir", str(out_dir)]) == 0
    corrected = (out_dir / "page.html").read_text("utf-8")
    assert 'alt="cart icon"' in corrected
    summaries = json.loads((out_dir / "records.json").read_text("utf-8"))
    assert summaries[0]["applied"] == summaries[0]["violations"] == 1


def test_bench_prints_report_and_rows(tmp_path, capsys, corpus_paths):
    rows_path = tmp_path / "rows.json"
    argv = (["bench"] + [str(p) for p in corpus_paths]
            + ["--provider", "heuristic", "--rows", str(rows_path)])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "614 / 24.56" in out
    assert len(import_rows(rows_path)) == 171


def test_report_from_rows_file(tmp_path, capsys, corpus_paths):
    rows_path = tmp_path / "rows.json"
    main(["bench"] + [str(p) for p in corpus_paths[:5]]
         + ["--provider", "heuristic", "--rows", str(rows_path)])
    capsys.readouterr()
    assert main(["report", str(rows_path)]) == 0
    assert "% Score Decrease" in capsys.readouterr().out


def test_report_agrees_with_bench(tmp_path, capsys, corpus_paths):
    rows_path = tmp_path / "rows.json"
    assert main(["bench"] + [str(p) for p in corpus_paths]
                + ["--provider", "heuristic", "--report", "json",
                   "--rows", str(rows_path)]) == 0
    bench = json.loads(capsys.readouterr().out)
    assert main(["report", str(rows_path), "--style", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("model", "strategy"):
        del bench[key], report[key]
    assert report == bench


def test_report_reads_csv_rows_of_a_page_over_the_csv_limit(tmp_path, capsys):
    page = write_page(tmp_path, text=PAGE.replace(
        "<h1>", "<p>" + "word " * 28_000 + "</p><h1>"))
    reports = []
    for name in ("rows.csv", "rows.json"):
        assert main(["scan", page, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / name), "--style", "json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0]["totalInitial"] > 0


def test_unreadable_source_exit_code_2(tmp_path, capsys):
    good = write_page(tmp_path)
    assert main(["scan", str(tmp_path / "missing.html"), good]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["scan"],
    ["fix", "--provider", "heuristic"],
    ["bench", "--provider", "heuristic"],
], ids=["scan", "fix", "bench"])
def test_unknown_rule_exit_code_1(tmp_path, capsys, monkeypatch, command):
    page = write_page(tmp_path)
    monkeypatch.chdir(tmp_path)  # fix's default --out-dir
    assert main(command + [page, "--rules", "no-such-rule"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown rule id: no-such-rule\n"


def test_bad_config_exit_code_1(tmp_path, capsys):
    page = write_page(tmp_path)
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[weights]\ncritical = banana\n", encoding="utf-8")
    assert main(["scan", page, "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


# Settings that were ignored, or that left the provider sending nothing.
@pytest.mark.parametrize("command, text, message", [
    (["scan"], "[thresholds]\ncontrast_nromal = 7\n",
     "[thresholds] unknown key: contrast_nromal"),
    (["bench", "--provider", "heuristic"], "[provider]\nmax_retries = -1\n",
     "max_retries must be >= 0"),
    (["bench", "--provider", "heuristic"], "[provider]\nmax_in_flight = 0\n",
     "max_in_flight must be >= 1"),
], ids=["threshold-typo", "negative-retries", "no-requests-in-flight"])
def test_unusable_config_exit_code_1(tmp_path, capsys, command, text, message):
    page = write_page(tmp_path)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(command + [page, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name,text", [
    ("absent.jsonl", None),
    ("garbled.jsonl", "not json\n"),
    ("keyless.jsonl", '{"rawResponse": "r"}\n'),
])
def test_bench_bad_transcript_exit_code_1(tmp_path, capsys, name, text):
    page = write_page(tmp_path)
    transcript = tmp_path / name
    if text is not None:
        transcript.write_text(text, encoding="utf-8")
    assert main(["bench", page, "--provider", "replay",
                 "--transcript", str(transcript)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and str(transcript) in captured.err


@pytest.mark.parametrize("name,text", [
    ("absent.csv", None),
    ("garbled.json", "[{"),
])
def test_report_bad_rows_file_exit_code_1(tmp_path, capsys, name, text):
    rows = tmp_path / name
    if text is not None:
        rows.write_text(text, encoding="utf-8")
    assert main(["report", str(rows)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and str(rows) in captured.err


def test_report_leaves_out_a_page_that_fails(tmp_path, capsys, monkeypatch):
    good = write_page(tmp_path)
    bad = write_page(tmp_path, "bad.html", PAGE.replace(' lang="en"', ""))
    rows = tmp_path / "rows.json"
    assert main(["bench", good, bad, "--provider", "heuristic",
                 "--rows", str(rows)]) == 0
    capsys.readouterr()
    audit = rules.audit

    def failing(doc, *args, web_url="", **kwargs):
        if web_url == bad:
            raise RuntimeError("boom")
        return audit(doc, *args, web_url=web_url, **kwargs)

    monkeypatch.setattr(rules, "audit", failing)
    assert main(["report", str(rows), "--style", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: RuntimeError: boom\n"
    report = json.loads(captured.out)
    assert (report["urlCount"], report["totalInitial"],
            report["totalFinal"]) == (1, 5, 0)
    assert report["ruleDistribution"] == {"image-alt": "100.00"}
    assert report["perRuleCorrectionRate"] == {"image-alt": "100.00"}


def test_config_overrides_apply(tmp_path, capsys):
    page = write_page(tmp_path)
    cfg = tmp_path / "heavy.ini"
    cfg.write_text("[weights]\ncritical = 50\n", encoding="utf-8")
    assert main(["scan", page, "--config", str(cfg)]) == 0
    assert "score 50" in capsys.readouterr().out


# Every [provider] key: (INI text, ProviderConfig field, value read).
PROVIDER_SETTINGS = {
    "kind": ("replay", "kind", "replay"),
    "endpoint": ("http://localhost:1/v1", "endpoint_url",
                 "http://localhost:1/v1"),
    "model": ("m-16k", "model_name", "m-16k"),
    "max_tokens": ("256", "max_tokens", 256),
    "temperature": ("0.5", "temperature", 0.5),
    "timeout": ("2", "request_timeout", 2.0),
    "max_retries": ("5", "max_retries", 5),
    "api_key_env": ("KEY", "api_key_env", "KEY"),
    "transcript": ("t.jsonl", "transcript_path", "t.jsonl"),
    "min_interval": ("0.25", "min_interval", 0.25),
    "max_in_flight": ("8", "max_in_flight", 8),
}


def test_config_reads_every_provider_key_with_its_type(tmp_path):
    cfg = tmp_path / "provider.ini"
    cfg.write_text("[provider]\n" + "".join(
        f"{key} = {text}\n" for key, (text, _, _) in PROVIDER_SETTINGS.items()
    ), encoding="utf-8")
    provider = load_config(str(cfg)).provider
    assert {f.name for f in dataclasses.fields(provider)} == \
        {name for _, name, _ in PROVIDER_SETTINGS.values()}
    for key, (_, name, value) in PROVIDER_SETTINGS.items():
        read = getattr(provider, name)
        assert (read, type(read)) == (value, type(value)), key
    for text, message in [("max_tokens = 1.5", "bad value for max_tokens"),
                          ("retries = 2", "unknown key: retries")]:
        cfg.write_text(f"[provider]\n{text}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as caught:
            load_config(str(cfg))
        assert str(caught.value) == f"[provider] {message}"


def test_fix_gives_colliding_names_distinct_files(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pages = [
        write_page(tmp_path / "a", "index.html"),
        write_page(tmp_path / "b", "index.html",
                   PAGE.replace("cart-icon.png", "logo.png")),
    ]
    out_dir = tmp_path / "fixed"
    assert main(["fix", *pages, "--provider", "heuristic",
                 "--out-dir", str(out_dir)]) == 0
    summaries = json.loads((out_dir / "records.json").read_text("utf-8"))
    paths = [summary["corrected"] for summary in summaries]
    assert paths == [str(out_dir / "index.html"),
                     str(out_dir / "index-2.html")]
    for i, page in enumerate(pages):
        alone = tmp_path / f"alone-{i}"
        assert main(["fix", page, "--provider", "heuristic",
                     "--out-dir", str(alone)]) == 0
        expected = (alone / "index.html").read_text("utf-8")
        assert Path(paths[i]).read_text("utf-8") == expected
    taken = set()
    assert [cli._out_name(url, taken) for url in
            ("https://a.test/", "https://b.test/", "https://c.test/page")] \
        == ["page.html", "page-2.html", "page-3.html"]


def write_three_pages(tmp_path):
    """Three pages; the middle one is the one made to fail."""
    return [write_page(tmp_path, f"p{i}.html",
                       PAGE.replace("cart-icon", f"icon-{i}"))
            for i in range(3)]


def test_scan_records_a_page_that_raises_and_goes_on(tmp_path, capsys,
                                                     monkeypatch):
    pages = write_three_pages(tmp_path)
    rows = tmp_path / "rows.json"
    assert main(["scan", pages[0], pages[2], "--out", str(rows)]) == 0
    expected_out, expected_rows = capsys.readouterr().out, rows.read_text()

    parse = dom.parse_html

    def failing_parse(text):
        if "icon-1" in text:
            raise RuntimeError("no tree")
        return parse(text)

    monkeypatch.setattr(dom, "parse_html", failing_parse)
    assert main(["scan", *pages, "--out", str(rows)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {pages[1]}: RuntimeError: no tree\n"
    assert captured.out == expected_out
    assert rows.read_text() == expected_rows


def test_fix_records_a_page_that_raises_and_goes_on(tmp_path, capsys,
                                                    monkeypatch):
    pages = write_three_pages(tmp_path)
    out_dir = tmp_path / "fixed"
    argv = ["--provider", "heuristic", "--out-dir", str(out_dir)]
    assert main(["fix", pages[0], pages[2], *argv]) == 0
    expected_out = capsys.readouterr().out
    expected = {p.name: p.read_text("utf-8") for p in out_dir.iterdir()}
    shutil.rmtree(out_dir)

    class Raising(HeuristicProvider):
        def propose(self, bundle, violation=None):
            if violation.web_url == pages[1]:
                raise RuntimeError("no answer")
            return super().propose(bundle, violation)

    monkeypatch.setattr(cli, "_provider_from_args",
                        lambda args, config: Raising())
    assert main(["fix", *pages, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {pages[1]}: RuntimeError: no answer\n"
    assert captured.out == expected_out
    assert {p.name: p.read_text("utf-8") for p in out_dir.iterdir()} \
        == expected
