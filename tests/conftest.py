import importlib.util
import itertools
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

FIXTURES = resources.files("accessfix") / "fixtures"


@pytest.fixture(scope="session")
def corpus_dir():
    return FIXTURES / "corpus"


@pytest.fixture(scope="session")
def rules_dir():
    return FIXTURES / "rules"


@pytest.fixture(scope="session")
def corpus_manifest(corpus_dir):
    return json.loads((corpus_dir / "manifest.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def rules_manifest(rules_dir):
    return json.loads((rules_dir / "manifest.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def corpus_paths(corpus_dir, corpus_manifest):
    return [str(corpus_dir / name) for name in sorted(corpus_manifest)]


@pytest.fixture(scope="session")
def composed_pages(rules_dir, rules_manifest):
    """(name, html) pages whose fixes must compose: two violations on one
    element, violations on nested elements, identical elements that each need
    a name of their own, and every pair of the positive rule fixtures' bodies
    in one page, with and without lang."""
    nav = '<nav{}><a href="/">H</a></nav>'
    pages = [
        ("one-element.html",
         '<img src="a.png" id="d" alt="x"><img src="b.png" id="d">'),
        ("nested.html", "<p><table><tr><td><img src=x.png></td></tr></table></p>"),
    ]
    for name, body in [
        ("same-label-navs", "<main>" + nav.format(' aria-label="Menu"') * 3
         + "</main>"),
        ("unlabelled-navs", "<main>" + nav.format("") * 3 + "</main>"),
        ("stray-twins", "<p>stray</p><main>m</main><p>stray</p>"),
        ("mainless-runs", "<p>a</p><nav>x</nav><p>b</p>"),
        ("three-mains", "<main>a</main><main>b</main><main>b</main>"),
    ]:
        pages.append((f"{name}.html", '<html lang="en"><head><title>Same'
                      f"</title></head><body>{body}</body></html>"))
    bodies = {
        name: (rules_dir / name).read_text("utf-8")
        .split("<body>")[1].split("</body>")[0]
        for name in sorted(rules_manifest) if rules_manifest[name]
    }
    for a, b in itertools.combinations(bodies, 2):
        for lang in ("", ' lang="en"'):
            pages.append((
                f"pair-{a}-{b}{lang and '-lang'}.html",
                f"<html{lang}><head><title>Pair</title></head>"
                f"<body>{bodies[a]}{bodies[b]}</body></html>",
            ))
    return pages


@pytest.fixture(scope="session")
def perfbench_pages():
    """(name, html) of one pass of every ``perfbench/gen.py`` mix for seeds
    1-3, imported from the benchmark's own generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    spec.loader.exec_module(gen)
    return [
        (f"{mix}:{seed}:{page.name}", page.html)
        for mix in sorted(gen.PASSES) for seed in (1, 2, 3)
        for page in gen.build(mix, seed)
    ]
