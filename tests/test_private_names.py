"""A module of the package uses another module only through its public
names: no underscore name is imported from a sibling or read off one."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "accessfix"


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list:
    """The sibling modules' underscore names that ``source``, a module of
    the package, imports or reads, as ``module.name`` strings."""
    tree = ast.parse(source)
    modules = set()  # local names bound to sibling modules
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("accessfix")):
            for alias in node.names:
                if node.module in (None, "accessfix"):
                    modules.add(alias.asname or alias.name)
                if private(alias.name):
                    uses.append(f"{node.module or '.'}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_the_check_sees_imports_and_reads():
    assert private_uses("from .rules import Violation, _Index\n"
                        "from . import dom\n"
                        "dom._serialize(x)\n"
                        "dom.__name__, own._x\n") == [
        "rules._Index", "dom._serialize"]


def test_no_module_uses_a_sibling_underscore_name():
    uses = {path.name: private_uses(path.read_text("utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}
