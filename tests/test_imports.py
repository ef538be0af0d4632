"""Every name a module of the package imports is used in that module, and
every public function it defines is named outside it."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boolres"
SOURCES = sorted(
    path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads and
    `__all__` does not export, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "x = np.zeros(1) + d\n"
    )
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def public_functions(source: str) -> list[str]:
    """The functions a module defines at its top level without a leading underscore."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


@functools.cache
def names(source: str) -> frozenset[str]:
    """Every name, attribute and imported name a source mentions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name for alias in node.names}
    return frozenset(found)


def test_the_check_finds_a_public_function_named_nowhere_else():
    module = "def kept(): pass\ndef lone(): pass\ndef _private(): pass\nclass C:\n    def m(self): pass\n"
    elsewhere = names("from a import kept\nimport a\nlone_ = 'lone'\n")
    assert [name for name in public_functions(module) if name not in elsewhere] == ["lone"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_public_function_is_named_outside_its_module(path):
    elsewhere = set().union(*(names(other.read_text()) for other in SOURCES if other != path))
    assert [name for name in public_functions(path.read_text()) if name not in elsewhere] == []
