"""Every name a module of the package (or `tests/reference.py`) imports is
used in that module, and every public function or class the package defines,
and every public method of a public class, is named somewhere in the package
outside its own definition: code that only tests reach belongs in
`tests/reference.py`."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boolres"
MODULES = sorted(PACKAGE.glob("*.py"))


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


@pytest.mark.parametrize(
    "path", MODULES + [ROOT / "tests" / "reference.py"], ids=lambda path: path.name
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def public_definitions(source: str) -> list[str]:
    """The functions and classes a module defines at its top level without a
    leading underscore."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def public_methods(source: str) -> list[str]:
    """`Class.method` for each method without a leading underscore of each
    top-level class without one."""
    return [
        f"{top.name}.{member.name}"
        for top in ast.parse(source).body
        if isinstance(top, ast.ClassDef) and not top.name.startswith("_")
        for member in top.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    ]


def _defines(node: ast.AST, name: str | None) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name


@functools.cache
def names(source: str, outside: str | None = None) -> frozenset[str]:
    """Every name, attribute, imported name and `__all__` entry a source
    mentions, leaving out the definition named `outside`: a top-level
    function or class, or a method written `Class.method`."""
    owner, _, member = (outside or "").rpartition(".")
    roots = []
    for top in ast.parse(source).body:
        if _defines(top, outside):
            continue
        if owner and _defines(top, owner):
            roots += [node for node in top.body if not _defines(node, member)]
            roots += top.bases + top.keywords + top.decorator_list
        else:
            roots.append(top)
    found = set()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                found |= set(ast.literal_eval(node.value))
    return frozenset(found)


def unnamed_definitions(
    module: str, sources: dict[str, str], definitions=public_definitions
) -> list[str]:
    """The `definitions` of `module` (its public top-level functions and
    classes, or with `public_methods` its public methods) that no package
    source (a path under src/boolres) names outside the definition itself.
    Sources elsewhere, tests and perfbench among them, do not count."""
    package = {path: source for path, source in sources.items() if path.startswith("src/boolres/")}
    return [
        qualified for qualified in definitions(sources[module])
        if not any(
            qualified.rpartition(".")[2] in names(source, qualified if path == module else None)
            for path, source in package.items()
        )
    ]


def test_the_check_finds_a_public_function_named_nowhere_else():
    module = "def kept(): pass\ndef lone(): pass\ndef _private(): pass\nclass C:\n    def m(self): pass\n"
    sources = {
        "src/boolres/a.py": module,
        "src/boolres/b.py": "from .a import kept, C\nimport a\nlone_ = 'lone'\n",
    }
    assert unnamed_definitions("src/boolres/a.py", sources) == ["lone"]


def test_the_check_counts_only_callers_in_the_package():
    module = (
        "def oracle(): pass\nclass Probe: pass\n"
        "def helper(): pass\ndef caller():\n    return helper()\n"
        "def recursive(k):\n    return recursive(k - 1)\ndef exported(): pass\n"
    )
    sources = {
        "src/boolres/m.py": module,
        "src/boolres/__init__.py": "__all__ = ['exported']\n",
        "tests/test_m.py": "from boolres.m import oracle, Probe, caller, recursive\n",
        "perfbench/jobs.py": "from boolres.m import caller\n",
    }
    assert unnamed_definitions("src/boolres/m.py", sources) == [
        "oracle", "Probe", "caller", "recursive"
    ]


def test_the_check_finds_a_public_method_named_nowhere_else():
    module = (
        "class Shape:\n"
        "    def area(self): return self.side ** 2\n"
        "    def lone(self): return self.lone()\n"
        "    def called_by_sibling(self): pass\n"
        "    def caller(self): return self.called_by_sibling()\n"
        "    def _private(self): pass\n"
        "    def __repr__(self): return 'Shape'\n"
        "class _Hidden:\n"
        "    def unused(self): pass\n"
        "def make(): return Shape().area()\n"
    )
    sources = {
        "src/boolres/shape.py": module,
        "src/boolres/__init__.py": "from .shape import make\n__all__ = ['make']\n",
        "tests/test_shape.py": "from boolres.shape import Shape\nShape().caller()\n",
    }
    assert unnamed_definitions("src/boolres/shape.py", sources, public_methods) == [
        "Shape.lone", "Shape.caller"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_public_function_is_named_outside_its_module(path):
    # "outside" its own definition, by a caller in the package or by
    # `__init__.__all__`; a caller in the same module counts, a test does not
    sources = {str(other.relative_to(ROOT)): other.read_text() for other in MODULES}
    assert unnamed_definitions(str(path.relative_to(ROOT)), sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_public_method_is_named_outside_its_definition(path):
    sources = {str(other.relative_to(ROOT)): other.read_text() for other in MODULES}
    assert unnamed_definitions(str(path.relative_to(ROOT)), sources, public_methods) == []
