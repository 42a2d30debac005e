"""The package's module graph, declared once.

``IMPORTS`` names, for each module of ``src/simplexcover``, the package
modules it imports.  ``test_imports_match_the_table`` holds every module to
its row, and ``test_no_private_name_crosses_a_module`` forbids taking a
private name (``from .m import _x`` or ``m._x``) from another module, so
that each rule has one home and the layering is checked, not assumed.
``test_every_traced_name_exists`` holds the package to the functions that
the benchmark's tracer looks up by name.
"""
import ast
import graphlib
import importlib
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import simplexcover

PACKAGE = "simplexcover"
SRC = Path(simplexcover.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

IMPORTS: Dict[str, Set[str]] = {
    "errors": set(),
    "scalars": {"errors"},
    "linalg": {"errors", "scalars"},
    "linprog": {"errors", "scalars"},
    "geometry": {"errors", "linalg", "scalars"},
    "mvs": {"errors", "geometry", "linalg", "scalars"},
    "covering": {"errors", "geometry", "linprog", "mvs", "scalars"},
    "counterexample": {"covering", "errors", "geometry"},
    "render": {"errors", "geometry"},
    "sampling": {"errors", "geometry", "scalars"},
    "serialization": {"counterexample", "errors", "geometry", "scalars"},
    "cli": {"counterexample", "covering", "errors", "geometry", "mvs", "render", "sampling",
            "scalars", "serialization"},
    # The package's public names, re-exported from every module but these two.
    "__init__": {"counterexample", "covering", "errors", "geometry", "linprog", "mvs",
                 "render", "sampling", "scalars", "serialization"},
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _package_module(node: ast.AST, alias: ast.alias) -> Tuple[str, str]:
    """(package module, imported name) of one name of an import statement,
    with an empty module for anything outside the package."""
    if isinstance(node, ast.Import):
        head, _, rest = alias.name.partition(".")
        return (rest, "") if head == PACKAGE else ("", "")
    head, _, rest = (node.module or "").partition(".")
    if node.level == 1:
        rest = node.module or ""
    elif node.level or head != PACKAGE:
        return "", ""
    return (rest, alias.name) if rest else (alias.name, "")  # else ``from . import m``


def _crossings(path: Path) -> Iterator[Tuple[str, int, str]]:
    """(kind, line, text) of every package import in ``path``: an ``edge``
    to another module, or a ``private`` name taken from one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                module, name = _package_module(node, alias)
                if not module:
                    continue
                yield "edge", alias.lineno, module
                if name and _is_private(name):
                    yield "private", alias.lineno, f"{module}.{name}"
                elif not name and (isinstance(node, ast.ImportFrom) or alias.asname):
                    modules[alias.asname or alias.name] = module  # a module, bound
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            yield "private", node.lineno, f"{modules[node.value.id]}.{node.attr}"


def _files():
    return sorted(SRC.glob("*.py"))


def test_table_names_every_module_and_is_acyclic():
    assert {p.stem for p in _files()} == set(IMPORTS)
    assert list(graphlib.TopologicalSorter(IMPORTS).static_order())


def test_imports_match_the_table():
    """Every module imports exactly the package modules of its row."""
    for path in _files():
        edges = {text for kind, _, text in _crossings(path) if kind == "edge"}
        assert edges == IMPORTS[path.stem], path.name


def test_no_private_name_crosses_a_module():
    found = [f"{path.name}:{line}: {text}" for path in _files()
             for kind, line, text in _crossings(path) if kind == "private"]
    assert found == []


def test_every_traced_name_exists():
    """The benchmark's tracer looks up each (module, name) of ``TRACED`` in
    ``bench/spans.py`` by name; read here with ``ast``, without importing
    ``bench``, so that a renamed or removed function fails tier-1."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TRACED")
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(f"{PACKAGE}.{module}"), name, None))]
    assert traced and missing == []
