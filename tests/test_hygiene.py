"""Checks on the package source, with the standard library's ``ast``, and on
the names the package exports."""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

import qdesk

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "qdesk"
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def assigned_literal(tree: ast.Module, name: str, default=()):
    """The literal value assigned to the module-level ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return default


def declared_all(tree: ast.Module) -> set:
    return set(assigned_literal(tree, "__all__"))


def test_package_exports_are_in_module_all():
    """The package exports exactly the modules' ``__all__`` lists, each name
    bound to its module's object; ``qdesk.moments`` is the function."""
    modules = {p.stem: importlib.import_module(f"qdesk.{p.stem}") for p in MODULES
               if p.stem != "cli"}
    exported = {name: module for module in modules.values() for name in module.__all__}
    public = {name for name, value in vars(qdesk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(exported)
    assert all(getattr(qdesk, name) is getattr(module, name)
               for name, module in exported.items())
    assert qdesk.moments is modules["moments"].moments


def test_no_name_in_two_module_alls():
    """``qdesk`` star-imports every module, so a name in two ``__all__``
    lists would be bound to the later module's object without an error."""
    owners = {}
    for path in MODULES:
        for name in declared_all(parse(path)):
            owners.setdefault(name, []).append(path.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    tree = parse(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= declared_all(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", sorted(PKG.glob("*.py")), ids=lambda p: p.stem)
def test_no_assert_or_assertion_error(path):
    """``python -O`` strips ``assert``, and ``cli.main`` maps an
    ``AssertionError`` to the runtime-error exit code: a bound that can
    fail is reported by a check instead."""
    found = [f"line {n.lineno}" for n in ast.walk(parse(path))
             if isinstance(n, ast.Assert)
             or isinstance(n, ast.Name) and n.id == "AssertionError"]
    assert found == []


def referenced_names(node: ast.AST) -> Counter:
    """Names and attribute names referenced under ``node``."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
    return names


def test_no_orphaned_private_helpers():
    """Every module-level ``_name`` function or class is referenced in the
    package outside its own definition, so a helper whose last caller is
    gone does not stay behind."""
    trees = {path.stem: parse(path) for path in sorted(PKG.glob("*.py"))}
    used = sum((referenced_names(tree) for tree in trees.values()), Counter())
    orphans = [f"{module}.{node.name}"
               for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and used[node.name] == referenced_names(node)[node.name]]
    assert orphans == []


SPANS = assigned_literal(parse(ROOT / "perfbench" / "spans.py"), "SPANS")


@pytest.mark.parametrize("span", SPANS)
def test_benchmark_span_resolves(span):
    """perfbench traces each ``module.name`` (or ``module.Class.method``)
    span through that qdesk module's binding; read without importing
    perfbench, every name must still resolve to a callable there."""
    module, *path = span.split(".")
    target = importlib.import_module(f"qdesk.{module}")
    for attr in path:
        target = getattr(target, attr)
    assert callable(target)
