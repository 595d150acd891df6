"""Packaging metadata describes the package it ships."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "screenops"


@pytest.fixture(scope="module")
def pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_project_name(pyproject):
    assert pyproject["project"]["name"] == "screenops"


def test_runtime_dependencies_are_imported(pyproject):
    sources = "\n".join(path.read_text() for path in PACKAGE.rglob("*.py"))
    for requirement in pyproject["project"].get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        module = re.escape(name.lower().replace("-", "_"))
        pattern = r"^\s*(import|from)\s+%s\b" % module
        assert re.search(pattern, sources, re.MULTILINE), requirement


def test_console_scripts_resolve(pyproject):
    for name, target in pyproject["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for part in attr.split("."):
            entry = getattr(entry, part)
        assert callable(entry), name


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_all_names_resolve():
    # a stale __all__ entry fails only on ``import *``
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "screenops" if path.stem == "__init__" else "screenops." + path.stem
        module = importlib.import_module(name)
        stale += [name + "." + entry for entry in getattr(module, "__all__", ())
                  if not hasattr(module, entry)]
    assert not stale, stale


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - used - _exported_names(tree)
    assert not unused, "%s imports %s without using them" % (path.name, sorted(unused))


def test_every_definition_is_referenced():
    # a function or class whose name occurs only on its own def line is dead code
    texts = [path.read_text().splitlines() for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    unreferenced = []
    for name in sorted(name for name in defined if not name.startswith("__")):
        word = re.compile(r"\b%s\b" % re.escape(name))
        own_def = re.compile(r"^\s*(def|class)\s+%s\b" % re.escape(name))
        if not any(word.search(line) and not own_def.match(line)
                   for lines in texts for line in lines):
            unreferenced.append(name)
    assert not unreferenced, unreferenced


def _stored_attributes(tree):
    # each __slots__ entry and each ``self.x = ...`` target, by class
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    yield cls.name, name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    yield cls.name, node.attr


def test_every_stored_attribute_is_read():
    # an attribute that is assigned but never loaded, as ``obj.x`` anywhere in
    # the sources, tests or benchmark, is dead state
    read = {node.attr for top in ("src", "tests", "perfbench")
            for path in sorted((ROOT / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    unread = sorted({"%s.%s" % (cls, name)
                     for path in sorted(PACKAGE.glob("*.py"))
                     for cls, name in _stored_attributes(ast.parse(path.read_text()))
                     if name not in read})
    assert not unread, unread
