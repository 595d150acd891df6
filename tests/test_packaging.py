"""Packaging metadata describes the package it ships."""

import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "screenops"


@pytest.fixture(scope="module")
def pyproject():
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


def test_screening_data_is_package_data(pyproject):
    data = "data/sl2_screening.json"
    assert (PACKAGE / data).is_file()
    patterns = pyproject["tool"]["setuptools"]["package-data"]["screenops"]
    assert any(fnmatch(data, pattern) for pattern in patterns)
