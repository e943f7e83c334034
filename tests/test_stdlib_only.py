"""The library imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "singfib").glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """The top-level package of every absolute import in the tree; relative imports are the package itself."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add(node.module.split(".")[0] if node.level == 0 else "singfib")
    return roots


def test_sources_are_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    assert roots - sys.stdlib_module_names - {"singfib"} == set()


def test_the_check_sees_third_party_imports():
    tree = ast.parse("import numpy.linalg\nfrom sympy import Rational\nfrom . import poly\nimport os.path\n")
    assert imported_roots(tree) - sys.stdlib_module_names - {"singfib"} == {"numpy", "sympy"}
