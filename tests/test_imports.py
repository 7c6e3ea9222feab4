"""Every name a ``sharpmap`` module imports is used; re-exports in ``__init__`` are exempt."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sharpmap"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in ``source`` that nothing reads.

    A dotted use such as ``os.path`` reads ``os``.  A quoted annotation is
    parsed and its names count as read.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(imported - used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = ("import os.path\nimport math as m\nfrom dataclasses import dataclass\n"
              "from typing import Mapping\n\n"
              "def f(x: \"Mapping[str, int]\") -> float:\n    return m.pi + len(os.sep)\n")
    assert unused_imports(source) == ["dataclass"]
