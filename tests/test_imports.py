"""Every name a ``sharpmap`` module imports is used, every private name it defines and
every local a function stores is read, and no module reads the environment.

Re-exports in ``__init__`` are exempt from the first check.
"""

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


def unread_private_names(sources: list[str]) -> list[str]:
    """The ``_names`` defined at module level in ``sources`` that none of them reads.

    A definition is a top-level ``def``, ``class`` or assignment to a single
    leading-underscore name (dunders are left out).  A read is a loaded
    name, an attribute (``module._name``) or a name in a quoted annotation.
    Names are matched across all the sources, as a package imports the
    private names of its other modules.
    """
    defined = set()
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_every_private_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_checker_finds_an_unread_private_name():
    sources = ["_A = 1\n_B: int = 2\n__all__ = []\n\ndef _f():\n    _B = 3\n    return _A\n",
               "import m\n\nclass _C:\n    pass\n\n_D = m._f\n\ndef g(x: \"_C\"):\n    return x\n"]
    assert unread_private_names(sources) == ["_B", "_D"]


def unread_locals(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name a function in ``source`` stores and never loads.

    A load anywhere in the function, in a nested function or comprehension
    too, counts, so a closure's read is a read.  ``_`` and the names
    declared ``global`` or ``nonlocal`` are exempt.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        exempt = {"_"}.union(*(n.names for n in ast.walk(func)
                               if isinstance(n, (ast.Global, ast.Nonlocal))))
        exempt.update(n.id for n in names if isinstance(n.ctx, ast.Load))
        found.update((n.lineno, n.id) for n in names
                     if isinstance(n.ctx, ast.Store) and n.id not in exempt)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unread_local(module):
    assert unread_locals((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_finds_an_unread_local():
    source = ("X = 1\n\ndef f(a):\n    b, _ = a\n    c = 2\n    for d, e in a:\n"
              "        pass\n    def g():\n        global X\n        X = c\n"
              "    return [b for b in a if (k := b)]\n")
    assert unread_locals(source) == [(6, "d"), (6, "e"), (11, "k")]


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for each use of an ``os`` environment name in ``source``.

    A use is a name, an attribute (``os.environ``) or an imported name
    (``from os import getenv``).
    """
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        else:
            continue
        reads.extend((node.lineno, name) for name in names if name in ENVIRONMENT_NAMES)
    return sorted(reads)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_the_environment(module):
    # options come from the command line only, so argv alone fixes a report
    assert environment_reads((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_finds_an_environment_read():
    source = ("import os\nfrom os import getenv\n\n"
              "def f():\n    return os.environ.get(\"A\"), getenv(\"B\"), os.sep\n")
    assert environment_reads(source) == [(2, "getenv"), (5, "environ"), (5, "getenv")]
