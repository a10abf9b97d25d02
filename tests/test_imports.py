"""Every imported name is used by its module: the unused-import rule of a
linter, on the standard library's ``ast`` alone.

Exempt are ``__future__`` imports, the re-exports of ``__init__.py``, names
listed in ``__all__`` and imports on a line marked ``# noqa: F401``.
``perfbench/`` is left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPE = ("src", "tests", "demos", "tools")


def unused_imports(source: str) -> list:
    """(line, name) of each name imported by ``source`` and never
    referenced in it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_guard_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json, sys\n"
              "from math import pi as PI, tau  # noqa: F401\n"
              "from re import (compile,\n"
              "                escape)\n"
              "__all__ = ['escape']\n"
              "print(os.path.sep, PI, json)\n")
    assert unused_imports(source) == [(3, "sys"), (5, "compile")]


def test_no_unused_imports():
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for folder in SCOPE
            for path in sorted((ROOT / folder).rglob("*.py"))
            if path.name != "__init__.py"
            for line, name in unused_imports(path.read_text())]
    assert not hits, "imported and never used:\n" + "\n".join(hits)
