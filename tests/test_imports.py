"""No module of the package imports a name it never uses.

A stdlib `ast` scan: every name a `src/znfree/*.py` module binds by an
import must occur as a name somewhere in that module.  `__init__.py` is
exempt (it re-exports through `__all__`), and so are `from __future__`
imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "znfree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_import():
    src = "import os\nfrom a import b as c, d\nfrom __future__ import x\nd()\n"
    assert unused_imports(src) == ["c (line 2)", "os (line 1)"]
    assert MODULES  # the package was found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
