"""No module of the package imports a name it never uses, no private
function, class or constant is left behind, every guard rail and every named
rejection has a test, the Britton-lemma oracle reads no private name, every
expected failure names its exception, and the prose names no private name
the code lacks.

Six stdlib `ast` scans and one text scan.  Every name a `src/znfree/*.py` module binds by an
import must occur as a name somewhere in that module; `__init__.py` is
exempt (it re-exports through `__all__`), and so are `from __future__`
imports.  Every private (underscore) module-level function, class or
constant must be named somewhere in the package outside its own
definition: as a name, an attribute or an imported name.  Dunder names are
exempt, and a use in a test or the benchmark does not count.  Every
package function that raises `EngineError` (directly, as `T.EngineError`,
or through `_margin_error`) must be named by a test function that also
names `EngineError` or `_stuck`.
Every condition string the package passes to `TowerRejection` as a literal
must occur as a string literal in a test file.
`tests/britton_oracle.py` imports no underscore name and reads no underscore
attribute, so it stays apart from the engine's internals.  Every
`pytest.mark.xfail` under `tests/` passes `raises=`, so a test pinned as
failing one way cannot pass as expected when it fails another way.
Every underscore name that a docstring or comment of the package or the
tests, or README.md, mentions in backquotes or as an attribute of a
one-letter module alias or a package module (`T._head`, `tower._head`) is a
name in the code of the package or the tests, so the prose never names a
deleted helper.
"""

import ast
import io
import re
import tokenize
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


def _names(node) -> set[str]:
    """The names, attribute names and imported names under an ast node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _defined(node) -> list[str]:
    """The names a top-level statement defines: a function's or class's
    name, or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for tg in targets for n in ast.walk(tg)
            if isinstance(n, ast.Name)]


def unnamed_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants of the given
    modules (file name -> source) that no other top-level statement of any
    of them names; dunder names are exempt."""
    stmts = [(name, node, _names(node)) for name, source in sources.items()
             for node in ast.parse(source).body]
    return sorted(
        f"{d} ({name} line {node.lineno})"
        for name, node, _ in stmts for d in _defined(node)
        if d.startswith("_") and not d.startswith("__")
        and not any(d in used for _, other, used in stmts
                    if other is not node))


def test_scan_finds_unnamed_private():
    srcs = {
        "a.py": ("def _called():\n    pass\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Lone:\n    pass\n"
                 "def _attr():\n    pass\n"
                 "def _imported():\n    pass\n"
                 "def f():\n    return _called()\n"
                 "_RADIUS = 8\n_USED: int = 3\n__all__ = []\n"
                 "_x, _y = 1, 2\n"),
        "b.py": ("import a\nfrom a import _imported\na._attr()\n"
                 "def g():\n    return a._USED + a._y\n"),
    }
    assert unnamed_privates(srcs) == ["_Lone (a.py line 5)",
                                      "_RADIUS (a.py line 13)",
                                      "_recursive (a.py line 3)",
                                      "_x (a.py line 16)"]


def test_every_private_is_named():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unnamed_privates(sources) == []


TESTS = Path(__file__).resolve().parent
_GUARD_RAISES = {"EngineError", "_margin_error"}


def _raised(node) -> str | None:
    """The name a raise statement raises or calls: EngineError for
    `raise EngineError(...)` and `raise T.EngineError(...)`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    return exc.attr if isinstance(exc, ast.Attribute) else None


def untested_guards(sources: dict[str, str],
                    tests: dict[str, str]) -> list[str]:
    """Functions of the package sources that raise EngineError and that no
    test function of the test sources names next to EngineError or _stuck
    (both dicts map a file name to its source)."""
    guarded = sorted(
        (node.name, name, node.lineno)
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Raise) and n.exc is not None
                and _raised(n) in _GUARD_RAISES for n in ast.walk(node)))
    covered = set()
    for source in tests.values():
        for node in ast.parse(source).body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_")):
                used = _names(node)
                if used & {"EngineError", "_stuck"}:
                    covered |= used
    return [f"{fn} ({name} line {line})" for fn, name, line in guarded
            if fn not in covered]


def test_scan_finds_untested_guard():
    srcs = {"m.py": ("def hit():\n    raise T.EngineError('x')\n"
                     "def stuck():\n    raise _margin_error(1)\n"
                     "def named_only():\n    raise EngineError\n"
                     "def other():\n    raise ValueError('y')\n")}
    tests = {"test_m.py": ("def test_hit():\n"
                           "    with raises(T.EngineError):\n"
                           "        m.hit()\n"
                           "def test_named_only():\n    m.named_only()\n"
                           "def helper():\n    _stuck(m.stuck())\n")}
    assert untested_guards(srcs, tests) == ["named_only (m.py line 5)",
                                            "stuck (m.py line 3)"]


def test_every_engine_error_site_is_tested():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    tests = {p.name: p.read_text() for p in sorted(TESTS.glob("test_*.py"))}
    assert untested_guards(sources, tests) == []


def _rejection_conditions(source: str) -> list[tuple[str, int]]:
    """The condition strings a source passes to TowerRejection(...) or
    T.TowerRejection(...) as literals, with their lines."""
    return [(n.args[0].value, n.lineno) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and n.args
            and (n.func.id if isinstance(n.func, ast.Name)
                 else getattr(n.func, "attr", None)) == "TowerRejection"
            and isinstance(n.args[0], ast.Constant)
            and isinstance(n.args[0].value, str)]


def untested_rejections(sources: dict[str, str],
                        tests: dict[str, str]) -> list[str]:
    """Conditions the package sources reject with that no string literal of
    the test sources names (both dicts map a file name to its source)."""
    named = {n.value for source in tests.values()
             for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(f"{cond} ({name} line {line})"
                  for name, source in sources.items()
                  for cond, line in _rejection_conditions(source)
                  if cond not in named)


def test_scan_finds_untested_rejection():
    srcs = {"m.py": ("def f(x):\n"
                     "    raise TowerRejection('named', 'detail')\n"
                     "def g(x):\n"
                     "    raise T.TowerRejection('unnamed')\n"
                     "def h(x):\n"
                     "    raise TowerRejection(x)\n"
                     "def k(x):\n"
                     "    raise ValueError('other')\n")}
    tests = {"test_m.py": ("def test_f():\n"
                           "    assert cond == 'named'\n"
                           "    assert 'unnamed-too' in text\n")}
    assert untested_rejections(srcs, tests) == ["unnamed (m.py line 4)"]


def test_every_rejection_condition_is_tested():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    tests = {p.name: p.read_text() for p in sorted(TESTS.glob("test_*.py"))}
    assert untested_rejections(sources, tests) == []


def private_reads(source: str) -> list[str]:
    """The underscore names a source imports and the underscore attributes
    it reads; dunder names are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[-1] for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        out += [f"{n} (line {node.lineno})" for n in names
                if n.startswith("_") and not n.startswith("__")]
    return sorted(out)


def test_scan_finds_private_read():
    src = ("from znfree import tower as T\n"
           "from znfree.tower import _peel, multiply\n"
           "T._side(t, blk).head\n"
           "T.multiply(t, g, h).__class__\n")
    assert private_reads(src) == ["_peel (line 2)", "_side (line 3)"]


def test_oracle_reads_no_private_name():
    assert private_reads((TESTS / "britton_oracle.py").read_text()) == []


def xfails_without_raises(source: str) -> list[int]:
    """The lines of the source's `pytest.mark.xfail` marks, called or bare,
    that pass no `raises=`."""
    tree = ast.parse(source)
    named = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)
             and any(k.arg == "raises" for k in n.keywords)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "xfail"
                  and isinstance(n.value, ast.Attribute)
                  and n.value.attr == "mark" and id(n) not in named)


def test_scan_finds_xfail_without_raises():
    src = ("@pytest.mark.xfail(strict=True, raises=AssertionError)\n"
           "def test_a():\n    pass\n"
           "@pytest.mark.xfail(strict=True, reason='r')\n"
           "def test_b():\n    pass\n"
           "@pytest.mark.xfail\n"
           "def test_c():\n    pass\n"
           "@pytest.mark.parametrize('x', [1, pytest.param(\n"
           "    2, marks=pytest.mark.xfail(raises=ValueError)), pytest.param(\n"
           "    3, marks=pytest.mark.xfail())])\n"
           "def test_d(x):\n    pytest.xfail('imperative, not a mark')\n")
    assert xfails_without_raises(src) == [4, 7, 12]


def test_every_xfail_names_its_exception():
    found = {p.name: xfails_without_raises(p.read_text())
             for p in sorted(TESTS.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def prose(source: str) -> str:
    """The docstrings and comments of a Python source, one per line."""
    tree = ast.parse(source)
    docs = [ast.get_docstring(n, clean=False) for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))]
    comments = [tok.string for tok in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    return "\n".join([d for d in docs if d] + comments)


def _code_names(source: str) -> set[str]:
    """The names, attributes, imported names, definitions and parameters of
    a Python source."""
    tree = ast.parse(source)
    out = _names(tree)
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.arg):
            out.add(n.arg)
    return out


def stale_mentions(texts: dict[str, str], names: set[str],
                   modules: set[str]) -> list[str]:
    """The underscore names the texts (file name -> text) mention, in
    backquotes or after a one-letter alias or a module of the package and a
    dot, that are not among the names; dunder names are exempt."""
    qualifier = "|".join(["[A-Z]", *sorted(modules)])
    pattern = re.compile(rf"`(_\w+)|\b(?:{qualifier})\.(_\w+)")
    return sorted({f"{m.group(1) or m.group(2)} ({name})"
                   for name, text in texts.items()
                   for m in pattern.finditer(text)
                   if not (m.group(1) or m.group(2)).startswith("__")
                   and (m.group(1) or m.group(2)) not in names})


def test_scan_finds_stale_mention():
    text = prose('''"""Uses `_kept(t)` and T._kept, not `_escapes`."""
def f():
    """tower._gone and N._shell, but `__init__`, _bare and x._other."""
    return _kept  # `_old` and P._kept
''')
    assert "return" not in text
    assert stale_mentions({"m.py": text}, _code_names("_kept = 1\n"),
                          {"tower"}) == ["_escapes (m.py)", "_gone (m.py)",
                                         "_old (m.py)", "_shell (m.py)"]


def test_prose_names_no_missing_private():
    code = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    code += [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    names = set().union(*map(_code_names, code))
    texts = {p.name: prose(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    texts |= {f"tests/{p.name}": prose(p.read_text())
              for p in sorted(TESTS.glob("*.py"))}
    texts["README.md"] = (SRC.parent.parent / "README.md").read_text()
    modules = {p.stem for p in SRC.glob("*.py")}
    assert stale_mentions(texts, names, modules) == []
