"""Every name a package module imports is used in that module, and every
module-level _private name or UPPER_CASE constant is read by some module.

pyflakes and ruff are not part of the toolchain, so these scans are the guard
against imports, helpers and constants left behind when code is deleted.  The
import scan skips __init__.py: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gelfand"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau\nfrom json import dumps as d\nd(tau)\n"
    assert unused_imports(source) == [(1, "os"), (2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _guarded(name):
    return name.isupper() or (name.startswith("_") and not name.startswith("__"))


def dead_names(sources):
    """(module, line, name) of each module-level _private name or UPPER_CASE
    constant that no module reads; sources maps module names to source text.

    A read is a loaded name, an attribute of that name, or an import of it.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            dead += [(module, node.lineno, name) for name in defined
                     if _guarded(name) and name not in reads]
    return sorted(dead)


def test_scan_finds_a_dead_name():
    sources = {
        "a": "A = 1\nB_C = A\n_f = 2\ndef _g():\n    return B_C\nclass _H:\n    pass\n"
             "lower = 3\n",
        "b": "from a import _I\nimport a\nX = a._J\n",
    }
    assert dead_names(sources) == [("a", 3, "_f"), ("a", 4, "_g"), ("a", 6, "_H"),
                                   ("b", 3, "X")]


def test_no_dead_module_names():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_names(sources) == []
