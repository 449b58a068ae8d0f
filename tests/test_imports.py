"""Every name a package module imports is used in that module, no function
imports from a package module its module already imports at top level, or
from one that does not import its module back at top level, every
module-level _private name or UPPER_CASE constant and every _private method
is read by some module, every public name is read by the package or
documented, every SuperLU factorization passes the shared recipe
`fem.SPLU_RECIPE`, only the Mesh builds the operators it owns, no
parameter defaults to None only to be rebuilt from the others, and
importing the package and its CLI loads only the allowed scipy subpackages.

pyflakes and ruff are not part of the toolchain, so these scans are the guard
against imports, helpers and constants left behind when code is deleted, and
against package code that only the tests call.  The import scan skips
__init__.py: it imports names only to re-export them.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gelfand"
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


def redundant_deferred_imports(source):
    """(line, module) of each relative import inside a function from a
    package module that the module already imports at top level: such an
    import never breaks an import cycle, so it belongs at the top."""
    tree = ast.parse(source)
    top = {node.module for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level and node.module}
    deferred = {node for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)
                if isinstance(node, ast.ImportFrom) and node.level}
    return sorted((node.lineno, node.module) for node in deferred if node.module in top)


def test_scan_finds_a_redundant_deferred_import():
    source = ("from .fem import a\nfrom . import geometry\nimport os\n"
              "def f():\n    from .fem import b\n    from .branch import c\n"
              "    from . import geometry\n    import os\n"
              "    def g():\n        from .fem import d\n    return a, b, c, g\n"
              "class K:\n    def m(self):\n        from .fem import e\n")
    assert redundant_deferred_imports(source) == [(5, "fem"), (10, "fem"), (14, "fem")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_redundant_deferred_imports(path):
    assert redundant_deferred_imports(path.read_text()) == []


def acyclic_deferred_imports(sources):
    """(module, line, imported) of each relative import inside a function
    from a package module that does not import the importing module at top
    level: such an import breaks no import cycle, so it belongs at the top.

    sources maps module names to source text; `from . import m` imports m.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}

    def imported(node):
        return [node.module] if node.module else [alias.name for alias in node.names]

    top = {module: {name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level
                    for name in imported(node)}
           for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update((module, node.lineno, name) for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom) and node.level
                             for name in imported(node) if module not in top.get(name, ()))
    return sorted(found)


def test_scan_finds_an_acyclic_deferred_import():
    sources = {
        "a": "from .b import x\ndef f():\n    from .c import y\n    from . import b\n",
        "b": "def g():\n    from .a import f\n    from .c import z\n",
        "c": "from .b import g\ndef h():\n    from .b import w\n    def k():\n"
             "        from .a import v\n",
    }
    assert acyclic_deferred_imports(sources) == [("a", 3, "c"), ("a", 4, "b"),
                                                 ("c", 3, "b"), ("c", 5, "a")]


def test_every_deferred_import_breaks_a_cycle():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert acyclic_deferred_imports(sources) == []


def names_read(trees):
    """Every name that one of the syntax trees loads, reads as an attribute
    or imports."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    return reads


def _guarded(name):
    return name.isupper() or (name.startswith("_") and not name.startswith("__"))


def dead_names(sources):
    """(module, line, name) of each module-level _private name or UPPER_CASE
    constant, and of each _private method of a class, that no module reads;
    sources maps module names to source text.

    A read is a loaded name, an attribute of that name, or an import of it.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = names_read(trees.values())
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
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                dead += [(module, node.lineno, node.name) for node in cls.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and _guarded(node.name) and node.name not in reads]
    return sorted(dead)


def test_scan_finds_a_dead_name():
    sources = {
        "a": "A = 1\nB_C = A\n_f = 2\ndef _g():\n    return B_C\nclass _H:\n    pass\n"
             "lower = 3\n",
        "b": "from a import _I\nimport a\nX = a._J\n",
        "c": "class Box:\n    def __init__(self):\n        self._m()\n    def _m(self):\n"
             "        pass\n    def _n(self):\n        pass\n    def o(self):\n        pass\n",
    }
    assert dead_names(sources) == [("a", 3, "_f"), ("a", 4, "_g"), ("a", 6, "_H"),
                                   ("b", 3, "X"), ("c", 6, "_n")]


def test_no_dead_module_names():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_names(sources) == []


def unread_public_names(sources, documented):
    """(module, line, name) of each public module-level function, class or
    constant, and of each public method of a class, that no module of
    sources reads and the documented code does not read either: a name that
    only the tests read, or nothing does.

    sources maps the package's module names to source text, without
    __init__.py, whose imports only re-export.  A read is matched by name as
    in dead_names, so a method shares the reads of every attribute of its
    name.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = names_read(trees.values()) | names_read([ast.parse(documented)])
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            defined = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.lineno, node.name)]
            if isinstance(node, ast.ClassDef):
                defined += [(m.lineno, m.name) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            unread += [(module, line, name) for line, name in defined
                       if not name.startswith("_") and name not in reads]
    return sorted(unread)


def documented_api():
    """The code of README's python examples, the library's documented use;
    the CLI's calls are package reads already."""
    return "\n".join(re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                                re.S))


def test_scan_finds_a_test_only_name():
    sources = {
        "a": "def used():\n    pass\ndef planted():\n    pass\n"
             "def shown():\n    pass\nLIMIT = 2\n"
             "class Box:\n    def m(self):\n        return LIMIT\n    def n(self):\n"
             "        pass\n    def _p(self):\n        pass\n",
        "b": "from a import used\nused()\nBox().m()\n",
    }
    # the tests may call planted and Box.n; only the package and the
    # documented code count
    assert unread_public_names(sources, "shown()\n") == [("a", 3, "planted"),
                                                         ("a", 11, "n")]


def test_documented_api_parses():
    assert "trace_branch" in names_read([ast.parse(documented_api())])


def test_no_test_only_public_names():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unread_public_names(sources, documented_api()) == []


def off_recipe_splu_calls(source):
    """Line of each `splu(` call that does not pass the shared SPLU_RECIPE.

    A call passes it when its only keywords are `**` unpackings of
    SPLU_RECIPE, or of a dict literal that unpacks SPLU_RECIPE and overrides
    nothing but permc_spec = "NATURAL" (for columns already in a recipe order).
    """
    def is_recipe(node):
        return (isinstance(node, ast.Name) and node.id == "SPLU_RECIPE") or (
            isinstance(node, ast.Attribute) and node.attr == "SPLU_RECIPE")

    def passes_recipe(kw):
        if kw.arg is not None:
            return False
        if is_recipe(kw.value):
            return True
        if not isinstance(kw.value, ast.Dict):
            return False
        pairs = list(zip(kw.value.keys, kw.value.values))
        unpacked = [value for key, value in pairs if key is None]
        overrides = [(ast.literal_eval(key), value) for key, value in pairs if key is not None]
        return (len(unpacked) == 1 and is_recipe(unpacked[0])
                and all(name == "permc_spec" and isinstance(value, ast.Constant)
                        and value.value == "NATURAL" for name, value in overrides))

    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "splu"
        and not (node.keywords and all(passes_recipe(kw) for kw in node.keywords)))


def test_scan_finds_an_off_recipe_splu():
    source = ("lu = splu(A)\n"
              "lu = splu(A, **SPLU_RECIPE)\n"
              "lu = splu(A, permc_spec='MMD_AT_PLUS_A')\n"
              "lu = linalg.splu(A, **fem.SPLU_RECIPE)\n"
              "lu = splu(A, **{**SPLU_RECIPE, 'permc_spec': 'NATURAL'})\n"
              "lu = splu(A, **{**SPLU_RECIPE, 'relax': 10})\n"
              "lu = splu(A, **SPLU_RECIPE, panel_size=4)\n"
              "lu = splu(A, **OTHER)\n")
    assert off_recipe_splu_calls(source) == [1, 3, 6, 7, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_splu_passes_the_recipe(path):
    assert off_recipe_splu_calls(path.read_text()) == []


def test_recipe_relax_within_panel_size():
    # SuperLU does not check relax <= panel_size; past it, memory is corrupted
    from gelfand.fem import SPLU_RECIPE
    assert SPLU_RECIPE["permc_spec"] == "MMD_AT_PLUS_A"
    assert 1 <= SPLU_RECIPE["relax"] <= SPLU_RECIPE.get("panel_size", 20)


# the operators a Mesh owns, one each per mesh (geometry.Mesh)
MESH_OPERATORS = ("assemble_stiffness", "DirichletSolver", "plain_quadrature",
                  "assemble_mass")


def _builder(func):
    """The MESH_OPERATORS name a call reaches, if any: assemble_mass is also
    a Quadrature method, so only its bare or fem-qualified name counts."""
    name = getattr(func, "id", getattr(func, "attr", None))
    if name == "assemble_mass" and isinstance(func, ast.Attribute):
        return name if getattr(func.value, "id", None) == "fem" else None
    return name if name in MESH_OPERATORS else None


def mesh_operators_built_elsewhere(source):
    """Line of each call of a MESH_OPERATORS builder outside the Mesh class:
    an operator of the mesh alone is read from it, never built again."""
    tree = ast.parse(source)
    owned = {id(node) for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == "Mesh"
             for node in ast.walk(cls)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in owned and _builder(node.func))


def test_scan_finds_a_mesh_operator_built_elsewhere():
    source = ("class Mesh:\n    def stiffness(self):\n"
              "        return assemble_stiffness(self)\n"
              "A = assemble_stiffness(mesh)\n"
              "def f(mesh):\n    return fem.DirichletSolver(A, b), plain_quadrature(mesh)\n"
              "class Problem:\n    def __init__(self, mesh):\n"
              "        self.plain = plain_quadrature(mesh)\n"
              "        self.lu = DirichletSolver\n"
              "M = assemble_mass(mesh) + fem.assemble_mass(mesh)\n"
              "Mq = quad.assemble_mass(f) + self.quad.assemble_mass(None)\n")
    assert mesh_operators_built_elsewhere(source) == [4, 6, 6, 9, 11, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_mesh_builds_its_operators(path):
    assert mesh_operators_built_elsewhere(path.read_text()) == []


def rebuilt_defaults(source):
    """(line, function, parameter) of each parameter that defaults to None
    and, when None, is replaced by a call that reads another parameter:
    `if p is None: p = f(q)` or `p if p is not None else f(q)` (either
    orientation).  Such a parameter gives its function two paths whose
    inputs can disagree; the caller hands in what the function works on.
    """
    def none_test(test, p):
        """ast.Is for a test `p is None`, ast.IsNot for `p is not None`."""
        if (isinstance(test, ast.Compare) and getattr(test.left, "id", None) == p
                and len(test.ops) == 1 and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            return type(test.ops[0])
        return None

    def rebuilds(value, others):
        return isinstance(value, ast.Call) and any(
            isinstance(n, ast.Name) and n.id in others for n in ast.walk(value))

    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
        pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        params = {arg.arg for arg in positional + a.kwonlyargs}
        for arg, default in pairs:
            if not (isinstance(default, ast.Constant) and default.value is None):
                continue
            p, others = arg.arg, params - {arg.arg}
            for node in ast.walk(fn):
                if isinstance(node, ast.If) and none_test(node.test, p) is ast.Is:
                    hit = any(isinstance(st, ast.Assign) and rebuilds(st.value, others)
                              and any(getattr(t, "id", None) == p for t in st.targets)
                              for st in node.body)
                elif isinstance(node, ast.IfExp) and none_test(node.test, p):
                    kept, built = ((node.orelse, node.body) if none_test(node.test, p) is ast.Is
                                   else (node.body, node.orelse))
                    hit = getattr(kept, "id", None) == p and rebuilds(built, others)
                else:
                    continue
                if hit:
                    found.add((node.lineno, fn.name, p))
    return sorted(found)


def test_scan_finds_a_rebuilt_default():
    source = ("def f(problem, state, lin=None):\n"
              "    if lin is None:\n        lin = build(problem, state)\n"
              "class P:\n    def __init__(self, mesh, weight=None):\n"
              "        self.weight = weight if weight is not None else make(mesh)\n"
              "def g(lin, k, v0=None, warm=None):\n"
              "    warm = warm or WarmStart()\n    n_i = len(lin.interior)\n"
              "    return run(_fixed_start(n_i) if v0 is None else v0, k)\n"
              "def h(mesh, sing=None):\n    if sing is None:\n"
              "        sing = mesh.singularities\n"
              "def q(a, b=None, c=None):\n    b = f(a) if b is None else b\n"
              "    if c is None:\n        c = 2\n    return b, c\n")
    assert rebuilt_defaults(source) == [(2, "f", "lin"), (6, "__init__", "weight"),
                                        (15, "q", "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_rebuilt_defaults(path):
    assert rebuilt_defaults(path.read_text()) == []


# the public scipy subpackages `import gelfand, gelfand.cli` loads: the four
# the package imports (sparse with sparse.linalg, linalg, spatial, special),
# scipy.version (scipy's own) and scipy.constants (scipy.spatial's);
# scipy.optimize alone weighed about 9.5 MiB of RSS
SCIPY_SUBPACKAGES = {"constants", "linalg", "sparse", "spatial", "special", "version"}


def test_import_loads_only_the_allowed_scipy_subpackages():
    probe = ("import sys\nimport gelfand, gelfand.cli\n"
             "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout.split()
    loaded = {m.split(".")[1] for m in out}
    assert "optimize" not in loaded
    assert {name for name in loaded if not name.startswith("_")} == SCIPY_SUBPACKAGES
