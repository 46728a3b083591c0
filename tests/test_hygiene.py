"""Static checks on the library source that need no linter: every name a
module imports is used in it (or re-exported through ``__all__``), no
function imports from the package itself (those imports go at module top,
where a cycle would show at once), every module-level private function
is referenced somewhere in the package, every attribute a class sets on
``self`` (every field of a record class) is read somewhere, every name the
package exports has a reader outside the tests, no runtime check is an
``assert`` (``python -O`` strips those; checks raise typed errors), no
module but pressure.py names the Perron engine ``_perron_batch``, no
module loads native code the runs do not need (hashlib's OpenSSL,
numpy.random, numpy.ma), and no module imports ``dataclasses``, whose
classes generate their methods with ``exec`` in every process that imports
them."""

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "freeshift"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree):
    """name -> line of every binding made by an import statement."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)}
    return used


def _local_package_imports(tree):
    """Lines of ``from .x import y`` statements inside function bodies."""
    return sorted({node.lineno
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level > 0})


def _orphan_helpers(trees):
    """Module-level private functions that no other top-level statement of
    the given modules references by name, attribute or import."""
    refs = collections.Counter()
    helpers = []
    for tree in trees:
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.endswith("__")):
                helpers.append(stmt.name)
                names.discard(stmt.name)   # its own recursive calls
            refs.update(names)
    return sorted(h for h in helpers if not refs[h])


def test_modules_found():
    assert {p.name for p in MODULES} >= {"pressure.py", "quotients.py",
                                         "spectra.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_check_detects_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    used = _used_names(tree)
    assert sorted(n for n in _imported_names(tree) if n not in used) == \
        ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _local_package_imports(tree)
    assert not lines, \
        f"{path.name} imports from the package inside functions: {lines}"


def test_check_detects_a_function_local_package_import():
    tree = ast.parse("from .a import b\n"
                     "def f():\n    import os\n    from .c import d\n"
                     "class K:\n    def g(self):\n"
                     "        from ..e import h\n")
    assert _local_package_imports(tree) == [4, 7]


def test_no_orphan_private_helpers():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES]
    orphans = _orphan_helpers(trees)
    assert not orphans, f"private functions nothing calls: {orphans}"


def test_check_detects_an_orphan_helper():
    trees = [ast.parse("def _used():\n    pass\n"
                       "def _unused():\n    pass\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n"
                       "def __dunder__():\n    pass\n"),
             ast.parse("from .a import _used\nimport b\n"
                       "def _via_attribute():\n    pass\n"
                       "def public():\n    return b._via_attribute()\n")]
    assert _orphan_helpers(trees) == ["_recursive", "_unused"]


def _attribute_reads(trees):
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _parse_all():
    """(library trees, trees of every other Python file but this one)."""
    def parse(p):
        return ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
    # this file reads AST node attributes (.target, .value, ...), which
    # would pass for reads of fields of the same names
    others = [parse(p) for top in ("tests", "bench")
              for p in sorted((ROOT / top).rglob("*.py"))
              if p != pathlib.Path(__file__).resolve()]
    return [parse(p) for p in MODULES], others


def _unread_attributes(lib_trees, trees):
    """``Class.attr`` of every ``self.attr`` that a class of lib_trees
    stores and no attribute load in trees reads. Exception classes (a base
    named ...Error or ...Exception) are exempt: their attributes are the
    error's payload."""
    reads = _attribute_reads(trees)

    def base_name(base):
        return base.id if isinstance(base, ast.Name) else \
            getattr(base, "attr", "")
    return sorted({f"{cls.name}.{node.attr}"
                   for tree in lib_trees for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   and not any(base_name(b).endswith(("Error", "Exception"))
                               for b in cls.bases)
                   for node in ast.walk(cls)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "self"
                   and node.attr not in reads})


def test_every_self_attribute_is_read():
    lib, others = _parse_all()
    unread = _unread_attributes(lib, lib + others)
    assert not unread, f"attributes nothing reads: {unread}"


def test_check_detects_an_unread_attribute():
    lib = ast.parse("class A:\n    def __init__(self):\n"
                    "        self.read, self.unread = 1, 2\n"
                    "        self.count = 0\n"
                    "        self.count += 1\n"
                    "    def f(self):\n        return self.read\n"
                    "class Oops(ValueError):\n"
                    "    def __init__(self, g):\n        self.g = g\n"
                    "class B(errors.FreeshiftError):\n"
                    "    def __init__(self):\n        self.h = 1\n"
                    "class Record:\n"
                    "    def __init__(self, kept, dropped=None):\n"
                    "        self.kept = kept\n"
                    "        self.dropped = [] if dropped is None "
                    "else dropped\n")
    use = ast.parse("r = Record(1, dropped=[2])\nprint(r.kept)\n")
    assert _unread_attributes([lib], [lib, use]) == ["A.count", "A.unread",
                                                     "Record.dropped"]


def _scope_choices(tree):
    """What in a module above pressure picks a scope's engine itself: an
    import from quotients, a name ending in Quotient, or an import of
    has_exact_route or growth_rate, the old exactness test and the fit."""
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    found = {"quotients" for node in imports if node.module == "quotients"}
    found |= {alias.name for node in imports for alias in node.names
              if alias.name in ("has_exact_route", "growth_rate")}
    return found | {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and node.id.endswith("Quotient")}


@pytest.mark.parametrize("name", ["spectra.py", "diagnostics.py"])
def test_scope_engine_choice_stays_in_pressure(name):
    # pressure.scope_rows alone picks each scope's engine, on every scope:
    # the layers above it evaluate its routes and test no quotient type
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert not _scope_choices(tree)


def test_check_detects_a_scope_choice():
    tree = ast.parse("from .quotients import FreeKillQuotient\n"
                     "from .pressure import growth_rate, has_exact_route\n"
                     "def rate(q):\n"
                     "    return isinstance(q, FreeAbelianQuotient)\n")
    assert _scope_choices(tree) == {"quotients", "growth_rate",
                                    "has_exact_route", "FreeAbelianQuotient"}


def _engine_names(tree):
    """Lines that name the batched Perron engine ``_perron_batch``: a name,
    an attribute or an imported alias."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "_perron_batch"
                or isinstance(node, ast.Attribute)
                and node.attr == "_perron_batch"):
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] == "_perron_batch"
                for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_perron_engine_stays_in_pressure():
    # every Perron solve above pressure.py goes through pressure_rows (or
    # perron_eigen), so the tilt and the Perron call shape live in one place
    found = {p.name: _engine_names(ast.parse(p.read_text(encoding="utf-8"),
                                             filename=str(p)))
             for p in MODULES if p.name != "pressure.py"}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"_perron_batch named outside pressure.py: {found}"


def test_check_detects_a_perron_engine_import():
    text = (SRC / "diagnostics.py").read_text(encoding="utf-8")
    assert not _engine_names(ast.parse(text))
    lines = text.count("\n")
    copy = text + ("\nfrom .pressure import _perron_batch as engine\n"
                   "from . import pressure\n"
                   "rho = pressure._perron_batch(M, w, 1e-13)[0]\n")
    assert _engine_names(ast.parse(copy)) == [lines + 2, lines + 4]
    assert _engine_names(ast.parse((SRC / "pressure.py").read_text(
        encoding="utf-8")))


def _asserts(tree):
    """Lines of every assert statement."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


def test_no_assert_in_src():
    found = {p.name: _asserts(ast.parse(p.read_text(encoding="utf-8"),
                                        filename=str(p)))
             for p in MODULES}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"assert statements in the library: {found}"


def test_check_detects_an_injected_assert():
    path = SRC / "spectra.py"
    text = path.read_text(encoding="utf-8")
    assert not _asserts(ast.parse(text))
    lines = text.count("\n")
    copy = text + "\n\ndef _probe(x):\n    assert x > 0, x\n    return x\n"
    assert _asserts(ast.parse(copy)) == [lines + 4]


def _heavy_imports(tree):
    """Lines that import hashlib, other than as the fallback in an ``except
    ImportError`` handler, or that name numpy's random or ma subpackage."""
    fallback = {id(node) for handler in ast.walk(tree)
                if isinstance(handler, ast.ExceptHandler)
                and isinstance(handler.type, ast.Name)
                and handler.type.id == "ImportError"
                for node in ast.walk(handler)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            names = [f"numpy.{node.attr}"]
        else:
            continue
        if any(name == "hashlib" and id(node) not in fallback
               or name.split(".")[:2] in (["numpy", "random"],
                                          ["numpy", "ma"])
               for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_heavy_native_imports():
    found = {p.name: _heavy_imports(ast.parse(p.read_text(encoding="utf-8"),
                                              filename=str(p)))
             for p in MODULES}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"hashlib, numpy.random or numpy.ma used: {found}"


def test_check_detects_heavy_native_imports():
    tree = ast.parse("try:\n    from _sha2 import sha256\n"
                     "except ImportError:\n    from hashlib import sha256\n"
                     "import hashlib\n"
                     "import numpy as np\n"
                     "x = np.random.default_rng(1)\n"
                     "from numpy import random\n"
                     "import numpy.ma\n"
                     "y = np.unique([1])\n")
    assert _heavy_imports(tree) == [5, 7, 8, 9]


def _lapack_least_squares(tree):
    """Lines that name numpy.linalg's lstsq, inv or eigh, as an attribute
    of ``linalg`` or in a from-import: the growth fit solves its least
    squares and the twist basis is built without them, and each pages
    LAPACK code into the process. eigvalsh and solve stay allowed, for the
    Newton steps of rows that are not inverse-symmetric."""
    banned = {"lstsq", "inv", "eigh"}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in banned:
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                    or isinstance(owner, ast.Name) and owner.id == "linalg"):
                lines.add(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module == "numpy.linalg"
              and any(alias.name in banned for alias in node.names)):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_lapack_least_squares():
    found = {p.name: _lapack_least_squares(
                 ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
             for p in MODULES}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"numpy.linalg.lstsq, inv or eigh used: {found}"


def test_check_detects_lapack_least_squares():
    tree = ast.parse("import numpy as np\n"
                     "c, *_ = np.linalg.lstsq(X, y, rcond=None)\n"
                     "G = numpy.linalg.inv(X.T @ X)\n"
                     "from numpy.linalg import eigh, inv\n"
                     "from numpy import linalg\n"
                     "c = linalg.lstsq(X, y)\n"
                     "x = np.linalg.solve(A, b)\n"
                     "inv = table.inv\n"
                     "from .linalg import lstsq\n"
                     "sq, vecs = np.linalg.eigh(G)\n"
                     "lam = np.linalg.eigvalsh(H)\n"
                     "from numpy.linalg import eigvalsh, solve\n")
    assert _lapack_least_squares(tree) == [2, 3, 4, 6, 10]


def _dataclasses_imports(tree):
    """Lines that import the dataclasses module or a name from it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(alias.name == "dataclasses"
                          for alias in node.names)
                  or isinstance(node, ast.ImportFrom)
                  and node.module == "dataclasses" and not node.level)


def test_no_dataclasses_import():
    found = {p.name: _dataclasses_imports(
                 ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
             for p in MODULES}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"dataclasses imported: {found}"


def test_check_detects_a_dataclasses_import():
    tree = ast.parse("import dataclasses\n"
                     "from dataclasses import dataclass, field\n"
                     "import os, dataclasses as dc\n"
                     "from .dataclasses import x\n"
                     "import dataclasses_json\n")
    assert _dataclasses_imports(tree) == [1, 2, 3]


def test_cli_import_leaves_dataclasses_and_decimal_unloaded():
    # decimal serves only partition's beyond-float-range rows, and cli
    # imports it there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, freeshift.cli; print("
                               "'dataclasses' in sys.modules, "
                               "'decimal' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["False", "False"]


def _exported(tree):
    """The strings listed in a module's ``__all__``."""
    return [c.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for c in ast.walk(node.value) if isinstance(c, ast.Constant)]


def _names(tree, strings=False):
    """Every name a tree loads or imports and every attribute it reads;
    with ``strings``, every string constant too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.add(node.value)
    return out


def _readme_examples(text):
    """The parsed ```python blocks of a README."""
    return [ast.parse(block)
            for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def _unread_exports(exported, lib_trees, bench_trees, readme_trees):
    """Names of ``exported`` that no library module other than the package
    ``__init__`` reads, that no bench file names (the tracer names what it
    wraps as strings) and that no README example uses."""
    readers = set()
    for tree in lib_trees + readme_trees:
        readers |= _names(tree)
    for tree in bench_trees:
        readers |= _names(tree, strings=True)
    return sorted(set(exported) - readers)


def test_every_export_has_a_reader():
    def parse(p):
        return ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
    init = parse(SRC / "__init__.py")
    lib = [parse(p) for p in MODULES if p.name != "__init__.py"]
    bench = [parse(p) for p in sorted((ROOT / "bench").glob("*.py"))]
    readme = _readme_examples((ROOT / "README.md").read_text(
        encoding="utf-8"))
    unread = _unread_exports(_exported(init), lib, bench, readme)
    assert not unread, f"exported names only tests read: {unread}"


def test_check_detects_an_unread_export():
    init = ast.parse("from .a import f\n"
                     "__all__ = ['f', 'g', 'h', 'k', 'only_tests']\n")
    lib = [ast.parse("def f():\n    return 1\ndef g():\n    return f()\n")]
    bench = [ast.parse("WRAPPED = [('a', 'g'), ('a', 'h')]\n")]
    readme = _readme_examples("text\n```python\nfrom freeshift import k\n"
                              "```\n```sh\nonly_tests\n```\n")
    assert _unread_exports(_exported(init), lib, bench, readme) == \
        ["only_tests"]
