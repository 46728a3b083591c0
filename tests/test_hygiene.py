"""Static checks on the library source that need no linter: every name a
module imports is used in it (or re-exported through ``__all__``), no
function imports from the package itself (those imports go at module top,
where a cycle would show at once), every module-level private function
is referenced somewhere in the package, every dataclass field and every
attribute a class sets on ``self`` is read somewhere, no runtime check is
an ``assert`` (``python -O`` strips those; checks raise typed errors), and
no module loads native code the runs do not need (hashlib's OpenSSL,
numpy.random, numpy.ma)."""

import ast
import collections
import pathlib

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


def _is_dataclass(decorator):
    target = (decorator.func if isinstance(decorator, ast.Call)
              else decorator)
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute)
            and target.attr == "dataclass")


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


def _unread_fields(lib_trees, trees):
    """``Class.field`` of every dataclass field in lib_trees that no
    attribute load in trees reads (a keyword or a store is no read)."""
    reads = _attribute_reads(trees)
    return sorted(f"{cls.name}.{stmt.target.id}"
                  for tree in lib_trees for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  and any(_is_dataclass(d) for d in cls.decorator_list)
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in reads)


def test_every_dataclass_field_is_read():
    lib, others = _parse_all()
    unread = _unread_fields(lib, lib + others)
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_check_detects_an_unread_field():
    lib = ast.parse("from dataclasses import dataclass\n"
                    "@dataclass\nclass A:\n    read: int\n"
                    "    unread: int\n    written: int = 0\n"
                    "@dataclass(frozen=True)\nclass B:\n    kw: int\n"
                    "class C:\n    plain: int\n")
    use = ast.parse("a = A(1, 2, written=3)\na.written = 4\n"
                    "print(a.read, B(kw=1))\n")
    assert _unread_fields([lib], [lib, use]) == ["A.unread", "A.written",
                                                 "B.kw"]


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
                    "    def __init__(self):\n        self.h = 1\n")
    assert _unread_attributes([lib], [lib]) == ["A.count", "A.unread"]


@pytest.mark.parametrize("name", ["spectra.py", "diagnostics.py"])
def test_scope_engine_choice_stays_in_pressure(name):
    # pressure.scope_rows alone picks each scope's engine: the layers above
    # it import nothing from quotients and test no quotient type
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert "quotients" not in modules
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    assert not {n for n in names if n.endswith("Quotient")}
    if name == "spectra.py":
        # the root loop's one scope test is the route scope_rows returns
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert "has_exact_route" not in names | imported


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
