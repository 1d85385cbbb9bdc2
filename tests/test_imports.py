"""Every module-level import in src/liedef is used by the module that makes it,
and every public top-level name it defines is referenced somewhere.

__init__.py is exempt from the import check (it re-exports the public API),
and so is `from __future__ import annotations`.  A reference is a name read,
an attribute or an imported name anywhere in src/, tests/ or perfbench/;
docstrings and other strings do not count.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liedef"


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = ["%s:%d %s" % (p.name, line, name)
              for p in modules
              for line, name in _unused_imports(p.read_text())]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_the_check_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import json\nfrom math import gcd, isqrt\n"
           "def f(x):\n    return gcd(x, 2)\n")
    assert _unused_imports(src) == [(2, "json"), (3, "isqrt")]


def _public_names(tree):
    """Public names a module binds at its top level, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    return {name: line for name, line in bound.items()
            if not name.startswith("_")}


def _references(tree):
    seen = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            seen.add(n.id)
        elif isinstance(n, ast.Attribute):
            seen.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            seen.update(alias.name for alias in n.names)
    return seen


def _unreferenced_names(modules, sources):
    """(module, line, name) for each public top-level name of the modules
    (file name -> source) that none of the sources references."""
    seen = set().union(*(_references(ast.parse(src)) for src in sources))
    return sorted((mod, line, name)
                  for mod, src in modules.items()
                  for name, line in _public_names(ast.parse(src)).items()
                  if name not in seen)


def test_every_public_name_is_referenced():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert modules
    sources = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in (ROOT / d).rglob("*.py")]
    unused = ["%s:%d %s" % entry
              for entry in _unreferenced_names(modules, sources)]
    assert not unused, "unreferenced public names: " + ", ".join(unused)


def test_the_check_sees_an_unreferenced_name():
    lib = ('"""dead() is named only in this docstring."""\n'
           "LIMIT = 3\nDEAD = 4\n_PRIVATE = 5\n"
           "def used(x):\n    return x + LIMIT\n"
           "def dead():\n    pass\n"
           "class Thing:\n    pass\n")
    user = 'from lib import used\nimport lib\nlib.Thing(used(1), "DEAD")\n'
    assert _unreferenced_names({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 3, "DEAD"), ("lib.py", 7, "dead")]
