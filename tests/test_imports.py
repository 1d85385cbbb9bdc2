"""Every module-level import in src/liedef is used by the module that makes it.

__init__.py is exempt (it re-exports the public API), and so is
`from __future__ import annotations`.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "liedef"


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
