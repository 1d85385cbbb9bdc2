"""Every module-level import in src/liedef and tests/ is used by the module
that makes it, and every top-level name src/liedef defines, public or
private, is referenced somewhere (dunder names such as __all__ are exempt).

src/liedef/__init__.py is exempt from the import check (it re-exports the
public API), and so is `from __future__ import annotations`.  A reference is a name read,
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
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert modules and tests
    modules += tests
    unused = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
              for p in modules
              for line, name in _unused_imports(p.read_text())]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_the_check_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import json\nfrom math import gcd, isqrt\n"
           "def f(x):\n    return gcd(x, 2)\n")
    assert _unused_imports(src) == [(2, "json"), (3, "isqrt")]


def _top_level_names(tree):
    """Names a module binds at its top level, with their lines, apart from
    dunder names."""
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
            if not (name.startswith("__") and name.endswith("__"))}


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
    """(module, line, name) for each top-level name of the modules (file
    name -> source) that none of the sources references."""
    seen = set().union(*(_references(ast.parse(src)) for src in sources))
    return sorted((mod, line, name)
                  for mod, src in modules.items()
                  for name, line in _top_level_names(ast.parse(src)).items()
                  if name not in seen)


def test_every_public_name_is_referenced():
    # private top-level names are held to the same rule
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert modules
    sources = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in (ROOT / d).rglob("*.py")]
    unused = ["%s:%d %s" % entry
              for entry in _unreferenced_names(modules, sources)]
    assert not unused, "unreferenced top-level names: " + ", ".join(unused)


def test_the_check_sees_an_unreferenced_name():
    lib = ('"""dead() is named only in this docstring."""\n'
           "LIMIT = 3\nDEAD = 4\n_PRIVATE = 5\n__all__ = []\n"
           "def used(x):\n    return _helper(x) + LIMIT\n"
           "def dead():\n    pass\n"
           "def _helper(x):\n    return x\n"
           "def _dead_helper():\n    pass\n"
           "class Thing:\n    pass\n")
    user = 'from lib import used\nimport lib\nlib.Thing(used(1), "DEAD")\n'
    assert _unreferenced_names({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 3, "DEAD"), ("lib.py", 4, "_PRIVATE"),
        ("lib.py", 8, "dead"), ("lib.py", 12, "_dead_helper")]


# a public function that only tests call is dead code with a test attached:
# it has to be referenced by the program itself, unless the package exports
# it as part of its API


def _uncalled_functions(modules, program, exported=frozenset()):
    """(module, line, name) for each public top-level function of the
    modules (file name -> source) that the program (file name -> source,
    the modules included) references nowhere outside the function's own
    body, and that is not among the exported names."""
    refs = {name: _references(ast.parse(src)) for name, src in program.items()}
    out = []
    for mod, src in modules.items():
        body = ast.parse(src).body
        elsewhere = set().union(*(r for name, r in refs.items() if name != mod))
        for node in body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_") or node.name in exported:
                continue
            seen = elsewhere.union(*(_references(n) for n in body
                                     if n is not node))
            if node.name not in seen:
                out.append((mod, node.lineno, node.name))
    return sorted(out)


def _exports(source):
    """The names, as their modules define them, that a package __init__
    re-exports with `from .module import`."""
    return frozenset(alias.name
                     for node in ast.parse(source).body
                     if isinstance(node, ast.ImportFrom) and node.level
                     for alias in node.names)


def test_every_function_is_called_by_the_program_or_exported():
    # __init__.py is the allow-list, so its imports are not calls
    program = {p.name: p.read_text() for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    modules = dict(program)
    program.update({"perfbench/" + p.name: p.read_text()
                    for p in (ROOT / "perfbench").glob("*.py")})
    exported = _exports((SRC / "__init__.py").read_text())
    assert "Mat" in exported and "verify_rep" in exported
    uncalled = ["%s:%d %s" % entry
                for entry in _uncalled_functions(modules, program, exported)]
    assert not uncalled, "called by tests only: " + ", ".join(uncalled)


def test_the_check_sees_an_uncalled_function():
    lib = ("def used(x):\n    return _helper(x)\n"
           "def inner(x):\n    return x\n"
           "def outer(x):\n    return inner(x)\n"
           "def recursive(x):\n    return recursive(x - 1) if x else 0\n"
           "def dead():\n    pass\n"
           "def _helper(x):\n    return x\n")
    user = "from lib import used, outer\nused(outer(1))\n"
    test = "from lib import dead\ndead()\n"
    assert _uncalled_functions({"lib.py": lib},
                               {"lib.py": lib, "user.py": user}) == [
        ("lib.py", 7, "recursive"), ("lib.py", 9, "dead")]
    assert _uncalled_functions({"lib.py": lib},
                               {"lib.py": lib, "test.py": test}) == [
        ("lib.py", 1, "used"), ("lib.py", 5, "outer"),
        ("lib.py", 7, "recursive")]
    init = ('"""A package."""\n__version__ = "1"\n'
            "from .lib import dead, outer as api  # noqa: F401\n"
            "from math import gcd\nimport json\n")
    assert _exports(init) == {"dead", "outer"}
    assert _uncalled_functions({"lib.py": lib},
                               {"lib.py": lib, "user.py": user},
                               _exports(init)) == [("lib.py", 7, "recursive")]


# the same rule for methods: a method of a class the package does not export
# is reached only through the program, so one that the program never names is
# dead code, whatever the tests call


def _unreferenced_methods(modules, program, exported=frozenset()):
    """(module, line, "Class.method") for each method, dunder methods apart,
    of a top-level class of the modules (file name -> source) that is not
    among the exported names and that the program (file name -> source, the
    modules included) references nowhere outside the method's own body."""
    refs = {name: _references(ast.parse(src)) for name, src in program.items()}
    out = []
    for mod, src in modules.items():
        body = ast.parse(src).body
        elsewhere = set().union(*(r for name, r in refs.items() if name != mod))
        for cls in body:
            if not isinstance(cls, ast.ClassDef) or cls.name in exported:
                continue
            outside = elsewhere.union(*(_references(n) for n in body
                                        if n is not cls))
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or \
                        node.name.startswith("__") and node.name.endswith("__"):
                    continue
                seen = outside.union(*(_references(n) for n in cls.body
                                       if n is not node))
                if node.name not in seen:
                    out.append((mod, node.lineno,
                                "%s.%s" % (cls.name, node.name)))
    return sorted(out)


def test_every_method_of_an_internal_class_is_used_by_the_program():
    program = {p.name: p.read_text() for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    modules = dict(program)
    program.update({"perfbench/" + p.name: p.read_text()
                    for p in (ROOT / "perfbench").glob("*.py")})
    exported = _exports((SRC / "__init__.py").read_text())
    assert "WeightEntry" not in exported
    unused = ["%s:%d %s" % entry
              for entry in _unreferenced_methods(modules, program, exported)]
    assert not unused, "methods the program never uses: " + ", ".join(unused)


def test_the_check_sees_an_unused_method():
    lib = ("class Poly:\n"
           "    def __init__(self, terms):\n        self.terms = terms\n"
           "    def __add__(self, other):\n        return self\n"
           "    def text(self):\n        return self._sorted()\n"
           "    def _sorted(self):\n        return sorted(self.terms)\n"
           "    def scale(self, c):\n        return self.scale(c)\n"
           "    @property\n    def degree(self):\n        return 0\n"
           "    @staticmethod\n    def constant(c):\n        return Poly([c])\n"
           "class Api:\n    def dead(self):\n        pass\n"
           "def show(p):\n    return p.text()\n")
    user = "from lib import show, Poly\nshow(Poly([1]))\n"
    test = "from lib import Poly\nPoly.constant(1).scale(2).degree\n"
    assert _unreferenced_methods({"lib.py": lib},
                                 {"lib.py": lib, "user.py": user},
                                 frozenset(("Api",))) == [
        ("lib.py", 10, "Poly.scale"), ("lib.py", 13, "Poly.degree"),
        ("lib.py", 16, "Poly.constant")]
    # an exported class's methods are its API; a reference anywhere in the
    # program keeps a method, so test.py keeps Poly's if it is program code
    program = {"lib.py": lib, "user.py": user, "test.py": test}
    assert _unreferenced_methods({"lib.py": lib},
                                 {"lib.py": lib, "user.py": user}) == [
        ("lib.py", 10, "Poly.scale"), ("lib.py", 13, "Poly.degree"),
        ("lib.py", 16, "Poly.constant"), ("lib.py", 19, "Api.dead")]
    assert _unreferenced_methods({"lib.py": lib}, program) == [
        ("lib.py", 19, "Api.dead")]


# the finders' modules; the checker in certs.py may import from definability
# its public names and the solvable-given _tbc_verify, and nothing else of
# theirs, so that a certificate is never checked by the code that found it
FINDERS = ("definability", "structure", "weights")
CHECKER_MAY_IMPORT = frozenset(("_tbc_verify",))


def _finder_imports(source):
    """(line, name) for each import in the source that reaches into a
    finder module beyond what the checker may take."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [(node.lineno, a.name) for a in node.names
                    if a.name.split(".")[-1] in FINDERS]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for a in node.names:
                if not module and a.name in FINDERS:
                    # the module itself opens its private names
                    bad.append((node.lineno, a.name))
                elif module in FINDERS and (
                        module != "definability"
                        or (a.name.startswith("_")
                            and a.name not in CHECKER_MAY_IMPORT)):
                    bad.append((node.lineno, "%s.%s" % (module, a.name)))
    return bad


def test_the_checker_takes_no_finder_code():
    assert not _finder_imports((SRC / "certs.py").read_text())


# the checker writes a torus closure's equations itself and compares text:
# it takes the types and the printer from torus, not the closure's writer
# or its self-check
CHECKER_TORUS_NAMES = frozenset(("TorusWeights", "TorusClosure",
                                 "equation_string"))


def _torus_imports(source):
    """The names the source imports from a module named torus."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[-1] == "torus":
            names.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names
                         if a.name.split(".")[-1] == "torus")
    return names


def test_the_checker_takes_only_types_and_the_printer_from_torus():
    assert _torus_imports((SRC / "certs.py").read_text()) \
        == CHECKER_TORUS_NAMES


def test_the_check_sees_a_torus_import():
    src = ("from .torus import TorusWeights, _power_product\n"
           "from . import torus\nimport liedef.torus\n")
    assert _torus_imports(src) == {"TorusWeights", "_power_product",
                                   "torus", "liedef.torus"}


def test_the_check_sees_a_finder_import():
    src = ("from .definability import DEFINABLE, _tbc_verify, _tbc_find\n"
           "from .structure import radical\n"
           "from . import weights\n"
           "import liedef.structure\n")
    assert _finder_imports(src) == [
        (1, "definability._tbc_find"), (2, "structure.radical"),
        (3, "weights"), (4, "liedef.structure")]


# exact arithmetic only: no float literal, no float() and no math routine
# that returns a float
FLOAT_MATH = frozenset(("sqrt", "log", "exp"))


def _float_uses(source):
    """(line, what) for each float or complex literal, float() call and
    math.sqrt, math.log or math.exp (by attribute or imported by name) in
    the source."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            bad.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "float":
            bad.append((node.lineno, "float()"))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "math":
            bad.append((node.lineno, "math." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad += [(node.lineno, "math." + a.name) for a in node.names
                    if a.name in FLOAT_MATH]
    return sorted(bad)


def test_no_floats_in_the_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    bad = ["%s:%d %s" % (p.name, line, what)
           for p in modules for line, what in _float_uses(p.read_text())]
    assert not bad, "float arithmetic: " + ", ".join(bad)


def test_the_check_sees_float_arithmetic():
    src = ("import math\nfrom math import gcd, isqrt, log\n"
           "def f(x):\n    return math.sqrt(x) + float(x) + 0.5 + 1e3\n"
           "def g(x):\n    return math.exp(x) + gcd(x, isqrt(x)) + 2j\n"
           "h = math.floor\n")
    assert _float_uses(src) == [
        (2, "math.log"), (4, "0.5"), (4, "1000.0"), (4, "float()"),
        (4, "math.sqrt"), (6, "2j"), (6, "math.exp")]
