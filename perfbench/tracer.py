"""Per-layer self time and call counts, recorded from outside the package.

The tracer wraps every public function of each liedef module and every
public LieAlgebra method.  A wrapped function is rebound in every liedef
namespace that holds the original, so calls made through `from .x import f`
bindings are seen too, and in the callers' namespaces given to install().
A layer is a module; its self time is the time spent in its wrapped
functions minus the time of the wrapped calls they make.

Fraction and GaussRat constructions made while a liedef call is open are
counted as well.  Nothing in the package changes; uninstall() restores every
binding.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# counted per call of the outer function: tbc_verify calls made inside
# tbc_find are the splitting candidates it tried
NESTED = {"definability.tbc_verify": "definability.tbc_find"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)     # by layer and by "layer.func"
        self.nested = Counter()
        self.fraction_new = 0
        self.gaussrat_new = 0
        self._stack = []                     # child time of each open call
        self._open = Counter()
        self._undo = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.nested.clear()
        self.fraction_new = 0
        self.gaussrat_new = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key, layer):
        calls, self_s, stack, opened = (self.calls, self.self_s, self._stack,
                                        self._open)
        outer = NESTED.get(key)

        def traced(*args, **kwargs):
            calls[key] += 1
            if outer is not None and opened[outer]:
                self.nested[key] += 1
            opened[key] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                own = elapsed - stack.pop()
                opened[key] -= 1
                self_s[layer] += own
                self_s[key] += own
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, callers=()):
        import liedef
        from liedef.lie import LieAlgebra
        from liedef.scalars import GaussRat

        modules = [importlib.import_module("liedef." + m.name)
                   for m in pkgutil.iter_modules(liedef.__path__)
                   if m.name != "cli"]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, layer + "." + name, layer)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "liedef" or n.startswith("liedef.")]
        namespaces += list(callers)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(ns, name, wrapped[obj])

        for name, obj in list(vars(LieAlgebra).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, staticmethod):
                fn = self._wrap(obj.__func__, "lie." + name, "lie")
                self._set(LieAlgebra, name, staticmethod(fn))
            elif inspect.isfunction(obj):
                self._set(LieAlgebra, name,
                          self._wrap(obj, "lie." + name, "lie"))

        stack = self._stack
        fraction_new = Fraction.__new__

        def counting_fraction_new(cls, *args, **kwargs):
            if stack:
                self.fraction_new += 1
            return fraction_new(cls, *args, **kwargs)

        gaussrat_init = GaussRat.__init__

        def counting_gaussrat_init(obj, *args, **kwargs):
            if stack:
                self.gaussrat_new += 1
            gaussrat_init(obj, *args, **kwargs)

        self._set(Fraction, "__new__", counting_fraction_new)
        self._set(GaussRat, "__init__", counting_gaussrat_init)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
