"""Exact scalars: rationals and Gaussian rationals.

Rationals are `fractions.Fraction` (already normalized, positive denominator).
Gaussian rationals a + b*i get a small immutable class that interoperates with
Fraction and int in mixed arithmetic, so matrices and polynomials can be
written once and instantiated over either field.  Both parts are always
Fraction; a part that already is one is kept as it is, and an int zero is
one shared Fraction(0).  A real operand (int or Fraction) is not promoted
to a GaussRat: +, -, * and / act on the parts with it directly, so a
Gaussian times a rational costs two rational products.
"""
from __future__ import annotations

from fractions import Fraction

_REAL = (int, Fraction)

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Parse a rational from int, Fraction, or a "p/q" / "p" string; the
    string "0" gives the shared _ZERO."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # "0", the most common JSON entry, is the shared zero; an optional
        # "-" and ASCII digits is an int; anything else (space, "+", "/",
        # ".", "_", other digits) goes through Fraction's own parser
        if x == "0":
            return _ZERO
        if x.isascii() and (x[1:] if x[:1] == "-" else x).isdigit():
            return Fraction(int(x))
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _field(x):
    """x itself, or as a Fraction when it is a plain int, so that dividing
    by it stays exact."""
    return Fraction(x) if isinstance(x, int) else x


def rat_str(x) -> str:
    """Serialize a rational as "p/q" (or "p" when the denominator is 1)."""
    return str(x if type(x) is Fraction else Fraction(x))


def _part(x) -> Fraction:
    """A GaussRat part that is not a Fraction yet: an int zero, the default
    imaginary part, is the shared _ZERO."""
    return _ZERO if type(x) is int and not x else Fraction(x)


class GaussRat:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re",
                           re if type(re) is Fraction else _part(re))
        object.__setattr__(self, "im",
                           im if type(im) is Fraction else _part(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- structure ---------------------------------------------------------

    def is_real(self) -> bool:
        return not self.im

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussRat):
            return GaussRat(self.re + other.re, self.im + other.im)
        if isinstance(other, _REAL):
            return GaussRat(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussRat):
            return GaussRat(self.re - other.re, self.im - other.im)
        if isinstance(other, _REAL):
            return GaussRat(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _REAL):
            return GaussRat(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return GaussRat(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)
        if isinstance(other, _REAL):
            return GaussRat(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussRat):
            n2 = other.norm2()
            if n2 == 0:
                raise ZeroDivisionError("division by zero GaussRat")
            re, im = other.re, other.im
            return GaussRat((self.re * re + self.im * im) / n2,
                            (self.im * re - self.re * im) / n2)
        if isinstance(other, _REAL):
            if other == 0:
                raise ZeroDivisionError("division by zero GaussRat")
            return GaussRat(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _REAL):
            n2 = self.norm2()
            if n2 == 0:
                raise ZeroDivisionError("division by zero GaussRat")
            return GaussRat(other * self.re / n2, -other * self.im / n2)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = GaussRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _REAL):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # real values must hash like the Fraction they equal
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def gauss(x) -> GaussRat:
    """Coerce int / Fraction / GaussRat to GaussRat."""
    return x if isinstance(x, GaussRat) else GaussRat(x)

