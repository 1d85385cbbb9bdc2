"""Exact univariate polynomials with Sturm counting and Q(i) root extraction.

Coefficients are stored lowest degree first and may be Fraction or GaussRat;
all algorithms are exact.  Real-root counting uses Sturm sequences on the
squarefree part.  Root extraction over the fixed tower Q < Q(i) is complete:
rational roots come from the classical divisor bound, conjugate Gaussian pairs
from enumerating integer quadratic factors, and anything that would need a
larger field is reported as a leftover degree, never approximated.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ScalarTowerError
from .scalars import GaussRat, gauss, is_rational_square

# Divisor enumeration refuses integers past this bound: the desk-scale root
# search below would otherwise silently turn into a factoring project.
_FACTOR_BOUND = 10**10


class Poly:
    """Dense univariate polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics --------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{k}" if k else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly([])
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def shift_up(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Poly([0] * k + list(self.coeffs))

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        if dn < dd:
            return Poly([]), Poly(rem)
        inv_lead = other.lead
        quot = [0] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k]
            if c:
                q = c / inv_lead
                quot[k] = q
                for j, b in enumerate(other.coeffs):
                    rem[j + k] = rem[j + k] - q * b
        return Poly(quot), Poly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divexact(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.lead
        return Poly([c / lead for c in self.coeffs])

    def conj(self) -> "Poly":
        return Poly([c.conj() if isinstance(c, GaussRat) else c
                     for c in self.coeffs])

    def is_real(self) -> bool:
        return all(not isinstance(c, GaussRat) or c.is_real()
                   for c in self.coeffs)

    def to_fraction_coeffs(self) -> "Poly":
        out = []
        for c in self.coeffs:
            if isinstance(c, GaussRat):
                if not c.is_real():
                    raise ValueError("polynomial is not real")
                out.append(c.re)
            else:
                out.append(Fraction(c))
        return Poly(out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over a field."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_part(p: Poly) -> Poly:
    if p.degree <= 0:
        return p.monic() if not p.is_zero() else p
    g = poly_gcd(p, p.derivative())
    return p.divexact(g).monic()


# -- Sturm counting ------------------------------------------------------------


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(q: Poly):
    chain = [q, q.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, x: Fraction) -> int:
    return _variations([_sign(f(x)) for f in chain])


def _variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for f in chain:
        s = _sign(f.lead)
        if not positive and f.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def sturm_count_real_roots(p: Poly) -> int:
    """Number of distinct real roots of p (coefficients must be real)."""
    p = p.to_fraction_coeffs()
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    q = squarefree_part(p)
    if q.degree <= 0:
        return 0
    chain = _sturm_chain(q)
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True)


def sturm_count_in_interval(p: Poly, a: Fraction, b=None) -> int:
    """Distinct real roots of p in (a, b]; b=None means (a, +infinity)."""
    p = p.to_fraction_coeffs()
    q = squarefree_part(p)
    if q.degree <= 0:
        return 0
    chain = _sturm_chain(q)
    va = _variations_at(chain, Fraction(a))
    vb = _variations_at_inf(chain, True) if b is None else _variations_at(chain, Fraction(b))
    return va - vb


def all_roots_real(p: Poly) -> bool:
    """True iff every complex root of p is real.

    Equivalent to: the squarefree part has as many distinct real roots
    as its degree.  Exact; multiple roots like (x-1)^2 are fine.
    """
    p = p.to_fraction_coeffs()
    if p.is_zero():
        raise ValueError("all_roots_real on the zero polynomial")
    q = squarefree_part(p)
    if q.degree <= 0:
        return True
    return sturm_count_real_roots(q) == q.degree


def purely_imaginary_spectrum(p: Poly) -> bool:
    """True iff every root of the real polynomial p lies on the imaginary axis.

    Writing p = x^m * r(x) with r(0) != 0, this holds iff r is even,
    r(x) = q(x^2), and q has only negative real roots.
    """
    p = p.to_fraction_coeffs()
    if p.is_zero():
        raise ValueError("spectrum test on the zero polynomial")
    cs = list(p.coeffs)
    m = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        m += 1
    if not cs or len(cs) == 1:
        return True
    if any(c != 0 for c in cs[1::2]):
        return False
    q = Poly(cs[0::2])
    if not all_roots_real(q):
        return False
    # q(0) != 0 since r(0) != 0; reject any root in (0, infinity) and 0 itself
    return sturm_count_in_interval(q, Fraction(0)) == 0


# -- exact roots over Q and Q(i) --------------------------------------------------


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    if n > _FACTOR_BOUND:
        raise ScalarTowerError(
            f"root search needs the divisors of {n}, past the desk-scale bound")
    divs = [1]
    rest = n
    factors = {}
    d = 2
    while d * d <= rest:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    for prime, mult in factors.items():
        divs = [d * prime**k for d in divs for k in range(mult + 1)]
    return sorted(divs)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector."""
    den = 1
    for c in v:
        den = lcm(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in v]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    return tuple(ints)


def rational_roots(p: Poly):
    """All rational roots of p with multiplicities, as [(Fraction, mult)]."""
    p = p.to_fraction_coeffs()
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    out = []
    m = 0
    while p.coeffs and p.coeffs[0] == 0:
        p = Poly(p.coeffs[1:])
        m += 1
    if m:
        out.append((Fraction(0), m))
    if p.degree < 1:
        return out
    ints = clear_denominators(p.coeffs)
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(cand) == 0:
                    mult = 0
                    lin = Poly([-cand, Fraction(1)])
                    while True:
                        q, r = p.divmod(lin)
                        if not r.is_zero():
                            break
                        p = q
                        mult += 1
                    out.append((cand, mult))
    return out


def _find_quadratic_factor(p: Poly):
    """A monic rational quadratic factor (u, v) of p, i.e. x^2+ux+v | p, or None.

    Assumes p has no rational roots (so p(0), p(1), p(-1) are nonzero).
    Complete by the Gauss-lemma divisor bounds on integer quadratic factors.
    """
    ints = clear_denominators(p.coeffs)
    h0, lc = ints[0], ints[-1]
    h1 = sum(ints)
    h_1 = sum(c if k % 2 == 0 else -c for k, c in enumerate(ints))
    assert h0 != 0 and h1 != 0 and h_1 != 0
    for c in _divisors(lc):
        for e0 in _divisors(h0):
            for e in (e0, -e0):
                for t0 in _divisors(h1):
                    for t in (t0, -t0):
                        d = t - c - e
                        gm1 = c - d + e
                        if gm1 == 0 or h_1 % gm1 != 0:
                            continue
                        g = Poly([Fraction(e), Fraction(d), Fraction(c)])
                        if (p % g).is_zero():
                            return Fraction(d, c), Fraction(e, c)
    return None


def _gaussian_roots_real(p: Poly):
    """Roots in Q(i) of a real polynomial, with multiplicity, plus leftover degree."""
    p = p.to_fraction_coeffs().monic()
    roots = []
    for r, mult in rational_roots(p):
        roots.append((GaussRat(r), mult))
        lin = Poly([-r, Fraction(1)])
        for _ in range(mult):
            p = p.divexact(lin)
    leftover = Poly([Fraction(1)])
    while p.degree >= 2:
        fac = _find_quadratic_factor(p)
        if fac is None:
            break
        u, v = fac
        quad = Poly([v, u, Fraction(1)])
        mult = 0
        while True:
            q, r = p.divmod(quad)
            if not r.is_zero():
                break
            p = q
            mult += 1
        disc = u * u - 4 * v
        s = is_rational_square(-disc)
        if disc < 0 and s is not None:
            a, b = -u / 2, s / 2
            roots.append((GaussRat(a, b), mult))
            roots.append((GaussRat(a, -b), mult))
        else:
            for _ in range(mult):
                leftover = leftover * quad
    leftover = leftover * p
    return roots, max(leftover.degree, 0)


def gaussian_roots(p: Poly):
    """All roots of p lying in Q(i), with multiplicities, plus leftover degree.

    Works for Fraction or GaussRat coefficients.  leftover == 0 means p splits
    into linear factors over Q(i); a positive leftover is the degree of the
    certified Q(i)-rootless cofactor.
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    if p.is_real():
        return _gaussian_roots_real(p)
    norm = (p * p.conj()).to_fraction_coeffs()
    candidates, _ = _gaussian_roots_real(norm)
    seen = set()
    roots = []
    work = Poly([gauss(c) for c in p.coeffs])
    for z, _ in candidates:
        if z in seen:
            continue
        seen.add(z)
        if work(z) == GaussRat(0):
            lin = Poly([-z, GaussRat(1)])
            mult = 0
            while True:
                q, r = work.divmod(lin)
                if not r.is_zero():
                    break
                work = q
                mult += 1
            if mult:
                roots.append((z, mult))
    return roots, max(work.degree, 0)
