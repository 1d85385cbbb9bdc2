"""Exact univariate polynomials with Sturm counting and Q(i) root extraction.

Coefficients are stored lowest degree first and may be int, Fraction or
GaussRat; all algorithms are exact, and a division by an int coefficient
goes through a Fraction, so no float ever appears.  Every gcd, squarefree
part and Sturm chain is computed on primitive integer coefficient lists of
a polynomial with rational coefficients: each remainder is a
sign-preserving pseudo-remainder (the dividend scaled by a power of the
divisor's |leading coefficient|) divided by its positive content, so every
term is a positive multiple of the one Euclid's algorithm over Q gives, and
only a monic result is turned back into Fractions.  A polynomial p over
Q(i) is asked through its norm N(p) = p * conj(p) (Trager), which has
rational coefficients and the roots of p and their conjugates.

Real-root counting uses Sturm sequences on the squarefree part.  Root
extraction over the fixed tower Q < Q(i) is complete and has no size bound:
the roots of the squarefree part of the norm are found modulo a small prime
p = 1 (mod 4), lifted p-adically, read back into Q(i) by a 2-D lattice
reduction, and accepted only after exact division of p itself.  Anything
that would need a larger field is reported as a leftover degree, never
approximated.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InternalCheckError
from .scalars import GaussRat, _field, gauss


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

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        if dn < dd:
            return Poly([]), Poly(rem)
        lead = _field(other.lead)
        quot = [0] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k]
            if c:
                q = c / lead
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
        lead = _field(self.lead)
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
                out.append(c if type(c) is Fraction else Fraction(c))
        return Poly(out)


def _primitive(ints):
    """An integer list divided by its positive content."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _int_coeffs(coeffs):
    """Rational (int or Fraction) coefficients as a primitive integer list:
    their least positive multiple with integer entries, so every sign is
    kept."""
    den = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _real_ints(p: Poly):
    """_int_coeffs of a polynomial with real coefficients (a GaussRat one
    must have zero imaginary part, else ValueError)."""
    cs = []
    for c in p.coeffs:
        if isinstance(c, GaussRat):
            if not c.is_real():
                raise ValueError("polynomial is not real")
            c = c.re
        cs.append(c)
    return _int_coeffs(cs)


def _derivative(ints):
    return _primitive([k * c for k, c in enumerate(ints)][1:])


def _prem(a, b):
    """The remainder of a by b (integer lists, b nonzero) as a primitive
    integer list of the same signs.

    Each quotient term first scales the running remainder by |lc(b)|, so
    the result is a positive multiple of the remainder over Q; dividing out
    its positive content makes it the primitive one.
    """
    rem = list(a)
    db = len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem.pop()
        if c:
            if scale != 1:
                rem = [scale * x for x in rem]
            c *= sign
            for j in range(db):
                rem[k + j] -= c * b[j]
    while rem and not rem[-1]:
        rem.pop()
    return _primitive(rem)


def _int_gcd(a, b):
    """A primitive gcd of primitive integer lists (zero is [])."""
    while b:
        a, b = b, _prem(a, b)
    return a


def _int_quotient(a, b):
    """a / b for integer lists when b is primitive and divides a over Q,
    so that the quotient is integral (Gauss's lemma)."""
    rem, db = list(a), len(b) - 1
    quot = [0] * (len(rem) - db)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[k + db], b[-1])
        if r:
            raise InternalCheckError("inexact integer polynomial division")
        quot[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise InternalCheckError("inexact integer polynomial division")
    return quot


def _squarefree_ints(ints):
    """The squarefree part of an integer list of degree >= 1, as an
    integer list."""
    return _int_quotient(ints, _int_gcd(ints, _derivative(ints)))


def _monic(ints) -> Poly:
    return Poly([Fraction(c, ints[-1]) for c in ints] if ints else [])


def norm(p: Poly) -> Poly:
    """The norm N(p) = p * conj(p) of p over Q(i): its coefficients are
    real, and its roots are those of p and their complex conjugates.  A
    real p has the roots of its norm, so it stands for it unchanged."""
    return p if p.is_real() else p * p.conj()


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic; zero stays zero.  p must be real (else
    ValueError); ask a polynomial over Q(i) through its norm.

    Both the gcd and the exact division run on primitive integer lists, and
    only the result becomes Fractions.
    """
    ints = _real_ints(p)
    return _monic(_squarefree_ints(ints) if len(ints) > 1 else ints)


# -- Sturm counting ------------------------------------------------------------
# The Sturm chain of an integer list q is a list of integer lists, each a
# positive multiple of the matching term of q's classical chain over Q, so
# it has the same signs everywhere.


def _sturm_chain(q):
    chain = [q, _derivative(q)]
    while chain[-1]:
        chain.append([-c for c in _prem(chain[-2], chain[-1])])
    chain.pop()
    return chain


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_at(f, x: Fraction) -> int:
    """The sign of f(x): of den^deg(f) f(num / den), by Horner in
    integers."""
    num, den = x.numerator, x.denominator
    out, scale = 0, 1
    for c in reversed(f):
        out = out * num + c * scale
        scale *= den
    return (out > 0) - (out < 0)


def _variations_at(chain, x: Fraction) -> int:
    return _variations([_sign_at(f, x) for f in chain])


def _variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for f in chain:
        s = 1 if f[-1] > 0 else -1
        if not positive and len(f) % 2 == 0:
            s = -s
        signs.append(s)
    return _variations(signs)


def sturm_count_real_roots(p: Poly) -> int:
    """Number of distinct real roots of p (coefficients must be real).

    Counted on the Sturm chain of p itself, repeated roots or not: every
    term is a multiple of gcd(p, p'), so at +-infinity its sign variations
    are those of the chain of the squarefree part.  The chain is the
    primitive integer remainder sequence of p and p' (module docstring).
    """
    ints = _real_ints(p)
    if not ints:
        raise ValueError("root counting on the zero polynomial")
    chain = _sturm_chain(ints)
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True)


def purely_imaginary_spectrum(p: Poly) -> bool:
    """True iff every root of p lies on the imaginary axis.

    Conjugation keeps the axis, so a p over Q(i) is read through its norm.
    Writing that real polynomial as x^m * r(x) with r(0) != 0, this holds
    iff r is even, r(x) = q(x^2), and q has only negative real roots.
    """
    cs = _real_ints(norm(p))
    if not cs:
        raise ValueError("spectrum test on the zero polynomial")
    cs = cs[next(m for m, c in enumerate(cs) if c):]
    if len(cs) == 1:
        return True
    if any(cs[1::2]):
        return False
    # one chain of the squarefree part of q answers both: every root is
    # real, and none lies in (0, infinity) (q(0) != 0 since r(0) != 0)
    chain = _sturm_chain(_squarefree_ints(cs[0::2]))
    top = _variations_at_inf(chain, True)
    return (_variations_at_inf(chain, False) - top == len(chain[0]) - 1
            and _variations_at(chain, Fraction(0)) == top)


# -- exact roots over Q and Q(i) --------------------------------------------------


# Polynomials over Z/m below are lists of ints in [0, m), lowest degree first,
# with no trailing zero; [] is the zero polynomial.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _sub_mod(a, b, m):
    out = list(a) + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] = (out[k] - c) % m
    return _trim(out)


def _divmod_mod(a, b, p):
    """Quotient and remainder of a by b over F_p."""
    rem, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(rem) - db, 0)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] * inv % p
        quot[k] = c
        if c:
            for j, bj in enumerate(b):
                rem[k + j] = (rem[k + j] - c * bj) % p
    return quot, _trim(rem[:db])


def _mulmod_mod(a, b, f, p):
    """a * b reduced modulo f, over F_p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _divmod_mod([c % p for c in out], f, p)[1]


def _powmod_mod(a, e, f, p):
    """a ** e reduced modulo f, over F_p."""
    out = [1]
    while e:
        if e & 1:
            out = _mulmod_mod(out, a, f, p)
        a = _mulmod_mod(a, a, f, p)
        e >>= 1
    return out


def _gcd_mod(a, b, p):
    """Monic gcd over F_p (a nonzero)."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _eval_mod(a, x, m):
    out = 0
    for c in reversed(a):
        out = (out * x + c) % m
    return out


def _primes_1_mod_4():
    p = 5
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 4


def _sqrt_minus_one(p):
    """A square root of -1 mod the prime p = 1 (mod 4)."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return pow(c, (p - 1) // 4, p)


def _split_linear(h, p):
    """The roots of a monic product h of distinct linear factors over F_p.

    Cantor-Zassenhaus with the shifts delta = 0, 1, 2, ...: gcd(h, (x +
    delta)^((p-1)/2) - 1) collects the roots r with r + delta a nonzero
    square.  Any two distinct roots are told apart by some delta < p.
    """
    if len(h) <= 2:
        return [-h[0] % p] if len(h) == 2 else []
    for delta in range(p):
        g = _powmod_mod([delta, 1], (p - 1) // 2, h, p)
        g = _gcd_mod(h, _sub_mod(g, [1], p), p)
        if 1 < len(g) < len(h):
            return (_split_linear(g, p)
                    + _split_linear(_divmod_mod(h, g, p)[0], p))
    raise InternalCheckError("no shift mod %d splits the roots" % p)


def _round_div(a, b):
    """a / b rounded to the nearest integer (b != 0)."""
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def _reduced_basis(u, v):
    """Lagrange-Gauss reduction of a basis of a lattice in Z^2."""
    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]
    if dot(u, u) > dot(v, v):
        u, v = v, u
    while True:
        q = _round_div(dot(u, v), dot(u, u))
        v = (v[0] - q * u[0], v[1] - q * u[1])
        if dot(v, v) >= dot(u, u):
            return u, v
        u, v = v, u


def _modular_roots(ints):
    """Candidate roots in Q(i) of a squarefree integer list (degree >= 2).

    lc * z lies in Z[i] for every root z, and |lc * z| <= H = |lc| +
    max |a_j| (Cauchy).  The roots are found mod a prime p = 1 (mod 4),
    lifted to p^k > 8 H^2 by Newton steps along with a square root iota of
    -1, and read back as the short A + B*i with A + B*iota = lc * r
    (mod p^k): the A + B*i with A + B*iota = 0 form an ideal of Z[i] of
    norm p^k, a square lattice whose reduced basis rounds exactly.  The
    caller accepts a candidate only after exact division.
    """
    for p in _primes_1_mod_4():
        f = [c % p for c in ints]
        if not f[-1]:
            continue
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
        df = _trim([k * c % p for k, c in enumerate(f)][1:])
        if len(_gcd_mod(f, df, p)) == 1:
            break
    x = [0, 1]
    found = _split_linear(
        _gcd_mod(f, _sub_mod(_powmod_mod(x, p, f, p), x, p), p), p)

    lc = ints[-1]
    height = abs(lc) + max(abs(a) for a in ints[:-1])
    iota = _sqrt_minus_one(p)
    mod = p
    while mod <= 8 * height * height:
        mod = mod * mod
        iota = (iota - (iota * iota + 1) * pow(2 * iota, -1, mod)) % mod
        f = [c % mod for c in ints]
        df = [k * c % mod for k, c in enumerate(f)][1:]
        found = [(r - _eval_mod(f, r, mod)
                  * pow(_eval_mod(df, r, mod), -1, mod)) % mod
                 for r in found]

    u, v = _reduced_basis((mod, 0), (-iota % mod, 1))
    det = u[0] * v[1] - u[1] * v[0]
    out = []
    for r in found:
        t = lc * r % mod
        c1, c2 = _round_div(t * v[1], det), _round_div(-t * u[1], det)
        w = (t - c1 * u[0] - c2 * v[0], -c1 * u[1] - c2 * v[1])
        out.append(GaussRat(*w) / lc)
    return out


def _deflate(p: Poly, z):
    """(multiplicity m of the root z of p, p / (x - z)^m).

    Synthetic division: one multiply-add per coefficient and no divisions.
    """
    cs, mult = p.coeffs, 0
    while len(cs) > 1:
        q = [cs[-1]]
        for c in reversed(cs[1:-1]):
            q.append(c + z * q[-1])
        if cs[0] + z * q[-1] != 0:
            break
        cs, mult = tuple(reversed(q)), mult + 1
    return mult, Poly(cs)


def gaussian_roots(p: Poly):
    """All roots of p lying in Q(i), with multiplicities, plus leftover degree.

    Works for Fraction or GaussRat coefficients.  The candidates are the
    Q(i) roots of the squarefree part of the norm N(p), and each is kept
    only when _deflate finds it a root of p itself.  leftover == 0 means p
    splits into linear factors over Q(i); a positive leftover is the degree
    of the certified Q(i)-rootless cofactor.  Roots come sorted by (re, im).
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    f = (p.to_fraction_coeffs() if p.is_real()
         else Poly([gauss(c) for c in p.coeffs]))
    zeros = next(k for k, c in enumerate(f.coeffs) if c)
    f = Poly(f.coeffs[zeros:])
    ints = _real_ints(norm(f))
    g = _squarefree_ints(ints) if len(ints) > 1 else ints
    if len(g) == 2:
        candidates = [GaussRat(Fraction(-g[0], g[1]))]
    elif len(g) > 2:
        candidates = _modular_roots(g)
    else:
        candidates = []
    roots = [(GaussRat(0), zeros)] if zeros else []
    # real roots first, so a real p deflates over Q as long as it can
    for z in sorted(candidates, key=lambda z: not z.is_real()):
        mult, f = _deflate(f, z.re if z.is_real() else z)
        if mult:
            roots.append((z, mult))
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    return roots, p.degree - sum(m for _, m in roots)
