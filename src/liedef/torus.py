"""Closure equations for integer-weight rotation tori.

A one-parameter family of plane rotations with weight row w sweeps the
curve (cos(w.phi), sin(w.phi)) in each block; the group generated by
several parameters is dense in the algebraic subgroup cut out by the
character relations of the weight lattice.  This module computes those
relations through the integer left kernel of the weight matrix.  A
relation m says prod_j z_j^m_j = 1 for z_j = c_j + i s_j; its two sides are
written out term by term by the binomial theorem, in integers, and the real
and imaginary parts of their difference are its equations.  Each equation is
certified by substituting the circle parametrization: c_j and s_j become
(z_j + 1/z_j)/2 and -i (z_j - 1/z_j)/2 with z_j the Laurent monomial
t^(W row j), and, cleared of denominators, every term expands into integer
Laurent coefficients, one row of a three-term recurrence per block
(vanishes_on_torus).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputError, InternalCheckError, UnsupportedError
from .linalg import integer_left_kernel
from .scalars import GaussRat, gauss


@dataclass(frozen=True)
class TorusWeights:
    """One integer weight row per rotation block; columns index parameters."""
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if not self.rows:
            raise InputError("at least one block row is required")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise InputError("weight rows must share one length")
        if width == 0:
            raise InputError("at least one parameter column is required")
        for r in self.rows:
            for w in r:
                if not isinstance(w, int) or isinstance(w, bool):
                    raise UnsupportedError(
                        "weights must be integers; rescale rational data first")

    @property
    def blocks(self) -> int:
        return len(self.rows)

    @property
    def params(self) -> int:
        return len(self.rows[0])


class MPoly:
    """Polynomial in c1,s1,...,cn,sn with Gaussian rational coefficients.

    Variable 2j is c_{j+1}, variable 2j+1 is s_{j+1}; terms are a map from
    exponent tuples to nonzero coefficients.  An MPoly is only held,
    printed and compared: the closure writes its terms directly and the
    check reads them, so it has no ring arithmetic.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = gauss(coeff)
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(),
                                              key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"MPoly({self.as_string()!r})"

    def as_string(self) -> str:
        """Deterministic reading order: lower degree first, then exponents."""
        if not self.terms:
            return "0"
        names = []
        for j in range(self.nvars // 2):
            names.extend((f"c{j + 1}", f"s{j + 1}"))
        parts = []
        for exps in sorted(self.terms, key=_display_key):
            coeff = self.terms[exps]
            factors = []
            for v, e in enumerate(exps):
                if e == 1:
                    factors.append(names[v])
                elif e > 1:
                    factors.append(f"{names[v]}^{e}")
            body = "*".join(factors)
            parts.append((coeff, body))
        out = ""
        for coeff, body in parts:
            text = _coeff_str(coeff)
            if not body:
                term = text
            elif text == "1":
                term = body
            elif text == "-1":
                term = "-" + body
            else:
                term = f"{text}*{body}"
            if not out:
                out = term
            elif term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out


def _display_key(exps):
    return (-sum(exps), tuple(-e for e in exps))


def _coeff_str(c: GaussRat) -> str:
    if c.is_real():
        return str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    sign = "+" if c.im > 0 else "-"
    return f"({c.re} {sign} {abs(c.im)}*i)"


@dataclass(frozen=True)
class TorusClosure:
    """Certified equation set for the closure of a weight torus."""
    weights: TorusWeights
    relations: tuple
    relation_equations: tuple
    circle_equations: tuple

    @property
    def equations(self) -> tuple:
        return self.relation_equations + self.circle_equations

    def equation_strings(self):
        return [p.as_string() for p in self.equations]


def _normalize_relation(m):
    last = next((v for v in reversed(m) if v), None)
    if last is not None and last < 0:
        return tuple(-v for v in m)
    return tuple(m)


def _leading_sign_fix(terms: dict) -> dict:
    """The integer terms, negated when the first in reading order is
    negative."""
    if terms[min(terms, key=_display_key)] < 0:
        return {e: -c for e, c in terms.items()}
    return terms


def _power_product(nvars: int, powers) -> dict:
    """{exponents: [re, im]} of prod_j (c_j + i s_j)^e over the (j, e)
    pairs, by the binomial theorem: c_j^(e-k) s_j^k carries C(e, k) i^k."""
    terms = {(0,) * nvars: [1, 0]}
    for j, e in powers:
        row = _binomials(e)
        out = {}
        for exps, (re, im) in terms.items():
            head, tail = exps[:2 * j], exps[2 * j + 2:]
            for k, c in enumerate(row):
                out[head + (e - k, k) + tail] = [re * c, im * c]
                re, im = -im, re
        terms = out
    return terms


# -- the torus substitution ------------------------------------------------------

def _binomials(n: int) -> list:
    """[C(n, 0), ..., C(n, n)], each from the one before: one small
    multiplication and division per entry, where math.comb computes each
    entry on its own and takes seconds once n is in the thousands."""
    row = [1]
    for p in range(n):
        row.append(row[-1] * (n - p) // (p + 1))
    return row


def _block_factor(a: int, b: int) -> dict:
    """{e: integer coefficient of z^e in (z + 1/z)^a (z - 1/z)^b}.

    The product is z^(a+b) f(1/z^2) with f(x) = (1 + x)^a (1 - x)^b, and
    (1 - x^2) f' = ((a - b) - (a + b) x) f gives the coefficients of f in
    one row, each exactly from the two before it:
    (n + 1) c_(n+1) = (a - b) c_n - (a + b - n + 1) c_(n-1), with c_0 = 1
    and c_(-1) = 0.  c_n lands on z^(a+b-2n).
    """
    d = a + b
    out = {d: 1}
    prev, cur = 0, 1
    for n in range(d):
        prev, cur = cur, ((a - b) * cur - (d - n + 1) * prev) // (n + 1)
        out[d - 2 * n - 2] = cur
    return out


def vanishes_on_torus(tw: TorusWeights, poly: MPoly) -> bool:
    """Exact test that a block-coordinate polynomial kills the whole torus.

    On the torus z_j = c_j + i s_j is the Laurent monomial t^(W row j), so
    c_j = (z_j + 1/z_j)/2 and s_j = -i (z_j - 1/z_j)/2.  A term
    coeff * prod_j c_j^a_j s_j^b_j of degree d becomes
    coeff (-i)^B 2^-d prod_j (z_j + 1/z_j)^a_j (z_j - 1/z_j)^b_j with
    B = sum_j b_j.  Scaled by 2^D L (D the top degree, L the lcm of the
    coefficient denominators) each term is a Gaussian integer times the
    integer coefficients of those products: (-i)^B moves the integer parts
    between re and im, block j's factor is one row of a recurrence
    (_block_factor, a_j + b_j steps), and its exponent e lands on
    e * (W row j).  Sums are kept as [re, im] integer pairs per exponent
    tuple of t, and the polynomial vanishes on the torus exactly when every
    pair is zero.

    The blocks are expanded last to first, and after each one the terms
    that agree on the blocks before it are summed, so a binomial relation
    such as Re(z_2^49 z_3^50 - ...) collapses before the next block
    multiplies it out.
    """
    if poly.nvars != 2 * tw.blocks:
        raise InputError("polynomial variable count does not match the blocks")
    top = max(map(sum, poly.terms), default=0)
    scale = lcm(*(q.denominator for c in poly.terms.values()
                  for q in (c.re, c.im)))
    zero = (0,) * tw.params
    # {exponents of the blocks not expanded yet: {t exponent: [re, im]}}
    state = {}
    for exps, coeff in poly.terms.items():
        k = scale << (top - sum(exps))
        re = coeff.re.numerator * (k // coeff.re.denominator)
        im = coeff.im.numerator * (k // coeff.im.denominator)
        for _ in range(sum(exps[1::2]) % 4):
            re, im = im, -re
        state[exps] = {zero: [re, im]}
    for j in reversed(range(tw.blocks)):
        row = tw.rows[j]
        merged = {}
        for exps, laurent in state.items():
            acc = merged.setdefault(exps[:2 * j], {})
            a, b = exps[2 * j], exps[2 * j + 1]
            if not (a or b):
                for key, (re, im) in laurent.items():
                    pair = acc.get(key)
                    if pair is None:
                        acc[key] = [re, im]
                    else:
                        pair[0] += re
                        pair[1] += im
                continue
            for e, c in _block_factor(a, b).items():
                if not c:
                    continue
                shift = tuple(e * w for w in row)
                for key, (re, im) in laurent.items():
                    key = tuple(x + y for x, y in zip(key, shift))
                    pair = acc.get(key)
                    if pair is None:
                        acc[key] = [re * c, im * c]
                    else:
                        pair[0] += re * c
                        pair[1] += im * c
        state = merged
    return not any(re or im for laurent in state.values()
                   for re, im in laurent.values())


def parse_equation(nvars: int, text: str) -> MPoly:
    """Inverse of as_string for real rational coefficients.  The text must
    be ASCII, so that str.isdigit and int() read indices and exponents from
    the digits 0-9 alone."""
    if not text.isascii():
        raise InputError("non-ASCII character %r in polynomial text"
                         % next(ch for ch in text if not ch.isascii()))
    terms = {}
    src = text.replace(" - ", " + -").strip()
    if not src:
        raise InputError("empty polynomial text")
    for chunk in src.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            raise InputError("empty term in polynomial text")
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        coeff = sign
        exps = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise InputError("empty factor in polynomial text")
            if factor[0] in "cs":
                name, caret, power = factor.partition("^")
                kind, idx = name[0], name[1:]
                if not idx.isdigit() or int(idx) < 1:
                    raise InputError(f"bad variable {factor!r}")
                v = 2 * (int(idx) - 1) + (0 if kind == "c" else 1)
                if v >= nvars:
                    raise InputError(f"variable {name} out of range")
                e = 1
                if caret:
                    if not power.isdigit():
                        raise InputError(f"bad exponent in {factor!r}")
                    e = int(power)
                exps[v] += e
            else:
                try:
                    coeff = coeff * Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise InputError(f"bad coefficient {factor!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return MPoly(nvars, terms)


def torus_zariski_closure(tw: TorusWeights) -> TorusClosure:
    """Equations cutting out the closure of the weight torus, verified.

    Each lattice relation m with m @ W = 0 forces the character identity
    prod z_j^{m_j} = 1 on block coordinates z_j = c_j + i s_j; its sides,
    expanded by the binomial theorem, differ by a Gaussian integer
    polynomial whose real and imaginary parts are the equations, and the
    circle equations close the system.  Every emitted polynomial is checked
    to vanish identically under c_j + i s_j -> t^(W row j) as formal Laurent
    monomials, which is the parametrization of the torus itself.
    """
    if not isinstance(tw, TorusWeights):
        tw = TorusWeights(tuple(tw))
    n = tw.blocks
    nvars = 2 * n
    relations = tuple(_normalize_relation(m)
                      for m in integer_left_kernel(tw.rows))

    relation_eqs = []
    for m in relations:
        diff = _power_product(nvars, [(j, e) for j, e in enumerate(m) if e > 0])
        for exps, (re, im) in _power_product(
                nvars, [(j, -e) for j, e in enumerate(m) if e < 0]).items():
            pair = diff.setdefault(exps, [0, 0])
            pair[0] -= re
            pair[1] -= im
        for part in (0, 1):
            terms = {exps: pair[part] for exps, pair in diff.items()
                     if pair[part]}
            if terms:
                relation_eqs.append(MPoly(nvars, _leading_sign_fix(terms)))

    circle_eqs = []
    for j in range(n):
        c2, s2 = ((0,) * (2 * j) + sq + (0,) * (nvars - 2 * j - 2)
                  for sq in ((2, 0), (0, 2)))
        circle_eqs.append(MPoly(nvars, {c2: 1, s2: 1, (0,) * nvars: -1}))

    for eq in relation_eqs + circle_eqs:
        if not vanishes_on_torus(tw, eq):
            raise InternalCheckError(
                "closure equation fails on the torus parametrization")

    return TorusClosure(tw, relations, tuple(relation_eqs), tuple(circle_eqs))
