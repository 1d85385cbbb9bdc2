"""Closure equations for integer-weight rotation tori.

A one-parameter family of plane rotations with weight row w sweeps the
curve (cos(w.phi), sin(w.phi)) in each block; the group generated by
several parameters is dense in the algebraic subgroup cut out by the
character relations of the weight lattice.  This module computes those
relations through the integer left kernel of the weight matrix and turns
each one into exact binomial equations in the block coordinates, certified
by substituting the circle parametrization: c_j and s_j become
(z_j + 1/z_j)/2 and -i (z_j - 1/z_j)/2 with z_j the Laurent monomial
t^(W row j), and, cleared of denominators, every term expands into integer
Laurent coefficients by binomial coefficients alone (vanishes_on_torus).
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
    exponent tuples to nonzero coefficients.
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

    @staticmethod
    def constant(nvars: int, value) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: gauss(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "MPoly":
        exps = tuple(int(i == index) for i in range(nvars))
        return MPoly(nvars, {exps: GaussRat(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(),
                                              key=lambda kv: kv[0]))))

    def _same_arity(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise InputError("polynomials live in different variable sets")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._same_arity(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, GaussRat(0)) + coeff
        return MPoly(self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        self._same_arity(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, GaussRat(0)) - coeff
        return MPoly(self.nvars, out)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._same_arity(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, GaussRat(0)) + c1 * c2
        return MPoly(self.nvars, out)

    def scale(self, c) -> "MPoly":
        c = gauss(c)
        return MPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def power(self, k: int) -> "MPoly":
        out = MPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def real_part(self) -> "MPoly":
        return MPoly(self.nvars, {e: GaussRat(c.re) for e, c in self.terms.items()})

    def imag_part(self) -> "MPoly":
        return MPoly(self.nvars, {e: GaussRat(c.im) for e, c in self.terms.items()})

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

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
            text = _coeff_str(coeff, bare=not body)
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


def _coeff_str(c: GaussRat, bare: bool) -> str:
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


def _leading_sign_fix(p: MPoly) -> MPoly:
    if not p.terms:
        return p
    c = p.terms[min(p.terms, key=_display_key)]
    if c.re < 0 or (c.re == 0 and c.im < 0):
        return p.scale(-1)
    return p


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
    """{e: integer coefficient of z^e in (z + 1/z)^a (z - 1/z)^b}."""
    out = {}
    minus = _binomials(b)
    for p, cp in enumerate(_binomials(a)):
        for q, cq in enumerate(minus):
            e = a - 2 * p + b - 2 * q
            out[e] = out.get(e, 0) + (-cp * cq if q % 2 else cp * cq)
    return out


def vanishes_on_torus(tw: TorusWeights, poly: MPoly) -> bool:
    """Exact test that a block-coordinate polynomial kills the whole torus.

    On the torus z_j = c_j + i s_j is the Laurent monomial t^(W row j), so
    c_j = (z_j + 1/z_j)/2 and s_j = -i (z_j - 1/z_j)/2.  A term
    coeff * prod_j c_j^a_j s_j^b_j of degree d becomes
    coeff (-i)^B 2^-d prod_j (z_j + 1/z_j)^a_j (z_j - 1/z_j)^b_j with
    B = sum_j b_j.  Scaled by 2^D L (D the top degree, L the lcm of the
    coefficient denominators) each term is a Gaussian integer times
    binomial coefficients: (-i)^B moves the integer parts between re and
    im, and block j's exponent e lands on e * (W row j).  Sums are kept as
    [re, im] integer pairs per exponent tuple of t, and the polynomial
    vanishes on the torus exactly when every pair is zero.

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
    """Inverse of as_string for real rational coefficients."""
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
    prod z_j^{m_j} = 1 on block coordinates z_j = c_j + i s_j; splitting the
    binomial into real and imaginary parts gives rational equations, and the
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
        lhs = MPoly.constant(nvars, 1)
        rhs = MPoly.constant(nvars, 1)
        for j, mj in enumerate(m):
            zj = (MPoly.variable(nvars, 2 * j)
                  + MPoly.variable(nvars, 2 * j + 1).scale(GaussRat(0, 1)))
            if mj > 0:
                lhs = lhs * zj.power(mj)
            elif mj < 0:
                rhs = rhs * zj.power(-mj)
        diff = lhs - rhs
        for part in (diff.real_part(), diff.imag_part()):
            if part:
                relation_eqs.append(_leading_sign_fix(part))

    circle_eqs = []
    for j in range(n):
        cj = MPoly.variable(nvars, 2 * j)
        sj = MPoly.variable(nvars, 2 * j + 1)
        circle_eqs.append(cj * cj + sj * sj - MPoly.constant(nvars, 1))

    for eq in relation_eqs + circle_eqs:
        if not vanishes_on_torus(tw, eq):
            raise InternalCheckError(
                "closure equation fails on the torus parametrization")

    return TorusClosure(tw, relations, tuple(relation_eqs), tuple(circle_eqs))
