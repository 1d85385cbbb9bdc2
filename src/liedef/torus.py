"""Closure equations for integer-weight rotation tori.

A one-parameter family of plane rotations with weight row w sweeps the
curve (cos(w.phi), sin(w.phi)) in each block; the group generated by
several parameters is dense in the algebraic subgroup cut out by the
character relations of the weight lattice.  This module computes those
relations through the integer left kernel of the weight matrix.  A
relation m says prod_j z_j^m_j = 1 for z_j = c_j + i s_j; its two sides are
written out term by term by the binomial theorem, in integers, and the real
and imaginary parts of their difference are its equations: a term of
s-degree K carries i^K, so it is real for even K and imaginary for odd K.
An equation is a dict {exponent tuple: integer coefficient} over c1, s1,
..., cn, sn, printed by equation_string.  The relation lattice
L = {m : m W = 0} is a kernel, so it is saturated, and on the circles
c_j^2 + s_j^2 = 1 the two equations of m vanish exactly when z^m = 1: the
circles and the equations of a basis of L cut out the set
{z : z^m = 1 for all m in L}, which is the image of t -> e^(iWt) (Eisenbud
and Sturmfels, "Binomial ideals", Duke Math. J. 84, 1996).  The closure is
proved by the certificate checker before it is returned: the checker
confirms that the relations are a basis of L, writes the equations of
those relations afresh with its own writer, and compares the text.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, prod

from .errors import InputError, InternalCheckError, UnsupportedError
from .linalg import integer_left_kernel


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


def equation_string(nvars: int, terms: dict) -> str:
    """An equation {exponents: coefficient} over c1, s1, ..., as text:
    higher degree first, then larger exponents from c1 on, each
    coefficient printed by str; "0" when there are no terms."""
    if not terms:
        return "0"
    names = [f"{v}{j + 1}" for j in range(nvars // 2) for v in "cs"]
    parts = []
    for exps in sorted(terms, key=_display_key):
        c = terms[exps]
        body = "*".join(names[v] if e == 1 else f"{names[v]}^{e}"
                        for v, e in enumerate(exps) if e)
        text = str(abs(c))
        if body:
            text = body if text == "1" else f"{text}*{body}"
        parts.append((" - " if c < 0 else " + ") + text)
    out = "".join(parts)
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


def _display_key(exps):
    return (-sum(exps), tuple(-e for e in exps))


@dataclass(frozen=True)
class TorusClosure:
    """Certified equation set for the closure of a weight torus; each
    equation is a dict {exponents: integer coefficient}."""
    weights: TorusWeights
    relations: tuple
    relation_equations: tuple
    circle_equations: tuple

    @property
    def equations(self) -> tuple:
        return self.relation_equations + self.circle_equations

    def equation_strings(self):
        nvars = 2 * self.weights.blocks
        return [equation_string(nvars, terms) for terms in self.equations]


def _normalize_relation(m):
    last = next((v for v in reversed(m) if v), None)
    if last is not None and last < 0:
        return tuple(-v for v in m)
    return tuple(m)


def _power_product(nvars: int, powers) -> dict:
    """{exponents: integer} of prod_j (c_j + s_j)^e over the (j, e) pairs,
    by the binomial theorem: c_j^(e-k) s_j^k takes C(e, k).  In
    prod_j (c_j + i s_j)^e the same term carries i^K as well, K its
    s-degree."""
    terms = {(0,) * nvars: 1}
    for j, e in powers:
        row = _binomials(e)
        out = {}
        for exps, c in terms.items():
            head, tail = exps[:2 * j], exps[2 * j + 2:]
            for k, b in enumerate(row):
                out[head + (e - k, k) + tail] = c * b
        terms = out
    return terms


def _binomials(n: int) -> list:
    """[C(n, 0), ..., C(n, n)], each from the one before: one small
    multiplication and division per entry, where math.comb computes each
    entry on its own and takes seconds once n is in the thousands."""
    row = [1]
    for p in range(n):
        row.append(row[-1] * (n - p) // (p + 1))
    return row


def _prints(side, limit: int) -> bool:
    """Whether the largest coefficient of prod_j (c_j + i s_j)^e over the
    exponents e of side, prod_j C(e, e // 2), has at most limit digits,
    the most that str prints.  C(e, e // 2) >= 2^e / (e + 1), and
    10^limit < 2^(4 limit), so a side whose bound reaches 2^(4 limit)
    fails without its binomials being computed."""
    if sum(e - (e + 1).bit_length() for e in side) >= 4 * limit:
        return False
    return prod(comb(e, e // 2) for e in side) < 10 ** limit


def torus_zariski_closure(tw: TorusWeights) -> TorusClosure:
    """Equations cutting out the closure of the weight torus, verified.

    Each lattice relation m with m @ W = 0 forces the character identity
    prod z_j^{m_j} = 1 on block coordinates z_j = c_j + i s_j; its sides,
    expanded by the binomial theorem, differ by a Gaussian integer
    polynomial whose real and imaginary parts are the equations, and the
    circle equations close the system.  Before it is returned, the closure's
    certificate goes through verify_certificate, which checks that the
    relations are a basis of the relation lattice and writes their
    equations again with the checker's own writer; a rejected certificate
    raises InternalCheckError naming the clause.  A relation whose
    coefficients str cannot print (sys.get_int_max_str_digits, 0 for no
    limit) raises UnsupportedError before anything is written.
    """
    if not isinstance(tw, TorusWeights):
        tw = TorusWeights(tuple(tw))
    n = tw.blocks
    nvars = 2 * n
    relations = tuple(_normalize_relation(m)
                      for m in integer_left_kernel(tw.rows))
    # Python before 3.10.7 has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for m in relations:
        if limit and not all(_prints([sign * e for e in m if sign * e > 0],
                                     limit) for sign in (1, -1)):
            raise UnsupportedError(
                "relation %s has a closure coefficient of more than %d "
                "digits, which Python's int-to-str limit does not print"
                % (list(m), limit))

    relation_eqs = []
    for m in relations:
        # a term of s-degree K carries i^K: 1, i, -1, -i for K = 0, 1, 2, 3
        # mod 4, so it is real for even K and imaginary for odd K
        parts = ({}, {})
        for sign in (1, -1):
            powers = [(j, sign * e) for j, e in enumerate(m) if sign * e > 0]
            for exps, c in _power_product(nvars, powers).items():
                k = sum(exps[1::2])
                part = parts[k & 1]
                part[exps] = part.get(exps, 0) + (-sign * c if k & 2
                                                  else sign * c)
        for part in parts:
            terms = {exps: c for exps, c in part.items() if c}
            if terms:
                # negated when the first term in reading order is negative
                if terms[min(terms, key=_display_key)] < 0:
                    terms = {exps: -c for exps, c in terms.items()}
                relation_eqs.append(terms)

    circle_eqs = []
    for j in range(n):
        c2, s2 = ((0,) * (2 * j) + sq + (0,) * (nvars - 2 * j - 2)
                  for sq in ((2, 0), (0, 2)))
        circle_eqs.append({c2: 1, s2: 1, (0,) * nvars: -1})

    tc = TorusClosure(tw, relations, tuple(relation_eqs), tuple(circle_eqs))
    # certs imports this module, so the checker is imported here
    from .certs import emit_torus_equations, verify_certificate
    report = verify_certificate(emit_torus_equations(tc), weights=tw)
    if not report.ok:
        raise InternalCheckError("closure certificate rejected at %s: %s"
                                 % (report.clause, report.detail))
    return tc
