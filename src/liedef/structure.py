"""Radical, nilradical, and Levi complements, all with verified postconditions.

Every operation here feeds the definability pipeline, so each one re-checks
its own output before returning: the radical must come back a solvable ideal,
the nilradical a nilpotent ideal containing [g, r], the Levi part a semisimple
complement.  A failure of any of these checks is an InternalCheckError, never
a silently wrong subspace.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError, PreconditionError
from .lie import LieAlgebra
from .linalg import (Mat, char_poly, coords_in_span, in_span,
                     is_semisimple_mat, is_zero_vec, kernel, lincomb, rank,
                     solve, span_basis, trace_product, vadd)
from .poly import purely_imaginary_spectrum


@dataclass(frozen=True)
class LeviDecomposition:
    radical: tuple
    levi: tuple


def radical(g: LieAlgebra):
    """Maximal solvable ideal, as the trace-form orthogonal of [g,g]."""
    derived = g.bracket_span(g.basis(), g.basis())
    if not derived:
        return span_basis(g.basis())
    killing = g.killing_matrix()
    rows = [killing @ d for d in derived]
    rad = span_basis(kernel(Mat(rows)))
    if not g.is_ideal(rad):
        raise InternalCheckError("radical candidate is not an ideal")
    if rad:
        sub, _ = g.subalgebra(rad)
        if not sub.is_solvable():
            raise InternalCheckError("radical candidate is not solvable")
    return rad


def _matrix_hull(mats):
    """Basis of the associative span generated by the matrices."""
    flats = span_basis([m.flatten() for m in mats])
    if not flats:
        return []
    n = mats[0].nrows

    def unflatten(v):
        return Mat([v[i * n:(i + 1) * n] for i in range(n)])

    while True:
        cur = [unflatten(v) for v in flats]
        prods = [(a @ b).flatten() for a in cur for b in cur]
        grown = span_basis(flats + prods)
        if len(grown) == len(flats):
            return [unflatten(v) for v in grown]
        flats = grown


def nilradical(g: LieAlgebra):
    """Largest nilpotent ideal.

    Computed inside the radical r: the associative hull A of ad(r) in gl(r)
    has Jacobson radical equal to the kernel of its trace form (characteristic
    zero), and x lies in the nilradical exactly when ad(x) falls in that
    kernel.  The output is then re-verified inside g.
    """
    rad = radical(g)
    if not rad:
        return []
    rs, incl = g.subalgebra(rad)
    ads = [rs.ad(rs.basis_vector(i)) for i in range(rs.dim)]
    hull = _matrix_hull(ads)
    if hull:
        cond = Mat([[trace_product(ads[k], b) for k in range(rs.dim)]
                    for b in hull])
        coords = kernel(cond)
    else:
        coords = [rs.basis_vector(i) for i in range(rs.dim)]
    nil = span_basis([lincomb(co, incl, g.dim) for co in coords])
    # verified: nilpotent ideal of g that swallows [g, r]
    if not g.is_ideal(nil):
        raise InternalCheckError("nilradical candidate is not an ideal")
    if nil:
        sub, _ = g.subalgebra(nil)
        if not sub.is_nilpotent():
            raise InternalCheckError("nilradical candidate is not nilpotent")
    for v in g.bracket_span(g.basis(), rad):
        if not in_span(nil, v):
            raise InternalCheckError("nilradical misses part of [g, radical]")
    return nil


def _levi_abelian_radical(g: LieAlgebra, rad):
    """Levi complement when [r, r] = 0: one exact linear solve.

    With a linear section sigma of g -> g/r, the bracket defect of sigma is a
    2-cocycle with values in r; a correction h with values in r kills it
    because the relevant cohomology vanishes for a semisimple quotient in
    characteristic zero.  The solver failing would therefore be a bug, not a
    property of the input.
    """
    q, lift, _ = g.quotient(rad)
    if not q.is_semisimple():
        raise InternalCheckError("quotient by the radical is not semisimple")
    m, p, n = q.dim, len(rad), g.dim
    defect = {}
    for j in range(m):
        for k in range(j + 1, m):
            br = g.bracket(lift[j], lift[k])
            target = lincomb(q.table[j][k], lift, n)
            defect[(j, k)] = tuple(a - b for a, b in zip(br, target))
    # unknowns h[j] in r, coordinates against the rad basis: m*p of them;
    # acts[j] is ad(lift[j]) on r in those coordinates
    coords = coords_in_span(rad, [g.ad(x) @ r_vec for x in lift
                                  for r_vec in rad] + list(defect.values()))
    if None in coords:
        raise InternalCheckError("cocycle left the radical")
    acts = [Mat.from_cols(coords[j * p:(j + 1) * p]) for j in range(m)]
    rows = []
    rhs = []
    for c_jk, (j, k) in zip(coords[m * p:], defect):
        aj, ak = acts[j], acts[k]
        # p scalar equations, coefficients of each h[l]
        blocks = []
        for l in range(m):
            col_block = Mat.zeros(p, p)
            if l == k:
                col_block = col_block + aj
            if l == j:
                col_block = col_block - ak
            coeff = q.table[j][k][l]
            if coeff:
                col_block = col_block - coeff * Mat.identity(p)
            blocks.append(col_block)
        for rr in range(p):
            rows.append([blocks[l].rows[rr][cc]
                         for l in range(m) for cc in range(p)])
        rhs.extend(-x for x in c_jk)
    if rows:
        sol = solve(Mat(rows), tuple(rhs))
        if sol is None:
            raise InternalCheckError("Levi correction system is inconsistent")
    else:
        sol = tuple(Fraction(0) for _ in range(m * p))
    levi = []
    for j in range(m):
        h_j = lincomb(sol[j * p:(j + 1) * p], rad, n)
        levi.append(vadd(lift[j], h_j))
    return span_basis(levi)


def levi_subalgebra(g: LieAlgebra) -> LeviDecomposition:
    """Constructive Levi-Malcev splitting, verified before returning."""
    rad = radical(g)
    if not rad:
        levi = span_basis(g.basis())
        return LeviDecomposition(tuple(rad), tuple(levi))
    if len(rad) == g.dim:
        return LeviDecomposition(tuple(rad), ())
    r2 = g.bracket_span(rad, rad)
    if r2:
        # reduce along the derived series of the radical
        q, lift, _ = g.quotient(r2)
        inner = levi_subalgebra(q)
        pre = [lincomb(w, lift, g.dim) for w in inner.levi]
        sub_basis = span_basis(pre + list(r2))
        sub, incl = g.subalgebra(sub_basis)
        deeper = levi_subalgebra(sub)
        levi = span_basis([lincomb(w, incl, g.dim)
                           for w in deeper.levi])
    else:
        levi = _levi_abelian_radical(g, rad)
    _check_levi(g, rad, levi)
    return LeviDecomposition(tuple(rad), tuple(levi))


def _check_levi(g: LieAlgebra, rad, levi):
    if len(rad) + len(levi) != g.dim:
        raise InternalCheckError("Levi part has the wrong dimension")
    if len(span_basis(list(rad) + list(levi))) != g.dim:
        raise InternalCheckError("Levi part does not complement the radical")
    if not g.is_subalgebra(levi):
        raise InternalCheckError("Levi part is not bracket-closed")
    if levi:
        sub, _ = g.subalgebra(levi)
        if not sub.is_semisimple():
            raise InternalCheckError("Levi part is not semisimple")
        killing = g.killing_matrix()
        gram = Mat([[sum(sum(a * killing.rows[i][j] * b
                             for j, b in enumerate(w))
                         for i, a in enumerate(v))
                     for w in levi] for v in levi])
        if rank(gram) != len(levi):
            raise InternalCheckError(
                "ambient trace form degenerates on the Levi part")


def is_torus_like(g: LieAlgebra, vectors) -> bool:
    """True iff the span is abelian with each ad semisimple of purely
    imaginary spectrum (the compact-complement condition)."""
    rows = span_basis(vectors)
    for a in rows:
        for b in rows:
            if not is_zero_vec(g.bracket(a, b)):
                return False
    return all(is_semisimple_mat(ad)
               and purely_imaginary_spectrum(char_poly(ad))
               for ad in map(g.ad, rows))


def commuting_levi(g: LieAlgebra, k_rows):
    """A Levi subalgebra commuting with a given torus-like part of the radical.

    The centralizer of the torus supplies it: the quotient argument shows the
    centralizer's own Levi part complements the radical of g.  Both defining
    properties ([levi, k] = 0 and radical + levi = g) are asserted on every
    call.
    """
    k = span_basis(k_rows)
    rad = radical(g)
    for v in k:
        if not in_span(rad, v):
            raise PreconditionError("torus part must lie in the radical")
    if not is_torus_like(g, k):
        raise PreconditionError(
            "torus part must be abelian with semisimple purely imaginary ad")
    z = span_basis(g.centralizer(k))
    sub, incl = g.subalgebra(z)
    inner = levi_subalgebra(sub)
    levi = span_basis([lincomb(w, incl, g.dim)
                       for w in inner.levi])
    for x in levi:
        for v in k:
            if not is_zero_vec(g.bracket(x, v)):
                raise InternalCheckError("Levi part fails to centralize the torus")
    if len(span_basis(list(rad) + list(levi))) != g.dim:
        raise InternalCheckError("centralizer Levi does not complement the radical")
    return levi
