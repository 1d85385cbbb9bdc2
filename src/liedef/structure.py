"""Radical, nilradical, and Levi complements, all with verified postconditions.

Every operation here feeds the definability pipeline, so each one re-checks
its own output before returning: the radical must come back a solvable ideal,
the nilradical a nilpotent ideal containing [g, r], the Levi part a semisimple
complement.  A failure of any of these checks is an InternalCheckError, never
a silently wrong subspace.

The nilradical is found inside the radical r, which is g itself when g is
solvable, and a nilpotent r is its own nilradical.  Otherwise it is the
trace-form kernel on the associative hull of ad(r), and that hull is
generated by ad(e_i) for e_i in a complement of [r, r] only.  When r = g the
output is checked to contain [g, g] (so it is an ideal holding [g, r]) and
to be nilpotent; when r is a proper ideal, to be an ideal of g, nilpotent,
and to contain [g, r].
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionError
from .lie import LieAlgebra
from .linalg import (Mat, _combine, _gauss_jordan, _reduce_row, _solutions,
                     _sparse_rows, char_poly, coords_in_span,
                     is_semisimple_mat, is_zero_vec, kernel, lincomb, rank,
                     span_basis, trace_product, vadd)
from .poly import purely_imaginary_spectrum


@dataclass(frozen=True)
class LeviDecomposition:
    radical: tuple
    levi: tuple


def radical(g: LieAlgebra):
    """Maximal solvable ideal, as the trace-form orthogonal of [g,g].

    A solvable g, which g._trace_form finds, is its own radical, and the
    ideal and solvability checks of a proper candidate are skipped.
    """
    return _radical(g, *g._trace_form())[0]


def _radical(g: LieAlgebra, derived, rows):
    """(r, [r, r], sub) for the radical r, from the caller's
    g._trace_form() = (derived, rows); rref rows, [r, r] in the coordinates
    of sub = (algebra on r, inclusion): g itself when g is solvable, the
    subalgebra whose trace form proves r solvable, or None when r = 0."""
    if not rows:
        rad = g.basis()
        return rad, derived, (g, rad)
    rad = span_basis(kernel(Mat(rows)))
    if not g.is_ideal(rad):
        raise InternalCheckError("radical candidate is not an ideal")
    if not rad:
        return rad, [], None
    sub = g.subalgebra(rad)
    inner, inner_rows = sub[0]._trace_form()
    if inner_rows:
        raise InternalCheckError("radical candidate is not solvable")
    return rad, inner, sub


def _matrix_hull(mats):
    """Matrices spanning the associative algebra the matrices generate.

    A word of length k + 1 is a word of length k times a generator, so each
    round multiplies only the matrices the last round added, each by every
    generator, and keeps a product when it leaves the span found so far:
    when its flattened entries pivot in one running _reduce_row
    elimination.
    """
    pivots = {}
    hull = []

    def grows(m):
        new = _reduce_row(pivots, _sparse_rows([m.flatten()])[0], [])
        if new:
            hull.append(m)
        return new

    frontier = [m for m in mats if grows(m)]
    while frontier:
        frontier = [prod for m in frontier for s in mats
                    for prod in (m @ s,) if grows(prod)]
    return hull


def nilradical(g: LieAlgebra):
    """Largest nilpotent ideal, as canonical rref rows.

    Computed inside the radical r, which is g itself when g is solvable; a
    nilpotent r is its own answer.  Otherwise the associative hull A of
    ad(r) in gl(r) has Jacobson radical equal to the kernel of its trace
    form (characteristic zero), and x lies in the nilradical exactly when
    tr(ad(x) a) = 0 for every a in A.  The hull is generated by ad(e_i) for
    the basis vectors e_i off the pivots of [r, r] only: they span a
    complement of [r, r], and a word with a letter from ad([r, r]) is
    strictly triangular in a basis that triangularizes ad(r) (Lie's
    theorem), so it adds no trace condition.

    The output is re-verified inside g.  When r = g it must contain [g, g],
    which makes it an ideal holding [g, r], and be nilpotent.  When r is a
    proper ideal it must be an ideal of g, be nilpotent and contain [g, r].
    """
    rad, derived, sub = _radical(g, *g._trace_form())
    if not rad:
        return []
    # derived is [r, r] in the coordinates of rs
    rs, incl = sub
    if rs.is_nilpotent():
        return rad
    pivots = {next(j for j, c in enumerate(v) if c) for v in derived}
    ads = [rs.ad(rs.basis_vector(i)) for i in range(rs.dim)]
    # not empty: were ad zero on a complement of [r, r], r would be abelian
    hull = _matrix_hull([ads[i] for i in range(rs.dim) if i not in pivots])
    coords = kernel(Mat([[trace_product(a, b) for a in ads] for b in hull]))
    nil = span_basis([lincomb(co, incl, g.dim) for co in coords])
    if rs is g:
        # a subspace that holds [g, g] is an ideal, and [g, r] = [g, g]
        if None in coords_in_span(nil, derived):
            raise InternalCheckError("nilradical misses part of [g, radical]")
    else:
        if not g.is_ideal(nil):
            raise InternalCheckError("nilradical candidate is not an ideal")
        if None in coords_in_span(nil, [g.bracket(g.basis_vector(i), v)
                                        for i in range(g.dim) for v in rad]):
            raise InternalCheckError("nilradical misses part of [g, radical]")
    if nil:
        sub, _ = g.subalgebra(nil)
        if not sub.is_nilpotent():
            raise InternalCheckError("nilradical candidate is not nilpotent")
    return nil


def _levi_abelian_radical(g: LieAlgebra, rad):
    """Levi complement when [r, r] = 0: one exact linear solve.

    With a linear section sigma of g -> g/r, the bracket defect of sigma is a
    2-cocycle with values in r; a correction h with values in r kills it
    because the relevant cohomology vanishes for a semisimple quotient in
    characteristic zero.  The equations for h, p per pair of lifts, go as
    sparse rows to one elimination, whose particular solution (free
    variables zero) is taken.  The solver failing would therefore be a bug,
    not a property of the input.
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
    # unknowns h[j] in r, coordinates against the rad basis: m*p of them,
    # h[l] at columns l*p..l*p+p-1; acts[j] is ad(lift[j]) on r in those
    # coordinates, as sparse rows
    coords = coords_in_span(rad, [g.ad(x) @ r_vec for x in lift
                                  for r_vec in rad] + list(defect.values()))
    if None in coords:
        raise InternalCheckError("cocycle left the radical")
    acts = [_sparse_rows(zip(*coords[j * p:(j + 1) * p])) for j in range(m)]
    rows = []
    rhs = []
    for c_jk, (j, k) in zip(coords[m * p:], defect):
        # p equations ad(lift_j) h_k - ad(lift_k) h_j - sum_l c_jk^l h_l
        # = -c_jk, one per coordinate rr
        for rr in range(p):
            rows.append(_combine(
                [(1, {k * p + cc: x for cc, x in acts[j][rr].items()}),
                 (-1, {j * p + cc: x for cc, x in acts[k][rr].items()})]
                + [(-c, {l * p + rr: 1})
                   for l, c in enumerate(q.table[j][k])]))
            rhs.append(-c_jk[rr])
    pivots, bad = _gauss_jordan(rows, m * p, [rhs])
    if bad:
        raise InternalCheckError("Levi correction system is inconsistent")
    sol = _solutions(pivots, bad, m * p, 1)[0]
    levi = []
    for j in range(m):
        h_j = lincomb(sol[j * p:(j + 1) * p], rad, n)
        levi.append(vadd(lift[j], h_j))
    return span_basis(levi)


def levi_subalgebra(g: LieAlgebra) -> LeviDecomposition:
    """Constructive Levi-Malcev splitting, verified before returning."""
    rad = radical(g)
    if not rad:
        return LeviDecomposition(tuple(rad), tuple(g.basis()))
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
    for ad in map(g.ad, rows):
        cp = char_poly(ad)
        if not (is_semisimple_mat(ad, cp) and purely_imaginary_spectrum(cp)):
            return False
    return True


def commuting_levi(g: LieAlgebra, k_rows):
    """A Levi subalgebra commuting with a given torus-like part of the radical.

    The centralizer of the torus supplies it: the quotient argument shows the
    centralizer's own Levi part complements the radical of g.  Both defining
    properties ([levi, k] = 0 and radical + levi = g) are asserted on every
    call.
    """
    k = span_basis(k_rows)
    rad = radical(g)
    if None in coords_in_span(rad, k):
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
