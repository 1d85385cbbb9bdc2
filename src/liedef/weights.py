"""Weights of solvable-algebra modules by the constructive common-eigenvector
recursion.

The recursion is the classical one: split off a codimension-one ideal
containing the derived subalgebra, take its joint eigenspace, and extend the
character by an eigenvalue of the leftover direction acting on that space.
It is run flat: the chain of such ideals is built once per module and each
peel of a common eigenvector walks it from its smallest ideal up.
The invariance of the eigenspace under the whole algebra (the trace argument
behind Lie's theorem, valid in characteristic zero) is not taken on faith: it
is rechecked on every restriction, so misuse on a non-solvable action fails
loudly instead of returning garbage.

weight_flag is the one peel: it returns the flag of eigenvectors and the
character of each step.  module_weights tabulates those characters, and a
real flag of ideals is the adjoint weight_flag of an algebra whose weights
are real.  Every eigenvalue is picked by one rule: the least real root when
there is one, else the least root in Q(i).  Everything runs over the fixed
tower Q < Q(i), real first: the peel runs over Q and lifts to Q(i) in place
at the first nonreal eigenvalue it picks, so a module with real weights
never pays for Gaussian arithmetic.  When a needed eigenvalue lives outside
the tower, the computation returns Indeterminate rather than guessing.
Characters are value rows against the acting algebra's basis: char[j] is the
character evaluated on basis element j.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Indeterminate, InputError, InternalCheckError
from .lie import LieAlgebra
from .linalg import (Mat, char_poly, in_span, inverse, kernel, lincomb,
                     mat_lincomb, restrict_to_span, span_basis)
from .poly import gaussian_roots
from .scalars import GaussRat, gauss


@dataclass(frozen=True)
class WeightEntry:
    values: tuple          # GaussRat value on each basis element of the algebra
    multiplicity: int
    real: bool


@dataclass(frozen=True)
class WeightTable:
    algebra_dim: int
    module_dim: int
    entries: tuple

    def all_real(self) -> bool:
        return all(e.real for e in self.entries)

    def nonreal(self):
        return [e for e in self.entries if not e.real]

    def is_zero(self) -> bool:
        return all(all(not v for v in e.values) for e in self.entries)


def _complete_hyperplane(alg: LieAlgebra):
    """A codim-1 ideal containing [g,g] (as rref rows), plus a leftover basis
    direction.  Any hyperplane above the derived subalgebra is an ideal."""
    derived = alg.bracket_span(alg.basis(), alg.basis())
    if len(derived) >= alg.dim:
        raise InputError("acting algebra is not solvable")
    rows = list(derived)
    for i in range(alg.dim):
        if len(rows) == alg.dim - 1:
            break
        cand = alg.basis_vector(i)
        if not in_span(rows, cand):
            rows = span_basis(rows + [cand])
    z = next((v for v in alg.basis() if not in_span(rows, v)), None)
    if z is None:
        raise InternalCheckError("hyperplane completion failed")
    return rows, z


def _pick_root(b: Mat):
    """The least real eigenvalue of b, else its least one in Q(i), else None.

    gaussian_roots sorts its roots by (re, im), so both are first matches.
    """
    roots = [lam for lam, _ in gaussian_roots(char_poly(b))[0]]
    return next((lam for lam in roots if lam.is_real()),
                roots[0] if roots else None)


def _ideal_chain(alg: LieAlgebra):
    """The chain of hyperplane ideals the eigenvector recursion walks.

    alg = g_1 > g_2 > ... > g_n > 0 where g_{k+1} is a codim-1 ideal of g_k
    containing [g_k, g_k] and z_k is the leftover direction, g_k = g_{k+1} +
    span(z_k).  Returns (z_1..z_n in alg's coordinates, the inverse of the
    matrix with columns z_1..z_n); a character is fixed by its values on the
    z_k, and contracting those values against the inverse gives it on alg's
    basis.
    """
    dirs = []
    sub, lift = alg, Mat.identity(alg.dim)
    while sub.dim:
        hyp, z = _complete_hyperplane(sub)
        dirs.append(lift @ z)
        if not hyp:
            break
        sub, incl = sub.subalgebra(hyp)
        lift = Mat.from_cols([lift @ row for row in incl])
    return dirs, inverse(Mat.from_cols(dirs))


def common_eigenspace(chain, mats, space):
    """One joint character of the action and its full common eigenspace.

    chain is _ideal_chain of the acting algebra and mats its action, one
    matrix per basis element; space is a basis of an invariant subspace of
    the module.  Walking the chain from its smallest ideal up, each
    direction z_k cuts the space down to one of its eigenspaces on the
    common eigenspace of g_{k+1}, which g_k leaves invariant, picking its
    eigenvalue by _pick_root.  Returns (char_row, eigenspace_basis), or an
    Indeterminate when some restriction has no eigenvalue in Q(i).

    The space may be over Q or Q(i).  A nonreal eigenvalue lifts the
    restricted matrix and the space to Q(i) where it appears, and the
    eigenspace comes back over Q(i) from then on.
    """
    dirs, inv_z = chain
    if not space:
        raise InternalCheckError("empty module in eigenvector recursion")
    w = list(space)
    lams = []
    for z in reversed(dirs):
        try:
            b = restrict_to_span(mat_lincomb(z, mats, mats[0].nrows), w)
        except InputError:
            raise InternalCheckError(
                "joint eigenspace is not invariant; the action is not from a "
                "solvable family") from None
        lam = _pick_root(b)
        if lam is None:
            return Indeterminate(
                "an eigenvalue of the action lies outside Q(i), or outside Q "
                "on a direction that must stay rational")
        if lam.is_real():
            mu = lam.re
        else:
            mu = lam
            b = b.map(gauss)
            w = [tuple(gauss(x) for x in v) for v in w]
        eig_coords = kernel(b - mu * Mat.identity(len(w)))
        if not eig_coords:
            raise InternalCheckError("chosen eigenvalue has no eigenvector")
        w = [lincomb(k, w, len(space[0])) for k in eig_coords]
        lams.append(lam)
    lams.reverse()
    n = len(dirs)
    char = tuple(sum((lams[k] * inv_z.rows[k][j] for k in range(n)),
                     gauss(0)) for j in range(n))
    return char, w


def _units(d, scalar):
    return [tuple(scalar(int(i == j)) for j in range(d)) for i in range(d)]


def _peel_quotient(mats, w, scalar):
    """Quotient the module by the invariant line spanned by w.

    Returns the induced matrices and the basis-change matrix T whose columns
    are (w, completion); quotient coordinates are the completion columns,
    unit vectors built with scalar (Fraction or gauss).
    """
    rows = span_basis([w])
    pivot = next(j for j, c in enumerate(rows[0]) if c)
    units = _units(len(w), scalar)
    completion = [rows[0]] + units[:pivot] + units[pivot + 1:]
    t = Mat.from_cols(completion)
    inv_t = inverse(t)
    out = []
    for m in mats:
        conj = inv_t @ m @ t
        out.append(Mat([r[1:] for r in conj.rows[1:]]))
    return out, t


def weight_flag(alg: LieAlgebra, mats):
    """A complete invariant flag of a solvable action, with its characters.

    Peels common eigenvectors from the module until it is exhausted; one
    chain of ideals serves every peel.  The module stays over Q until an
    eigenvector comes back over Q(i); from that peel on the quotient
    matrices and the lift to module coordinates are kept over Q(i), so the
    flag holds GaussRat entries exactly when some weight is nonreal.
    mats are Mat, one per basis element.  Returns (flag_vectors,
    characters) with flag vectors in module coordinates (prefix spans give
    an invariant flag) and one character per vector, or an Indeterminate.
    """
    if not mats:
        return [], []
    chain = _ideal_chain(alg)
    cur = list(mats)
    scalar = Fraction
    flag_vecs = []
    chars = []
    lift = Mat.identity(cur[0].nrows)
    while cur[0].nrows > 0:
        res = common_eigenspace(chain, cur, _units(cur[0].nrows, scalar))
        if isinstance(res, Indeterminate):
            return res
        char, eig = res
        w = eig[0]
        if scalar is Fraction and isinstance(w[0], GaussRat):
            scalar = gauss
            cur = [m.map(gauss) for m in cur]
            lift = lift.map(gauss)
        flag_vecs.append(tuple(lift @ w))
        chars.append(char)
        cur, t = _peel_quotient(cur, w, scalar)
        if t.ncols > 1:
            lift = lift @ Mat.from_cols([t.col(j) for j in range(1, t.ncols)])
    return flag_vecs, chars


def module_weights(alg: LieAlgebra, mats):
    """Composition-series weight table of a solvable action, over Q(i).

    Tabulates the characters of weight_flag; they do not depend on the order
    of the peel.  Returns a WeightTable or an Indeterminate.  Weights are
    checked to vanish on the derived subalgebra and multiplicities to sum to
    the module dimension.  A non-solvable algebra raises InputError: every
    ideal of the chain contains the perfect term of its derived series, so
    the chain stops there before any peel.
    """
    mats = [m if isinstance(m, Mat) else Mat(m) for m in mats]
    if len(mats) != alg.dim:
        raise InputError("one action matrix per basis element is required")
    dim0 = mats[0].nrows if mats else 0
    peeled = weight_flag(alg, mats)
    if isinstance(peeled, Indeterminate):
        return peeled
    derived = alg.bracket_span(alg.basis(), alg.basis())
    merged = {}
    for char in peeled[1]:
        for dvec in derived:
            val = sum((c * x for c, x in zip(char, dvec)), gauss(0))
            if val:
                raise InternalCheckError(
                    "weight does not vanish on the derived subalgebra")
        merged[char] = merged.get(char, 0) + 1
    entries = tuple(
        WeightEntry(values, mult, all(v.is_real() for v in values))
        for values, mult in sorted(
            merged.items(),
            key=lambda kv: tuple((v.re, v.im) for v in kv[0])))
    if sum(e.multiplicity for e in entries) != dim0:
        raise InternalCheckError(
            "weight multiplicities do not sum to the module dimension")
    return WeightTable(alg.dim, dim0, entries)


def adjoint_weights(alg: LieAlgebra):
    """Weight table of the adjoint module of a solvable algebra."""
    return module_weights(alg, [alg.ad(alg.basis_vector(i))
                                for i in range(alg.dim)])
