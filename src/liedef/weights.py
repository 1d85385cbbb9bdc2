"""Weights of solvable-algebra modules by the constructive common-eigenvector
recursion.

The recursion is the classical one: split off a codimension-one ideal
containing the derived subalgebra, take its joint eigenspace, and extend the
character by an eigenvalue of the leftover direction acting on that space.
It is run flat: the chain of such ideals is built once per module, as rref
rows in the acting algebra's own coordinates with no subalgebra built for
any level, and each peel of a common eigenvector walks it from its smallest
ideal up.  The first level of that walk acts on the whole module, so it
reads the action as it is; every later level restricts the action to the
eigenspace found so far.
The invariance of that eigenspace under the whole algebra (the trace
argument behind Lie's theorem, valid in characteristic zero) is not taken on
faith: it is rechecked on every restriction, so misuse on a non-solvable
action fails loudly instead of returning garbage.  Each peel quotients the
module by its eigenvector in closed form (m[j][l] - w_j m[p][l] once w_p is
scaled to 1), without building or inverting a change of basis.

weight_flag is the one peel: it returns the flag of eigenvectors and the
character of each step.  module_weights calls it and tabulates those
characters (_weight_table, which checks them against [g, g] and which
supersolvable_test's adjoint peel also uses when a weight is nonreal), and
a real flag of ideals is the adjoint weight_flag of an algebra whose
weights are real.  Every eigenvalue is picked by one rule: the least real
root when there is one, else the least root in Q(i); a 1x1 matrix is read
as its own eigenvalue, with no characteristic polynomial.

The roots are found once per chain direction z_k and weight_flag call: the
spectrum of z_k on the whole module (its roots in Q(i), with multiplicity)
is factored the first time a peel needs it and carried to the next peel,
less one copy of the eigenvalue of z_k on the vector just peeled.  That is
exact, since the peeled vector is a common eigenvector: the quotient's
characteristic polynomial is the old one divided by (x - lambda_k).  A level
tries the carried roots in the rule's order (real ones ascending, then the
rest by (re, im)) and takes the first whose eigenspace in the level is not
zero.  Every root of a restriction to an invariant subspace is a root of the
whole action, so that is the root the rule picks from the restriction's own
characteristic polynomial, and the eigenspace is the one the peel needs
anyway.

Everything runs over the fixed tower Q < Q(i), real first: the peel runs
over Q and lifts to Q(i) in place at the first nonreal eigenvalue it picks,
so a module with real weights never pays for Gaussian arithmetic (a
character whose eigenvalues are all real is contracted over Q as well).
When a needed eigenvalue lives outside the tower, the computation returns
Indeterminate rather than guessing.  Characters are value rows against the
acting algebra's basis: char[j] is the character evaluated on basis element
j.
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


def _spectrum(b: Mat):
    """The eigenvalues of b in Q(i) as [lam, multiplicity] pairs, in the
    order the peel tries them: real ones ascending, then the rest by
    (re, im)."""
    roots = [[lam, mult] for lam, mult in gaussian_roots(char_poly(b))[0]]
    # gaussian_roots sorts by (re, im), and the sort is stable
    roots.sort(key=lambda root: not root[0].is_real())
    return roots


def _drop_root(spectrum, lam):
    """Take one copy of lam out of a _spectrum list, in place."""
    i = next((i for i, (mu, _) in enumerate(spectrum) if mu == lam), None)
    if i is None:
        raise InternalCheckError(
            "a peeled eigenvalue is missing from the carried spectrum")
    spectrum[i][1] -= 1
    if not spectrum[i][1]:
        del spectrum[i]


def _level_eigenspace(b: Mat, candidates):
    """The first candidate that is an eigenvalue of b, and its eigenspace.

    b is one level's matrix, over Q or Q(i); a nonreal candidate is tried
    on b lifted to Q(i).  Returns (lam, kernel of b - lam), or None when no
    candidate is an eigenvalue of b.
    """
    lifted = None
    for lam in candidates:
        if lam.is_real():
            m, mu = b, lam.re
        else:
            if lifted is None:
                lifted = b.map(gauss)
            m, mu = lifted, lam
        eig = kernel(_shift_diagonal(m, mu))
        if eig:
            return lam, eig
    return None


def _ideal_chain(alg: LieAlgebra):
    """The chain of hyperplane ideals the eigenvector recursion walks.

    alg = g_1 > g_2 > ... > g_n > 0 where g_{k+1} is a codim-1 ideal of g_k
    containing [g_k, g_k] and z_k is the leftover direction, g_k = g_{k+1} +
    span(z_k).  Returns (z_1..z_n in alg's coordinates, the inverse of the
    matrix with columns z_1..z_n); a character is fixed by its values on the
    z_k, and contracting those values against the inverse gives it on alg's
    basis.

    Each g_k is kept as rref rows in alg's coordinates: g_{k+1} is
    [g_k, g_k] (bracketing each pair of rows once, as derived_algebra does
    the basis) completed greedily by g_k's rows, in order, to one row less,
    and z_k is the first row of g_k outside it (any hyperplane above the
    derived subalgebra is an ideal); a non-solvable algebra reaches
    [g_k, g_k] = g_k and raises InputError.  This is the chain of
    materializing each g_k as an algebra on its rows: coordinate i of a
    vector of g_k is its entry at the pivot column of row i, so an rref
    basis in g_k's coordinates lifts to the rref basis of the same span in
    alg's, and every membership test, greedy step and choice of z_k
    decides alike.
    """
    rows = alg.basis()   # the standard basis is already rref
    dirs = []
    while rows:
        hyp = alg._pair_span(rows)
        if len(hyp) == len(rows):
            raise InputError("acting algebra is not solvable")
        for v in rows:
            if len(hyp) == len(rows) - 1:
                break
            if not in_span(hyp, v):
                hyp = span_basis(hyp + [v])
        dirs.append(next(v for v in rows if not in_span(hyp, v)))
        rows = hyp
    return dirs, inverse(Mat.from_cols(dirs))


def common_eigenspace(chain, mats, scalar, spectra):
    """One joint character of the action and its full common eigenspace.

    chain is _ideal_chain of the acting algebra and mats its action on the
    whole module, one matrix per basis element, over the field of scalar
    (Fraction for Q, gauss for Q(i)).  Walking the chain from its smallest
    ideal up, each direction z_k cuts the space down to one of its
    eigenspaces on the common eigenspace of g_{k+1}, which g_k leaves
    invariant.  At the first level that space is the whole module, so the
    action of z_n is read as it is; every later level restricts the action
    to the space found so far, which checks its invariance.

    spectra[k] is the spectrum of z_k on the whole module (_spectrum), or
    None until a level needs it: a 1x1 level is its own eigenvalue, and a
    larger one is filled in here from the action of z_k and tries its
    roots in order (_level_eigenspace).  Returns (char_row,
    eigenspace_basis, lams) with lams[k] the eigenvalue of z_k, or an
    Indeterminate when some level has no eigenvalue in Q(i).

    A nonreal eigenvalue over Q lifts the space to Q(i) where it appears,
    and the eigenspace comes back over Q(i) from then on, every entry a
    GaussRat.
    """
    dirs, inv_z = chain
    n = mats[0].nrows
    if not n:
        raise InternalCheckError("empty module in eigenvector recursion")
    w = None
    lams = [None] * len(dirs)
    for k in reversed(range(len(dirs))):
        b = mat_lincomb(dirs[k], mats, n)
        level = b
        if w is not None:
            try:
                level = restrict_to_span(b, w)
            except InputError:
                raise InternalCheckError(
                    "joint eigenspace is not invariant; the action is not "
                    "from a solvable family") from None
        if level.nrows == 1:
            candidates = (gauss(level.rows[0][0]),)
        else:
            if spectra[k] is None:
                spectra[k] = _spectrum(b)
            candidates = [lam for lam, _ in spectra[k]]
        found = _level_eigenspace(level, candidates)
        if found is None:
            return Indeterminate(
                "an eigenvalue of the action lies outside Q(i), or outside Q "
                "on a direction that must stay rational")
        lam, eig_coords = found
        if not lam.is_real():
            scalar = gauss
            if w is not None:
                w = [tuple(gauss(x) for x in v) for v in w]
        if w is not None:
            w = [lincomb(c, w, n) for c in eig_coords]
        elif scalar is gauss:
            w = [tuple(gauss(x) for x in c) for c in eig_coords]
        else:
            w = eig_coords
        lams[k] = lam
    vals = lams
    if all(lam.is_real() for lam in lams):
        # the same values as over Q(i), without Gaussian products
        vals = [lam.re for lam in lams]
    char = tuple(gauss(sum((lam * r[j] for lam, r in zip(vals, inv_z.rows)
                            if r[j]), Fraction(0)))
                 for j in range(len(dirs)))
    return char, w, lams


def _shift_diagonal(b, mu):
    """b - mu * 1, with the entry types that subtracting mu times a Fraction
    identity gives: an off-diagonal entry becomes a - 0 (an int a Fraction)
    unless it already has the type of that zero."""
    zero = mu * 0
    rows = []
    for i, row in enumerate(b.rows):
        out = [a if type(a) is type(zero) else a - zero for a in row]
        out[i] = row[i] - mu
        rows.append(out)
    return Mat(rows)


def _peel_quotient(mats, w):
    """Quotient the module by the invariant line spanned by w.

    Scaled so that its first nonzero entry w_p is 1, w completes to the
    basis (w, e_j for j != p), whose inverse sends x to (x_p, x_j - w_j
    x_p).  The induced matrix of m is therefore m[j][l] - w_j m[p][l] for
    j, l != p, in the coordinates e_j, j != p: no inverse and no product.
    An entry the line does not change (w_j or m[p][l] is 0) keeps its type.
    Returns the induced matrices and p.
    """
    p = next(j for j, c in enumerate(w) if c)
    wp = w[p]
    scaled = [(j, c / wp) for j, c in enumerate(w) if c and j != p]
    out = []
    for m in mats:
        rows = [list(r) for r in m.rows]
        nz_p = [(l, y) for l, y in enumerate(rows[p]) if y and l != p]
        for j, c in scaled:
            row = rows[j]
            for l, y in nz_p:
                row[l] = row[l] - c * y
        del rows[p]
        out.append(Mat([r[:p] + r[p + 1:] for r in rows]))
    return out, p


def weight_flag(alg: LieAlgebra, mats):
    """A complete invariant flag of a solvable action, with its characters.

    Peels common eigenvectors from the module until it is exhausted; one
    chain of ideals serves every peel, and so does one spectrum per chain
    direction, found when a peel first needs it and, after each peel, less
    the eigenvalue of that direction on the peeled vector (see the module
    docstring for why that is exact).  The module stays over Q until an
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
    spectra = [None] * len(chain[0])
    lift = Mat.identity(cur[0].nrows)
    while cur[0].nrows > 0:
        res = common_eigenspace(chain, cur, scalar, spectra)
        if isinstance(res, Indeterminate):
            return res
        char, eig, lams = res
        w = eig[0]
        if scalar is Fraction and isinstance(w[0], GaussRat):
            scalar = gauss
            cur = [m.map(gauss) for m in cur]
            lift = lift.map(gauss)
        flag_vecs.append(tuple(lift @ w))
        chars.append(char)
        cur, p = _peel_quotient(cur, w)
        lift = Mat([r[:p] + r[p + 1:] for r in lift.rows])
        for spectrum, lam in zip(spectra, lams):
            if spectrum is not None:
                _drop_root(spectrum, lam)
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
    peeled = weight_flag(alg, mats)
    if isinstance(peeled, Indeterminate):
        return peeled
    return _weight_table(alg, peeled[1], mats[0].nrows if mats else 0)


def _weight_table(alg, chars, module_dim):
    """The WeightTable of a peel's characters.

    Each character must vanish on [alg, alg], and the multiplicities must
    sum to module_dim; anything else raises InternalCheckError.
    """
    derived = alg.derived_algebra()
    merged = {}
    for char in chars:
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
    if sum(e.multiplicity for e in entries) != module_dim:
        raise InternalCheckError(
            "weight multiplicities do not sum to the module dimension")
    return WeightTable(alg.dim, module_dim, entries)


def adjoint_weights(alg: LieAlgebra):
    """Weight table of the adjoint module of a solvable algebra."""
    return module_weights(alg, [alg.ad(alg.basis_vector(i))
                                for i in range(alg.dim)])
