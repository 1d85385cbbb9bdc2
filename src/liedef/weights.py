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
eigenspace found so far.  A restriction needs no elimination: each basis
vector of that eigenspace is 1 at one module coordinate and 0 at the
others' (a null vector of an elimination is 1 at its free column and 0 at
the other free columns, and lifting null vectors of a level through the
basis below keeps that), so the coordinates of an image are its entries
there.  The invariance of that eigenspace under the whole algebra (the
trace argument behind Lie's theorem, valid in characteristic zero) is not
taken on faith: every image is checked to be the combination those
coordinates give, so misuse on a non-solvable action fails loudly instead
of returning garbage.  Each peel quotients the
module by its eigenvector in closed form (m[j][l] - w_j m[p][l] once w_p is
scaled to 1), without building or inverting a change of basis.

The module stays sparse from entry to exit, in linalg's sparse rows
({column: entry} dicts of the nonzero entries).  The action of each chain
direction z_k, B_k = sum_i z_k[i] M_i, is formed once per _weight_flag
call by linalg._combine, row by row, as a {row: sparse row} dict keyed by module
coordinate (the adjoint module reads ad(z_k) off the structure constants
instead, _adjoint_actions), and each peel quotients those in place (the
quotient is linear, so it is the same as quotienting the basis actions and
combining them).
An eigenspace found so far is lifted by _combine too.  A peel drops one
coordinate, so the coordinates left are the lift back to the module, and a
flag vector is read off the eigenvector's own entries.  A level's shifted
rows go straight to the one sparse elimination of linalg; only a
characteristic polynomial densifies its matrix.  Once the eigenspace
found so far is one vector v, every later level is 1x1: its eigenvalue is
(b v)_p / v_p at a nonzero entry p of v, and b v = lambda v is checked
exactly in place of a restriction.

_weight_flag is the one peel: it returns the flag of eigenvectors and the
character of each step.  weight_flag returns its whole flag; module_weights
tabulates its characters (_weight_table, which checks them against the
[g, g] of the peel's chain and which supersolvable_test's adjoint peel also
uses when a weight is nonreal), and a real flag of ideals is the adjoint
peel of an algebra whose weights are real.  _weight_flag runs the peel on a
chain its caller has already built, above the [g, g] the caller holds, so
one chain serves every module of an algebra.  Every eigenvalue is picked by
one rule: the least real root when there is one, else the least root in
Q(i).

Most levels are read off their entries, with no characteristic polynomial.
A direction z_k that acts as zero on the module left to peel has eigenvalue
0 on the whole space found so far, which it keeps; its quotients act as
zero too, so it never needs a spectrum again.  A level that restricts to
zero is read the same way.  A 1x1 level is its own eigenvalue.  A level
that is upper or lower triangular in its own coordinates has its diagonal
entries as eigenvalues, so the rule's pick is the least of them in the
rule's order, and one elimination gives its eigenspace.  A level of two
vectors with rational entries, such as a rotation pair, has the roots of
t^2 - tr t + det as eigenvalues: with D = tr^2 - 4 det they are
(tr -+ sqrt D)/2 when D is a rational square, (tr -+ i sqrt(-D))/2 when -D
is, and they lie outside Q(i) otherwise (_two_vector_roots).  The least
of them in the rule's order is the pick, as below, since every root of
the level is a root of the whole action.

Only the other levels factor: three or more vectors, or two with Q(i)
entries (above a nonreal pick in the same walk, or on weight_flag's
lifted module).  Their roots are found once per chain
direction z_k and weight_flag call: the spectrum of z_k on the module left
to peel (its roots in Q(i), with multiplicity) is factored the first time
such a level needs it and carried to the next peel, less one copy of the
eigenvalue of z_k on the vector just peeled.  That is exact, since the
peeled vector is a common eigenvector: the quotient's characteristic
polynomial is the old one divided by (x - lambda_k).  Such a level tries the
carried roots in the rule's order (real ones ascending, then the rest by
(re, im)) and takes the first whose eigenspace in the level is not zero.
Every root of a restriction to an invariant subspace is a root of the whole
action, so that is the root the rule picks from the restriction's own
characteristic polynomial (and the least diagonal entry of a triangular
level), and the eigenspace is the one the peel needs anyway.

Everything runs over the fixed tower Q < Q(i), real first: the peel runs
over Q, so a module with real weights never pays for Gaussian arithmetic
(a character whose eigenvalues are all real is contracted over Q as well).
weight_flag's full flag lifts to Q(i) in place at the first nonreal
eigenvalue it picks, and holds GaussRat entries from that peel on and
Fraction entries before it.  Every other caller reads only the weights
once one is nonreal, so on a real module the peel stays over Q past it:
with E (dim e) the full common eigenspace of a nonreal character chi, it
records e copies of chi and of its conjugate and quotients the module by
the 2e rational vectors Re v, Im v (v in E).  That is exact.  The module
is real, so the conjugate of E is the common eigenspace of the conjugate
character, which differs from chi, and E + conj(E) is the
complexification of that real span, an invariant subspace whose weights
are chi and its conjugate e times each.  By Jordan-Holder the weights of
the module are those and the weights of the quotient, with multiplicity,
and each carried spectrum loses e copies of lambda_k and of its conjugate.
So the table, and the Indeterminate when some weight is outside Q(i), are
the full peel's.  When a needed eigenvalue lives outside the tower, the
computation returns Indeterminate rather than guessing.  Characters are
value rows against the acting algebra's basis: char[j] is the character
evaluated on basis element j.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import Indeterminate, InputError, InternalCheckError
from .lie import LieAlgebra
from .linalg import (Mat, _combine, _gauss_jordan, _independent, _null_space,
                     _sparse_axpy, _sparse_rows, char_poly, inverse)
from .poly import gaussian_roots
from .scalars import GaussRat, _field, gauss

NOT_INVARIANT = ("joint eigenspace is not invariant; the action is not "
                 "from a solvable family")


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


def _rule_key(lam):
    """The order the peel's rule tries eigenvalues in: real ones
    ascending, then the rest by (re, im)."""
    return not lam.is_real(), lam.re, lam.im


def _spectrum(b):
    """The eigenvalues of the action b in Q(i) as [lam, multiplicity]
    pairs, in the rule's order (_rule_key)."""
    zero = Fraction(0)
    dense = Mat([[row.get(j, zero) for j in b] for row in b.values()])
    roots = [[lam, mult] for lam, mult in gaussian_roots(char_poly(dense))[0]]
    roots.sort(key=lambda root: _rule_key(root[0]))
    return roots


def _is_triangular(level):
    """Whether a level, one {column: entry} dict per row, is upper or lower
    triangular in its own coordinates."""
    return (all(j >= i for i, row in enumerate(level) for j in row)
            or all(j <= i for i, row in enumerate(level) for j in row))


def _rational_sqrt(x):
    """The square root of a rational x >= 0, or None when it is not
    rational: x = n/d in lowest terms is a square exactly when n and d
    are."""
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


def _two_vector_roots(level):
    """The eigenvalues in Q(i) of a level of two vectors with Fraction
    entries, the roots of t^2 - tr t + det, in the rule's order
    (_rule_key), a double root once.

    With D = tr^2 - 4 det they are (tr -+ sqrt D)/2 when D is a rational
    square and (tr -+ i sqrt(-D))/2 when -D is; D is rational, so the
    roots lie in Q(i) only then, and otherwise there are none.
    """
    zero = Fraction(0)
    a, b = level[0].get(0, zero), level[0].get(1, zero)
    c, d = level[1].get(0, zero), level[1].get(1, zero)
    tr = a + d
    disc = tr * tr - 4 * (a * d - b * c)
    s = _rational_sqrt(abs(disc))
    if s is None:
        return []
    if not disc:
        return [GaussRat(tr / 2)]
    if disc > 0:
        return [GaussRat((tr - s) / 2), GaussRat((tr + s) / 2)]
    return [GaussRat(tr / 2, -s / 2), GaussRat(tr / 2, s / 2)]


def _drop_root(spectrum, lam):
    """Take one copy of lam out of a _spectrum list, in place."""
    i = next((i for i, (mu, _) in enumerate(spectrum) if mu == lam), None)
    if i is None:
        raise InternalCheckError(
            "a peeled eigenvalue is missing from the carried spectrum")
    spectrum[i][1] -= 1
    if not spectrum[i][1]:
        del spectrum[i]


def _level_eigenspace(level, candidates):
    """The first candidate that is an eigenvalue of a level, its
    eigenspace, and the free columns of that eigenspace.

    level is the level's matrix as one {column: entry} dict per row, over
    Q or Q(i).  Each candidate's shifted rows, level - lam, go to one
    elimination.  Returns (lam, null space of level - lam, free columns),
    null vector t being 1 at free column t and 0 at the others, or None
    when no candidate is an eigenvalue of the level.
    """
    d = len(level)
    for lam in candidates:
        mu = lam.re if lam.is_real() else lam
        shifted = []
        for i, row in enumerate(level):
            row = dict(row)
            x = row[i] - mu if i in row else -mu
            if x:
                row[i] = x
            else:
                row.pop(i, None)
            shifted.append(row)
        pivots, _ = _gauss_jordan(shifted, d, ())
        if len(pivots) < d:
            return (lam, _null_space(pivots, d),
                    [c for c in range(d) if c not in pivots])
    return None


def _ideal_chain(alg: LieAlgebra, derived):
    """The chain of hyperplane ideals the eigenvector recursion walks.

    alg = g_1 > g_2 > ... > g_n > 0 where g_{k+1} is a codim-1 ideal of g_k
    containing [g_k, g_k] and z_k is the leftover direction, g_k = g_{k+1} +
    span(z_k).  Returns (z_1..z_n in alg's coordinates, the inverse of the
    matrix with columns z_1..z_n, [alg, alg]); a character is fixed by its
    values on the z_k, and contracting those values against the inverse
    gives it on alg's basis.  derived is [alg, alg], the first level's
    [g_1, g_1], as the rref rows its caller already holds (derived_algebra,
    or the first step of the derived series that LieAlgebra._trace_form
    reads), and the chain hands it back unchanged.

    Each g_k is kept as rref rows in alg's coordinates, and [g_k, g_k] below
    g_1 is read by bracketing each pair of rows once.  A greedy completion of
    [g_k, g_k] by the rows of g_k picks dim g_k - dim [g_k, g_k] of them; a
    non-solvable algebra reaches [g_k, g_k] = g_k, where it would pick
    none, and raises InputError.  g_{k+1} is [g_k, g_k] completed by every
    picked row but the last, and z_k is the last (any hyperplane above the
    derived subalgebra is an ideal): every earlier row lies in g_{k+1}, so
    z_k is the first row of g_k outside it.  One elimination
    (linalg._independent) makes the picks and hands back the rref rows of
    g_{k+1} as they stand before the last pick.  This is the chain of
    materializing each g_k as an algebra on its rows: coordinate i of a
    vector of g_k is its entry at the pivot column of row i, so an rref
    basis in g_k's coordinates lifts to the rref basis of the same span in
    alg's, and every membership test, greedy step and choice of z_k
    decides alike.
    """
    rows = alg.basis()   # the standard basis is already rref
    hyp = derived
    dirs = []
    while rows:
        need = len(rows) - len(hyp)
        if not need:
            raise InputError("acting algebra is not solvable")
        picked, below = _independent(hyp, rows, need - 1)
        dirs.append(rows[picked[-1]])
        rows = below
        hyp = alg._pair_span(rows)
    return dirs, inverse(Mat.from_cols(dirs)), derived


def _apply(b, v):
    """b v for an action b and a vector v, both sparse, as a dict of the
    nonzero entries."""
    out = {}
    for i, row in b.items():
        acc = 0
        for j, x in row.items():
            y = v.get(j)
            if y:
                acc = acc + x * y
        if acc:
            out[i] = acc
    return out


def _line_eigenvalue(b, v):
    """The eigenvalue of b on the line spanned by v, (b v)_p / v_p at the
    first entry p of v, once b v = lam v is checked exactly."""
    bv = _apply(b, v)
    p = next(iter(v))
    lam = bv.get(p, 0) / v[p]
    if bv.keys() - v.keys() or any(bv.get(j, 0) != lam * y
                                   for j, y in v.items()):
        raise InternalCheckError(NOT_INVARIANT)
    return lam


def _restrict(b, w, pos):
    """The matrix of b on the span of the vectors w, in their coordinates,
    as one {column: entry} dict per row.

    w_t is 1 at module coordinate pos[t] and 0 at every other pos[s], so
    the coordinates of an image b w_c in w are its entries at pos, with no
    elimination; b w_c is then checked to be that combination of w
    exactly, so a b that leaves the span raises InternalCheckError.
    """
    level = [{} for _ in w]
    for c, v in enumerate(w):
        image = _apply(b, v)
        co = [image.get(p, 0) for p in pos]
        if _combine(zip(co, w)) != image:
            raise InternalCheckError(NOT_INVARIANT)
        for t, x in enumerate(co):
            if x:
                level[t][c] = x
    return level


def common_eigenspace(chain, acts, spectra):
    """One joint character of the action and its full common eigenspace.

    chain is _ideal_chain of the acting algebra and acts[k] the action of
    its direction z_k on the module, as {row: {column: entry}} dicts keyed
    by the module's coordinates, over Q or Q(i).  Walking the chain from
    its smallest ideal up, each direction z_k cuts the space down to one of
    its eigenspaces on the common eigenspace of g_{k+1}, which g_k leaves
    invariant.  At the first level that space is the whole module, so the
    action of z_n is read as it is; every later level restricts the action
    to the space found so far, which checks its invariance, and a level on
    one vector reads its eigenvalue off that vector (_line_eigenvalue).
    Each basis vector of the space found so far is 1 at one module
    coordinate and 0 at the others' (pos): a null vector of a level is 1 at
    its free column and 0 at the other free columns, and lifting it
    through the earlier basis keeps that at the earlier vectors' positions
    of those columns.  So a restriction reads its coordinates (_restrict).

    A direction that acts as zero on the module, or whose level is zero,
    has eigenvalue 0 and keeps the space found so far, with no elimination;
    when every direction does, that space is the whole module.  A
    triangular level tries only its least diagonal entry in the rule's
    order (_rule_key), and a level of two vectors with Fraction entries
    only its own roots in Q(i), from its trace and determinant
    (_two_vector_roots); neither touches spectra[k].  spectra[k] is the
    spectrum of z_k on the module (_spectrum), or None until a level that
    is none of these needs it: it is filled in here from the action of z_k
    as it is then, and the level tries its roots in order
    (_level_eigenspace).  Returns (char_row, eigenspace, lams), the
    eigenspace as {coordinate: entry} dicts of the nonzero entries and
    lams[k] the eigenvalue of z_k, or an Indeterminate when some level has
    no eigenvalue in Q(i).
    """
    dirs, inv_z = chain[0], chain[1]
    coords = list(acts[0])
    if not coords:
        raise InternalCheckError("empty module in eigenvector recursion")
    # the basis of the space found so far, and the coordinate at which
    # each of its vectors is 1 and the others are 0; one coordinate is a
    # line
    w = [{coords[0]: Fraction(1)}] if len(coords) == 1 else None
    pos = coords[:1]
    lams = [None] * len(dirs)
    for k in reversed(range(len(dirs))):
        b = acts[k]
        if not any(b.values()):
            # z_k acts as zero: every vector is an eigenvector for 0
            lams[k] = gauss(0)
            continue
        if w is not None and len(w) == 1:
            lams[k] = gauss(_line_eigenvalue(b, w[0]))
            continue
        if w is None:
            index = {c: t for t, c in enumerate(coords)}
            level = [{index[j]: x for j, x in b[i].items()} for i in coords]
        else:
            level = _restrict(b, w, pos)
            if not any(level):
                lams[k] = gauss(0)
                continue
        if _is_triangular(level):
            candidates = [min((gauss(row.get(i, 0))
                               for i, row in enumerate(level)),
                              key=_rule_key)]
        elif len(level) == 2 and all(type(x) is Fraction for row in level
                                     for x in row.values()):
            candidates = _two_vector_roots(level)
        else:
            if spectra[k] is None:
                spectra[k] = _spectrum(b)
            candidates = [lam for lam, _ in spectra[k]]
        found = _level_eigenspace(level, candidates)
        if found is None:
            return Indeterminate(
                "an eigenvalue of the action lies outside Q(i)")
        lams[k], eig, free = found
        if w is None:
            w = [{coords[t]: x for t, x in enumerate(v) if x} for v in eig]
            pos = [coords[f] for f in free]
        else:
            w = [_combine(zip(c, w)) for c in eig]
            pos = [pos[f] for f in free]
    if w is None:
        w = [{c: Fraction(1)} for c in coords]
    vals = lams
    if all(lam.is_real() for lam in lams):
        # the same values as over Q(i), without Gaussian products
        vals = [lam.re for lam in lams]
    # a zero eigenvalue adds nothing to the character
    char = tuple(gauss(sum((lam * r[j] for lam, r in zip(vals, inv_z.rows)
                            if lam and r[j]), Fraction(0)))
                 for j in range(len(dirs)))
    return char, w, lams


def _peel_quotient(acts, w):
    """Quotient every action by the invariant line spanned by w, in place.

    Scaled so that its first nonzero entry w_p is 1, w completes to the
    basis (w, e_j for j != p), whose inverse sends x to (x_p, x_j - w_j
    x_p).  The induced matrix of m is therefore m[j][l] - w_j m[p][l] for
    j, l != p, in the coordinates e_j, j != p: no inverse and no product.
    Row p and column p are dropped, so the coordinates left keep their
    names.  Returns p.
    """
    p = min(w)
    wp = w[p]
    scaled = {j: c / wp for j, c in w.items() if j != p}
    for act in acts:
        prow = act.pop(p)
        for j, c in scaled.items():
            _sparse_axpy(act[j], c, prow, p)
        for row in act.values():
            row.pop(p, None)
    return p


def _peel_real_span(acts, eig):
    """Quotient every action by the real span of Re v and Im v over the
    vectors v of eig, in place; raise InternalCheckError unless those 2e
    vectors are independent.

    The span must be invariant, as it is when the actions are real and eig
    is a common eigenspace of a nonreal character: then the conjugates of
    eig span the eigenspace of the conjugate character, and the span of
    the vectors is the real form of the sum of the two.  One _peel_quotient
    step drops each vector in turn, after each later vector is projected
    along it the way the step projects the module (x_j - w_j x_p once w_p
    is scaled to 1); a vector that projects to zero was dependent.  No step
    needs its own line to be invariant, since only the composite
    projection, whose kernel is the whole span, has to commute with the
    actions.
    """
    vecs = []
    for v in eig:
        re, im = {}, {}
        for j, x in v.items():
            if not isinstance(x, GaussRat):
                re[j] = x
                continue
            if x.re:
                re[j] = x.re
            if x.im:
                im[j] = x.im
        vecs += [re, im]
    for t, u in enumerate(vecs):
        if not u:
            raise InternalCheckError(
                "the real and imaginary parts of a nonreal eigenspace are "
                "dependent")
        p = _peel_quotient(acts, u)
        up = u[p]
        for x in vecs[t + 1:]:
            f = x.pop(p, None)
            if f:
                _sparse_axpy(x, f / up, u, p)


def _direction_actions(dirs, mats):
    """B_k = sum_i z_k[i] M_i for each chain direction z_k, as
    {row: {column: entry}} dicts of the nonzero entries, an int entry of an
    M_i read as a Fraction: row i of B_k combines the rows i of the M_i."""
    basis = [[{j: _field(x) for j, x in enumerate(r) if x} for r in m.rows]
             for m in mats]
    return [{i: _combine((c, m[i]) for c, m in zip(z, basis))
             for i in range(len(basis[0]))} for z in dirs]


def _adjoint_actions(alg: LieAlgebra, dirs):
    """ad(z_k) for each chain direction z_k, as _direction_actions gives
    it for the matrices ad(e_i), read straight off alg._terms: entry (k, j)
    is the sum of z_i c_ij^k over the nonzero z_i, in increasing i, and no
    ad(e_i) is built."""
    terms = alg._terms
    acts = []
    for z in dirs:
        act = {k: {} for k in range(alg.dim)}
        for zi, row in zip(z, terms):
            if zi:
                for j, tj in enumerate(row):
                    for k, c in tj:
                        out = act[k]
                        x = out.get(j)
                        out[j] = zi * c if x is None else x + zi * c
        acts.append({k: {j: x for j, x in out.items() if x}
                     for k, out in act.items()})
    return acts


def weight_flag(alg: LieAlgebra, mats):
    """A complete invariant flag of a solvable action, with its characters.

    Peels common eigenvectors from the module until it is exhausted; one
    chain of ideals serves every peel, and so does one spectrum per chain
    direction, found when a peel first factors a level of it and, after
    each peel, less the eigenvalue of that direction on the peeled vector
    (see the module docstring for why that is exact).  The module stays
    over Q until a peel picks a nonreal eigenvalue; from that peel on the
    flag vectors are over Q(i), so the flag holds GaussRat entries exactly
    when some weight is nonreal.  mats are one square matrix per basis
    element, all of one size; anything else raises InputError.
    Returns (flag_vectors, characters) with flag vectors in module
    coordinates (prefix spans give an invariant flag) and one character
    per vector, or an Indeterminate.
    """
    mats = _action_matrices(alg, mats)
    chain = _ideal_chain(alg, alg.derived_algebra())
    return _weight_flag(chain, _direction_actions(chain[0], mats), True)


def _action_matrices(alg: LieAlgebra, mats) -> list:
    """mats as Mat, one square matrix per basis element of alg, all of one
    size; anything else raises InputError."""
    mats = [m if isinstance(m, Mat) else Mat(m) for m in mats]
    if len(mats) != alg.dim:
        raise InputError("one action matrix per basis element is required")
    if any(m.nrows != m.ncols or m.nrows != mats[0].nrows for m in mats):
        raise InputError("action matrices must be square and of one size")
    return mats


def _real_entries(acts):
    """Whether every entry of the actions is real."""
    return not any(isinstance(x, GaussRat) and x.im for act in acts
                   for row in act.values() for x in row.values())


def _weight_flag(chain, acts, full=False):
    """weight_flag on the _ideal_chain of the acting algebra, with acts
    the action of each chain direction as _direction_actions or
    _adjoint_actions give it; the peel quotients them in place.

    full asks for the whole flag, which only weight_flag does.  Otherwise,
    once a peel picks a nonreal character chi on a module whose entries
    are real, its full common eigenspace E (dim e) gives e copies of chi
    and e of its conjugate, and the peel goes on over Q on the quotient by
    the real span of E (_peel_real_span), each carried spectrum less e
    copies of lambda_k and of its conjugate.  The characters are then the
    same multiset as the full peel's (see the module docstring), and the
    flag is None, since no flag vector past that point is recorded.
    """
    if not acts:
        return [], []
    n = len(acts[0])
    lifted = False
    flag_vecs = []
    chars = []
    spectra = [None] * len(chain[0])
    zero = Fraction(0)
    while acts[0]:
        res = common_eigenspace(chain, acts, spectra)
        if isinstance(res, Indeterminate):
            return res
        char, eig, lams = res
        real = all(lam.is_real() for lam in lams)
        if not (full or real) and _real_entries(acts):
            flag_vecs = None
            chars += [char] * len(eig)
            chars += [tuple(v.conj() for v in char)] * len(eig)
            _peel_real_span(acts, eig)
            for spectrum, lam in zip(spectra, lams):
                if spectrum is not None:
                    for _ in eig:
                        _drop_root(spectrum, lam)
                        _drop_root(spectrum, lam.conj())
            continue
        w = eig[0]
        lifted = lifted or not real
        if flag_vecs is not None:
            flag_vecs.append(tuple(
                zero if j not in w else gauss(w[j]) if lifted else w[j]
                for j in range(n)))
        chars.append(char)
        _peel_quotient(acts, w)
        for spectrum, lam in zip(spectra, lams):
            if spectrum is not None:
                _drop_root(spectrum, lam)
    return flag_vecs, chars


def module_weights(alg: LieAlgebra, mats):
    """Composition-series weight table of a solvable action, over Q(i).

    Tabulates the characters of the peel; they do not depend on the order
    of the peel, so a real module is peeled over Q alone (_weight_flag
    without its full flag).  Returns a WeightTable or an Indeterminate.
    Weights are checked to vanish on the derived subalgebra and
    multiplicities to sum to the module dimension.  A non-solvable algebra
    raises InputError: every ideal of the chain contains the perfect term
    of its derived series, so the chain stops there before any peel.
    """
    mats = _action_matrices(alg, mats)
    chain = _ideal_chain(alg, alg.derived_algebra())
    peeled = _weight_flag(chain, _direction_actions(chain[0], mats))
    if isinstance(peeled, Indeterminate):
        return peeled
    return _weight_table(alg, peeled[1], mats[0].nrows if mats else 0,
                         chain[2])


def _weight_table(alg, chars, module_dim, derived):
    """The WeightTable of a peel's characters.

    derived is [alg, alg], as the peel's chain holds it.  Each character
    must vanish on it, and the multiplicities must sum to module_dim;
    anything else raises InternalCheckError.
    """
    merged = {}
    for char in chars:
        merged[char] = merged.get(char, 0) + 1
    rows = _sparse_rows(derived)
    for char in merged:
        # [alg, alg] is rational, so the character vanishes on a row
        # exactly when its real and imaginary parts do
        for part in ([v.re for v in char], [v.im for v in char]):
            for row in rows:
                if sum(part[j] * x for j, x in row.items()):
                    raise InternalCheckError(
                        "weight does not vanish on the derived subalgebra")
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
