"""Constructive representation theory for the definability pipeline.

Everything a construction claims about itself is re-checked before the
Representation leaves this module: homomorphism, faithfulness,
triangularity in the adapted flag, strict triangularity on the nilradical.
Constructions that cannot reach a verified answer raise UnsupportedError
rather than returning unchecked matrices.

Every check reads the images once, as linalg's sparse rows ({column:
entry} dicts of the nonzero entries); the homomorphism check sums one
sparse residual per pair of basis elements.
The nilradical the unipotent check needs is reached by two routes.  The
finders hand the one they have already proved to _certified: the whole
algebra for a nilpotent one, the common kernel of the adjoint step
characters for a supersolvable one.  Public verify_rep, which the checker in
certs.py calls, computes structure.nilradical itself.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .definability import SS_NO, SS_YES, _supersolvable
from .errors import (Indeterminate, InputError, InternalCheckError,
                     NotNilpotentError, NotSupersolvableError,
                     PreconditionError, UnsupportedError)
from .lie import LieAlgebra
from .linalg import (Mat, _combine, _gauss_jordan, _solutions, _sparse_rows,
                     block_diag, coords_in_span, independent, intersect_spans,
                     inverse, is_nilpotent_mat, kernel, kron, mat_lincomb,
                     span_basis)
from .structure import nilradical
from .weights import _direction_actions, _weight_flag

HOMOMORPHISM = "homomorphism"
FAITHFUL = "faithful"
TRIANGULAR = "triangular_in_flag"
UNIPOTENT = "unipotent_on_nilradical"

ALL_FLAGS = frozenset((HOMOMORPHISM, FAITHFUL, TRIANGULAR, UNIPOTENT))


@dataclass(frozen=True)
class Representation:
    """Matrices per basis element of the source algebra.

    flag, when set, lists target basis vectors whose prefixes the triangular
    checks are taken against; None means the standard basis order.  verified
    only ever contains flags that verify_rep has confirmed.
    """
    source: LieAlgebra
    target_dim: int
    images: tuple
    verified: frozenset = frozenset()
    flag: tuple | None = None

    def __post_init__(self):
        if len(self.images) != self.source.dim:
            raise InputError("one image matrix per basis element is required")
        for m in self.images:
            if m.nrows != self.target_dim or m.ncols != self.target_dim:
                raise InputError("image matrix shape differs from target_dim")
        if any(len(v) != self.target_dim for v in self.flag or ()):
            raise InputError("flag vector length differs from target_dim")

    def image_of(self, x):
        """Image of an arbitrary element, by linearity."""
        return mat_lincomb(x, self.images, self.target_dim)


def verify_rep(rep: Representation) -> frozenset:
    """The subset of {homomorphism, faithful, triangular, unipotent} that holds.

    Never raises on a false claim; constructions compare the result against
    what they promised.  Every claim is decided from the nonzero entries of
    the images, listed once, with no dense conjugate built (see _verify).
    This is the checker's route: the unipotent claim is judged on
    structure.nilradical(g), the associative-hull computation, which shares
    no code with the finders' way of reaching the nilradical.
    """
    return _verify(rep, None)


def _verify(rep: Representation, nil) -> frozenset:
    """verify_rep, judging the unipotent claim on the rows nil, or on
    structure.nilradical(g) when nil is None.

    Each image is read once into sparse rows, and every claim is decided
    from those.  When the flag is a basis P, each image M is conjugated
    into it by two sparse products, P^-1 (M P), again sparse rows:
    conjugation is an automorphism of gl(V), so the bracket relations hold
    there exactly when they hold for the images, and the image of a
    nilradical vector is the same linear combination of them.
    Triangularity is read off the columns of the conjugated rows; for each
    nilradical vector, row r of that combination is summed over the
    entries at columns up to r only, and tested for zero once summed.  A
    flag that is not a basis grants neither triangular claim.  Faithfulness
    is one rank: the images are independent exactly when rep_kernel(rep) is
    empty, and taking each flattened image as one sparse row needs no
    d^2 x n column matrix.
    """
    g = rep.source
    d = rep.target_dim
    nz = [_sparse_rows(m.rows) for m in rep.images]
    conj = None
    if rep.flag is None:
        conj = nz
    elif len(rep.flag) == d:
        try:
            p = Mat.from_cols(rep.flag)
            pinv = _sparse_rows(inverse(p).rows)
        except ValueError:
            pass
        else:
            p = _sparse_rows(p.rows)
            conj = [_sparse_product(pinv, _sparse_product(m, p)) for m in nz]
    flags = set()
    if _closes(g, nz if conj is None else conj, d):
        flags.add(HOMOMORPHISM)

    rows = [{r * d + c: x for r, row in enumerate(m) for c, x in row.items()}
            for m in nz]
    if len(_gauss_jordan(rows, d * d, ())[0]) == g.dim:
        flags.add(FAITHFUL)

    if conj is not None:
        if all(c >= r for m in conj for r, row in enumerate(m) for c in row):
            flags.add(TRIANGULAR)
        if nil is None:
            nil = nilradical(g)
        if all(_strictly_upper(v, conj, d) for v in nil):
            flags.add(UNIPOTENT)
    return frozenset(flags)


def _sparse_product(a, b):
    """The sparse rows of a @ b, both given as sparse rows: each row of a
    combines the rows of b it names."""
    return [_combine((x, b[k]) for k, x in row.items()) for row in a]


def _strictly_upper(v, mats, d):
    """Whether sum_i v_i mats[i], each mat given as sparse rows, is strictly
    upper triangular: row r is summed over the entries at columns up to r,
    and each sum is tested once it is complete, so terms that cancel are
    seen to."""
    terms = [(x, mats[i]) for i, x in enumerate(v) if x]
    for r in range(d):
        acc = {}
        get = acc.get
        for x, m in terms:
            for c, y in m[r].items():
                if c <= r:
                    acc[c] = get(c, 0) + x * y
        if any(acc.values()):
            return False
    return True


def _closes(g: LieAlgebra, nz, d: int) -> bool:
    """Whether M_i M_j - M_j M_i = sum_k c_ij^k M_k for every pair i < j,
    of the images M given as sparse rows.

    Row r of each pair's residual is summed into a {column: value} dict over
    the listed entries only, with c_ij^k read off the nonzero entries of
    g.table[i][j], and the first row with a nonzero value answers False.
    """
    for i in range(g.dim):
        a = nz[i]
        for j in range(i + 1, g.dim):
            b = nz[j]
            terms = [(nz[k], c) for k, c in enumerate(g.table[i][j]) if c]
            for r in range(d):
                acc = {}
                get = acc.get
                for k, x in a[r].items():
                    for c, y in b[k].items():
                        acc[c] = get(c, 0) + x * y
                for k, x in b[r].items():
                    for c, y in a[k].items():
                        acc[c] = get(c, 0) - x * y
                for m, ck in terms:
                    for c, y in m[r].items():
                        acc[c] = get(c, 0) - ck * y
                if any(acc.values()):
                    return False
    return True


def _certified(rep: Representation, required, nil) -> Representation:
    """rep with the flags it verifies, or InternalCheckError when one of
    required is missing.

    This is the finders' route: nil is the nilradical the construction has
    already proved (the whole algebra for a nilpotent one, the common kernel
    of the adjoint step characters for a supersolvable one), so
    structure.nilradical is not run again.
    """
    flags = _verify(rep, nil)
    missing = frozenset(required) - flags
    if missing:
        raise InternalCheckError(
            "construction failed its own verification: missing %s"
            % ", ".join(sorted(missing)))
    return replace(rep, verified=flags)


def is_unipotent(rep: Representation) -> bool:
    """True iff the semisimplification is trivial.

    All weights vanish exactly when every basis image is nilpotent, which
    stays decidable even when the weight table itself needs scalars beyond
    Q(i).
    """
    return all(is_nilpotent_mat(m) for m in rep.images)


# -- nilpotent case: truncated enveloping module -------------------------------

def _lcs_adapted(series):
    """Basis adapted to a lower central series, with weights.

    Vector v gets weight k when it spans the k-th term modulo the (k+1)-th.
    Returned in weight-ascending order.
    """
    adapted = []
    weights = []
    for k in range(1, len(series)):
        for i in independent(series[k], series[k - 1]):
            adapted.append(tuple(series[k - 1][i]))
            weights.append(k)
    if len(adapted) != len(series[0]):
        raise InternalCheckError("adapted basis has the wrong size")
    return adapted, weights


def _insert(alg: LieAlgebra, i: int, mono):
    """x_i times a sorted PBW monomial, straightened: {monomial: coefficient}.

    Bracket corrections land on strictly higher-weight generators, so the
    prepend below keeps monomials sorted.
    """
    if not mono or i <= mono[0]:
        return {(i,) + mono: Fraction(1)}
    j = mono[0]
    rest = mono[1:]
    out = {}
    for m2, c in _insert(alg, i, rest).items():
        key = (j,) + m2
        out[key] = out.get(key, Fraction(0)) + c
    for k, ck in enumerate(alg.table[i][j]):
        if ck:
            for m2, c in _insert(alg, k, rest).items():
                out[m2] = out.get(m2, Fraction(0)) + ck * c
    return out


def _monomials(weights, cap: int, by_weight: bool):
    out = []

    def rec(start, mono, total):
        out.append(tuple(mono))
        for i in range(start, len(weights)):
            cost = weights[i] if by_weight else 1
            if total + cost <= cap:
                mono.append(i)
                rec(i, mono, total + cost)
                mono.pop()

    rec(0, [], 0)
    return out


def nilpotent_ado(n: LieAlgebra) -> Representation:
    """Faithful strictly triangular module of a nilpotent algebra.

    Left multiplication on a truncation of the enveloping algebra in a
    lower-central-adapted PBW basis.  For class at most 2 the span of the
    monomials of degree above the class is already a left ideal (bracket
    corrections are central and cost one degree), so the module keeps every
    monomial of degree <= class; for higher class that span is not invariant
    and the truncation switches to the adapted weight, which is exactly the
    power of the augmentation ideal.  Either way left multiplication raises
    total weight strictly, so sorting monomials by descending weight makes
    every image strictly upper triangular, and the degree-one column shows
    faithfulness.
    """
    # one series decides nilpotency, gives the class and adapts the basis
    series = n.lower_central_series()
    if series[-1]:
        raise NotNilpotentError(
            "the truncated enveloping module needs a nilpotent algebra")
    # n is nilpotent, so it is its own nilradical
    whole = n.basis()
    if n.dim == 0:
        return _certified(Representation(n, 1, ()), ALL_FLAGS, whole)
    c = len(series) - 1
    adapted, weights = _lcs_adapted(series)
    t = Mat.from_cols(adapted)
    tinv = inverse(t)
    table = [[tuple(tinv @ n.bracket(adapted[i], adapted[j]))
              for j in range(n.dim)] for i in range(n.dim)]
    m_alg = LieAlgebra(n.dim, table)

    monos = _monomials(weights, c, by_weight=c > 2)
    monos.sort(key=lambda m: (-sum(weights[i] for i in m), len(m), m))
    index = {m: p for p, m in enumerate(monos)}
    d = len(monos)
    gen_mats = []
    for i in range(n.dim):
        cols = []
        for m in monos:
            col = [Fraction(0)] * d
            for m2, coeff in _insert(m_alg, i, m).items():
                pos = index.get(m2)
                if pos is not None:
                    col[pos] += coeff
            cols.append(tuple(col))
        gen_mats.append(Mat.from_cols(cols))
    images = tuple(mat_lincomb(tinv.col(j), gen_mats, d) for j in range(n.dim))
    return _certified(Representation(n, d, images), ALL_FLAGS, whole)


# -- supersolvable case ---------------------------------------------------------

def _center_block(g: LieAlgebra, functionals):
    """One nilpotent block: u_j maps to functional_j(x) u_0, u_0 to zero."""
    size = 1 + len(functionals)

    def block(x):
        rows = [[Fraction(0)] * size for _ in range(size)]
        for j, chi in enumerate(functionals):
            rows[0][j + 1] = sum((a * b for a, b in zip(chi, x)), Fraction(0))
        return Mat(rows)

    return size, [block(g.basis_vector(i)) for i in range(g.dim)]


def supersolvable_triangular_rep(t: LieAlgebra) -> Representation:
    """Faithful upper-triangular module, unipotent on the nilradical.

    The adjoint is triangular in the flag basis and its kernel is the
    center, so it only needs help separating the center.  When the center
    misses the derived subalgebra, one extra nilpotent block built from the
    characters of t/[t,t] does that; when the center meets [t,t] the algebra
    is handled through its nilpotent theory instead (directly when t itself
    is nilpotent, else by extending the nilradical module).

    The nilradical comes from the step characters of supersolvable_test:
    ad(x) is triangular in the flag basis with diagonal (chi_k(x)), so it is
    nilpotent exactly when every chi_k(x) vanishes, and for solvable t the
    ad-nilpotent elements are the nilradical.  Their common kernel, in rref
    rows, is what structure.nilradical returns, without the associative hull.
    """
    ss, chain = _supersolvable(t)
    if ss.status == SS_NO:
        raise NotSupersolvableError(
            "the algebra has a nonreal adjoint eigenvalue", ss.witness)
    if ss.status != SS_YES:
        raise UnsupportedError(
            "supersolvability is indeterminate over Q(i): " + str(ss.reason))
    if t.dim == 0:
        return _certified(Representation(t, 1, ()), ALL_FLAGS, [])
    nil = span_basis(kernel(Mat(ss.step_characters)))

    center = t.center()
    ads = [t.ad(t.basis_vector(i)) for i in range(t.dim)]

    if not center:
        rep = Representation(t, t.dim, tuple(ads), flag=ss.flag)
        return _certified(rep, ALL_FLAGS, nil)

    derived = chain[2]   # [t, t]
    meets = bool(intersect_spans(center, derived, t.dim)) if derived else False
    if not meets:
        # characters of t/[t,t] separate the center
        _, _, proj = t.quotient(derived)
        functionals = [tuple(row) for row in proj.rows]
        size, blocks = _center_block(t, functionals)
        if t.is_abelian():
            rep = Representation(t, size, tuple(blocks))
            return _certified(rep, ALL_FLAGS, nil)
        images = tuple(block_diag([ads[i], blocks[i]]) for i in range(t.dim))
        total = t.dim + size
        flag = tuple(tuple(v) + (Fraction(0),) * size for v in ss.flag)
        flag += tuple(tuple(Fraction(int(kk == t.dim + j)) for kk in range(total))
                      for j in range(size))
        rep = Representation(t, total, images, flag=flag)
        return _certified(rep, ALL_FLAGS, nil)

    if len(nil) == t.dim:
        return nilpotent_ado(t)

    base = nilpotent_ado(t.subalgebra(nil)[0])
    ext = _extend(t, nil, base)
    # the chain of t's adjoint peel serves the extended module too; a
    # nonreal character leaves no rational flag, and the peel records none
    # past it
    peeled = _weight_flag(chain, _direction_actions(chain[0], ext.images))
    if isinstance(peeled, Indeterminate) or any(
            not x.is_real() for c in peeled[1] for x in c):
        raise UnsupportedError(
            "extended module has no rational triangular flag")
    return _certified(replace(ext, flag=tuple(peeled[0])), ALL_FLAGS, nil)


# -- extension from an ideal -----------------------------------------------------

def _commutator_system(rho_images, d):
    """Sparse rows of M -> ([M, R_a])_a over row-major flattened unknowns.

    Unknown p*d + q is the entry M[p][q]; row (a, r, c) is entry (r, c) of
    [M, R_a], and [E_pq, R]_rc = delta_rp R[q][c] - R[r][p] delta_cq.  Each
    row is a {unknown: coefficient} dict with only nonzero coefficients, as
    _gauss_jordan takes it; a zero row stays, as an empty dict, because its
    right-hand side must vanish.
    """
    rows = []
    for r_a in rho_images:
        by_col = _sparse_rows(zip(*r_a.rows))
        by_row = _sparse_rows(r_a.rows)
        for r in range(d):
            for c in range(d):
                row = {r * d + q: x for q, x in by_col[c].items()}
                for p, x in by_row[r].items():
                    j = p * d + c
                    v = row[j] - x if j in row else -x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                rows.append(row)
    return rows


def extend_rep(g: LieAlgebra, h_rows, rho: Representation) -> Representation:
    """Extend a module of an ideal to the whole algebra, verified.

    The precondition is that every weight of the ideal's module vanishes on
    [g, h].  By Lie's theorem the weights of a solvable action all vanish at
    y exactly when rho(y) is nilpotent, so it is decided by testing rho on a
    basis of [g, h]; no weight table is built, and modules whose weights
    leave Q(i) are decided too.

    Unknown images for a complement are pinned by the linear layer
    [sigma(x), rho(y)] = rho([x, y]): its commutator system, written as
    sparse rows, is eliminated once for the particular solution of every
    complement vector, with every free variable zero; the commutant is not
    searched.  Those images must also close among themselves; when they do
    not, or the layer has no solution, the result is UnsupportedError.  The
    result extends rho literally on the ideal and is faithful there.
    """
    h_span = span_basis(h_rows)
    if not g.is_ideal(h_span):
        raise PreconditionError("extension base must be an ideal")
    sub, incl = g.subalgebra(h_span)
    if rho.source != sub:
        raise InputError(
            "representation source does not match the materialized ideal")
    if rep_kernel(rho):
        raise PreconditionError("the ideal module must be faithful")
    if len(h_span) == g.dim:
        # full span in rref coordinates is the standard basis
        rep = replace(rho, source=g)
        return replace(rep, verified=verify_rep(rep))

    if not sub.is_solvable():
        raise InputError("weights are defined here for solvable actions only")
    # weights are linear, so a basis of [g, h] is enough
    for coords in coords_in_span(incl, g.bracket_span(g.basis(), h_span)):
        if coords is None:
            raise InternalCheckError("[g, h] left the ideal")
        if not is_nilpotent_mat(rho.image_of(coords)):
            raise PreconditionError("module weights do not vanish on [g, h]")

    rep = _extend(g, h_span, rho)
    flags = verify_rep(rep)
    if HOMOMORPHISM not in flags:
        raise InternalCheckError("closure held on a basis but not overall")
    if intersect_spans(rep_kernel(rep), h_span, g.dim):
        raise InternalCheckError("extension lost faithfulness on the ideal")
    return replace(rep, verified=flags)


def _extend(g, h_span, rho):
    """extend_rep from the complement on, unverified: images that _closes
    has accepted, or UnsupportedError.

    h_span is a proper ideal in rref rows, which g.subalgebra takes as the
    basis of rho's source, and rho a faithful module whose weights vanish
    on [g, h].  supersolvable_triangular_rep has proved all of that of the
    nilradical and nilpotent_ado's module, and certifies every flag of the
    result, so it calls this directly.
    """
    incl = list(h_span)
    units = g.basis()
    comp = [units[i] for i in independent(incl, units)]

    tinv = inverse(Mat.from_cols(incl + comp))
    images = _solve_extension(g, incl, comp, list(rho.images), tinv)
    if images is None:
        raise UnsupportedError(
            "the particular solutions of the extension do not close")
    return Representation(g, images[0].nrows, tuple(images))


def _solve_extension(g, incl, comp, rho_images, tinv):
    """The particular solutions of the linear layer, if they close; else
    None.

    The linear layer [sigma(c), rho(y)] = rho([c, y]) over y in incl is one
    sparse system for every complement vector c: the same commutator rows,
    one right-hand side per c.  A single elimination gives the particular
    solution of each, every free variable zero, or shows that some c has
    none.  tinv is the inverse of the matrix with columns incl + comp.
    Returns the images of g's standard basis, rho_images on incl and the
    sigma(c) on comp carried through tinv, once _closes accepts them, else
    None.
    """
    d = rho_images[0].nrows
    k = len(incl)
    coords = coords_in_span(incl, [g.bracket(c, y) for c in comp for y in incl])
    if None in coords:
        raise InternalCheckError("[g, h] left the ideal")
    rhs = []
    for i in range(len(comp)):
        flat = []
        for co in coords[i * k:(i + 1) * k]:
            flat.extend(mat_lincomb(co, rho_images, d).flatten())
        rhs.append(flat)
    pivots, bad = _gauss_jordan(_commutator_system(rho_images, d), d * d, rhs)
    if bad:
        return None
    found = rho_images + [_unflatten(v, d)
                          for v in _solutions(pivots, bad, d * d, len(rhs))]
    # a linear map keeps the brackets on the basis incl + comp exactly when
    # it keeps them on the standard one
    images = [mat_lincomb(tinv @ x, found, d) for x in g.basis()]
    nz = [_sparse_rows(m.rows) for m in images]
    return images if _closes(g, nz, d) else None


def _unflatten(v, d):
    """The d x d matrix whose row-major entries are v."""
    return Mat([v[r * d:(r + 1) * d] for r in range(d)])


def rep_kernel(rep: Representation):
    """Basis of {x : image_of(x) = 0}."""
    if rep.source.dim == 0:
        return []
    return kernel(Mat.from_cols([m.flatten() for m in rep.images]))


# -- finite central quotients ----------------------------------------------------

@dataclass(frozen=True)
class GroupRepData:
    """Matrix group data: generators, an explicit finite central subgroup,
    and its order."""
    generators: tuple
    f_subgroup: tuple
    q: int

    def __post_init__(self):
        if not self.generators:
            raise InputError("at least one generator matrix is required")
        n = self.generators[0].nrows
        for m in tuple(self.generators) + tuple(self.f_subgroup):
            if m.nrows != n or m.ncols != n:
                raise InputError("all matrices must share one square shape")
        for m in self.generators:
            try:
                inverse(m)
            except ValueError:
                raise InputError("generators must be invertible")
        if self.q != len(self.f_subgroup):
            raise InputError("q must equal the size of F")
        if not any(_is_identity(m) for m in self.f_subgroup):
            raise InputError("F must contain the identity")
        for a in self.f_subgroup:
            for b in self.f_subgroup:
                p = a @ b
                if p not in self.f_subgroup:
                    raise InputError("F is not closed under multiplication")
        for f in self.f_subgroup:
            for m in self.generators:
                if f @ m != m @ f:
                    raise InputError("F is not central")

    @property
    def dim(self):
        return self.generators[0].nrows


def _is_identity(m: Mat) -> bool:
    return m == Mat.identity(m.nrows)


def _fold_kron(mats):
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def quotient_rep(data: GroupRepData):
    """Kill a central subgroup of order 2 by passing to tensor blocks.

    The F-isotypic components V_i are eigenspaces of the involution, hence
    stable under anything commuting with it.  W stacks each V_i tensor
    itself with one block per mod-2 relation among the component characters;
    F then acts trivially by construction.  Exactness of the kernel is
    certified by brute force: every listed F element must act as the
    identity on W, and no deduplicated word of length up to 4 in the
    generators and their inverses outside F may do so.

    Returns (dim W, generator images on W).
    """
    if data.q == 1:
        return data.dim, list(data.generators)
    if data.q != 2:
        raise UnsupportedError(
            "only central subgroups of order 2 are supported")
    f = next(m for m in data.f_subgroup if not _is_identity(m))
    n = data.dim
    minus = kernel(f + Mat.identity(n))
    plus = kernel(f - Mat.identity(n))
    components = []
    if minus:
        components.append((minus, 1))
    if plus:
        components.append((plus, 0))
    if sum(len(b) for b, _ in components) != n:
        raise InternalCheckError("involution is not diagonalizable")

    h = len(components)
    k = [ki for _, ki in components]
    j0 = k.index(1)
    relations = [tuple(int(i == t) for i in range(h))
                 for t in range(h) if k[t] == 0]
    relations += [tuple(int(i in (j0, t)) for i in range(h))
                  for t in range(h) if k[t] == 1 and t != j0]

    def induced(m):
        parts = []
        for basis, _ in components:
            coords = coords_in_span(basis, [m @ v for v in basis])
            if None in coords:
                raise InternalCheckError("a component is not invariant")
            parts.append(Mat.from_cols(coords))
        blocks = [kron(p, p) for p in parts]
        for rel in relations:
            factors = [parts[i] for i in range(h) if rel[i]]
            blocks.append(_fold_kron(factors))
        return block_diag(blocks)

    images = [induced(m) for m in data.generators]
    dim_w = images[0].nrows

    for fm in data.f_subgroup:
        if not _is_identity(induced(fm)):
            raise InternalCheckError("an F element acts nontrivially on W")
    for w in _words(data, 4):
        if w in data.f_subgroup:
            continue
        if _is_identity(induced(w)):
            raise InternalCheckError(
                "a non-F word acts trivially on W; kernel is too big")
    return dim_w, images


def _words(data: GroupRepData, length: int, cap: int = 4000):
    letters = list(data.generators) + [inverse(m) for m in data.generators]
    seen = {}
    frontier = [Mat.identity(data.dim)]
    for _ in range(length):
        nxt = []
        for w in frontier:
            for l in letters:
                m = w @ l
                key = m.flatten()
                if key not in seen:
                    seen[key] = m
                    nxt.append(m)
                    if len(seen) >= cap:
                        return list(seen.values())
        frontier = nxt
    return list(seen.values())
