"""Constructive representation theory for the definability pipeline.

Everything a construction claims about itself is re-checked by verify_rep
before the Representation leaves this module: homomorphism, faithfulness,
triangularity in the adapted flag, strict triangularity on the nilradical.
Constructions that cannot reach a verified answer raise UnsupportedError
rather than returning unchecked matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .definability import SS_NO, SS_YES, supersolvable_test
from .errors import (Indeterminate, InputError, InternalCheckError,
                     NotNilpotentError, NotSupersolvableError,
                     PreconditionError, UnsupportedError)
from .lie import LieAlgebra
from .linalg import (Mat, block_diag, coords_in_span, intersect_spans,
                     inverse, is_nilpotent_mat, kernel, kron, mat_lincomb,
                     restrict_to_span, solve, span_basis)
from .scalars import GaussRat
from .structure import nilradical
from .weights import weight_flag

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

    def image_of(self, x):
        """Image of an arbitrary element, by linearity."""
        return mat_lincomb(x, self.images, self.target_dim)


def verify_rep(rep: Representation) -> frozenset:
    """The subset of {homomorphism, faithful, triangular, unipotent} that holds.

    Never raises on a false claim; constructions compare the result against
    what they promised.  Triangular claims are judged after conjugating into
    the flag basis; a flag that is not a basis simply grants nothing.
    """
    g = rep.source
    flags = set()
    hom = True
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = rep.images[i] @ rep.images[j] - rep.images[j] @ rep.images[i]
            if lhs != rep.image_of(g.table[i][j]):
                hom = False
                break
        if not hom:
            break
    if hom:
        flags.add(HOMOMORPHISM)

    if not rep_kernel(rep):
        flags.add(FAITHFUL)

    conj = None
    if rep.flag is None:
        conj = list(rep.images)
    elif len(rep.flag) == rep.target_dim:
        try:
            p = Mat.from_cols(rep.flag)
            pinv = inverse(p)
            conj = [pinv @ m @ p for m in rep.images]
        except ValueError:
            conj = None
    if conj is not None:
        if all(m.is_upper_triangular() for m in conj):
            flags.add(TRIANGULAR)
        strict = True
        for v in nilradical(g):
            m = rep.image_of(v)
            if rep.flag is not None:
                m = pinv @ m @ p
            if not m.is_upper_triangular(strict=True):
                strict = False
                break
        if strict:
            flags.add(UNIPOTENT)
    return frozenset(flags)


def _certified(rep: Representation, required) -> Representation:
    flags = verify_rep(rep)
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

def _lcs_adapted(n: LieAlgebra):
    """Basis adapted to the lower central series, with weights.

    Vector v gets weight k when it spans the k-th term modulo the (k+1)-th.
    Returned in weight-ascending order.
    """
    series = n.lower_central_series()
    adapted = []
    weights = []
    for k in range(1, len(series)):
        base = list(series[k])
        for v in series[k - 1]:
            if len(span_basis(base + [v])) > len(base):
                base.append(tuple(v))
                adapted.append(tuple(v))
                weights.append(k)
    if len(adapted) != n.dim:
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
    if not n.is_nilpotent():
        raise NotNilpotentError(
            "the truncated enveloping module needs a nilpotent algebra")
    if n.dim == 0:
        return _certified(Representation(n, 1, ()), ALL_FLAGS)
    c = n.nilpotency_class()
    adapted, weights = _lcs_adapted(n)
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
    return _certified(Representation(n, d, images), ALL_FLAGS)


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
    """
    ss = supersolvable_test(t)
    if ss.status == SS_NO:
        raise NotSupersolvableError(
            "the algebra has a nonreal adjoint eigenvalue", ss.witness)
    if ss.status != SS_YES:
        raise UnsupportedError(
            "supersolvability is indeterminate over Q(i): " + str(ss.reason))
    if t.dim == 0:
        return _certified(Representation(t, 1, ()), ALL_FLAGS)

    center = t.center()
    derived = t.bracket_span(t.basis(), t.basis())
    ads = [t.ad(t.basis_vector(i)) for i in range(t.dim)]

    if not center:
        rep = Representation(t, t.dim, tuple(ads), flag=ss.flag)
        return _certified(rep, ALL_FLAGS)

    meets = bool(intersect_spans(center, derived, t.dim)) if derived else False
    if not meets:
        # characters of t/[t,t] separate the center
        _, _, proj = t.quotient(derived)
        functionals = [tuple(row) for row in proj.rows]
        size, blocks = _center_block(t, functionals)
        if t.is_abelian():
            rep = Representation(t, size, tuple(blocks))
            return _certified(rep, ALL_FLAGS)
        images = tuple(block_diag([ads[i], blocks[i]]) for i in range(t.dim))
        total = t.dim + size
        flag = tuple(tuple(v) + (Fraction(0),) * size for v in ss.flag)
        flag += tuple(tuple(Fraction(int(kk == t.dim + j)) for kk in range(total))
                      for j in range(size))
        rep = Representation(t, total, images, flag=flag)
        return _certified(rep, ALL_FLAGS)

    if t.is_nilpotent():
        return nilpotent_ado(t)

    nil = nilradical(t)
    sub, incl = t.subalgebra(nil)
    base = nilpotent_ado(sub)
    ext = extend_rep(t, nil, base)
    peeled = weight_flag(t, list(ext.images))
    # the peel lifts to Q(i) only at a nonreal eigenvalue
    if isinstance(peeled, Indeterminate) or any(
            isinstance(x, GaussRat) for v in peeled[0] for x in v):
        raise UnsupportedError(
            "extended module has no rational triangular flag")
    rep = replace(ext, flag=tuple(peeled[0]), verified=frozenset())
    return _certified(rep, ALL_FLAGS)


# -- extension from an ideal -----------------------------------------------------

def _commutator_system(rho_images, d):
    """Matrix of M -> ([M, R_a])_a over row-major flattened unknowns.

    Unknown p*d + q is the entry M[p][q]; row (a, r, c) is entry (r, c) of
    [M, R_a], and [E_pq, R]_rc = delta_rp R[q][c] - R[r][p] delta_cq.
    """
    zero = Fraction(0)
    rows = []
    for r_a in rho_images:
        rr = r_a.rows
        for r in range(d):
            for c in range(d):
                row = [zero] * (d * d)
                for q in range(d):
                    row[r * d + q] = rr[q][c]
                for p in range(d):
                    if rr[r][p]:
                        row[p * d + c] = row[p * d + c] - rr[r][p]
                rows.append(row)
    return Mat(rows)


def _closure_holds(g, basis_vectors, images):
    full = Mat.from_cols(basis_vectors)
    tinv = inverse(full)
    for i in range(len(basis_vectors)):
        for j in range(i + 1, len(basis_vectors)):
            br = g.bracket(basis_vectors[i], basis_vectors[j])
            want = mat_lincomb(tinv @ br, images, images[0].nrows)
            got = images[i] @ images[j] - images[j] @ images[i]
            if got != want:
                return False
    return True


def extend_rep(g: LieAlgebra, h_rows, rho: Representation) -> Representation:
    """Extend a module of an ideal to the whole algebra, verified.

    The precondition is that every weight of the ideal's module vanishes on
    [g, h].  By Lie's theorem the weights of a solvable action all vanish at
    y exactly when rho(y) is nilpotent, so it is decided by testing rho on a
    basis of [g, h]; no weight table is built, and modules whose weights
    leave Q(i) are decided too.

    Unknown images for a complement are pinned by the linear layer
    [sigma(x), rho(y)] = rho([x, y]) (one particular solution plus commutant
    freedom), then the commutant parameters are searched by coordinate
    descent for bracket closure among the complement images.  One trivial
    target block may be appended before giving up.  The result extends rho
    literally on the ideal and is faithful there; anything the solver cannot
    verify becomes UnsupportedError.
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

    comp = []
    rows = list(h_span)
    for i in range(g.dim):
        u = g.basis_vector(i)
        if len(span_basis(rows + [u])) > len(rows):
            rows.append(u)
            comp.append(u)

    attempt = _solve_extension(g, incl, comp, list(rho.images))
    if attempt is None:
        enlarged = [block_diag([m, Mat.zeros(1, 1)]) for m in rho.images]
        attempt = _solve_extension(g, incl, comp, enlarged)
        if attempt is None:
            raise UnsupportedError(
                "no closed extension found in the commutant search")
        rho_images = enlarged
    else:
        rho_images = list(rho.images)
    comp_images = attempt

    d = rho_images[0].nrows if rho_images else comp_images[0].nrows
    full = Mat.from_cols(incl + comp)
    tinv = inverse(full)
    all_images = rho_images + comp_images
    images = tuple(mat_lincomb(tinv @ x, all_images, d) for x in g.basis())
    rep = Representation(g, d, images)
    flags = verify_rep(rep)
    if HOMOMORPHISM not in flags:
        raise InternalCheckError("closure held on a basis but not overall")
    if intersect_spans(rep_kernel(rep), h_span, g.dim):
        raise InternalCheckError("extension lost faithfulness on the ideal")
    return replace(rep, verified=flags)


def _solve_extension(g, incl, comp, rho_images):
    """Particular solutions plus commutant coordinate descent; None if stuck."""
    d = rho_images[0].nrows
    a = _commutator_system(rho_images, d)
    particular = []
    for c in comp:
        rhs = []
        for coords in coords_in_span(incl, [g.bracket(c, y) for y in incl]):
            if coords is None:
                raise InternalCheckError("[g, h] left the ideal")
            rhs.extend(mat_lincomb(coords, rho_images, d).flatten())
        sol = solve(a, tuple(rhs))
        if sol is None:
            return None
        particular.append(Mat([sol[r * d:(r + 1) * d] for r in range(d)]))
    null = [Mat([v[r * d:(r + 1) * d] for r in range(d)])
            for v in kernel(a)]

    basis_vectors = incl + comp
    full = Mat.from_cols(basis_vectors)
    tinv = inverse(full)
    m = len(comp)
    params = [[Fraction(0)] * len(null) for _ in range(m)]

    def sigma(i):
        return mat_lincomb([1] + params[i], [particular[i]] + null, d)

    for _ in range(4):
        if _closure_holds(g, basis_vectors,
                          rho_images + [sigma(i) for i in range(m)]):
            return [sigma(i) for i in range(m)]
        if not null:
            break
        for i in range(m):
            rows = []
            rhs = []
            cur = [sigma(k) for k in range(m)]
            for j in range(m):
                if j == i:
                    continue
                coords = list(tinv @ g.bracket(comp[i], comp[j]))
                # the sigma_i term of [comp_i, comp_j] is unknown; the rest
                # is constant
                gamma_i = coords[len(incl) + i]
                coords[len(incl) + i] = 0
                const = mat_lincomb(coords, rho_images + cur, d)
                # unknowns: sigma_i = particular_i + sum p_s null_s
                base = (particular[i] @ cur[j] - cur[j] @ particular[i]
                        - gamma_i * particular[i] - const)
                cols = [(ns @ cur[j] - cur[j] @ ns - gamma_i * ns).flatten()
                        for ns in null]
                flat = base.flatten()
                for rr in range(d * d):
                    rows.append([col[rr] for col in cols])
                    rhs.append(-flat[rr])
            if not rows:
                continue
            sol = solve(Mat(rows), tuple(rhs))
            if sol is not None:
                params[i] = list(sol)
    if _closure_holds(g, basis_vectors,
                      rho_images + [sigma(i) for i in range(m)]):
        return [sigma(i) for i in range(m)]
    return None


# -- sums -----------------------------------------------------------------------

def direct_sum(r1: Representation, r2: Representation) -> Representation:
    if r1.source != r2.source:
        raise InputError("direct sum needs a common source algebra")
    images = tuple(block_diag([a, b]) for a, b in zip(r1.images, r2.images))
    flag = None
    if r1.flag is not None or r2.flag is not None:
        f1 = r1.flag or tuple(Mat.identity(r1.target_dim).cols())
        f2 = r2.flag or tuple(Mat.identity(r2.target_dim).cols())
        pad1 = tuple(tuple(v) + (Fraction(0),) * r2.target_dim for v in f1)
        pad2 = tuple((Fraction(0),) * r1.target_dim + tuple(v) for v in f2)
        flag = pad1 + pad2
    rep = Representation(r1.source, r1.target_dim + r2.target_dim, images,
                         flag=flag)
    return replace(rep, verified=verify_rep(rep))


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
            parts.append(restrict_to_span(m, basis))
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
