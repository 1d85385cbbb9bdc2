import operator
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liedef.linalg import (Mat, _dot, _field, _gauss_jordan, _independent,
                           _null_space, _solutions, block_diag, char_poly, coords_in_span,
                           det, independent, integer_left_kernel,
                           intersect_spans, inverse, is_nilpotent_mat,
                           is_semisimple_mat, jordan_chevalley, kernel, kron,
                           lincomb, mat_lincomb, mat_pow, maximal_minor_gcd,
                           poly_at, rank, solve, span_basis, trace_product)
from liedef.poly import Poly, squarefree_part
from liedef.scalars import GaussRat
from liedef.torus import _normalize_relation

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def mats(n, m=None):
    m = n if m is None else m
    return st.lists(st.lists(small, min_size=m, max_size=m),
                    min_size=n, max_size=n).map(Mat)


def test_mat_equality_and_hash():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert a == b and hash(a) == hash(b)
    assert a != Mat([[1, 2], [3, 5]])
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])
    zero = Mat([[GaussRat(0), Fraction(0)], [0, GaussRat(0)]])
    assert zero == Mat.zeros(2, 2) and hash(zero) == hash(Mat.zeros(2, 2))
    assert zero != Mat([[GaussRat(0), Fraction(0)], [0, GaussRat(0, 1)]])


def _typed(m: Mat):
    return [[(type(c), c) for c in r] for r in m.rows]


def _entry(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "frac", "gauss"))
    if rng.random() < 0.6:
        return {"int": 0, "frac": Fraction(0), "gauss": GaussRat(0)}[kind]
    x = rng.randint(-3, 3)
    if kind == "int":
        return x
    y = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Fraction(x, rng.randint(1, 3)) if kind == "frac" else GaussRat(x, y)


def _sparse_mat(rng, n, m, kind):
    rows = [[_entry(rng, kind) for _ in range(m)] for _ in range(n)]
    zero = {"int": 0, "frac": Fraction(0), "gauss": GaussRat(0)}
    if n and m and rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(m)
        z = zero.get(kind, 0)
        rows[i] = [z] * m
        for r in rows:
            r[j] = z
    return Mat(rows)


def test_mat_products_and_sums_match_dense_reference():
    # the oracle is the dense product, one _dot per column, and sums that
    # add every pair of entries
    rng = random.Random(20260816)
    shapes = [(0, 0, 0), (3, 0, 0)]
    shapes += [(n, n, n) for n in range(1, 9)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8))
               for _ in range(12)]
    for n, m, p in shapes:
        for kind in ("int", "frac", "gauss", "mixed"):
            for _ in range(6):
                a = _sparse_mat(rng, n, m, kind)
                b = _sparse_mat(rng, m, p, rng.choice((kind, "mixed")))
                a2 = _sparse_mat(rng, n, m, rng.choice((kind, "mixed")))
                dense = Mat([[_dot(r, c) for c in b.cols()] for r in a.rows])
                assert _typed(a @ b) == _typed(dense)
                for got, op in ((a + a2, operator.add),
                                (a - a2, operator.sub)):
                    want = Mat([[op(x, y) for x, y in zip(r, r2)]
                                for r, r2 in zip(a.rows, a2.rows)])
                    assert _typed(got) == _typed(want)


def test_upper_triangular_flags():
    u = Mat([[1, 2], [0, 3]])
    s = Mat([[0, 2], [0, 0]])
    assert u.is_upper_triangular()
    assert not u.is_upper_triangular(strict=True)
    assert s.is_upper_triangular(strict=True)
    assert not Mat([[0, 0], [1, 0]]).is_upper_triangular()


@settings(max_examples=50)
@given(mats(3))
def test_rank_nullity(a):
    assert rank(a) + len(kernel(a)) == 3


@settings(max_examples=50)
@given(mats(3, 4))
def test_kernel_annihilates(a):
    for v in kernel(a):
        assert all(c == 0 for c in (a @ v))


@settings(max_examples=40)
@given(mats(3))
def test_cayley_hamilton(a):
    assert poly_at(char_poly(a), a).is_zero()


def test_poly_at_matches_horner_with_a_scaled_identity():
    # the oracle adds c times the Fraction identity at every Horner step,
    # so values and entry types must match it
    rng = random.Random(20261020)
    for n in range(1, 6):
        for kind in ("int", "frac", "gauss", "mixed"):
            for _ in range(8):
                a = _sparse_mat(rng, n, n, kind)
                p = Poly([_entry(rng, rng.choice((kind, "mixed")))
                          for _ in range(rng.randint(0, 4))])
                want = Mat.zeros(n, n)
                for c in reversed(p.coeffs):
                    want = want @ a + c * Mat.identity(n)
                assert _typed(poly_at(p, a)) == _typed(want)


def _minimal_poly(a: Mat) -> Poly:
    """The monic minimal polynomial: the first power of a that is a
    combination of the lower ones."""
    n = a.nrows
    powers = [Mat.identity(n).flatten()]
    cur = Mat.identity(n)
    for _ in range(n):
        cur = cur @ a
        c = coords_in_span(powers, [cur.flatten()])[0]
        if c is not None:
            return Poly([-x for x in c] + [Fraction(1)])
        powers.append(cur.flatten())
    raise AssertionError("no minimal polynomial up to the dimension")


@settings(max_examples=40)
@given(mats(3))
def test_the_minimal_polynomial_divides_char_poly(a):
    mp = _minimal_poly(a)
    assert poly_at(mp, a).is_zero()
    assert char_poly(a).divmod(mp)[1].is_zero()


@settings(max_examples=40)
@given(mats(3))
def test_det_vs_char_poly(a):
    # char_poly is monic with constant term (-1)^n det
    assert char_poly(a).coeffs[0] == det(a) * (-1) ** 3


@settings(max_examples=30)
@given(mats(3))
def test_jordan_chevalley_properties(a):
    s, n = jordan_chevalley(a)
    assert s + n == a
    assert s @ n == n @ s
    assert is_nilpotent_mat(n)
    # semisimple part has squarefree minimal polynomial
    mp = _minimal_poly(s)
    assert squarefree_part(mp).degree == mp.degree


@settings(max_examples=30)
@given(mats(3))
def test_is_semisimple_mat_agrees_with_jordan_chevalley(a):
    assert is_semisimple_mat(a, char_poly(a)) == jordan_chevalley(a)[1].is_zero()


def test_is_semisimple_mat_examples():
    jordan = Mat([[1, 1], [0, 1]])
    rotation = Mat([[0, -1], [1, 0]])
    repeated = Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert not is_semisimple_mat(jordan, char_poly(jordan))
    assert is_semisimple_mat(rotation, char_poly(rotation))
    assert is_semisimple_mat(repeated, char_poly(repeated))


def _gaussian_jordan_forms(rng, count):
    """(a, s, nil) with a = P (D + N) P^-1, s = P D P^-1 and nil = P N P^-1:
    D + N is a Jordan form of up to three blocks of sizes 1 to 3 with
    seeded Gaussian eigenvalues, some repeated, some the conjugate of
    another, some real or zero, and P is a seeded invertible Gaussian
    matrix or the identity."""
    out = []
    while len(out) < count:
        blocks = []
        for _ in range(rng.randint(1, 3)):
            if blocks and rng.random() < 0.4:
                lam = rng.choice((blocks[-1][0], blocks[-1][0].conj()))
            else:
                lam = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                               rng.choice((0, rng.randint(-3, 3))))
            blocks.append((lam, rng.choice((1, 1, 2, 3))))
        n = sum(size for _, size in blocks)
        if n > 5:
            continue
        d = [[Fraction(0)] * n for _ in range(n)]
        nil = [[Fraction(0)] * n for _ in range(n)]
        at = 0
        for lam, size in blocks:
            for k in range(at, at + size):
                d[k][k] = lam
                if k + 1 < at + size:
                    nil[k][k + 1] = Fraction(1)
            at += size
        p = Mat.identity(n)
        if rng.random() < 0.7:
            p = Mat([[GaussRat(rng.randint(-1, 1), rng.randint(-1, 1))
                      for _ in range(n)] for _ in range(n)])
            if rank(p) < n:
                continue
        pinv = inverse(p)
        s, nil = p @ Mat(d) @ pinv, p @ Mat(nil) @ pinv
        out.append((s + nil, s, nil))
    return out


def test_is_semisimple_mat_on_gaussian_jordan_forms():
    rng = random.Random(20261027)
    seen = set()
    for a, s, nil in _gaussian_jordan_forms(rng, 60):
        assert is_semisimple_mat(a, char_poly(a)) == nil.is_zero()
        assert is_semisimple_mat(s, char_poly(s))
        seen.add(nil.is_zero())
    assert seen == {True, False}
    # a Jordan block at i next to -i twice, and i twice next to -i: the
    # squarefree part x^2 + 1 annihilates only the second
    i = GaussRat(0, 1)
    pair = Mat([[i, 1, 0, 0], [0, i, 0, 0], [0, 0, -i, 0], [0, 0, 0, -i]])
    diag = Mat.diag([i, i, -i])
    assert not is_semisimple_mat(pair, char_poly(pair))
    assert is_semisimple_mat(diag, char_poly(diag))


def test_jordan_chevalley_splits_gaussian_matrices():
    rng = random.Random(20261028)
    for a, s, nil in _gaussian_jordan_forms(rng, 40):
        assert jordan_chevalley(a) == (s, nil)


def test_solve_and_inverse():
    a = Mat([[2, 1], [1, 1]])
    b = (Fraction(3), Fraction(2))
    xvec = solve(a, b)
    assert xvec is not None
    assert tuple(a @ xvec) == b
    assert inverse(a) @ a == Mat.identity(2)
    assert solve(Mat([[1, 1], [1, 1]]), (0, 1)) is None
    with pytest.raises(ValueError):
        inverse(Mat([[1, 1], [1, 1]]))


@settings(max_examples=40)
@given(st.lists(st.lists(small, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_span_basis_canonical(rows):
    basis = span_basis(rows)
    assert span_basis(basis) == basis
    assert None not in coords_in_span(basis, rows)
    assert None not in coords_in_span(basis, basis)


def test_coords_in_span_outside():
    assert coords_in_span([(1, 0, 0)], [(0, 1, 0)]) == [None]
    assert coords_in_span([(1, 0, 0), (0, 1, 0)], [(2, 3, 0)]) == \
        [(Fraction(2), Fraction(3))]


def test_intersect_spans():
    a = [(1, 0, 0), (0, 1, 0)]
    b = [(0, 1, 0), (0, 0, 1)]
    got = intersect_spans(a, b, 3)
    assert got == [(Fraction(0), Fraction(1), Fraction(0))]
    assert intersect_spans([(1, 0, 0)], [(0, 0, 1)], 3) == []


def test_int_matrices_stay_exact():
    # Mat allows plain int entries; elimination must not divide them into
    # floats
    a = Mat([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 1]])
    q = a.map(Fraction)
    exact = (int, Fraction)
    inv = inverse(a)
    assert all(isinstance(x, exact) for x in inv.flatten())
    assert inv == inverse(q) and a @ inv == Mat.identity(4)
    d = det(a)
    assert isinstance(d, exact) and d == 3
    x = solve(a, (1, 0, 0, 0))
    assert all(isinstance(c, exact) for c in x)
    assert x == solve(q, (1, 0, 0, 0))
    assert x[0] == Fraction(2, 3) and tuple(a @ x) == (1, 0, 0, 0)
    assert kernel(a) == []
    k = kernel(Mat(a.rows[:3]))
    assert len(k) == 1 and all(isinstance(c, exact) for c in k[0])
    assert k == kernel(Mat(q.rows[:3]))
    # P J P^-1 built from ints: the first three columns of P span an
    # invariant subspace on which the action is c
    c = [[1, 2, 0], [0, 1, -1], [3, 0, 2]]
    j = Mat([r + [y] for r, y in zip(c, (5, -2, 1))] + [[0, 0, 0, 4]])
    m = a @ j @ inverse(a)
    basis = a.cols()[:3]
    assert Mat.from_cols(coords_in_span(basis, [m @ v for v in basis])) \
        == Mat(c)


def _random_square(rng, n, density, gaussian):
    def entry():
        if rng.random() > density:
            return Fraction(0)
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if gaussian:
            return GaussRat(re, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return re
    return [[entry() for _ in range(n)] for _ in range(n)]


def _char_poly_cases():
    rng = random.Random(20260816)
    cases = [Mat([])]
    for gaussian in (False, True):
        for n in range(1, 9):
            for density in (0.25, 1.0):
                for _ in range(3):
                    cases.append(Mat(_random_square(rng, n, density,
                                                    gaussian)))
            half = Fraction(1, 2) if not gaussian else GaussRat(1, 2)
            # derogatory: a scalar matrix and repeated Jordan blocks
            cases.append(Mat.identity(n) * half)
            jb = [[half if i == k else Fraction(int(k == i + 1))
                   for k in range(2)] for i in range(2)]
            cases.append(block_diag([Mat(jb)] * ((n + 1) // 2)))
            # a zero subdiagonal entry splits the Hessenberg recurrence
            rows = _random_square(rng, n, 1.0, gaussian)
            for i in range(n):
                for k in range(i - 1):
                    rows[i][k] = Fraction(0)
            if n > 2:
                rows[n // 2][n // 2 - 1] = Fraction(0)
            cases.append(Mat(rows))
    return cases


def test_char_poly_is_det_of_x_minus_a():
    # det eliminates directly, so this does not share char_poly's method
    for a in _char_poly_cases():
        n = a.nrows
        p = char_poly(a)
        assert p.degree == n and p.lead == 1
        assert all(isinstance(c, (Fraction, GaussRat)) for c in p.coeffs)
        for t in range(n + 1):
            x = Fraction(2 * t - n, 3)
            assert p(x) == det(Mat.identity(n) * x - a)


def test_char_poly_coefficients_are_fractions_over_q():
    p = char_poly(Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert p.coeffs == (0, 0, 0, 1)
    assert all(type(c) is Fraction for c in p.coeffs)


@settings(max_examples=30)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                min_size=1, max_size=4))
def test_integer_left_kernel(rows):
    rels = integer_left_kernel(rows)
    for m in rels:
        assert all(isinstance(c, int) for c in m)
        for col in range(2):
            assert sum(mj * rows[j][col] for j, mj in enumerate(m)) == 0
    # completeness: count matches the rank defect
    assert len(rels) == len(rows) - rank(Mat(rows))


def test_smith_relations_known():
    rels = integer_left_kernel([[1], [2]])
    assert len(rels) == 1
    m = rels[0]
    assert m[0] * 1 + m[1] * 2 == 0 and m != [0, 0]


def _gcd_of_maximal_minors(rows):
    k, n = len(rows), len(rows[0])
    return gcd(*(int(det(Mat([[Fraction(r[j]) for j in cols] for r in rows])))
                 for cols in combinations(range(n), k)))


def test_integer_left_kernel_is_saturated():
    # the basis spans the whole relation lattice, not a sublattice of index
    # > 1, iff its maximal minors are coprime; planted multiples of earlier
    # rows give relations with entries other than 0 and +-1
    rng = random.Random(20261020)
    checked = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 5), rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        for i in range(1, nr):
            if rng.random() < 0.3:
                f = rng.choice((-2, 2, 3))
                rows[i] = [f * x for x in rows[rng.randrange(i)]]
        rels = integer_left_kernel(rows)
        assert len(rels) == nr - rank(Mat(rows))
        if rels:
            assert _gcd_of_maximal_minors(rels) == 1
            checked += 1
    assert checked > 150


def test_maximal_minor_gcd_matches_the_minors():
    # a planted multiple of the first row gives 0, a scaled first row an
    # index above 1
    rng = random.Random(20261021)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        roll = rng.random()
        if k > 1 and roll < 0.2:
            rows[-1] = [-2 * x for x in rows[0]]
        elif roll < 0.4:
            rows[0] = [rng.choice((2, 3)) * x for x in rows[0]]
        want = _gcd_of_maximal_minors(rows)
        assert maximal_minor_gcd(rows) == want, rows
        seen.add(min(want, 2))
    assert seen == {0, 1, 2}
    assert maximal_minor_gcd([]) == 1
    assert maximal_minor_gcd([[1, 2], [2, 4], [0, 1]]) == 0


@pytest.mark.parametrize("weights,relations", [
    ([[1], [2]], [(-2, 1)]),
    ([[1, 0], [1, 0]], [(-1, 1)]),
    ([[1], [2], [3]], [(-2, 1, 0), (-3, 0, 1)]),
    ([[1, 0], [0, 1], [1, 1]], [(-1, -1, 1)]),
    ([[2, 1], [1, 3]], []),
    ([[2, 4], [1, 2], [3, 6]], [(-1, 2, 0), (0, -3, 1)]),
])
def test_integer_left_kernel_pinned_relations(weights, relations):
    # the weight matrices of the torus tests and the committed checker pool
    assert [_normalize_relation(m)
            for m in integer_left_kernel(weights)] == relations


def test_kron_block_diag_shapes():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert k[(0, 1)] == 1 and k[(0, 0)] == 0
    d = block_diag([a, b])
    assert d.shape == (4, 4)
    assert d[(2, 3)] == 1 and d[(0, 2)] == 0


def test_mat_pow():
    a = Mat([[1, 1], [0, 1]])
    assert mat_pow(a, 5) == Mat([[1, 5], [0, 1]])
    assert mat_pow(a, 0) == Mat.identity(2)


# ------------------------------------------------ dense reference elimination
# The dense Gauss-Jordan elimination of an earlier linalg, with its readers:
# an independent reference for the sparse one that every reader now uses.

def ref_rref(m: Mat):
    """Reduced row echelon form; returns (R, pivot column indices)."""
    rows = [list(r) for r in m.rows]
    nr, nc = len(rows), m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        nz = [j for j in range(c, nc) if prow[j]]
        inv = _field(prow[c])
        if inv != 1:
            for j in nz:
                prow[j] = prow[j] / inv
        for i in range(nr):
            row = rows[i]
            f = row[c]
            if i != r and f:
                for j in nz:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat(rows), tuple(pivots)


def ref_kernel(m: Mat):
    R, pivots = ref_rref(m)
    nc = m.ncols
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R.rows[i][fc]
        basis.append(tuple(v))
    return basis


def ref_solve(a: Mat, b):
    R, pivots = ref_rref(Mat([list(r) + [bv] for r, bv in zip(a.rows, b)]))
    nc = a.ncols
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, pc in enumerate(pivots):
        x[pc] = R.rows[i][nc]
    return tuple(x)


def ref_inverse(a: Mat) -> Mat:
    n = a.nrows
    R, pivots = ref_rref(Mat([list(r) + [Fraction(int(i == j))
                                         for j in range(n)]
                              for i, r in enumerate(a.rows)]))
    if list(pivots) != list(range(n)):
        raise ValueError("singular matrix")
    return Mat([r[n:] for r in R.rows])


def ref_span_basis(vectors):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return []
    R, pivots = ref_rref(Mat(vectors))
    return [tuple(R.rows[i]) for i in range(len(pivots))]


def ref_lincomb(coeffs, vectors, dim):
    """sum of c * v over every entry of each v with c nonzero, from
    Fraction(0)."""
    out = [Fraction(0)] * dim
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def _random_vec(rng, n, gaussian):
    return tuple(_random_square(rng, n, 0.7, gaussian)[0])


def _coords_by_solve(basis, v):
    if not basis:
        return () if all(not c for c in v) else None
    return ref_solve(Mat.from_cols(basis), v)


def test_coords_in_span_matches_solve():
    # the reference solves for one vector at a time
    rng = random.Random(20260816)
    checked = 0
    for gaussian in (False, True):
        for n in range(1, 6):
            for _ in range(12):
                basis = [_random_vec(rng, n, gaussian)
                         for _ in range(rng.randint(0, n))]
                if len(basis) > 1:
                    # a dependent basis vector
                    basis.append(tuple(a - 2 * b
                                       for a, b in zip(basis[0], basis[1])))
                rng.shuffle(basis)
                inside = [tuple(sum((rng.randint(-2, 2) * b[i]
                                     for b in basis), Fraction(0))
                                for i in range(n)) for _ in range(3)]
                vectors = [(Fraction(0),) * n] + inside
                u = _random_vec(rng, n, gaussian)
                if _coords_by_solve(basis, u) is None:
                    # outside first, then a vector of span(basis + u) that
                    # is not in span(basis)
                    vectors = [u] + vectors + [
                        tuple(a + b for a, b in zip(u, inside[0]))]
                got = coords_in_span(basis, vectors)
                want = [_coords_by_solve(basis, v) for v in vectors]
                assert got == want
                for g, w in zip(got, want):
                    if w is not None:
                        assert [type(x) for x in g] == [type(x) for x in w]
                checked += sum(w is None for w in want)
    assert checked > 50
    q = Fraction
    basis = [(q(1), q(0), q(0)), (q(2), q(0), q(0))]
    assert coords_in_span(basis, [(0, 1, 0), (3, 0, 0), (0, 0, 0),
                                  (1, 1, 0)]) == [None, (3, 0), (0, 0), None]
    assert coords_in_span([], [(0, 0), (0, 1)]) == [(), None]
    assert coords_in_span(basis, []) == []


def test_trace_product_matches_trace_of_product():
    rng = random.Random(20260816)
    for gaussian in (False, True):
        for n in range(7):
            for density in (0.3, 1.0):
                for _ in range(3):
                    a = Mat(_random_square(rng, n, density, gaussian))
                    b = Mat(_random_square(rng, n, density, gaussian))
                    want = (a @ b).trace()
                    got = trace_product(a, b)
                    assert got == want and type(got) is type(want)


def test_mat_lincomb():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert mat_lincomb([0, Fraction(0)], [a, b], 2) == Mat.zeros(2, 2)
    assert mat_lincomb([], [], 3) == Mat.zeros(3, 3)
    assert mat_lincomb([Fraction(1, 2), 0, -1], [a, a, b], 2) == \
        Mat([[Fraction(1, 2), 0], [Fraction(1, 2), 2]])


# ------------------------------------------------------------ sparse systems

def _entries(kind):
    if kind == "int":
        return st.integers(-3, 3)
    if kind == "Fraction":
        return small
    return st.builds(GaussRat, small, small)


@st.composite
def sparse_systems(draw):
    """(dense rows, right-hand sides) of one scalar kind, mostly zero, with
    zero rows, repeated rows and right-hand sides that may be inconsistent."""
    kind = draw(st.sampled_from(("int", "Fraction", "GaussRat")))
    entry = st.one_of(st.just(0), st.just(0), _entries(kind))
    n_cols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        rows.append([0] * n_cols)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(draw(st.sampled_from(rows))))
    rows = draw(st.permutations(rows))
    rhs = draw(st.lists(st.lists(entry, min_size=len(rows),
                                 max_size=len(rows)), max_size=4))
    # a consistent right-hand side too: a combination of the columns
    x = draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
    rhs.append([sum((a * b for a, b in zip(r, x)), Fraction(0))
                for r in rows])
    return rows, rhs


def _solve_sparse(rows, ncols, rhs):
    """Every particular solution and the null space of one sparse system,
    from one elimination."""
    pivots, bad = _gauss_jordan([dict(r) for r in rows], ncols, rhs)
    return (_solutions(pivots, bad, ncols, len(rhs)),
            _null_space(pivots, ncols))


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(sparse_systems())
def test_solve_sparse_matches_solve_and_kernel(system):
    # the reference is the dense elimination, not the readers built on it
    rows, rhs = system
    dense = Mat(rows)
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    solutions, null = _solve_sparse(sparse, dense.ncols, rhs)
    assert solutions == [ref_solve(dense, tuple(b)) for b in rhs]
    assert solutions[-1] is not None
    assert null == ref_kernel(dense)


def test_solve_sparse_edge_cases():
    # no right-hand side; only zero rows; one inconsistent zero row
    assert _solve_sparse([{0: 1}], 2, []) == ([], [(0, 1)])
    assert _solve_sparse([{}, {}], 2, [[0, 0]]) \
        == ([(0, 0)], [(1, 0), (0, 1)])
    assert _solve_sparse([{}, {1: 2}], 2, [[1, 4], [0, 4]]) \
        == ([None, (0, 2)], [(1, 0)])
    with pytest.raises(ValueError):
        _solve_sparse([{0: 1}], 1, [[1, 2]])


_ZEROS = {"int": 0, "Fraction": Fraction(0), "GaussRat": GaussRat(0)}


def _kind_entries(kind):
    """Entries of one scalar kind, or of all of them, about half zero."""
    if kind == "mixed":
        return st.one_of(*(_kind_entries(k) for k in _ZEROS))
    return st.one_of(st.just(_ZEROS[kind]), _entries(kind))


@st.composite
def matrices_of_every_kind(draw):
    """(kind, matrix) with int, Fraction, GaussRat or mixed entries, and
    zero rows, repeated rows and dependent columns."""
    kind = draw(st.sampled_from(("int", "Fraction", "GaussRat", "mixed")))
    entry = _kind_entries(kind)
    n_cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=5))
    zero = _ZEROS[kind] if kind != "mixed" else \
        draw(st.sampled_from(list(_ZEROS.values())))
    for _ in range(draw(st.integers(0, 1))):
        rows.append([zero] * n_cols)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(draw(st.sampled_from(rows))))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows[0]) - 1))
        j = draw(st.integers(0, len(rows[0]) - 1))
        c = draw(entry)
        for r in rows:
            r.append(r[i] - c * r[j])
    return kind, Mat(draw(st.permutations(rows)))


def _typed_deep(x):
    if isinstance(x, Mat):
        x = x.rows
    if isinstance(x, (list, tuple)):
        return [_typed_deep(c) for c in x]
    return (type(x), x)


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(matrices_of_every_kind(), st.data())
def test_readers_match_dense_reference(kind_and_matrix, data):
    # every reader of the one elimination equals the dense reference in
    # value, and in entry type too when every input entry is a Fraction
    kind, m = kind_and_matrix
    entry = _kind_entries(kind)

    def agree(got, want):
        assert got == want
        if kind == "Fraction":
            assert _typed_deep(got) == _typed_deep(want)

    agree(rank(m), len(ref_rref(m)[1]))
    agree(kernel(m), ref_kernel(m))
    x = data.draw(st.lists(entry, min_size=m.ncols, max_size=m.ncols))
    y = data.draw(st.lists(entry, min_size=m.nrows, max_size=m.nrows))
    rhs = [m @ x, tuple(y), (_ZEROS.get(kind, 0),) * m.nrows]
    for b in rhs:
        agree(solve(m, b), ref_solve(m, b))
    agree(coords_in_span(m.cols(), rhs),
          [ref_solve(m, b) for b in rhs])
    t = Mat.from_cols(m.rows)
    vectors = list(m.rows) + [tuple(x)]
    agree(coords_in_span(m.rows, vectors),
          [ref_solve(t, v) for v in vectors])
    agree(span_basis(m.rows), ref_span_basis(m.rows))
    k = min(m.shape)
    square = Mat([r[:k] for r in m.rows[:k]])
    try:
        want = ref_inverse(square)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(square)
    else:
        agree(inverse(square), want)


def ref_independent(rows, candidates):
    """The greedy completion of rows: a candidate is kept when it grows the
    span of rows and of the candidates kept before it."""
    base = span_basis(rows)
    kept = []
    for i, v in enumerate(candidates):
        grown = span_basis(base + [v])
        if len(grown) > len(base):
            base = grown
            kept.append(i)
    return kept


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(matrices_of_every_kind(), st.data())
def test_independent_matches_greedy_completion(kind_and_matrix, data):
    # zero and repeated vectors come from the strategy; a split point of 0
    # or of every vector leaves rows or candidates empty, and the unit
    # vectors, before or after the rest, make the input full rank
    kind, m = kind_and_matrix
    vectors = list(m.rows)
    n = m.ncols
    units = [tuple(Fraction(int(i == j)) for j in range(n))
             for i in range(n)]
    where = data.draw(st.sampled_from(("none", "first", "last")))
    if where == "first":
        vectors = units + vectors
    elif where == "last":
        vectors = vectors + units
    k = data.draw(st.integers(0, len(vectors)))
    rows, candidates = vectors[:k], vectors[k:]
    assert independent(rows, candidates) == ref_independent(rows, candidates)


def test_independent_edge_cases():
    assert independent([], []) == []
    assert independent([(1, 0)], []) == []
    assert independent([], [(0, 0), (1, 0), (2, 0), (0, 0), (0, 3)]) == [1, 4]
    assert independent([(1, 2)], [(2, 4), (1, 2), (0, 1), (1, 0)]) == [2]
    g = [(GaussRat(1), GaussRat(0, 1))]
    assert independent(g, [(GaussRat(0, 1), GaussRat(-1)),
                           (Fraction(1), 1)]) == [1]
    for rows, candidates in (([(1, 0)], [(1, 0, 0)]), ([], [(1,), (1, 0)])):
        with pytest.raises(ValueError, match="ragged matrix"):
            independent(rows, candidates)


def test_mismatched_lengths_raise():
    # a row or a coordinate too few or too many is an error, never dropped
    ident = Mat([[1, 0], [0, 1]])
    for b in ((3,), (3, 0, 0)):
        with pytest.raises(ValueError):
            solve(ident, b)
    for basis, vectors in (([(1, 0)], [(1, 0, 0)]),
                           ([(1, 0)], [(1,)]),
                           ([(1, 0), (1, 0, 0)], [(1, 0)]),
                           ([], [(0, 0), (0,)])):
        with pytest.raises(ValueError):
            coords_in_span(basis, vectors)
    with pytest.raises(ValueError, match="ragged matrix"):
        span_basis([(1, 0), (1, 0, 0)])


# ------------------------------------------------------------ sparse lincomb

@st.composite
def lincomb_cases(draw):
    """(coeffs, vectors, dim) of one scalar kind or mixed, about half zero:
    zero coefficients and, in mixed input, GaussRat zeros."""
    entry = _kind_entries(draw(st.sampled_from(
        ("int", "Fraction", "GaussRat", "mixed"))))
    dim = draw(st.integers(0, 5))
    vectors = draw(st.lists(st.tuples(*[entry] * dim), max_size=4))
    coeffs = draw(st.lists(entry, min_size=len(vectors),
                           max_size=len(vectors)))
    return coeffs, vectors, dim


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(lincomb_cases())
def test_lincomb_matches_dense_reference(case):
    coeffs, vectors, dim = case
    assert (_typed_deep(lincomb(coeffs, vectors, dim))
            == _typed_deep(ref_lincomb(coeffs, vectors, dim)))


def test_lincomb_keeps_the_type_of_a_gaussian_zero():
    q, g = Fraction, GaussRat
    got = lincomb([q(2), 0, g(0)], [(g(0), 1, 0), (g(1), g(1), g(1)),
                                    (g(5), 5, 5)], 3)
    assert _typed_deep(got) == [(g, 0), (q, 2), (q, 0)]
    assert (_typed_deep(lincomb([g(0, 1)], [(0, 1)], 2))
            == [(g, 0), (g, g(0, 1))])


def test_independent_hands_back_the_span_before_its_last_pick():
    # _independent(rows, candidates, before) keeps what independent keeps,
    # up to the pick after the first before, with the rref rows of rows
    # and those picks
    rng = random.Random(20261020)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(rng.randint(0, 3))]
        candidates = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                      for _ in range(rng.randint(1, 6))]
        kept = independent(rows, candidates)
        assert _independent(rows, candidates) == (kept, None)
        for before in range(len(kept)):
            got, below = _independent(rows, candidates, before)
            assert got == kept[:before + 1]
            want = span_basis(rows + [candidates[i] for i in kept[:before]])
            assert _typed(Mat(below)) == _typed(Mat(want))
