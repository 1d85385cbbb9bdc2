import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedef.errors import InputError
from liedef.linalg import (Mat, _dot, block_diag, char_poly, coords_in_basis,
                           coords_in_span, det, in_span, integer_left_kernel,
                           intersect_spans, inverse, is_nilpotent_mat,
                           is_semisimple_mat, jordan_chevalley, kernel, kron,
                           mat_lincomb, mat_pow, minimal_poly, poly_at, rank,
                           restrict_to_span, solve, span_basis,
                           trace_product)
from liedef.poly import clear_denominators
from liedef.scalars import GaussRat

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


@settings(max_examples=40)
@given(mats(3))
def test_minimal_poly_divides_char(a):
    mp = minimal_poly(a)
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
    mp = minimal_poly(s)
    from liedef.poly import squarefree_part
    assert squarefree_part(mp).degree == mp.degree


@settings(max_examples=30)
@given(mats(3))
def test_is_semisimple_mat_agrees_with_jordan_chevalley(a):
    assert is_semisimple_mat(a) == jordan_chevalley(a)[1].is_zero()


def test_is_semisimple_mat_examples():
    assert not is_semisimple_mat(Mat([[1, 1], [0, 1]]))
    assert is_semisimple_mat(Mat([[0, -1], [1, 0]]))
    assert is_semisimple_mat(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))


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
    for v in rows:
        assert coords_in_basis(basis, v) is not None
    for v in basis:
        c = coords_in_basis(basis, v)
        assert c is not None


def test_coords_in_basis_outside():
    assert coords_in_basis([(1, 0, 0)], (0, 1, 0)) is None
    assert coords_in_basis([(1, 0, 0), (0, 1, 0)], (2, 3, 0)) == \
        (Fraction(2), Fraction(3))


def test_intersect_spans():
    a = [(1, 0, 0), (0, 1, 0)]
    b = [(0, 1, 0), (0, 0, 1)]
    got = intersect_spans(a, b, 3)
    assert got == [(Fraction(0), Fraction(1), Fraction(0))]
    assert intersect_spans([(1, 0, 0)], [(0, 0, 1)], 3) == []


def test_restrict_to_span():
    a = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    r = restrict_to_span(a, [(0, 1, 0), (0, 0, 1)])
    assert r == Mat([[2, 0], [0, 3]])
    with pytest.raises(InputError):
        restrict_to_span(Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
                         [(1, 0, 0)])
    # a non-diagonal action on a 3-dim invariant span with a non-standard
    # basis: the first three columns of p span it, c is the action there
    p = Mat([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 2, 0],
             [0, 0, 1, 1]]).map(Fraction)
    c = [[1, 2, 0], [0, 1, -1], [3, 0, 2]]
    j = Mat([r + [x] for r, x in zip(c, (5, -2, 1))] + [[0, 0, 0, 4]])
    a = p @ j @ inverse(p)
    assert restrict_to_span(a, p.cols()[:3]) == Mat(c)


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
    assert restrict_to_span(m, a.cols()[:3]) == Mat(c)


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


def test_clear_denominators():
    v = (Fraction(1, 2), Fraction(2, 3))
    w = clear_denominators(v)
    assert all(x.denominator == 1 for x in w)
    assert w[0] * v[1] == w[1] * v[0]  # same direction


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


def _random_vec(rng, n, gaussian):
    return tuple(_random_square(rng, n, 0.7, gaussian)[0])


def _coords_by_solve(basis, v):
    if not basis:
        return () if all(not c for c in v) else None
    return solve(Mat.from_cols(basis), v)


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


def test_in_span():
    assert in_span([], (0, 0, 0))
    assert not in_span([], (0, 1, 0))
    rows = span_basis([(1, 2, 3), (0, 1, 1)])
    assert in_span(rows, (1, 3, 4))
    assert not in_span(rows, (0, 0, 1))
    g = span_basis([(GaussRat(1), GaussRat(0, 1))])
    assert in_span(g, (GaussRat(0, 1), GaussRat(-1)))
    assert not in_span(g, (GaussRat(1), GaussRat(1)))
