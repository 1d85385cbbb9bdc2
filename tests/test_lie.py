from fractions import Fraction

import pytest

from liedef.errors import InputError
from liedef.lie import LieAlgebra, from_matrices
from liedef.linalg import Mat, coords_in_span, span_basis
from liedef.scalars import GaussRat


def test_from_entries_rejects_bad_shapes():
    with pytest.raises(InputError):
        LieAlgebra.from_entries(2, {(0, 1): (1,)})
    with pytest.raises(InputError):
        LieAlgebra.from_entries(2, {(1, 1): (0, 1)})
    with pytest.raises(InputError):
        LieAlgebra.from_entries(2, {(0, 1): (0, 1), (1, 0): (0, 1)})
    with pytest.raises(InputError):
        LieAlgebra.from_entries(2, {(0, 5): (0, 1)})


def test_antisymmetry_is_implied(h3):
    x, y = h3.basis_vector(0), h3.basis_vector(1)
    assert h3.bracket(x, y) == (0, 0, 1)
    assert h3.bracket(y, x) == (0, 0, -1)
    assert h3.bracket(x, x) == (0, 0, 0)


def test_jacobi_validation(h3):
    assert h3.validate() == []
    # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi
    bad = LieAlgebra.from_entries(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert bad.validate()
    with pytest.raises(InputError):
        bad.require_valid()


def test_ad_columns(e2):
    ad_r = e2.ad(e2.basis_vector(2))
    assert ad_r == Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])


def test_series(h3, sl2, axb):
    assert [len(s) for s in h3.derived_series()] == [3, 1, 0]
    assert [len(s) for s in h3.lower_central_series()] == [3, 1, 0]
    assert [len(s) for s in axb.derived_series()] == [2, 1, 0]
    # perfect algebra: the series stabilizes at full dimension
    assert [len(s) for s in sl2.derived_series()] == [3]


def test_predicates(h3, sl2, e2, axb, r2, so3):
    assert h3.is_nilpotent() and h3.is_solvable() and not h3.is_semisimple()
    assert not sl2.is_solvable() and sl2.is_semisimple()
    assert so3.is_semisimple()
    assert e2.is_solvable() and not e2.is_nilpotent()
    assert axb.is_solvable() and not axb.is_nilpotent()
    assert r2.is_abelian() and r2.is_nilpotent()
    assert h3.nilpotency_class() == 2
    assert r2.nilpotency_class() == 1
    with pytest.raises(InputError):
        axb.nilpotency_class()


def test_center(h3, sl2):
    assert span_basis(h3.center()) == [(0, 0, 1)]
    assert sl2.center() == []


def test_killing_sl2(sl2):
    km = sl2.killing_matrix()
    # classical values in the (h, e, f) basis
    assert km == Mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    assert sl2.killing(sl2.basis_vector(1), sl2.basis_vector(2)) == 4


def test_subalgebra_and_quotient(e2):
    sub, incl = e2.subalgebra([e2.basis_vector(0), e2.basis_vector(1)])
    assert sub.dim == 2 and sub.is_abelian()
    assert incl == [(1, 0, 0), (0, 1, 0)]
    q, lift, proj = e2.quotient([e2.basis_vector(0), e2.basis_vector(1)])
    assert q.dim == 1 and q.is_abelian()
    assert lift == [(0, 0, 1)]
    assert proj @ e2.basis_vector(2) == (1,)


def test_quotient_respects_brackets(h3):
    q, lift, proj = h3.quotient([h3.basis_vector(2)])
    assert q.dim == 2 and q.is_abelian()


def test_is_ideal(e2, sl2):
    assert e2.is_ideal([e2.basis_vector(0), e2.basis_vector(1)])
    assert not e2.is_ideal([e2.basis_vector(2)])
    assert not sl2.is_ideal([sl2.basis_vector(0)])


def test_names_do_not_affect_equality():
    a = LieAlgebra.from_entries(2, {}, names=("a", "b"))
    b = LieAlgebra.from_entries(2, {}, names=("u", "v"))
    assert a == b


def test_from_matrices_closure():
    e13 = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    e23 = Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    rot = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    alg, mats, grew = from_matrices([e13, e23, rot])
    assert not grew
    assert alg.dim == 3
    assert alg.is_solvable() and not alg.is_nilpotent()


def test_from_matrices_grows_to_closure():
    # e and f alone generate all of sl2
    e = Mat([[0, 1], [0, 0]])
    f = Mat([[0, 0], [1, 0]])
    alg, mats, grew = from_matrices([e, f])
    assert grew
    assert alg.dim == 3
    assert alg.is_semisimple()


def _general_subalgebra(g, basis):
    """The closed-subspace route of LieAlgebra.subalgebra."""
    rows = span_basis(basis)
    assert g.is_subalgebra(rows)
    k = len(rows)
    coords = coords_in_span(rows, [g.bracket(a, b) for a in rows for b in rows])
    return LieAlgebra(k, [coords[i * k:(i + 1) * k] for i in range(k)]), rows


def _typed(table):
    return [[[(type(c), c) for c in v] for v in row] for row in table]


def test_subalgebra_of_the_whole_space_matches_the_general_route(sl2, e2):
    # int entries, kept as given by the constructor
    int_h3 = LieAlgebra(3, [[(0, 0, 0), (0, 0, 1), (0, 0, 0)],
                            [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
                            [(0, 0, 0), (0, 0, 0), (0, 0, 0)]])
    for g in (int_h3, sl2, e2):
        n = g.dim
        bases = (g.basis(),
                 [tuple(int(i == j) for j in range(n)) for i in range(n)],
                 [tuple(Fraction(i + j + 1) if j >= i else Fraction(0)
                        for j in range(n)) for i in range(n)],
                 [tuple(GaussRat(int(i == j), int(j == i + 1))
                        for j in range(n)) for i in range(n)])
        for basis in bases:
            sub, rows = g.subalgebra(basis)
            want, want_rows = _general_subalgebra(g, basis)
            assert rows == want_rows
            assert _typed(sub.table) == _typed(want.table)
            assert sub.names == want.names == ("e0", "e1", "e2")
            assert sub == g
