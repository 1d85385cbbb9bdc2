import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liedef.corpus import corpus
from liedef.errors import InputError
from liedef.lie import LieAlgebra, from_matrices
from liedef.linalg import (Mat, coords_in_span, inverse, is_zero_vec, kernel,
                           span_basis, trace_product, vadd)
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


def _h3_table():
    zero = (0, 0, 0)
    return [[zero, (0, 0, 1), zero],
            [(0, 0, -1), zero, zero],
            [zero, zero, zero]]


def _raises(table, message):
    with pytest.raises(InputError) as err:
        LieAlgebra(3, table)
    assert str(err.value) == message


def test_constructor_names_the_first_non_antisymmetric_pair():
    table = _h3_table()
    table[1][2] = (1, 0, 0)
    _raises(table, "bracket table is not antisymmetric at (1, 2)")
    table[0][2] = (0, 1, 0)
    _raises(table, "bracket table is not antisymmetric at (0, 2)")
    # the pair is named by its upper entry whichever side is wrong
    table = _h3_table()
    table[2][0] = (0, 0, 5)
    _raises(table, "bracket table is not antisymmetric at (0, 2)")
    table = _h3_table()
    table[1][0] = (0, 0, 1)
    _raises(table, "bracket table is not antisymmetric at (0, 1)")


def test_constructor_rejects_a_nonzero_self_bracket():
    table = _h3_table()
    table[2][2] = (0, 0, Fraction(1, 2))
    _raises(table, "bracket table is not antisymmetric at (2, 2)")


def test_constructor_rejects_a_value_of_the_wrong_length():
    table = _h3_table()
    table[0][2] = (0, 0)
    _raises(table, "bracket value has the wrong length")
    # a short value below the diagonal breaks its pair first
    table = _h3_table()
    table[2][1] = (0, 0, 0, 0)
    _raises(table, "bracket table is not antisymmetric at (1, 2)")
    table = _h3_table()
    table[0][0] = ()
    _raises(table, "bracket value has the wrong length")


def test_constructor_keeps_the_table_as_given():
    table = _h3_table()
    table[1][2] = (Fraction(1, 3), 0, 0)
    table[2][1] = (Fraction(-1, 3), 0, 0)
    g = LieAlgebra(3, [list(row) for row in table])
    assert g.table == tuple(tuple(row) for row in table)
    assert _typed(g.table) == _typed(table)


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


# -- structure constants against dense formulas ----------------------------------
#
# Each reference below reads the table alone and sums every product of
# nonzero factors over all indices, in the order the definition writes them;
# values and entry types must match the Lie layer's.

def _ref_bracket(table, x, y):
    n = len(table)
    return tuple(sum((x[i] * y[j] * table[i][j][k]
                      for i in range(n) for j in range(n)
                      if x[i] and y[j] and table[i][j][k]), Fraction(0))
                 for k in range(n))


def _ref_ad(table, x):
    n = len(table)
    return Mat([[sum((x[i] * table[i][j][k] for i in range(n)
                      if x[i] and table[i][j][k]), Fraction(0))
                 for j in range(n)] for k in range(n)])


def _ref_killing(table):
    # tr(ad e_i ad e_j) = sum over l, k of c_ik^l c_jl^k
    n = len(table)
    return Mat([[sum((table[i][k][l] * table[j][l][k]
                      for l in range(n) for k in range(n)
                      if table[i][k][l] and table[j][l][k]), Fraction(0))
                 for j in range(n)] for i in range(n)])


def _units(n):
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def _ref_span_of_brackets(table, a_basis, b_basis):
    return span_basis([_ref_bracket(table, a, b)
                       for a in a_basis for b in b_basis])


def _ref_derived_series(table):
    series = [span_basis(_units(len(table)))]
    while series[-1]:
        nxt = _ref_span_of_brackets(table, series[-1], series[-1])
        if len(nxt) == len(series[-1]):
            break
        series.append(nxt)
    return series


def _ref_centralizer(table, vectors):
    n = len(table)
    rows = [[_ref_bracket(table, e, v)[k] for e in _units(n)]
            for v in vectors for k in range(n)]
    return kernel(Mat(rows)) if rows else span_basis(_units(n))


def _typed_vec(v):
    return [(type(c), c) for c in v]


def _typed_rows(rows):
    return [_typed_vec(r) for r in rows]


_small = st.integers(-3, 3)
_fraction = st.builds(Fraction, _small, st.integers(1, 3))


@st.composite
def _algebras(draw):
    """An antisymmetric table, with Fraction entries or with plain ints
    kept as given; the Jacobi identity is not needed by these formulas."""
    n = draw(st.integers(1, 5))
    ints = draw(st.booleans())
    entry = _small if ints else st.one_of(st.just(Fraction(0)), _fraction)
    zero = 0 if ints else Fraction(0)
    table = [[(zero,) * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                v = tuple(draw(entry) for _ in range(n))
                table[i][j] = v
                table[j][i] = tuple(-c for c in v)
    return LieAlgebra(n, table)


def _vectors(n):
    scalar = st.one_of(st.just(0), _small, _fraction,
                       st.builds(GaussRat, _small, _small))
    return st.lists(scalar, min_size=n, max_size=n).map(tuple)


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_structure_constants_match_dense_formulas(data):
    g = data.draw(_algebras())
    n, t = g.dim, g.table
    x, y = data.draw(_vectors(n)), data.draw(_vectors(n))
    assert _typed_vec(g.bracket(x, y)) == _typed_vec(_ref_bracket(t, x, y))
    assert _typed_rows(g.ad(x).rows) == _typed_rows(_ref_ad(t, x).rows)
    assert (_typed_rows(g.killing_matrix().rows)
            == _typed_rows(_ref_killing(t).rows))
    rows = g.derived_algebra() + g.basis()
    assert (_typed_rows(g._killing_rows(rows))
            == _typed_rows([_ref_killing(t) @ d for d in rows]))
    units = _units(n)
    assert (_typed_rows(g.derived_algebra())
            == _typed_rows(_ref_span_of_brackets(t, units, units)))
    assert ([_typed_rows(s) for s in g.derived_series()]
            == [_typed_rows(s) for s in _ref_derived_series(t)])
    for vectors in ([], [x], [x, y], g.basis()):
        assert (_typed_rows(g.centralizer(vectors))
                == _typed_rows(_ref_centralizer(t, vectors)))


# -- nothing is remembered between calls -----------------------------------------

def test_an_algebra_keeps_only_its_table_and_its_index(sl2, e2, h3):
    assert set(LieAlgebra.__slots__) == {"dim", "table", "names", "_terms"}
    for g in (sl2, e2, h3):
        before = tuple(getattr(g, name) for name in LieAlgebra.__slots__)
        first = (g.is_solvable(), g.killing_matrix(), g.derived_algebra())
        second = (g.is_solvable(), g.killing_matrix(), g.derived_algebra())
        assert first == second
        after = tuple(getattr(g, name) for name in LieAlgebra.__slots__)
        assert all(a is b for a, b in zip(before, after))


# -- the table reads against the unit-vector and dense routes --------------------
#
# Each reference brackets unit vectors or builds every ad(e_i) densely, as the
# table reads replaced; values, entry types and the order of the Jacobi
# failures must match.

def _unit_validate(g):
    units, bad = g.basis(), []
    for i, j, k in combinations(range(g.dim), 3):
        ei, ej, ek = units[i], units[j], units[k]
        res = vadd(vadd(g.bracket(g.bracket(ei, ej), ek),
                        g.bracket(g.bracket(ej, ek), ei)),
                   g.bracket(g.bracket(ek, ei), ej))
        if not is_zero_vec(res):
            bad.append((i, j, k, res))
    return bad


def _dense_killing(g):
    ads = [Mat.from_cols(row) for row in g.table]
    return [[trace_product(a, b) for b in ads] for a in ads]


def _unit_lower_central_series(g):
    units = g.basis()
    series = [span_basis(units)]
    nxt = span_basis([g.bracket(a, b) for a, b in combinations(units, 2)])
    while len(nxt) < len(series[-1]):
        series.append(nxt)
        nxt = span_basis([g.bracket(a, b) for a in series[0] for b in nxt])
    return series


def _seeded_solvable(rng):
    """A criterion-8-shaped algebra: an abelian or Heisenberg ideal with
    one or two commuting derivations by rotation-scaling blocks and real
    scalings, in a sheared basis."""
    values = [Fraction(p, q) for p in range(-2, 3) for q in (1, 2)]
    m = rng.randint(2, 4)
    ext = rng.randint(1, 2)
    n = m + ext
    entries = {}
    if m >= 3 and rng.random() < 0.5:
        entries[(0, 1)] = tuple(Fraction(int(t == 2)) for t in range(n))
        m_blocks = [(0, 2)]
    else:
        m_blocks = [(i, 1) for i in range(m)]
    for d in range(m, n):
        a, b = rng.choice(values), rng.choice(values)
        for pos, size in m_blocks:
            if size == 2:
                # [x, y] = z, so ad(d) acts on z by its trace 2a on (x, y)
                images = {pos: {pos: a, pos + 1: b},
                          pos + 1: {pos: -b, pos + 1: a}, 2: {2: 2 * a}}
            else:
                images = {pos: {pos: rng.choice(values)}}
            for e, image in images.items():
                entries[(d, e)] = tuple(image.get(t, Fraction(0))
                                        for t in range(n))
    g = LieAlgebra.from_entries(n, {k: v for k, v in entries.items()
                                    if any(v)})
    t = [list(r) for r in Mat.identity(n).rows]
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            t[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(t[i], t[j])]
    t = Mat(t)
    tinv, cols = inverse(t), [t.col(i) for i in range(n)]
    return LieAlgebra(n, [[tuple(tinv @ g.bracket(cols[i], cols[j]))
                           for j in range(n)] for i in range(n)])


def _perturbed(rng, g):
    """g with one bracket [e_i, e_j] (and [e_j, e_i]) moved so that the
    unit-vector route finds a Jacobi failure, or None after ten tries."""
    for _ in range(10):
        i, j = sorted(rng.sample(range(g.dim), 2))
        table = [list(row) for row in g.table]
        v = list(table[i][j])
        v[rng.randrange(g.dim)] += Fraction(rng.randint(1, 5),
                                            rng.randint(1, 3))
        table[i][j], table[j][i] = tuple(v), tuple(-c for c in v)
        out = LieAlgebra(g.dim, table)
        if _unit_validate(out):
            return out
    return None


def test_table_reads_match_the_unit_vector_routes():
    rng = random.Random(20261019)
    algebras = [e.algebra for e in corpus()]
    algebras += [_seeded_solvable(rng) for _ in range(12)]
    valid = len(algebras)
    algebras += [h for h in (_perturbed(rng, g) for g in algebras[:valid]
                             if g.dim >= 3) if h is not None]
    failing = 0
    for g in algebras:
        assert _typed_rows(g.killing_matrix().rows) == _typed_rows(
            _dense_killing(g))
        units = g.basis()
        assert _typed_rows(g.derived_algebra()) == _typed_rows(span_basis(
            [g.bracket(a, b) for a, b in combinations(units, 2)]))
        assert ([_typed_rows(s) for s in g.lower_central_series()]
                == [_typed_rows(s) for s in _unit_lower_central_series(g)])
        bad, want = g.validate(), _unit_validate(g)
        assert [(i, j, k, _typed_vec(r)) for i, j, k, r in bad] == [
            (i, j, k, _typed_vec(r)) for i, j, k, r in want]
        if want:
            failing += 1
            with pytest.raises(InputError) as err:
                g.require_valid()
            assert str(err.value) == (
                "Jacobi identity fails on basis triple (%d, %d, %d)"
                % want[0][:3])
        else:
            g.require_valid()
    assert valid >= 30 and failing == len(algebras) - valid >= 25


# -- the trace form's Killing rows -----------------------------------------------

def test_the_killing_rows_are_the_killing_matrix_at_each_row():
    """_killing_rows(vectors) is killing_matrix() @ d for each d, in value
    and entry type, and _trace_form keeps the nonzero ones at the rows of
    [g, g]: over the corpus (the open-regime algebras first) and a seeded
    solvable sweep."""
    named = {e.name: e.algebra for e in corpus()}
    algebras = [named[name] for name in ("sl2", "so3", "gl2",
                                         "sl2-semidirect-r2", "so3-plus-e2")]
    algebras += [e.algebra for e in corpus()]
    rng = random.Random(20261020)
    algebras += [_seeded_solvable(rng) for _ in range(24)]
    nonzero = 0
    for g in algebras:
        k = g.killing_matrix()
        series = g.derived_series()
        derived = series[1] if len(series) > 1 else series[0]
        for vectors in (derived, g.basis(), []):
            assert (_typed_rows(g._killing_rows(vectors))
                    == _typed_rows([k @ d for d in vectors]))
        want = [r for r in (k @ d for d in derived) if not is_zero_vec(r)]
        got_derived, rows = g._trace_form()
        assert _typed_rows(got_derived) == _typed_rows(derived)
        assert _typed_rows(rows) == _typed_rows(want)
        nonzero += bool(rows)
    assert nonzero >= 5

