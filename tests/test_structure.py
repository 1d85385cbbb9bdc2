import random
from bisect import insort
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liedef.corpus import corpus
from liedef.definability import (SS_YES, GroupPresentation,
                                 definability_oracle, supersolvable_test)
from liedef.errors import PreconditionError
from liedef.lie import LieAlgebra, from_matrices
from liedef.linalg import (Mat, block_diag, inverse, kernel, lincomb,
                           span_basis, trace_product)
from liedef.structure import (_matrix_hull, commuting_levi, is_torus_like,
                              levi_subalgebra, nilradical, radical)
from test_acceptance import _change_basis, _random_solvable


def gl2():
    # sl2 plus a central generator, basis (h, e, f, I)
    return LieAlgebra.from_entries(4, {
        (0, 1): (0, 2, 0, 0),
        (0, 2): (0, 0, -2, 0),
        (1, 2): (1, 0, 0, 0),
    }, names=("h", "e", "f", "I"))


def sl2_semidirect_r2():
    # sl2 acting on its standard 2-dim module, basis (h, e, f, x, y)
    return LieAlgebra.from_entries(5, {
        (0, 1): (0, 2, 0, 0, 0),
        (0, 2): (0, 0, -2, 0, 0),
        (1, 2): (1, 0, 0, 0, 0),
        (0, 3): (0, 0, 0, 1, 0),
        (0, 4): (0, 0, 0, 0, -1),
        (1, 4): (0, 0, 0, 1, 0),
        (2, 3): (0, 0, 0, 0, 1),
    })


def so3_plus_e2():
    return LieAlgebra.from_entries(6, {
        (0, 1): (0, 0, 1, 0, 0, 0),
        (0, 2): (0, -1, 0, 0, 0, 0),
        (1, 2): (1, 0, 0, 0, 0, 0),
        (3, 5): (0, 0, 0, 0, -1, 0),
        (4, 5): (0, 0, 0, 1, 0, 0),
    })


def test_radical_of_solvable_is_everything(e2, h3):
    assert radical(e2) == span_basis(e2.basis())
    assert radical(h3) == span_basis(h3.basis())


def test_radical_of_semisimple_is_zero(sl2, so3):
    assert radical(sl2) == []
    assert radical(so3) == []


def test_radical_gl2_is_center():
    g = gl2()
    assert radical(g) == [(0, 0, 0, 1)]


def test_radical_of_semidirect_product():
    g = sl2_semidirect_r2()
    assert radical(g) == [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]


def test_nilradical_pins(e2, axb, h3, oscillator):
    assert nilradical(e2) == [(1, 0, 0), (0, 1, 0)]
    assert nilradical(axb) == [(0, 1)]
    # nilpotent algebra: the nilradical is everything
    assert nilradical(h3) == span_basis(h3.basis())
    assert nilradical(oscillator) == [(1, 0, 0), (0, 1, 0)]


def test_nilradical_of_reductive_is_center():
    assert nilradical(gl2()) == [(0, 0, 0, 1)]


def test_levi_splits_semidirect_product():
    g = sl2_semidirect_r2()
    dec = levi_subalgebra(g)
    assert span_basis(dec.radical) == [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    levi = span_basis(dec.levi)
    assert len(levi) == 3
    sub, _ = g.subalgebra(levi)
    assert sub.is_semisimple()
    # radical + levi spans everything
    assert len(span_basis(list(dec.radical) + list(dec.levi))) == 5


def _sl2_action(n):
    """h, e, f on the irreducible module V_n of sl2, basis v_0..v_n:
    h v_k = (n - 2k) v_k, e v_k = (n - k + 1) v_(k-1), f v_k = (k + 1)
    v_(k+1)."""
    def mat(entry):
        return Mat([[Fraction(entry(i, k)) for k in range(n + 1)]
                    for i in range(n + 1)])
    return (mat(lambda i, k: n - 2 * k if i == k else 0),
            mat(lambda i, k: n - k + 1 if i == k - 1 else 0),
            mat(lambda i, k: k + 1 if i == k + 1 else 0))


def _sl2_semidirect(*degrees):
    """sl2 x| (V_a + V_b + ...), basis (h, e, f, then each module's
    v_0..v_a); the radical is the abelian module part."""
    acts = [block_diag([_sl2_action(a)[x] for a in degrees])
            for x in range(3)]
    m = acts[0].nrows
    pad = (0,) * m
    entries = {(0, 1): (0, 2, 0) + pad, (0, 2): (0, 0, -2) + pad,
               (1, 2): (1, 0, 0) + pad}
    for x in range(3):
        for k in range(m):
            entries[(x, 3 + k)] = (0, 0, 0) + acts[x].col(k)
    return LieAlgebra.from_entries(3 + m, entries)


def _mixed_basis(dim, seed):
    """A seeded unit lower times unit upper triangular matrix, entries of
    both factors in {-1, 0, 1}: it mixes the Levi part into the radical."""
    rng = random.Random(seed)
    lower = Mat([[Fraction(1) if i == j else
                  Fraction(rng.randint(-1, 1)) if j < i else Fraction(0)
                  for j in range(dim)] for i in range(dim)])
    upper = Mat([[Fraction(1) if i == j else
                  Fraction(rng.randint(-1, 1)) if j > i else Fraction(0)
                  for j in range(dim)] for i in range(dim)])
    return lower @ upper


# levi_subalgebra rows of sl2 x| V under one fixed basis change each, all
# Fraction entries: the cocycle system of an abelian radical, solved with
# its free variables zero, then brought to rref
LEVI_PINS = (
    ((1,), 1, ("1 0 7/4 3/2 0", "0 1 -7/8 -7/4 0", "0 0 0 0 1")),
    ((1, 2), 2, ("1 0 0 0 0 0 -1/2 11/18",
                 "0 1 0 2540/537 116/179 -1045/537 -1271/1074 -1501/9666",
                 "0 0 1 237/179 4/179 60/179 -68/179 -67/537")),
    ((2,), 3, ("1 0 0 -1 1 12", "0 1 0 2 -69/19 -619/19",
               "0 0 1 71/35 -687/266 -3343/133")),
    ((1, 1), 4, ("1 0 0 -1/20 -23/20 1/20 -9/20", "0 1 0 0 0 0 -1",
                 "0 0 1 -3/10 1/10 23/10 3/10")),
)


def test_levi_rows_are_pinned_on_sheared_semidirect_products():
    for degrees, seed_, want in LEVI_PINS:
        g = _sl2_semidirect(*degrees)
        g.require_valid()
        # unsheared, the Levi part is sl2 itself
        assert levi_subalgebra(g).levi == tuple(g.basis()[:3])
        g = _change_basis(g, _mixed_basis(g.dim, seed_))
        got = [[(type(c).__name__, str(c)) for c in row]
               for row in levi_subalgebra(g).levi]
        assert got == [[("Fraction", c) for c in row.split()]
                       for row in want]


def test_levi_of_solvable_algebra(e2):
    dec = levi_subalgebra(e2)
    assert dec.levi == ()
    assert span_basis(dec.radical) == span_basis(e2.basis())


def test_levi_of_semisimple(sl2):
    dec = levi_subalgebra(sl2)
    assert dec.radical == ()
    assert span_basis(dec.levi) == span_basis(sl2.basis())


def test_is_torus_like():
    g = so3_plus_e2()
    rot = g.basis_vector(5)
    assert is_torus_like(g, [rot])
    # a nilpotent direction is not torus-like
    assert not is_torus_like(g, [g.basis_vector(3)])
    # so3 directions have the right spectrum but live outside the radical;
    # torus-likeness alone does not see that
    assert is_torus_like(g, [g.basis_vector(0)])


def test_commuting_levi():
    g = so3_plus_e2()
    levi = commuting_levi(g, [g.basis_vector(5)])
    assert span_basis(levi) == [
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]


def test_commuting_levi_rejects_nontorus():
    g = so3_plus_e2()
    with pytest.raises(PreconditionError):
        commuting_levi(g, [g.basis_vector(3)])
    with pytest.raises(PreconditionError):
        commuting_levi(g, [g.basis_vector(0)])


def test_commuting_levi_trivial_torus(sl2):
    assert span_basis(commuting_levi(sl2, [])) == span_basis(sl2.basis())


def test_radical_entries_are_rational():
    g = sl2_semidirect_r2()
    for row in radical(g):
        assert all(isinstance(c, Fraction) for c in row)


# -- nilradical against the dense route --------------------------------------

def _dense_hull(mats):
    """The associative span of the matrices, grown by all pairwise products
    of the current basis until it stops growing."""
    flats = span_basis([m.flatten() for m in mats])
    if not flats:
        return []
    n = mats[0].nrows

    def unflatten(v):
        return Mat([v[i * n:(i + 1) * n] for i in range(n)])

    while True:
        cur = [unflatten(v) for v in flats]
        grown = span_basis(flats + [(a @ b).flatten()
                                    for a in cur for b in cur])
        if len(grown) == len(flats):
            return cur
        flats = grown


def _dense_nilradical(g):
    """The trace-form kernel on the hull of every ad(x), x in the radical,
    taken inside a materialized copy of the radical."""
    rad = radical(g)
    if not rad:
        return []
    rs, incl = g.subalgebra(rad)
    ads = [rs.ad(rs.basis_vector(i)) for i in range(rs.dim)]
    hull = _dense_hull(ads)
    if hull:
        coords = kernel(Mat([[trace_product(a, b) for a in ads]
                             for b in hull]))
    else:
        coords = [rs.basis_vector(i) for i in range(rs.dim)]
    return span_basis([lincomb(co, incl, g.dim) for co in coords])


def _typed_rows(rows):
    return [[(type(c).__name__, c) for c in row] for row in rows]


_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _triangular_algebras(draw):
    """The Lie algebra of random upper-triangular rational matrices, in a
    random rational basis: unit lower times unit upper triangular, then a
    diagonal scaling, so the change is always invertible."""
    n = draw(st.integers(2, 3))
    diagonal = draw(st.booleans())
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        mats.append(Mat([[draw(_small_q) if j > i or (j == i and diagonal)
                          else Fraction(0) for j in range(n)]
                         for i in range(n)]))
    if all(m.is_zero() for m in mats):
        mats[0] = Mat([[Fraction(int(j == i + 1)) for j in range(n)]
                       for i in range(n)])
    g, _, _ = from_matrices(mats)
    k = g.dim
    lower = Mat([[Fraction(1) if i == j else draw(_small_q) if i > j
                  else Fraction(0) for j in range(k)] for i in range(k)])
    upper = Mat([[Fraction(1) if i == j else draw(_small_q) if i < j
                  else Fraction(0) for j in range(k)] for i in range(k)])
    scale = Mat.diag([draw(st.sampled_from((1, -1, 2, Fraction(1, 3))))
                      for _ in range(k)])
    t = lower @ upper @ scale
    tinv = inverse(t)
    cols = t.cols()
    return LieAlgebra(k, [[tinv @ g.bracket(cols[i], cols[j])
                           for j in range(k)] for i in range(k)])


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(_triangular_algebras())
def test_nilradical_matches_the_dense_route(g):
    assert _typed_rows(nilradical(g)) == _typed_rows(_dense_nilradical(g))


@seed(20261021)
@settings(max_examples=40, deadline=None, database=None)
@given(_triangular_algebras())
def test_nilradical_is_the_kernel_of_the_step_characters(g):
    # the route supersolvable_triangular_rep takes: for solvable g, nil(g)
    # is where every adjoint step character vanishes
    ss = supersolvable_test(g)
    assert ss.status == SS_YES
    chars_route = span_basis(kernel(Mat(ss.step_characters)))
    assert _typed_rows(chars_route) == _typed_rows(nilradical(g))


def test_nilradical_computes_the_derived_algebra_once(monkeypatch, axb, e2,
                                                      oscillator):
    """radical reads [g, g] off the table of each table once, in its trace
    form: g's, and a proper radical r's in the solvability check of r.
    nilradical takes [r, r] from there; its one repeat, on r's table, is
    the first step of the lower central series that is_nilpotent runs.  No
    oracle call brackets the standard basis in pairs, not even the weight
    peel's chain of ideals."""
    computed = Counter()
    read = LieAlgebra.derived_algebra
    pair_span = LieAlgebra._pair_span

    def counted(self):
        computed[repr(self.table)] += 1
        return read(self)

    def pairs(self, vectors):
        assert list(vectors) != self.basis(), "standard basis in pairs"
        return pair_span(self, vectors)

    monkeypatch.setattr(LieAlgebra, "derived_algebra", counted)
    monkeypatch.setattr(LieAlgebra, "_pair_span", pairs)
    # solvable, so r = g; gl2's radical is abelian; so3 + e2 has the proper
    # radical e2
    for g in (axb, e2, oscillator, gl2(), so3_plus_e2()):
        computed.clear()
        radical(g)
        assert set(computed.values()) == {1}
        computed.clear()
        assert nilradical(g)
        assert Counter(computed.values()) == {2: 1, 1: len(computed) - 1}
    kinds = {"definable-simply-connected": ("simply-connected", False),
             "definable-abstract": ("abstract", False),
             "definable-linear": ("linear", False),
             "definable-finite-center-levi": ("abstract", True)}
    calls = 0
    for entry in corpus():
        for key, (kind, finite_center_levi) in kinds.items():
            if key in entry.known:
                definability_oracle(GroupPresentation(
                    entry.algebra, kind, finite_center_levi=finite_center_levi))
                calls += 1
    assert calls >= 60


def test_nilradical_matches_the_dense_route_beyond_solvable():
    # gl2 and sl2 x| R^2 have an abelian radical; the radical e2 of
    # so3 + e2 is a proper ideal that is not nilpotent
    for g in (gl2(), sl2_semidirect_r2(), so3_plus_e2()):
        assert _typed_rows(nilradical(g)) == _typed_rows(_dense_nilradical(g))
    assert nilradical(so3_plus_e2()) == [(0, 0, 0, 1, 0, 0),
                                         (0, 0, 0, 0, 1, 0)]


# -- the associative hull against a forward echelon ---------------------------

def _ref_matrix_hull(mats):
    """The hull as it was grown on its own forward echelon: a product is
    kept when it leaves the span of the echelon rows, which have leading
    entry 1 and are kept sorted by pivot."""
    echelon = []
    hull = []

    def grows(m):
        v = m.flatten()
        for p, row in echelon:
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        p = next((j for j, c in enumerate(v) if c), None)
        if p is None:
            return False
        lead = v[p]
        insort(echelon, (p, [c / lead for c in v]))
        hull.append(m)
        return True

    frontier = [m for m in mats if grows(m)]
    while frontier:
        frontier = [prod for m in frontier for s in mats
                    for prod in (m @ s,) if grows(prod)]
    return hull


def _radical_ad_sets(g):
    """The ads nilradical hands _matrix_hull, those off the pivots of
    [r, r], and every ad of the radical r, for a non-nilpotent r."""
    rad = radical(g)
    if not rad:
        return []
    rs, _ = g.subalgebra(rad)
    if rs.is_nilpotent():
        return []
    pivots = {next(j for j, c in enumerate(v) if c)
              for v in rs.derived_algebra()}
    ads = [rs.ad(rs.basis_vector(i)) for i in range(rs.dim)]
    return [[ads[i] for i in range(rs.dim) if i not in pivots], ads]


def test_matrix_hull_matches_the_forward_echelon():
    rng = random.Random(20261020)
    algebras = [entry.algebra for entry in corpus()]
    algebras += [_random_solvable(rng) for _ in range(40)]
    sets = [s for g in algebras for s in _radical_ad_sets(g)]
    assert len(sets) >= 40
    for mats in sets:
        got = _matrix_hull(mats)
        assert [_typed_rows(m.rows) for m in got] \
            == [_typed_rows(m.rows) for m in _ref_matrix_hull(mats)]
