from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedef.poly import (Poly, all_roots_real, gaussian_roots, poly_gcd,
                         purely_imaginary_spectrum, squarefree_part,
                         sturm_count_in_interval, sturm_count_real_roots)
from liedef.scalars import GaussRat, gauss

x = Poly((Fraction(0), Fraction(1)))


def lin(r):
    """x - r"""
    return Poly((Fraction(-r), Fraction(1)))


def quad(a, b):
    """(x - a)^2 + b^2, roots a +- bi"""
    return lin(a) * lin(a) + Poly((Fraction(b) * Fraction(b),))


def prod(ps):
    out = Poly((Fraction(1),))
    for p in ps:
        out = out * p
    return out


small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def test_poly_basic_ops():
    p = Poly((Fraction(1), Fraction(2), Fraction(1)))
    assert p.degree == 2
    assert p(Fraction(-1)) == 0
    assert (p - p).is_zero()
    assert (x * x + Poly((Fraction(2),)) * x + Poly((Fraction(1),))) == p


@given(st.lists(small_rats, min_size=1, max_size=4),
       st.lists(small_rats, min_size=1, max_size=4))
def test_degree_of_product(a, b):
    p, q = Poly(tuple(a)), Poly(tuple(b))
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


@settings(max_examples=60)
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=3, unique=True),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)),
                min_size=0, max_size=2),
       st.lists(st.integers(1, 3), min_size=5, max_size=5))
def test_sturm_count_by_construction(real_roots, complex_pairs, powers):
    # polynomial built from known roots, each factor raised to a planted
    # power: the number of distinct real roots is known in advance
    factors = [lin(r) for r in real_roots]
    factors += [quad(a, b) for a, b in complex_pairs]
    if not factors:
        return
    p = prod(f for f, k in zip(factors, powers) for _ in range(k))
    assert sturm_count_real_roots(p) == len(real_roots)
    assert all_roots_real(p) == (not complex_pairs)


def test_sturm_multiplicity_insensitive():
    p = lin(1) * lin(1) * lin(-2)
    assert sturm_count_real_roots(p) == 2


def test_sturm_interval():
    p = lin(0) * lin(2) * lin(5)
    assert sturm_count_in_interval(p, Fraction(1), Fraction(3)) == 1
    assert sturm_count_in_interval(p, Fraction(-1), Fraction(10)) == 3
    assert sturm_count_in_interval(p, Fraction(3)) == 1  # (3, inf)


def test_irrational_real_roots_counted():
    p = x * x - Poly((Fraction(2),))  # roots +-sqrt(2)
    assert sturm_count_real_roots(p) == 2
    assert all_roots_real(p)


def test_purely_imaginary_spectrum():
    assert purely_imaginary_spectrum(x)
    assert purely_imaginary_spectrum(x * x + Poly((Fraction(1),)))
    assert purely_imaginary_spectrum(x * x + Poly((Fraction(2),)))
    assert purely_imaginary_spectrum(
        x * (x * x + Poly((Fraction(1),))) * (x * x + Poly((Fraction(4),))))
    assert not purely_imaginary_spectrum(x * x - Poly((Fraction(1),)))
    assert not purely_imaginary_spectrum(x * x + x + Poly((Fraction(1),)))
    assert not purely_imaginary_spectrum(lin(1))
    # x^4 + 1: roots on the unit circle but off both axes
    assert not purely_imaginary_spectrum(x * x * x * x + Poly((Fraction(1),)))


def test_squarefree_part():
    p = lin(1) * lin(1) * lin(2)
    sf = squarefree_part(p)
    assert sf.degree == 2
    assert sf(Fraction(1)) == 0 and sf(Fraction(2)) == 0


@given(st.lists(small_rats, min_size=1, max_size=3),
       st.lists(small_rats, min_size=1, max_size=3))
def test_gcd_divides(a, b):
    p, q = Poly(tuple(a)), Poly(tuple(b))
    if p.is_zero() or q.is_zero():
        return
    g = poly_gcd(p, q)
    assert p.divmod(g)[1].is_zero()
    assert q.divmod(g)[1].is_zero()


# Exact roots of planted products.  Each factor comes with the roots it adds
# and the degree it leaves over: x - r for r in Q or Q(i), (x - a)^2 + b^2 for
# a conjugate pair, and (x - a)^2 -+ 2 b^2, which has no root in Q(i) since
# neither sqrt(2) nor sqrt(-2) lies in Q(i).

HEIGHT = 10**12
big_rats = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT),
                     st.integers(1, 10**4))
nonzero = st.integers(1, 10**6)


def glin(z):
    """x - z over Q(i)"""
    return Poly((-z, GaussRat(1)))


def _real_factors():
    return st.one_of(
        st.builds(lambda r: (lin(r), [GaussRat(r)], 0), big_rats),
        st.builds(lambda a, b: (quad(a, b), [GaussRat(a, b), GaussRat(a, -b)],
                                0), big_rats, nonzero),
        st.builds(lambda a, b, sign: (lin(a) * lin(a)
                                      + Poly((Fraction(sign * 2 * b * b),)), [], 2),
                  st.integers(-10**6, 10**6), nonzero, st.sampled_from((1, -1))))


@st.composite
def planted(draw, gaussian):
    factors = _real_factors()
    if gaussian:
        factors = st.one_of(factors, st.builds(
            lambda z: (glin(z), [z], 0), st.builds(GaussRat, big_rats, big_rats)))
    lead = draw(st.builds(Fraction, st.integers(1, 10**6), nonzero))
    zeros = draw(st.integers(0, 2))
    p = Poly((lead,)) * prod([x] * zeros)
    expected, leftover = {}, 0
    if zeros:
        expected[GaussRat(0)] = zeros
    for f, roots, left in draw(st.lists(factors, min_size=1, max_size=3)):
        mult = draw(st.integers(1, 3))
        p = p * prod([f] * mult)
        leftover += left * mult
        for z in roots:
            expected[z] = expected.get(z, 0) + mult
    return p, expected, leftover


def _check_roots(p, expected, leftover):
    roots, left = gaussian_roots(p)
    assert dict(roots) == expected
    assert left == leftover
    assert [z for z, _ in roots] == sorted(expected, key=lambda z: (z.re, z.im))


@settings(max_examples=80, deadline=None)
@given(planted(gaussian=False))
def test_gaussian_roots_of_planted_real_products(case):
    p, expected, leftover = case
    _check_roots(p, expected, leftover)


@settings(max_examples=80, deadline=None)
@given(planted(gaussian=True))
def test_gaussian_roots_of_planted_gaussian_products(case):
    p, expected, leftover = case
    _check_roots(Poly([gauss(c) for c in p.coeffs]), expected, leftover)


def test_gaussian_roots_skip_unlucky_primes():
    # leading coefficient 25 after clearing denominators: 5 is skipped
    p = lin(Fraction(1, 5)) * lin(Fraction(2, 5)) * quad(3, 4)
    _check_roots(p, {GaussRat(Fraction(1, 5)): 1, GaussRat(Fraction(2, 5)): 1,
                     GaussRat(3, 4): 1, GaussRat(3, -4): 1}, 0)
    # 1 = 6 (mod 5) and 1 = 14 (mod 13): squarefree over Q, not mod 5 or 13
    p = lin(1) * lin(6) * lin(14) * lin(14)
    _check_roots(p, {GaussRat(1): 1, GaussRat(6): 1, GaussRat(14): 2}, 0)
    # over Q(i): 2 + i = 2i mod (5, i - 2), and 2 + i = 2 + 14i (mod 13)
    roots = [GaussRat(2, 1), GaussRat(2, 14), GaussRat(0, 2)]
    p = prod(glin(z) for z in roots)
    _check_roots(p, dict.fromkeys(roots, 1), 0)


def test_gaussian_roots_find_a_large_rational_root():
    p = lin(Fraction(10**12 + 39, 7)) * lin(-3) * x * (x * x - Poly((Fraction(2),)))
    _check_roots(p, {GaussRat(-3): 1, GaussRat(0): 1,
                     GaussRat(Fraction(10**12 + 39, 7)): 1}, 2)


def test_gaussian_roots_split():
    p = Poly((GaussRat(1), GaussRat(0), GaussRat(1)))  # x^2 + 1
    roots, leftover = gaussian_roots(p)
    assert leftover == 0
    assert sorted(((z.re, z.im) for z, _ in roots)) == [(0, -1), (0, 1)]
    assert all(m == 1 for _, m in roots)


def test_gaussian_roots_leftover():
    p = x * x - Poly((Fraction(2),))  # no roots in Q(i)
    roots, leftover = gaussian_roots(p)
    assert roots == []
    assert leftover == 2


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        sturm_count_real_roots(Poly(()))
