import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedef.poly import (Poly, _int_coeffs, _int_gcd, _monic, gaussian_roots,
                         norm, purely_imaginary_spectrum, squarefree_part,
                         sturm_count_real_roots)
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


def gcd_of(p, q):
    """The monic gcd of rational p and q by the integer remainder
    sequence."""
    return _monic(_int_gcd(_int_coeffs(p.coeffs), _int_coeffs(q.coeffs)))


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


def test_sturm_multiplicity_insensitive():
    p = lin(1) * lin(1) * lin(-2)
    assert sturm_count_real_roots(p) == 2


def test_irrational_real_roots_counted():
    p = x * x - Poly((Fraction(2),))  # roots +-sqrt(2)
    assert sturm_count_real_roots(p) == 2


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
    g = gcd_of(p, q)
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


def _typed(p):
    return [(type(c), c) for c in p.coeffs]


def test_int_coefficients_give_exact_fractions():
    p = Poly([1, 2, 1])
    assert _typed(squarefree_part(p)) == [(Fraction, 1), (Fraction, 1)]
    assert _typed(gcd_of(p, Poly([2, 2]))) == [(Fraction, 1),
                                               (Fraction, 1)]
    assert _typed(Poly([3, 6]).monic()) == [(Fraction, Fraction(1, 2)),
                                            (Fraction, 1)]
    quot, rem = Poly([1, 0, 1]).divmod(Poly([0, 2]))
    assert quot.coeffs == (0, Fraction(1, 2)) and rem.coeffs == (1,)
    assert not any(isinstance(c, float) for c in quot.coeffs + rem.coeffs)
    assert _typed(squarefree_part(Poly([5]))) == [(Fraction, 1)]


# -- the integer remainder sequences against Euclid over Q -----------------------
#
# The references run the classical algorithms on Fraction coefficients with
# Poly's own field division, and the answers must match in value and type.

def _ref_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _ref_squarefree(p):
    if p.degree <= 0:
        return p.monic() if not p.is_zero() else p
    return p.divexact(_ref_gcd(p, p.derivative())).monic()


def _ref_chain(q):
    chain = [q, q.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _ref_variations(signs):
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_at(chain, x):
    if x is None:
        return _ref_variations([(f.lead > 0) - (f.lead < 0) for f in chain])
    return _ref_variations([(f(x) > 0) - (f(x) < 0) for f in chain])


def _ref_count_real(p):
    chain = _ref_chain(p)
    neg = _ref_variations([((f.lead > 0) - (f.lead < 0))
                           * (-1 if f.degree % 2 else 1) for f in chain])
    return neg - _ref_at(chain, None)


def _ref_count_in(p, a, b):
    q = _ref_squarefree(p)
    if q.degree <= 0:
        return 0
    chain = _ref_chain(q)
    return _ref_at(chain, a) - _ref_at(chain, b)


def _ref_imaginary(p):
    cs = list(p.coeffs)
    while not cs[0]:
        cs.pop(0)
    if len(cs) == 1:
        return True
    if any(cs[1::2]):
        return False
    q = _ref_squarefree(Poly(cs[0::2]))
    return (_ref_count_real(q) == q.degree
            and _ref_count_in(q, Fraction(0), None) == 0)


def _random_poly(rng, max_degree=12):
    """A product of random linear and quadratic factors, some repeated, with
    coefficients p/q, |p|, q <= 100."""
    def coeff():
        return Fraction(rng.randint(-100, 100), rng.randint(1, 100))
    p = Poly([coeff() or Fraction(1)])
    target = rng.randint(0, max_degree)
    while p.degree < target:
        f = Poly([coeff() for _ in range(rng.randint(2, 3))])
        if f.degree >= 1:
            p = p * f
            if rng.random() < 0.4:
                p = p * f
    return p


def test_integer_remainder_sequences_match_euclid_over_q():
    rng = random.Random(20261019)
    for n in range(200):
        p, q = _random_poly(rng), _random_poly(rng)
        if n % 4 == 3:
            # p(x^2) with a negative leading coefficient: remainders whose
            # degree drops by 2 are scaled an odd number of times
            p = Poly([c for a in (-_random_poly(rng, 6)).coeffs
                      for c in (a, Fraction(0))])
        if rng.random() < 0.5 and p.degree > 0:
            q = q * p.derivative()
        assert _typed(squarefree_part(p)) == _typed(_ref_squarefree(p))
        assert _typed(gcd_of(p, q)) == _typed(_ref_gcd(p, q))
        assert _typed(gcd_of(q, Poly([]))) == _typed(_ref_gcd(q, Poly([])))
        assert sturm_count_real_roots(p) == _ref_count_real(p)
        assert purely_imaginary_spectrum(p) == _ref_imaginary(p)
    assert _typed(gcd_of(Poly([]), Poly([]))) == []


# -- polynomials over Q(i), asked through their norm ------------------------------
#
# The reference is the Euclid route over Q(i): a candidate z is a root when
# the squarefree part of p, computed by _ref_squarefree on the GaussRat
# coefficients with Poly's own division, vanishes at z, and its multiplicity
# is the number of exact divisions by x - z.


def _seeded_gaussian_poly(rng):
    """(p, roots in Q(i) of p, whether every root of p is on the imaginary
    axis): a Gaussian constant times x^k (k <= 2) and up to four factors,
    each raised to a power 1..3: x - z for z in Q(i) (sometimes the
    conjugate or the negative of an earlier z, or on an axis), the cubic
    (x - s)^3 - a with a a non-cube, which has no root in Q(i), and
    (x - ti)^2 + c with c a non-square, whose roots ti +- sqrt(-c) are not
    in Q(i) and lie on the imaginary axis exactly when c > 0."""
    def small():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    lead = GaussRat(small() or 1, small())
    zeros = rng.choice((0, 0, 1, 2))
    p = Poly([lead]) * prod([x] * zeros)
    roots = {GaussRat(0)} if zeros else set()
    imaginary = True
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.6:
            if roots and rng.random() < 0.4:
                z = rng.choice(sorted(roots, key=lambda z: (z.re, z.im)))
                z = rng.choice((z.conj(), -z))
            else:
                z = GaussRat(rng.choice((0, small())), rng.choice((0, small())))
            f = glin(z)
            roots.add(z)
            imaginary = imaginary and not z.re
        elif kind < 0.8:
            # the roots s + r, s + r w, s + r w^2 (r real, r^3 = a, w a cube
            # root of unity) do not all have the real part of s
            s = GaussRat(small(), small())
            f = prod([glin(s)] * 3) - Poly([rng.choice((2, 3, 5, -4, -7))])
            imaginary = False
        else:
            t, c = small(), rng.choice((2, 3, -2, -5, Fraction(1, 2)))
            f = glin(GaussRat(0, t)) * glin(GaussRat(0, t)) + Poly([c])
            imaginary = imaginary and c > 0
        p = p * prod([f] * rng.randint(1, 3))
    return p, roots, imaginary


def _ref_gaussian_roots(p, candidates):
    f = Poly([gauss(c) for c in p.coeffs])
    g = _ref_squarefree(f)
    roots = []
    for z in set(candidates):
        if g(z) == 0:
            mult = 0
            while (f % glin(z)).is_zero():
                f, mult = f.divexact(glin(z)), mult + 1
            roots.append((z, mult))
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    return roots, p.degree - sum(m for _, m in roots)


def _typed_roots(found):
    roots, leftover = found
    return [(type(z), type(z.re), z.re, type(z.im), z.im, m)
            for z, m in roots], leftover


def test_gaussian_roots_match_the_euclid_route_over_q_i():
    rng = random.Random(20261027)
    split = rootless = 0
    for _ in range(150):
        p, roots, _ = _seeded_gaussian_poly(rng)
        # decoys: the conjugates and negatives of the roots, and 1 + i
        candidates = ({z.conj() for z in roots} | {-z for z in roots}
                      | roots | {GaussRat(1, 1)})
        got = gaussian_roots(p)
        assert _typed_roots(got) == _typed_roots(
            _ref_gaussian_roots(p, candidates))
        assert {z for z, _ in got[0]} == roots
        split += got[1] == 0
        rootless += got[1] > 0
    assert split > 20 and rootless > 20


def test_gaussian_roots_of_a_gaussian_polynomial_divide_no_poly(monkeypatch):
    calls = []
    divmod_ = Poly.divmod

    def counting(self, other):
        calls.append(other)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "divmod", counting)
    rng = random.Random(20261028)
    for _ in range(20):
        p, roots, _ = _seeded_gaussian_poly(rng)
        if not p.is_real():
            assert {z for z, _ in gaussian_roots(p)[0]} == roots
    assert calls == []


def test_purely_imaginary_spectrum_of_gaussian_polynomials():
    rng = random.Random(20261029)
    seen = set()
    for _ in range(150):
        p, _, imaginary = _seeded_gaussian_poly(rng)
        assert purely_imaginary_spectrum(p) == imaginary
        seen.add(imaginary)
    assert seen == {True, False}
    i = GaussRat(0, 1)
    assert purely_imaginary_spectrum(Poly([-i, 1]))
    assert not purely_imaginary_spectrum(Poly([-1 - i, 1]))


def test_the_norm_is_rational_with_the_conjugate_roots():
    i = GaussRat(0, 1)
    p = glin(1 + i) * glin(2 * i)
    n = norm(p)
    assert n.is_real() and n.degree == 4
    assert all(n(z) == 0 for z in (1 + i, 1 - i, 2 * i, -2 * i))
    real = lin(3) * lin(3)
    assert norm(real) is real


def test_squarefree_part_rejects_a_nonreal_polynomial():
    i = GaussRat(0, 1)
    with pytest.raises(ValueError, match="not real"):
        squarefree_part(glin(i))
    # a GaussRat coefficient on the real line is rational
    assert _typed(squarefree_part(Poly([GaussRat(-1), 0, GaussRat(1)]))) \
        == _typed(_ref_squarefree(Poly([Fraction(-1), 0, Fraction(1)])))
