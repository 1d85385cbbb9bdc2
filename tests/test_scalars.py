from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liedef.scalars import GaussRat, gauss, rat, rat_str

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(GaussRat, rationals, rationals)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("not a number")


def test_rat_str_round_trip():
    for x in (Fraction(0), Fraction(-3, 7), Fraction(22)):
        assert rat(rat_str(x)) == x


@given(gaussians, gaussians)
def test_gauss_mul_against_direct_formula(a, b):
    got = a * b
    assert got.re == a.re * b.re - a.im * b.im
    assert got.im == a.re * b.im + a.im * b.re


@given(gaussians, gaussians)
def test_gauss_add_sub(a, b):
    assert (a + b) - b == a
    assert a + b == b + a


@given(gaussians, gaussians)
def test_gauss_div_round_trip(a, b):
    if b == GaussRat(0):
        return
    assert (a / b) * b == a


@given(gaussians)
def test_conj_norm(z):
    assert z * z.conj() == GaussRat(z.norm2())
    assert z.norm2() >= 0
    assert z.conj().conj() == z


def test_gauss_coercion_and_realness():
    assert gauss(Fraction(2)) == GaussRat(2)
    assert GaussRat(2, 0).is_real()
    assert not GaussRat(0, 1).is_real()

