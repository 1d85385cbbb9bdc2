import json
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liedef import scalars
from liedef.certs import emit_representation
from liedef.corpus import corpus
from liedef.errors import InputError
from liedef.formats import (canonical_json, matrix_from_json,
                            scalar_from_json, vector_from_json)
from liedef.reps import Representation, supersolvable_triangular_rep
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


def test_rat_of_a_short_string_is_what_fraction_parses():
    # the digit strings an int reads, and the rest that Fraction's parser
    # reads
    texts = [str(k) for k in range(-10, 11)] + ["-0", "+1", " 1", "01",
                                                "1/1"]
    for text in texts:
        got = rat(text)
        assert type(got) is Fraction and got == Fraction(text), text


def test_rat_keeps_its_result_for_every_input_type():
    # a str is tested first; a str subclass, bool, int, Fraction (and a
    # subclass of it) and anything else give what they always gave
    class Text(str):
        pass

    class Ratio(Fraction):
        pass

    for text in ("0", "-7", "3/4", " 1", "+1", "-0"):
        got = rat(Text(text))
        assert type(got) is Fraction and got == Fraction(text), text
    assert rat(Text("0")) is rat("0") is scalars._ZERO
    for x, want in ((True, 1), (False, 0), (5, 5), (-3, -3)):
        got = rat(x)
        assert type(got) is Fraction and got == want, x
    for x in (Fraction(2, 3), Ratio(1, 2)):
        assert rat(x) is x
    for x in (0.5, None, b"1", GaussRat(1), [1]):
        with pytest.raises(TypeError):
            rat(x)
    with pytest.raises(ValueError):
        rat(Text("one"))


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



# -- real operands act on the parts ------------------------------------------

def _typed(z):
    assert type(z) is GaussRat
    return (type(z.re), z.re, type(z.im), z.im)


def _promoted(y):
    return y if isinstance(y, GaussRat) else GaussRat(Fraction(y), Fraction(0))


def _ref(op, a, b):
    """a op b after promoting both to GaussRat, written on the parts."""
    a, b = _promoted(a), _promoted(b)
    if op == "+":
        re, im = a.re + b.re, a.im + b.im
    elif op == "-":
        re, im = a.re - b.re, a.im - b.im
    elif op == "*":
        re, im = a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re
    else:
        n2 = b.re * b.re + b.im * b.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        re = (a.re * b.re - a.im * -b.im) / n2
        im = (a.re * -b.im + a.im * b.re) / n2
    return (Fraction, re, Fraction, im)


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}
_parts = st.one_of(st.just(Fraction(0)), rationals)
_operands = st.one_of(st.integers(-20, 20), _parts,
                      st.builds(GaussRat, _parts, _parts))


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.builds(GaussRat, _parts, _parts), _operands)
def test_mixed_arithmetic_matches_promoting_the_operand(x, y):
    for op, fn in _OPS.items():
        for a, b in ((x, y), (y, x)):
            try:
                want = _ref(op, a, b)
            except ZeroDivisionError as exc:
                want = ("ZeroDivisionError", str(exc))
            try:
                got = _typed(fn(a, b))
            except ZeroDivisionError as exc:
                got = ("ZeroDivisionError", str(exc))
            assert got == want, (a, op, b)
    assert (x == y) == (x == _promoted(y))
    if x == y:
        assert hash(x) == hash(y)


def test_parts_are_always_fractions():
    f = Fraction(3, 4)
    for z in (GaussRat(2), GaussRat("3/4"), GaussRat(f), GaussRat(-1, "1/2"),
              GaussRat(f, 5), GaussRat()):
        assert type(z.re) is Fraction and type(z.im) is Fraction
    assert GaussRat(f).re is f
    assert GaussRat("3/4") == GaussRat(f) == f
    assert GaussRat(0, 2).is_real() is False
    assert GaussRat(2, 0).is_real() is True


# every shape the integer shortcut of rat must tell apart: signs, digits
# beyond ASCII, the separators Fraction accepts, and surrounding space
_rat_alphabet = st.sampled_from(list("0123456789-+/._ eE\t\n")
                                + ["٣", "²", "x"])


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(_rat_alphabet, max_size=8),
                 st.from_regex(r"-?[0-9]{1,30}", fullmatch=True)))
def test_rat_matches_fraction_on_any_string(s):
    try:
        want = Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            rat(s)
        return
    got = rat(s)
    assert type(got) is Fraction and got == want


def test_rat_str_takes_fractions_ints_and_booleans():
    f = Fraction(-3, 7)
    assert rat_str(f) == "-3/7"
    assert rat_str(4) == rat_str(Fraction(4)) == "4"
    assert rat_str(True) == "1"


def test_rat_of_zero_is_the_shared_zero():
    assert rat("0") is scalars._ZERO
    assert scalar_from_json("0") is scalars._ZERO
    z = scalar_from_json({"re": "0", "im": "0"})
    assert z.re is scalars._ZERO and z.im is scalars._ZERO


def test_other_spellings_of_zero_parse_as_fractions():
    for text in ("-0", "00", "0/1", " 0", "+0", "0 ", "-00", "0/7"):
        got = rat(text)
        assert type(got) is Fraction and got == 0, text


def test_malformed_scalars_keep_their_messages():
    cases = {
        "0x": "m[0][0]: cannot parse '0x' as a rational",
        "": "m[0][0]: cannot parse '' as a rational",
        "1/0": "m[0][0]: cannot parse '1/0' as a rational",
        "0.0.0": "m[0][0]: cannot parse '0.0.0' as a rational",
        "- 0": "m[0][0]: cannot parse '- 0' as a rational",
    }
    for text, message in cases.items():
        with pytest.raises(InputError) as err:
            scalar_from_json(text, "m[0][0]")
        assert str(err.value) == message
    with pytest.raises(InputError) as err:
        scalar_from_json({"re": "0", "im": "x"}, "m[0][0]")
    assert str(err.value) == "m[0][0]: malformed rational parts"


def test_parsed_representations_emit_the_same_bytes():
    # the images of a triangular module are mostly "0" entries
    algebras = [e.algebra for e in corpus()
                if e.known.get("supersolvable")
                and e.known_value("supersolvable")]
    assert algebras
    for g in algebras:
        text = canonical_json(emit_representation(
            supersolvable_triangular_rep(g)))
        payload = json.loads(text)["payload"]
        flag = payload["flag"]
        rep = Representation(
            g, payload["target_dim"],
            tuple(matrix_from_json(m) for m in payload["images"]),
            frozenset(payload["claims"]),
            None if flag is None else
            tuple(tuple(vector_from_json(v)) for v in flag))
        assert canonical_json(emit_representation(rep)) == text
