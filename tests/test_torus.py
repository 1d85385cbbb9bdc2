import hashlib
import json
import pathlib
import random
import sys
import time
from fractions import Fraction
from math import prod

import pytest

from liedef import torus
from liedef.certs import emit_torus_equations, verify_certificate
from liedef.cli import main
from liedef.errors import InputError, InternalCheckError, UnsupportedError
from liedef.scalars import GaussRat
from liedef.torus import TorusWeights, equation_string, torus_zariski_closure

POOL = (pathlib.Path(__file__).resolve().parent.parent
        / "perfbench" / "data" / "checker_pool.json")


def test_weight_validation():
    with pytest.raises(InputError):
        TorusWeights(())
    with pytest.raises(InputError):
        TorusWeights(((1, 2), (1,)))
    with pytest.raises(InputError):
        TorusWeights(((),))
    with pytest.raises(UnsupportedError):
        TorusWeights(((1, "2"),))
    with pytest.raises(UnsupportedError):
        TorusWeights(((True,),))


def test_double_angle_curve():
    # one parameter driving blocks at speeds 1 and 2
    tc = torus_zariski_closure(TorusWeights(((1,), (2,))))
    eqs = set(tc.equation_strings())
    # relation (2, -1): z1^2 = z2 splits into the double angle formulas
    assert "c1^2 - s1^2 - c2" in eqs
    assert "2*c1*s1 - s2" in eqs
    assert "c1^2 + s1^2 - 1" in eqs
    assert "c2^2 + s2^2 - 1" in eqs
    # relations are normalized with a positive trailing entry
    assert tc.relations == ((-2, 1),)


def test_diagonal_torus():
    tc = torus_zariski_closure(TorusWeights(((1, 0), (1, 0))))
    # both blocks move together: z1 = z2
    assert tc.relations == ((-1, 1),)
    eqs = set(tc.equation_strings())
    assert "c1 - c2" in eqs
    assert "s1 - s2" in eqs


def test_independent_blocks_have_only_circles():
    tc = torus_zariski_closure(TorusWeights(((1, 0), (0, 1))))
    assert tc.relations == ()
    assert tc.relation_equations == ()
    assert len(tc.circle_equations) == 2


def test_zero_row_pins_the_block():
    tc = torus_zariski_closure(TorusWeights(((0,), (1,))))
    eqs = set(tc.equation_strings())
    # the frozen block satisfies z1 = 1
    assert "c1 - 1" in eqs
    assert "s1" in eqs


def test_every_equation_vanishes_on_the_curve():
    for rows in (((1,), (2,)), ((1,), (3,)), ((2, 1), (1, 1), (0, 1)),
                 ((5,), (-3,))):
        tw = TorusWeights(rows)
        tc = torus_zariski_closure(tw)
        for eq in tc.equations:
            assert all(type(c) is int for c in eq.values())
            assert _reference_vanishes(tw, eq)


def test_nonmember_does_not_vanish():
    tw = TorusWeights(((1,), (2,)))
    # c1 - c2 holds on the diagonal torus, not on the (1, 2) curve
    p = {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1}
    assert not _reference_vanishes(tw, p)


def test_seeded_closures_vanish_on_the_torus():
    # random weights of 1 to 3 blocks; every closure whose relations have
    # |m|_1 <= 12 is multiplied out by the reference substitution
    rng = random.Random(30300)
    checked = with_relations = 0
    for _ in range(150):
        blocks, params = rng.randint(1, 3), rng.randint(1, 2)
        tw = TorusWeights([[rng.randint(-4, 4) for _ in range(params)]
                           for _ in range(blocks)])
        tc = torus_zariski_closure(tw)
        if any(sum(map(abs, m)) > 12 for m in tc.relations):
            continue
        for eq in tc.equations:
            assert _reference_vanishes(tw, eq), (tw, eq)
        checked += 1
        with_relations += bool(tc.relations)
    assert checked >= 100 and with_relations >= 50


def test_the_closure_checks_its_own_output(monkeypatch):
    # the closure's certificate goes through the checker before it is
    # returned, so a writer that drops the imaginary part of each relation,
    # or gets one coefficient wrong, is caught; Re alone passes a
    # substitution check, but cuts out more than the closure
    write = torus._power_product

    def even_only(nvars, powers):
        return {exps: c for exps, c in write(nvars, powers).items()
                if not sum(exps[1::2]) & 1}

    def off_by_one(nvars, powers):
        terms = write(nvars, powers)
        first = min(terms)
        return {**terms, first: terms[first] + 1}

    tw = TorusWeights(((1,), (2,)))
    for writer in (even_only, off_by_one):
        monkeypatch.setattr(torus, "_power_product", writer)
        with pytest.raises(InternalCheckError,
                           match="rejected at equations"):
            torus_zariski_closure(tw)
    monkeypatch.setattr(torus, "_power_product", write)
    assert torus_zariski_closure(tw).equation_strings() == [
        "c1^2 - s1^2 - c2", "2*c1*s1 - s2", "c1^2 + s1^2 - 1",
        "c2^2 + s2^2 - 1"]


def test_a_large_closure_is_quick():
    # relation (44, 24, 1, 15), 18001 + 18000 terms; the digest was
    # recorded while the closure still checked itself by a Laurent
    # substitution, which made it take 3.7 s on a 2-core host
    tw = TorusWeights(((-2, -2, 4), (1, 0, -4), (4, -2, -5), (4, 6, -5)))
    start = time.perf_counter()
    tc = torus_zariski_closure(tw)
    assert time.perf_counter() - start < 2
    assert tc.relations == ((44, 24, 1, 15),)
    text = json.dumps(emit_torus_equations(tc), indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "aacd9b17add0e128afa6826928f92ef438c6585fc02d928a1a927c1f79189208"


def test_equation_string_prints_terms_and_zero():
    assert equation_string(2, {(1, 1): 1}) == "c1*s1"
    assert equation_string(2, {}) == "0"
    assert equation_string(4, {(0, 0, 0, 0): Fraction(-1, 2), (0, 1, 2, 0): -3,
                               (1, 0, 0, 0): -1}) == "-3*s1*c2^2 - c1 - 1/2"


def test_relations_annihilate_weights():
    rows = ((2, 4), (1, 2), (3, 6))
    tc = torus_zariski_closure(TorusWeights(rows))
    assert len(tc.relations) == 2
    for m in tc.relations:
        for col in range(2):
            assert sum(mi * rows[i][col] for i, mi in enumerate(m)) == 0


def test_empty_exponent_is_rejected():
    tw = TorusWeights(((1,), (2,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    for text in ("c1^", "c1^ + s1", "3*s1^"):
        bad = json.loads(json.dumps(cert))
        bad["payload"]["equations"][0] = text
        rep = verify_certificate(bad, weights=tw)
        assert (rep.ok, rep.clause) == (False, "equations"), text


# -- the closure against the GaussRat Laurent substitution ------------------

def _plus(p, q):
    out = dict(p)
    for exps, c in q.items():
        out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def _product(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {exps: c for exps, c in out.items() if c}


def _laurent_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(key, GaussRat(0)) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _reference_vanishes(tw, poly):
    """Whether poly vanishes on the torus: cos and sin of each block as
    GaussRat Laurent polynomials in the parameters, multiplied factor by
    factor."""
    half = GaussRat(Fraction(1, 2))
    half_over_i = GaussRat(0, Fraction(-1, 2))
    subs = []
    for row in tw.rows:
        pos, neg = tuple(row), tuple(-w for w in row)
        if pos == neg:
            subs += [{pos: GaussRat(1)}, {}]
        else:
            subs += [{pos: half, neg: half},
                     {pos: half_over_i, neg: -half_over_i}]
    total = {}
    for exps, coeff in poly.items():
        term = {(0,) * tw.params: GaussRat(coeff)}
        for v, e in enumerate(exps):
            for _ in range(e):
                term = _laurent_mul(term, subs[v])
        for key, c in term.items():
            s = total.get(key, GaussRat(0)) + c
            if s:
                total[key] = s
            elif key in total:
                del total[key]
    return not total


def _curve_point(tw, ts):
    """(c1, s1, ...) at the torus point with z_j = prod_k u_k^(W_jk), where
    u_k = (1 - t_k^2 + 2 i t_k) / (1 + t_k^2) is a rational point of the
    circle."""
    units = [GaussRat(Fraction(1 - t * t, 1 + t * t), Fraction(2 * t, 1 + t * t))
             for t in ts]
    point = []
    for row in tw.rows:
        z = GaussRat(1)
        for u, w in zip(units, row):
            for _ in range(abs(w)):
                z = z * (u if w > 0 else u.conj())
        point += [z.re, z.im]
    return point


def _value(poly, point):
    return sum(c * prod(x ** e for x, e in zip(point, exps))
               for exps, c in poly.items())


def _random_poly(rng, nvars, terms, degree):
    out = {}
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        out[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return {exps: c for exps, c in out.items() if c}


def _closure_multiples(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        blocks, params = rng.randint(1, 3), rng.randint(1, 2)
        rows = [[rng.randint(-3, 3) for _ in range(params)]
                for _ in range(blocks)]
        if rng.random() < 0.25:
            rows[rng.randrange(blocks)] = [0] * params
        tw = TorusWeights(rows)
        nvars = 2 * blocks
        p = _random_poly(rng, nvars, rng.randint(1, 4), 3)
        # a multiple of a closure equation, binomial or circle, of degree
        # at most 6 so that the reference stays quick
        eqs = [e for e in torus_zariski_closure(tw).equations
               if max(map(sum, e)) <= 6]
        yield tw, _product(p, eqs[rng.randrange(len(eqs))])


def test_vanishing_matches_the_laurent_substitution():
    for tw, p in _closure_multiples(2029, 210):
        assert _reference_vanishes(tw, p), (tw, p)
    # terms of degree 40 and more, vanishing and not
    tw = TorusWeights(((1, 2), (-1, 0)))
    circle = torus_zariski_closure(tw).circle_equations[0]
    big = _product({(40, 0, 0, 0): 1}, circle)
    assert max(map(sum, big)) == 42
    third = {e: c * Fraction(-1, 3) for e, c in big.items()}
    for p, want in ((big, True), (third, True),
                    ({(20, 0, 0, 20): 1, (0, 0, 0, 0): -1}, False),
                    (_plus(third, {(0, 0, 0, 1): 1}), False)):
        assert _reference_vanishes(tw, p) is want


def test_pool_equations_match_the_laurent_substitution():
    pool = json.loads(POOL.read_text())
    checked = 0
    for item in pool:
        if item["cert"]["kind"] != "TorusEquations":
            continue
        tw = TorusWeights(item["subject"]["weights"])
        tc = torus_zariski_closure(tw)
        assert tc.equation_strings() == item["cert"]["payload"]["equations"]
        for p in tc.equations:
            assert _reference_vanishes(tw, p)
            s1 = (0, 1) + (0,) * (2 * tw.blocks - 2)
            assert not _reference_vanishes(tw, _plus(p, {s1: 1}))
            checked += 1
    assert checked == 22


def test_high_degree_equation_is_cheap():
    # the closure of weights (1, 800) vanishes at rational points of its
    # curve, and c1^800 - c2 does not
    tw = TorusWeights(((1,), (800,)))
    start = time.perf_counter()
    tc = torus_zariski_closure(tw)
    assert time.perf_counter() - start < 1
    assert tc.relations == ((-800, 1),)
    for t in (Fraction(1, 2), Fraction(-3, 7)):
        point = _curve_point(tw, [t])
        assert all(_value(eq, point) == 0 for eq in tc.equations)
        assert _value({(800, 0, 0, 0): 1, (0, 0, 1, 0): -1}, point) != 0
    tc = torus_zariski_closure(TorusWeights(((1,), (40,))))
    assert tc.relations == ((-40, 1),)
    assert all(_reference_vanishes(tc.weights, eq) for eq in tc.equations)


# -- closure output recorded before the integer expansion -------------------

CLOSURE_PINS = {
    ((1,), (2,), (3,)): (
        ((-2, 1, 0), (-3, 0, 1)),
        ["c1^2 - s1^2 - c2", "2*c1*s1 - s2", "c1^3 - 3*c1*s1^2 - c3",
         "3*c1^2*s1 - s1^3 - s3", "c1^2 + s1^2 - 1", "c2^2 + s2^2 - 1",
         "c3^2 + s3^2 - 1"],
        "aaf35a1dd74458c347eda73eb97aadcd204b1c7baeb3b5c545f2633f680e0234"),
    ((2, 1), (1, 3)): (
        (),
        ["c1^2 + s1^2 - 1", "c2^2 + s2^2 - 1"],
        "ef3d84ddb1ff1158bb2b37b9b36802a1b86f57d6975239215d889de1628441a6"),
    ((0,), (1,)): (
        ((1, 0),),
        ["c1 - 1", "s1", "c1^2 + s1^2 - 1", "c2^2 + s2^2 - 1"],
        "1f01a0021451241a4f540963cb39a14142ec1d4d182ff0f70f1f37e6c1138035"),
    ((5,), (-3,)): (
        ((3, 5),),
        ["c1^3*c2^5 - 10*c1^3*c2^3*s2^2 + 5*c1^3*c2*s2^4"
         " - 15*c1^2*s1*c2^4*s2 + 30*c1^2*s1*c2^2*s2^3 - 3*c1^2*s1*s2^5"
         " - 3*c1*s1^2*c2^5 + 30*c1*s1^2*c2^3*s2^2 - 15*c1*s1^2*c2*s2^4"
         " + 5*s1^3*c2^4*s2 - 10*s1^3*c2^2*s2^3 + s1^3*s2^5 - 1",
         "5*c1^3*c2^4*s2 - 10*c1^3*c2^2*s2^3 + c1^3*s2^5"
         " + 3*c1^2*s1*c2^5 - 30*c1^2*s1*c2^3*s2^2 + 15*c1^2*s1*c2*s2^4"
         " - 15*c1*s1^2*c2^4*s2 + 30*c1*s1^2*c2^2*s2^3 - 3*c1*s1^2*s2^5"
         " - s1^3*c2^5 + 10*s1^3*c2^3*s2^2 - 5*s1^3*c2*s2^4",
         "c1^2 + s1^2 - 1", "c2^2 + s2^2 - 1"],
        "c2aedb46018ae3300e86c3b0486d6e5ea898a36de067f452da36e8d9910cb0cf"),
    ((0, 0), (1, -1), (2, -2)): (
        ((1, 0, 0), (0, -2, 1)),
        ["c1 - 1", "s1", "c2^2 - s2^2 - c3", "2*c2*s2 - s3",
         "c1^2 + s1^2 - 1", "c2^2 + s2^2 - 1", "c3^2 + s3^2 - 1"],
        "99be2a5ad8e4563b88a56a6460464050faaeb8b20221cbb93a5d73bf7bb191a3"),
}


def test_closure_output_is_pinned():
    for rows, (relations, strings, digest) in CLOSURE_PINS.items():
        tc = torus_zariski_closure(TorusWeights(rows))
        assert tc.relations == relations
        assert tc.equation_strings() == strings
        text = json.dumps(emit_torus_equations(tc), indent=1) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_closure_of_a_high_power_is_pinned():
    # relation (-200, 1): Re and Im of z2 - z1^200 have 102 and 101 terms,
    # written by the binomial theorem; the digest was recorded by
    # multiplying out 200 factors c1 + i*s1 in Gaussian rationals
    tc = torus_zariski_closure(TorusWeights(((1,), (200,))))
    assert tc.relations == ((-200, 1),)
    assert [len(eq) for eq in tc.equations] == [102, 101, 3, 3]
    text = json.dumps(emit_torus_equations(tc), indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "91c507cca232fe2e42e202131107bddb3547bd2b1af3e1b64264551d77c8e36d"


def test_four_block_closures_are_pinned():
    # recorded with the term-by-term GaussRat substitution; four blocks
    # and relation entries up to 12 exercise the block-by-block sums
    pins = {
        ((1, 4), (-2, 4), (-2, -1), (1, 3)): (
            ((-5, 0, 1, 7), (-10, 1, 0, 12)),
            "148c4a1b643a2d8e3a4d203f5ddf0414e22360994b5ab745675b3bd8b0d6bd70"),
        ((2, -3), (4, 1), (-4, 4), (0, -3)): (
            ((10, 2, 7, 0), (-8, -1, -5, 1)),
            "7a890dad3d052d5be44d5aa73da6d924bec029131d70550c8b59a7b1edb8081b"),
    }
    for rows, (relations, digest) in pins.items():
        tc = torus_zariski_closure(TorusWeights(rows))
        assert tc.relations == relations
        text = json.dumps(emit_torus_equations(tc), indent=1) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_a_closure_past_the_digit_limit_is_unsupported(capsys):
    # C(15000, 7500) has 4513 digits, past str's default limit of 4300, so
    # the closure of relation (-15000, 1) cannot be printed; it is refused
    # before anything is written or self-checked, and the CLI reports it
    # as unknown, with no traceback.  For (1; 10^9) the bound 2^e / (e + 1)
    # decides without the binomial.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for big in (15000, 10 ** 9):
            start = time.perf_counter()
            with pytest.raises(UnsupportedError,
                               match=r"relation \[-%d, 1\]" % big):
                torus_zariski_closure(TorusWeights(((1,), (big,))))
            assert time.perf_counter() - start < 1
        assert main(["torus-closure", "--weights", "1;15000"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("unknown: relation [-15000, 1]")
        assert "Traceback" not in captured.out + captured.err
    finally:
        sys.set_int_max_str_digits(old)
