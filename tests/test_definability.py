import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings

from liedef import definability, linalg
from liedef.certs import emit_tbc, emit_verdict, verify_certificate
from liedef.corpus import corpus
from liedef.definability import (DEFINABLE, NOT_DEFINABLE, NOT_TBC,
                                 RULE_FINITE_CENTER, RULE_LINEAR, RULE_OPEN,
                                 RULE_SIMPLY_CONNECTED, RULE_SOLVABLE,
                                 SS_INDETERMINATE, SS_NO, SS_YES, TBC,
                                 TBC_UNKNOWN, UNKNOWN, DefinabilityVerdict,
                                 GroupPresentation, NonRealWitness,
                                 TbcCertificate, TbcObstruction,
                                 definability_oracle, supersolvable_test,
                                 tbc_find, tbc_verify)
from liedef.errors import (Indeterminate, InputError, InternalCheckError,
                           NotSolvableError)
from liedef.lie import LieAlgebra, from_matrices
from liedef.linalg import Mat, char_poly, span_basis
from liedef.poly import squarefree_part, sturm_count_real_roots
from liedef.scalars import GaussRat
from liedef.structure import radical
from liedef.weights import adjoint_weights, weight_flag
from test_weights import solvable_algebras


def sqrt2_algebra():
    # [a, x] = y, [a, y] = 2x; ad(a) has eigenvalues +-sqrt(2), outside Q(i)
    return LieAlgebra.from_entries(3, {(2, 0): (0, 1, 0), (2, 1): (2, 0, 0)},
                                   names=("x", "y", "a"))


# ---------------------------------------------------------------- supersolvable

def test_supersolvable_yes(h3, axb, r2):
    for alg in (h3, axb, r2):
        res = supersolvable_test(alg)
        assert res.status == SS_YES and res
        assert len(res.flag) == alg.dim
        assert len(res.step_characters) == alg.dim


def test_supersolvable_flag_is_invariant(h3):
    res = supersolvable_test(h3)
    for k in range(1, h3.dim + 1):
        prefix = list(res.flag[:k])
        for i in range(h3.dim):
            for v in prefix:
                image = h3.bracket(h3.basis_vector(i), v)
                grown = span_basis(prefix + [image])
                assert len(grown) == len(span_basis(prefix))


def test_supersolvable_no_with_witness(e2):
    res = supersolvable_test(e2)
    assert res.status == SS_NO and not res
    assert res.flag is None
    w = res.witness
    assert isinstance(w, NonRealWitness)
    assert tuple(w.char_coeffs) == tuple(char_poly(e2.ad(w.element)).coeffs)
    assert w.real_distinct < w.distinct
    assert w.weight_values is not None
    assert any(v.im for v in w.weight_values)


def test_supersolvable_indeterminate():
    res = supersolvable_test(sqrt2_algebra())
    assert res.status == SS_INDETERMINATE
    assert res.reason


def test_supersolvable_rejects_nonsolvable(sl2):
    with pytest.raises(NotSolvableError):
        supersolvable_test(sl2)


def test_supersolvable_checks_every_step_character(monkeypatch, axb):
    # one wrong value anywhere in the step characters must be caught: the
    # nilradical of the triangular modules is read off them
    real = weight_flag
    # aff(1) + aff(1)
    aff2 = LieAlgebra.from_entries(
        4, {(0, 1): (0, 1, 0, 0), (2, 3): (0, 0, 0, 1)})
    for alg in (axb, aff2):
        flag, chars = real(alg, [alg.ad(x) for x in alg.basis()])
        for i in range(alg.dim):
            for j in range(alg.dim):
                spoiled = [list(c) for c in chars]
                spoiled[i][j] += 1

                def wrong(chain, acts, out=(flag, spoiled)):
                    return out

                monkeypatch.setattr(definability, "_weight_flag", wrong)
                with pytest.raises(InternalCheckError):
                    supersolvable_test(alg)
    monkeypatch.undo()
    assert supersolvable_test(aff2).status == SS_YES


def _count_eliminations(monkeypatch):
    """Route linalg._gauss_jordan through a counter; returns its calls."""
    calls = []
    real = linalg._gauss_jordan

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    return calls


def _aff2():
    return LieAlgebra.from_entries(
        4, {(0, 1): (0, 1, 0, 0), (2, 3): (0, 0, 0, 1)})


def test_the_flag_check_eliminates_once(monkeypatch, h3, axb, filiform4):
    # the flag's rank and the brackets' coordinates come from one
    # elimination
    for alg in (h3, axb, filiform4, _aff2()):
        res = supersolvable_test(alg)
        flag, chars = list(res.flag), list(res.step_characters)
        calls = _count_eliminations(monkeypatch)
        definability._check_flag(alg, flag, chars)
        assert len(calls) == 1
        monkeypatch.undo()
        for bad in (flag[:-1], flag[:-1] + flag[-2:-1],
                    flag[:-1] + [(Fraction(0),) * alg.dim]):
            with pytest.raises(InternalCheckError,
                               match="flag does not span the algebra"):
                definability._check_flag(alg, bad, chars)


# -------------------------------------------------------------------- tbc_find

def _seeded_supersolvable(rng):
    """The algebra that one to three random rational upper triangular
    matrices generate, on the basis from_matrices picks: supersolvable by
    Lie's theorem, and not triangular on its own basis in general."""
    n = rng.randint(2, 4)
    gens = [Mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  if j >= i else Fraction(0) for j in range(n)]
                 for i in range(n)])
            for _ in range(rng.randint(1, 3))]
    return from_matrices(gens)[0]


def _supersolvable_subjects():
    subjects = [e.algebra for e in corpus() if e.algebra.is_solvable()
                and supersolvable_test(e.algebra).status == SS_YES]
    rng = random.Random(20261020)
    sweep = [_seeded_supersolvable(rng) for _ in range(16)]
    return subjects, sweep


def test_the_adjoint_peel_of_a_supersolvable_algebra_builds_no_ad(
        monkeypatch):
    # the chain directions act as read off the structure constants, and a
    # yes needs no witness, so no dense ad matrix is built
    subjects, sweep = _supersolvable_subjects()
    calls = []
    inner = LieAlgebra.ad

    def counted(self, x):
        calls.append(x)
        return inner(self, x)

    monkeypatch.setattr(LieAlgebra, "ad", counted)
    for g in subjects + sweep:
        ss, table, _ = definability._adjoint_peel(g, g.derived_algebra())
        assert ss.status == SS_YES and table is None
    assert calls == []


def test_the_fast_path_certificate_passes_both_checkers():
    # a yes hands out (flag, (), flag, ()) as _check_flag proved it, with
    # no verifier run of its own; tbc_verify and the certificate checker
    # must still accept it, from tbc_find and from the simply connected rule
    subjects, sweep = _supersolvable_subjects()
    assert len(subjects) >= 10
    for g in subjects + sweep:
        assert supersolvable_test(g).status == SS_YES
        tb = tbc_find(g)
        assert tb.status == TBC and tb.certificate.k_basis == ()
        p = GroupPresentation(g, "simply-connected")
        v = definability_oracle(p)
        assert v.outcome == DEFINABLE and v.certificate == tb.certificate
        assert tbc_verify(g, tb.certificate).ok
        assert verify_certificate(emit_tbc(g, tb.certificate),
                                  algebra=g).ok
        assert verify_certificate(emit_verdict(p, v), algebra=g).ok


def _is_flag(g, flag, chars):
    """Whether every prefix span of flag is an ideal of g on which e_j acts
    modulo the earlier steps by chars[i][j], by span_basis and is_ideal."""
    for i, v in enumerate(flag):
        if not g.is_ideal(flag[:i + 1]):
            return False
        below = len(span_basis(flag[:i]))
        for j, x in enumerate(g.basis()):
            image = tuple(a - chars[i][j] * b
                          for a, b in zip(g.bracket(x, v), v))
            if len(span_basis(flag[:i] + [image])) != below:
                return False
    return True


def test_the_flag_check_catches_two_steps_swapped():
    # _check_flag is the one proof of a yes certificate, so it must reject
    # each flag with two steps (and their characters) swapped exactly when
    # that is not a flag any more; a non-abelian algebra always has such
    # a swap, since one whose flag vectors all span ideals is abelian
    subjects, sweep = _supersolvable_subjects()
    caught = 0
    for g in subjects + sweep:
        res = supersolvable_test(g)
        flag, chars = list(res.flag), list(res.step_characters)
        bad = 0
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                f, c = list(flag), list(chars)
                f[i], f[j], c[i], c[j] = f[j], f[i], c[j], c[i]
                if _is_flag(g, f, c):
                    definability._check_flag(g, f, c)
                    continue
                bad += 1
                with pytest.raises(InternalCheckError):
                    definability._check_flag(g, f, c)
        assert bool(bad) == (not g.is_abelian())
        caught += bad
    assert caught > 20


def test_tbc_of_supersolvable_has_empty_k(h3):
    res = tbc_find(h3)
    assert res.status == TBC
    cert = res.certificate
    assert cert.k_basis == ()
    assert len(span_basis(list(cert.t_basis))) == 3
    assert tbc_verify(h3, cert)


def test_tbc_of_e2(e2):
    res = tbc_find(e2)
    assert res.status == TBC
    cert = res.certificate
    assert span_basis(list(cert.t_basis)) == [(1, 0, 0), (0, 1, 0)]
    assert len(cert.k_basis) == 1
    assert len(cert.torus_evidence) == 1
    # evidence rows are the stored characteristic polynomial of ad(k)
    coeffs = tuple(cert.torus_evidence[0])
    assert coeffs == tuple(char_poly(e2.ad(cert.k_basis[0])).coeffs)
    assert tbc_verify(e2, cert)


def test_tbc_obstruction_on_oscillator(oscillator):
    res = tbc_find(oscillator)
    assert res.status == NOT_TBC
    obs = res.obstruction
    assert isinstance(obs, TbcObstruction)
    assert obs.gap >= 1
    assert any(v.im for v in obs.weight_values)
    assert any(v.re for v in obs.weight_values)
    # the two kernels genuinely miss gap dimensions
    assert len(span_basis(list(obs.treal) + list(obs.k_zero))) \
        == oscillator.dim - obs.gap


def test_only_a_no_answer_screens_the_spectra(axb, h3, e2, oscillator,
                                              monkeypatch):
    # a real flag is yes without any Sturm count; a nonreal weight is no,
    # and one Sturm count confirms the witness the peel's characters name:
    # the first e_i with a nonreal value, here the third basis element
    real = definability.sturm_count_real_roots
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(definability, "sturm_count_real_roots", counted)
    for g, witness in ((axb, None), (h3, None), (e2, 2), (oscillator, 2)):
        expected = 0 if witness is None else 1
        calls.clear()
        res = supersolvable_test(g)
        assert len(calls) == expected, g
        if expected:
            assert res.witness.element.index(1) == witness
        calls.clear()
        tbc_find(g)
        assert len(calls) == expected, g


def _ref_witness(g):
    """The witness of the full screen an earlier supersolvable_test ran:
    the first e_i whose ad has a squarefree characteristic polynomial with
    fewer real roots than its degree, with the first nonreal entry of the
    adjoint weight table, or None when every spectrum is real."""
    table = adjoint_weights(g)
    values = None if isinstance(table, Indeterminate) else next(
        (e.values for e in table.entries if not e.real), None)
    for i in range(g.dim):
        p = char_poly(g.ad(g.basis_vector(i)))
        sf = squarefree_part(p)
        real = sturm_count_real_roots(sf)
        if real < sf.degree:
            return NonRealWitness(g.basis_vector(i), tuple(p.coeffs), real,
                                  sf.degree, values)
    return None


@seed(20261019)
@settings(max_examples=40, deadline=None, database=None)
@given(solvable_algebras())
def test_the_witness_is_the_one_a_full_screen_finds(g):
    # the generators' rotation blocks make many adjoint weights nonreal; a
    # yes has no witness and the screen finds none, and every counted
    # example is a No
    res = supersolvable_test(g)
    assert res.witness == _ref_witness(g)
    assume(res.status == SS_NO)


def test_a_nonreal_character_needs_a_nonreal_spectrum(axb, monkeypatch):
    # the peel's characters and the Sturm count must agree: a nonreal value
    # on a (it still vanishes on [axb, axb] = span{x}) while ad(a) has a
    # real spectrum is an internal error, not a No
    flag, chars = weight_flag(axb, [axb.ad(x) for x in axb.basis()])
    for i in range(axb.dim):
        spoiled = list(chars)
        spoiled[i] = (chars[i][0] + GaussRat(0, 1),) + chars[i][1:]

        def wrong(chain, acts, out=(flag, spoiled)):
            return out

        monkeypatch.setattr(definability, "_weight_flag", wrong)
        for call in (supersolvable_test, tbc_find):
            with pytest.raises(InternalCheckError,
                               match=r"nonreal on e_0 but ad\(e_0\) has real "
                                     "spectrum"):
                call(axb)
    monkeypatch.undo()
    assert supersolvable_test(axb).status == SS_YES


def test_each_call_peels_its_algebra_once(axb, e2, oscillator, monkeypatch):
    # the flag of a supersolvable algebra and the weight table of any other
    # come from one adjoint peel; sqrt2 is peeled once although it ends Unknown
    from liedef import weights
    inner = weights._ideal_chain
    seen = []

    def counted(alg, derived):
        seen.append(alg)
        return inner(alg, derived)

    # the adjoint peel builds the chain it walks through its own binding
    for namespace in (weights, definability):
        monkeypatch.setattr(namespace, "_ideal_chain", counted)
    for g in (axb, e2, oscillator, sqrt2_algebra()):
        for call in (tbc_find, supersolvable_test):
            seen.clear()
            call(g)
            assert sum(alg is g for alg in seen) == 1, (call.__name__, g)


def test_the_second_k_candidate_cancels_a_nilpotent_part(monkeypatch):
    # (u, x, y, v, w, z): u rotates (x, y), and u and v both send w to z;
    # the real-part kernel offers u, whose ad is not semisimple, and the
    # Jordan-Chevalley correction of _k_candidates turns it into u - v
    g = LieAlgebra.from_entries(6, {(0, 1): (0, 0, 1, 0, 0, 0),
                                    (0, 2): (0, -1, 0, 0, 0, 0),
                                    (0, 4): (0, 0, 0, 0, 0, 1),
                                    (3, 4): (0, 0, 0, 0, 0, 1)})
    tried = []
    real = definability._k_candidates

    def recorded(*args):
        for candidate in real(*args):
            tried.append(candidate)
            yield candidate

    monkeypatch.setattr(definability, "_k_candidates", recorded)
    tb = tbc_find(g)
    assert tb.status == TBC and len(tb.certificate.t_basis) == 5
    assert tb.certificate.k_basis == ((1, 0, 0, -1, 0, 0),)
    # the loop stops at the first candidate that verifies
    assert tried == [[(1, 0, 0, 0, 0, 0)], [(1, 0, 0, -1, 0, 0)]]
    assert verify_certificate(emit_tbc(g, tb.certificate), algebra=g)
    for kind, outcome, rule in (
            ("abstract", DEFINABLE, RULE_SOLVABLE),
            ("simply-connected", NOT_DEFINABLE, RULE_SIMPLY_CONNECTED),
            ("linear", DEFINABLE, RULE_LINEAR)):
        p = GroupPresentation(g, kind)
        v = definability_oracle(p)
        assert (v.outcome, v.rule_used) == (outcome, rule)
        assert verify_certificate(emit_verdict(p, v), algebra=g)


def test_tbc_unknown_outside_tower():
    res = tbc_find(sqrt2_algebra())
    assert res.status == TBC_UNKNOWN
    assert res.certificate is None and res.obstruction is None
    assert res.reason


def test_tbc_find_rejects_nonsolvable(so3):
    with pytest.raises(NotSolvableError):
        tbc_find(so3)


# ------------------------------------------------------------------ tbc_verify

def test_verify_rejects_non_ideal_t(e2):
    # span{X, R} is a subalgebra complement question, not an ideal
    cert = TbcCertificate(((1, 0, 0), (0, 0, 1)), ((0, 1, 0),),
                          ((1, 0, 0), (0, 0, 1)), ())
    rep = tbc_verify(e2, cert)
    assert not rep and rep.clause == "t-ideal"


def test_verify_rejects_flag_in_wrong_order(h3):
    # t = h3 itself; a chain starting at x is not a chain of ideals since
    # [y, x] = -z lands outside span{x}
    full = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    cert = TbcCertificate(full, (), full, ())
    rep = tbc_verify(h3, cert)
    assert not rep and rep.clause == "flag"


def test_a_k_empty_certificate_whose_flag_is_t_takes_two_eliminations(
        monkeypatch, h3, axb, filiform4):
    # one for t's rref basis, which is the flag's too, and one for the
    # steps; the direct sum is settled by the dimensions
    for alg in (h3, axb, filiform4, _aff2()):
        flag = supersolvable_test(alg).flag
        cert = TbcCertificate(flag, (), flag, ())
        calls = _count_eliminations(monkeypatch)
        assert definability._tbc_verify(alg, cert).ok
        assert len(calls) == 2
        monkeypatch.undo()


def test_verify_rejects_flag_outside_t(e2):
    cert = TbcCertificate(((1, 0, 0), (0, 1, 0)), ((0, 0, 1),),
                          ((1, 0, 0), (0, 0, 1)), ())
    rep = tbc_verify(e2, cert)
    assert not rep and rep.clause == "flag"


def test_verify_rejects_overlapping_sum(e2):
    cert = TbcCertificate(((1, 0, 0), (0, 1, 0)), ((1, 1, 0),),
                          ((1, 0, 0), (0, 1, 0)), ())
    rep = tbc_verify(e2, cert)
    assert not rep and rep.clause == "direct-sum"


def test_verify_rejects_nonabelian_k(h3):
    cert = TbcCertificate(((0, 0, 1),), ((1, 0, 0), (0, 1, 0)),
                          ((0, 0, 1),), ())
    rep = tbc_verify(h3, cert)
    assert not rep and rep.clause == "k-abelian"


def test_verify_rejects_real_spectrum_k(axb):
    cert = TbcCertificate(((0, 1),), ((1, 0),), ((0, 1),), ())
    rep = tbc_verify(axb, cert)
    assert not rep and rep.clause == "torus"
    assert "non-imaginary" in rep.detail


def test_verify_rejects_nonsemisimple_k(h3):
    cert = TbcCertificate(((0, 1, 0), (0, 0, 1)), ((1, 0, 0),),
                          ((0, 1, 0), (0, 0, 1)), ())
    rep = tbc_verify(h3, cert)
    assert not rep and rep.clause == "torus"
    assert "not semisimple" in rep.detail


def test_verify_rejects_tampered_evidence(e2):
    good = tbc_find(e2).certificate
    bad = TbcCertificate(good.t_basis, good.k_basis, good.flag,
                         ((Fraction(1), Fraction(0), Fraction(1)),))
    rep = tbc_verify(e2, bad)
    assert not rep and rep.clause == "torus"
    assert "evidence" in rep.detail


def test_verify_shape_errors_are_typed(e2):
    with pytest.raises(InputError):
        tbc_verify(e2, TbcCertificate(((1, 0),), (), ((1, 0),), ()))
    with pytest.raises(InputError):
        good = tbc_find(e2).certificate
        tbc_verify(e2, TbcCertificate(good.t_basis, good.k_basis, good.flag,
                                      ((1,), (2,))))


def test_verify_rejects_nonsolvable(sl2):
    with pytest.raises(NotSolvableError):
        tbc_verify(sl2, TbcCertificate((), (), (), ()))


# ---------------------------------------------------------------------- oracle

def test_oracle_solvable_simply_connected_yes(h3):
    v = definability_oracle(GroupPresentation(h3, "simply-connected"))
    assert v.outcome == DEFINABLE and v.rule_used == RULE_SIMPLY_CONNECTED
    assert v.certificate is not None and v.certificate.k_basis == ()
    assert v.radical_basis is None


def test_oracle_simply_connected_no(e2):
    v = definability_oracle(GroupPresentation(e2, "simply-connected"))
    assert v.outcome == NOT_DEFINABLE and v.rule_used == RULE_SIMPLY_CONNECTED
    assert isinstance(v.counter_witness, NonRealWitness)


def test_oracle_presentation_changes_the_answer(e2):
    sc = definability_oracle(GroupPresentation(e2, "simply-connected"))
    ab = definability_oracle(GroupPresentation(e2, "abstract"))
    assert sc.outcome == NOT_DEFINABLE
    assert ab.outcome == DEFINABLE and ab.rule_used == RULE_SOLVABLE
    assert len(ab.certificate.k_basis) == 1


def test_oracle_solvable_not_tbc(oscillator):
    v = definability_oracle(GroupPresentation(oscillator, "abstract"))
    assert v.outcome == NOT_DEFINABLE and v.rule_used == RULE_SOLVABLE
    assert isinstance(v.counter_witness, TbcObstruction)


def test_oracle_linear_reduces_to_radical(e2, sl2):
    v = definability_oracle(GroupPresentation(e2, "linear"))
    assert v.outcome == DEFINABLE and v.rule_used == RULE_LINEAR
    assert v.radical_basis is not None
    assert len(v.radical_basis) == 3

    w = definability_oracle(GroupPresentation(sl2, "linear"))
    assert w.outcome == DEFINABLE and w.rule_used == RULE_LINEAR
    assert w.radical_basis == ()
    assert w.certificate.t_basis == () and w.certificate.k_basis == ()


def test_the_radical_rule_cross_checks_a_non_solvable_algebra(sl2,
                                                               monkeypatch):
    """The radical is read off the trace form that also decides
    solvability, so the derived series cross-checks it on a non-solvable
    algebra too: here a series that ends in zero, as a solvable algebra's
    does, against the nondegenerate Killing form of sl2."""
    p = GroupPresentation(sl2, "linear")
    cert = emit_verdict(p, definability_oracle(p))
    monkeypatch.setattr(LieAlgebra, "derived_series",
                        lambda self: [self.basis(), self.basis(), []])
    for call in (lambda: definability_oracle(p), lambda: radical(sl2),
                 lambda: verify_certificate(cert, algebra=sl2)):
        with pytest.raises(InternalCheckError, match="disagree"):
            call()


def test_oracle_finite_center_levi(sl2):
    open_v = definability_oracle(GroupPresentation(sl2, "abstract"))
    assert open_v.outcome == UNKNOWN and open_v.rule_used == RULE_OPEN
    assert open_v.explanation

    v = definability_oracle(
        GroupPresentation(sl2, "abstract", finite_center_levi=True))
    assert v.outcome == DEFINABLE and v.rule_used == RULE_FINITE_CENTER


def test_oracle_finite_center_levi_with_radical():
    g = LieAlgebra.from_entries(6, {
        (0, 1): (0, 0, 1, 0, 0, 0),
        (0, 2): (0, -1, 0, 0, 0, 0),
        (1, 2): (1, 0, 0, 0, 0, 0),
        (3, 5): (0, 0, 0, 0, -1, 0),
        (4, 5): (0, 0, 0, 1, 0, 0),
    })
    v = definability_oracle(
        GroupPresentation(g, "abstract", finite_center_levi=True))
    assert v.outcome == DEFINABLE and v.rule_used == RULE_FINITE_CENTER
    assert len(v.radical_basis) == 3
    assert len(v.certificate.t_basis) == 2
    assert len(v.certificate.k_basis) == 1


def test_oracle_unknown_outside_tower():
    v = definability_oracle(GroupPresentation(sqrt2_algebra(), "abstract"))
    assert v.outcome == UNKNOWN and v.rule_used == RULE_SOLVABLE
    assert v.explanation


def test_oracle_validates_input():
    bad = LieAlgebra.from_entries(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    with pytest.raises(InputError):
        definability_oracle(GroupPresentation(bad, "abstract"))
    with pytest.raises(InputError):
        GroupPresentation(sqrt2_algebra(), "universal-cover")


def test_verdict_three_valuedness(e2):
    with pytest.raises(InternalCheckError):
        DefinabilityVerdict(DEFINABLE, RULE_SOLVABLE)
    with pytest.raises(InternalCheckError):
        DefinabilityVerdict(NOT_DEFINABLE, RULE_SOLVABLE)
    with pytest.raises(InternalCheckError):
        DefinabilityVerdict(UNKNOWN, RULE_OPEN)


def test_witness_element_spectrum_matches_claim(oscillator):
    res = supersolvable_test(oscillator)
    assert res.status == SS_NO
    w = res.witness
    cp = char_poly(oscillator.ad(w.element))
    assert tuple(cp.coeffs) == tuple(w.char_coeffs)
