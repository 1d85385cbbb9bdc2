"""Emit/verify loops for every certificate kind, plus targeted corruption.

Each check here flips one field into something genuinely false and asserts
the verifier names the clause.  Corruptions that happen to produce another
true statement (a rescaled torus vector, an extra claim the images satisfy)
are intentionally avoided; those belong to the acceptance fuzz instead.
The edit fuzz at the end asks less of any edit, true or false: the checker
and verify-cert must answer it with a report, never an exception.
"""
import copy
import json
import os
import random
import re
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liedef import certs, definability, linalg
from liedef.certs import (CertReport, KIND_FLAG, KIND_TBC, KIND_VERDICT,
                          emit_flag, emit_representation, emit_tbc,
                          emit_torus_equations, emit_verdict, load_certificate,
                          save_certificate, verify_certificate, weights_hash)
from liedef.cli import main
from liedef.corpus import corpus
from liedef.definability import (RULE_FINITE_CENTER, SS_YES,
                                 GroupPresentation, TbcCertificate,
                                 definability_oracle, supersolvable_test,
                                 tbc_find)
from liedef.errors import InputError, InternalCheckError
from liedef.formats import algebra_from_dict, save_algebra_file
from liedef.lie import LieAlgebra
from liedef.linalg import (char_poly, coords_in_span, is_semisimple_mat,
                           is_zero_vec, span_basis)
from liedef.poly import purely_imaginary_spectrum
from liedef.reps import nilpotent_ado
from liedef.torus import TorusWeights, torus_zariski_closure
from test_acceptance import _random_solvable
from test_golden import PRESENTATIONS


def verdict_pair(alg, kind="abstract", **kw):
    p = GroupPresentation(alg, kind, **kw)
    return p, definability_oracle(p)


# ------------------------------------------------------------------ round trips

def test_tbc_round_trip(e2):
    cert = emit_tbc(e2, tbc_find(e2).certificate)
    rep = verify_certificate(cert, algebra=e2)
    assert rep.ok and isinstance(rep, CertReport)


def test_flag_round_trip(h3):
    ss = supersolvable_test(h3)
    cert = emit_flag(h3, ss.flag, ss.step_characters)
    assert verify_certificate(cert, algebra=h3).ok


def test_representation_round_trip(h3):
    rep = nilpotent_ado(h3)
    cert = emit_representation(rep)
    assert set(cert["payload"]["claims"]) == set(rep.verified)
    assert verify_certificate(cert, algebra=h3).ok


def test_verdict_round_trips_all_rules(e2, h3, sl2):
    cases = [
        verdict_pair(e2, "linear"),
        verdict_pair(e2, "simply-connected"),
        verdict_pair(e2, "abstract"),
        verdict_pair(h3, "simply-connected"),
        verdict_pair(sl2, "abstract", finite_center_levi=True),
        verdict_pair(sl2, "abstract"),
    ]
    for p, v in cases:
        cert = emit_verdict(p, v)
        rep = verify_certificate(cert, algebra=p.algebra)
        assert rep.ok, (v.rule_used, rep.clause, rep.detail)


def test_torus_round_trip():
    tw = TorusWeights(((1,), (2,)))
    tc = torus_zariski_closure(tw)
    cert = emit_torus_equations(tc)
    assert verify_certificate(cert, weights=tw).ok
    # raw rows work too
    assert verify_certificate(cert, weights=((1,), (2,))).ok


def test_save_load_round_trip(tmp_path, e2):
    cert = emit_tbc(e2, tbc_find(e2).certificate)
    path = str(tmp_path / "cert.json")
    save_certificate(path, cert)
    assert load_certificate(path) == cert
    assert verify_certificate(load_certificate(path), algebra=e2).ok


def test_load_certificate_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2,")
    with pytest.raises(InputError) as exc:
        load_certificate(str(bad))
    assert "bad.json" in str(exc.value)
    arr = tmp_path / "arr.json"
    arr.write_text("[]")
    with pytest.raises(InputError):
        load_certificate(str(arr))


# ------------------------------------------------------------------ corruption

def test_wrong_subject_is_caught(e2, h3):
    cert = emit_tbc(e2, tbc_find(e2).certificate)
    rep = verify_certificate(cert, algebra=h3)
    assert not rep and rep.clause == "subject"


def test_schema_clause(e2):
    cert = dict(emit_tbc(e2, tbc_find(e2).certificate))
    for poison in (
        {**cert, "schema": 2},
        {**cert, "kind": "Sponge"},
        {**cert, "subject_sha256": 12},
        {k: v for k, v in cert.items() if k != "payload"},
        "not a dict",
    ):
        rep = verify_certificate(poison, algebra=e2)
        assert not rep and rep.clause == "schema"


def test_flag_corruption_names_characters(h3):
    ss = supersolvable_test(h3)
    cert = emit_flag(h3, ss.flag, ss.step_characters)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["step_characters"][0][0] = "5"
    rep = verify_certificate(bad, algebra=h3)
    assert not rep and rep.clause == "characters"


def test_flag_corruption_names_flag(h3):
    ss = supersolvable_test(h3)
    cert = emit_flag(h3, ss.flag, ss.step_characters)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["flag"] = bad["payload"]["flag"][::-1]
    rep = verify_certificate(bad, algebra=h3)
    assert not rep and rep.clause == "flag"


def test_representation_false_claim(h3):
    rep = nilpotent_ado(h3)
    cert = emit_representation(rep)
    bad = json.loads(json.dumps(cert))
    # zero out one image: the homomorphism property dies with it
    dim = bad["payload"]["target_dim"]
    bad["payload"]["images"][2] = [["0"] * dim for _ in range(dim)]
    rep2 = verify_certificate(bad, algebra=h3)
    assert not rep2 and rep2.clause == "claims"


def test_representation_unknown_claim(h3):
    rep = nilpotent_ado(h3)
    cert = emit_representation(rep)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["claims"].append("sells-timeshares")
    rep2 = verify_certificate(bad, algebra=h3)
    assert not rep2 and rep2.clause == "shape"


def test_verdict_outcome_flip(e2):
    p, v = verdict_pair(e2, "simply-connected")
    cert = emit_verdict(p, v)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["outcome"] = "Definable"
    rep = verify_certificate(bad, algebra=e2)
    assert not rep
    assert rep.clause in ("outcome", "certificate")


def test_verdict_rule_flip(e2):
    p, v = verdict_pair(e2, "abstract")
    cert = emit_verdict(p, v)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["rule"] = "Fact 1 (simply connected)"
    rep = verify_certificate(bad, algebra=e2)
    assert not rep and rep.clause == "rule"


def test_verdict_witness_tamper(e2):
    p, v = verdict_pair(e2, "simply-connected")
    cert = emit_verdict(p, v)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["counter_witness"]["char"] = ["1", "0", "0", "1"]
    rep = verify_certificate(bad, algebra=e2)
    assert not rep and rep.clause == "witness"


def test_verdict_witness_must_have_nonreal_spectrum(h3):
    # a fabricated NotDefinable verdict over a supersolvable algebra: the
    # claimed witness has all-real spectrum, so the checker balks
    p, v = verdict_pair(h3, "simply-connected")
    cert = emit_verdict(p, v)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["outcome"] = "NotDefinable"
    bad["payload"]["certificate"] = None
    bad["payload"]["counter_witness"] = {
        "element": ["1", "0", "0"],
        "char": ["0", "0", "0", "1"],
    }
    rep = verify_certificate(bad, algebra=h3)
    assert not rep and rep.clause == "witness"


def test_verdict_radical_tamper(sl2):
    p, v = verdict_pair(sl2, "linear")
    cert = emit_verdict(p, v)
    bad = json.loads(json.dumps(cert))
    bad["payload"]["radical"] = [["1", "0", "0"]]
    rep = verify_certificate(bad, algebra=sl2)
    assert not rep and rep.clause == "radical"


def test_torus_equation_tamper():
    tw = TorusWeights(((1,), (2,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    bad = json.loads(json.dumps(cert))
    bad["payload"]["equations"][0] = "c1 - c2"
    rep = verify_certificate(bad, weights=tw)
    assert not rep and rep.clause == "equations"


def test_torus_relation_tamper():
    tw = TorusWeights(((1,), (2,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    bad = json.loads(json.dumps(cert))
    bad["payload"]["relations"] = [[1, 1]]
    rep = verify_certificate(bad, weights=tw)
    assert not rep and rep.clause == "relations"


def test_torus_relations_must_be_a_lattice_basis():
    tw = TorusWeights(((1,), (2,), (3,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    assert cert["payload"]["relations"] == [[-2, 1, 0], [-3, 0, 1]]
    cases = (
        ([], "0 relations listed; the relation lattice has rank 2"),
        ([[-2, 1, 0]], "1 relations listed; the relation lattice has rank 2"),
        ([[-2, 1, 0], [-3, 0, 1], [-5, 1, 1]],
         "3 relations listed; the relation lattice has rank 2"),
        ([[-2, 1, 0], [-4, 2, 0]], "relations are dependent"),
        ([[-4, 2, 0], [-3, 0, 1]], "relations span a sublattice of index 2"),
        ([[-4, 2, 0], [-6, 0, 2]], "relations span a sublattice of index 4"),
        # an annihilation failure keeps its text
        ([[1, 0, 0]], "relation 0 does not annihilate the weights"),
    )
    for relations, detail in cases:
        bad = json.loads(json.dumps(cert))
        bad["payload"]["relations"] = relations
        assert verify_certificate(bad, weights=tw) \
            == CertReport(False, "relations", detail), relations
    # any other basis of the same lattice passes with its own closure:
    # reordered relations reorder the equations, a negated one keeps them,
    # and (-5, 1, 1) gives Re and Im of z2 z3 - z1^5
    eqs = cert["payload"]["equations"]
    for relations, equations, detail in (
            ([[-3, 0, 1], [-2, 1, 0]], eqs[2:4] + eqs[:2] + eqs[4:],
             "equation 0 differs from the closure of the listed relations"),
            ([[2, -1, 0], [-5, 1, 1]], eqs[:2] + [
                "c1^5 - 10*c1^3*s1^2 + 5*c1*s1^4 - c2*c3 + s2*s3",
                "5*c1^4*s1 - 10*c1^2*s1^3 + s1^5 - c2*s3 - s2*c3"]
             + eqs[4:], "the equations have 20 terms; the closure of the "
                        "listed relations has 24")):
        good = json.loads(json.dumps(cert))
        good["payload"]["relations"] = relations
        assert verify_certificate(good, weights=tw) \
            == CertReport(False, "equations", detail), relations
        good["payload"]["equations"] = equations
        assert verify_certificate(good, weights=tw).ok, relations
    # every pool torus certificate: dropped or doubled relations fail
    checked = 0
    for item in CHECKER_POOL:
        if item["cert"]["kind"] != "TorusEquations":
            continue
        weights = [tuple(r) for r in item["subject"]["weights"]]
        relations = item["cert"]["payload"]["relations"]
        assert verify_certificate(item["cert"], weights=weights).ok
        for edit in ([], [[2 * c for c in m] for m in relations]):
            if edit == relations:
                continue
            bad = json.loads(json.dumps(item["cert"]))
            bad["payload"]["relations"] = edit
            rep = verify_certificate(bad, weights=weights)
            assert not rep and rep.clause == "relations"
            checked += 1
    assert checked == 8


def test_non_ascii_digits_are_rejected():
    # superscripts and other scripts' digits are not the closure's text
    tw = TorusWeights(((1,), (3,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    first = cert["payload"]["equations"][0]
    assert first == "c1^3 - 3*c1*s1^2 - c2"
    for text in ("c1^\u00b2", "c\u00b2", first.replace("^3", "^\u0663"),
                 first.replace("c2", "c\u0662"),
                 first.replace("3*", "\u0663*")):
        bad = json.loads(json.dumps(cert))
        bad["payload"]["equations"][0] = text
        rep = verify_certificate(bad, weights=tw)
        assert (rep.ok, rep.clause) == (False, "equations"), text
        assert rep.detail in (
            "equation 0 differs from the closure of the listed relations",
            "the equations have 10 terms; the closure of the listed "
            "relations has 12"), text


def test_torus_forgeries_are_rejected_at_equations():
    # each of these verified while the checker only asked that the listed
    # equations vanish on the torus
    tw = TorusWeights(((1,), (2,), (3,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    eqs = cert["payload"]["equations"]
    counted = "the equations have %d terms; the closure of the listed " \
              "relations has %d"
    for relations, equations, detail in (
            (None, [], counted % (0, 20)),
            (None, eqs[:1], counted % (3, 20)),
            # a basis of the relation lattice, with large entries
            ([[-2, 1, 0], [-2000003, 1000000, 1]], None,
             counted % (20, 4000020)),
            (None, eqs[:2] + eqs[3:], counted % (17, 20)),
            (None, eqs[:3] + [eqs[4], eqs[3]] + eqs[5:],
             "equation 3 differs from the closure of the listed relations")):
        bad = json.loads(json.dumps(cert))
        if relations is not None:
            bad["payload"]["relations"] = relations
        if equations is not None:
            bad["payload"]["equations"] = equations
        assert verify_certificate(bad, weights=tw) \
            == CertReport(False, "equations", detail), (relations, equations)


def test_a_large_basis_is_rejected_before_any_term_is_written(monkeypatch):
    # the closure of (-2000003, 1000000, 1) has 4000004 terms: the term
    # count refuses it without writing one
    tw = TorusWeights(((1,), (2,), (3,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    cert["payload"]["relations"] = [[-2, 1, 0], [-2000003, 1000000, 1]]

    def unreachable(blocks, relations):
        raise AssertionError("the closure was written")

    monkeypatch.setattr(certs, "_closure_strings", unreachable)
    start = time.perf_counter()
    rep = verify_certificate(cert, weights=tw)
    assert time.perf_counter() - start < 0.05
    assert (rep.ok, rep.clause) == (False, "equations")


def _forged_torus_cert(e, term):
    """A certificate for weights (1, e) and relation (-e, 1) that lists
    as many terms as the closure, each the text term."""
    tw = TorusWeights(((1,), (e,)))
    cert = emit_torus_equations(torus_zariski_closure(TorusWeights(((1,),
                                                                   (2,)))))
    cert["subject_sha256"] = weights_hash(tw.rows)
    cert["payload"].update(weights=[[1], [e]], relations=[[-e, 1]],
                           equations=[" + ".join([term] * (e + 9))])
    return tw, cert


def test_a_short_list_for_a_large_relation_is_rejected_unwritten(
        monkeypatch):
    # the closure of (-15000, 1) lists 15009 terms, as this 60 kB list
    # does, but its coefficients C(15000, k) print millions of digits
    tw, cert = _forged_torus_cert(15000, "1")
    monkeypatch.setattr(certs, "_closure_strings", None)
    start = time.perf_counter()
    rep = verify_certificate(cert, weights=tw)
    assert time.perf_counter() - start < 0.05
    assert rep == CertReport(False, "equations", "the equations have 60033 "
                             "characters; the closure's coefficients have at "
                             "least 16875000 digits")


def test_a_coefficient_past_the_print_limit_is_a_report():
    # C(2200, 1100) has 661 digits, past the lowest limit on the digits
    # str(int) prints; a list long enough to pass the digit count is
    # answered with a report, as one at the default limit would be
    tw, cert = _forged_torus_cert(2200, "9" * 170)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rep = verify_certificate(cert, weights=tw)
    finally:
        sys.set_int_max_str_digits(limit)
    assert rep == CertReport(False, "equations", "the closure of the listed "
                             "relations has a coefficient too long to print")


def test_seeded_closures_are_the_checker_s_text():
    # every emitted certificate verifies, and the checker writes the
    # closure's text byte for byte; relation lattices with a basis vector
    # of |m|_1 > 24 are skipped, since the closure's self-check grows fast
    rng = random.Random(30300)
    checked = 0
    while checked < 100:
        blocks, params = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(params)]
                for _ in range(blocks)]
        kernel = linalg.integer_left_kernel(rows)
        if any(sum(map(abs, m)) > 24 for m in kernel):
            continue
        tc = torus_zariski_closure(TorusWeights(rows))
        cert = emit_torus_equations(tc)
        assert cert["payload"]["equations"] == tc.equation_strings()
        assert certs._closure_strings(blocks, tc.relations) \
            == tc.equation_strings(), rows
        assert verify_certificate(cert, weights=rows).ok, rows
        checked += 1


def test_torus_subject_binding():
    cert = emit_torus_equations(torus_zariski_closure(TorusWeights(((1,), (2,)))))
    rep = verify_certificate(cert, weights=((1,), (3,)))
    assert not rep and rep.clause == "subject"
    assert weights_hash(((1,), (2,))) == cert["subject_sha256"]


def test_an_appended_equation_is_rejected():
    # the weights-(1, 2) closure has 11 terms; an appended equation, true
    # or false and of any degree, is refused before anything is written
    cert = emit_torus_equations(torus_zariski_closure(TorusWeights(((1,),
                                                                    (2,)))))
    for extra, listed in (("c1^20000 - c2", 13), ("s1*c2", 12),
                          ("c1*s1 - c1*s1 + c1^3", 14)):
        bad = json.loads(json.dumps(cert))
        bad["payload"]["equations"].append(extra)
        detail = "the equations have %d terms; the closure of the listed " \
                 "relations has 11" % listed
        assert verify_certificate(bad, weights=((1,), (2,))) \
            == CertReport(False, "equations", detail), extra
    # a true equation, the negated first one, is refused too
    tw = TorusWeights(((1,), (3,)))
    cert = emit_torus_equations(torus_zariski_closure(tw))
    assert cert["payload"]["equations"][0] == "c1^3 - 3*c1*s1^2 - c2"
    for extra in ("c1^3 - c2", "c1^4", "c2 + 3*c1*s1^2 - c1^3"):
        bad = json.loads(json.dumps(cert))
        bad["payload"]["equations"].append(extra)
        rep = verify_certificate(bad, weights=tw)
        assert (rep.ok, rep.clause) == (False, "equations"), extra


def test_a_non_integer_weight_subject_is_reported():
    cert = emit_torus_equations(torus_zariski_closure(TorusWeights(((1,),
                                                                    (2,)))))
    for weights in ([[1.5], [2]], [[True], [2]], [["2"], [2]], [[], [2]],
                    [[1, 2], [2]], [1, 2], 5):
        rep = verify_certificate(cert, weights=weights)
        assert (rep.ok, rep.clause) == (False, "subject"), weights
        assert rep.detail, weights


def test_verify_requires_matching_subject_kind(e2):
    cert = emit_tbc(e2, tbc_find(e2).certificate)
    rep = verify_certificate(cert)
    assert not rep and rep.clause == "subject"
    tw = TorusWeights(((1,), (2,)))
    tcert = emit_torus_equations(torus_zariski_closure(tw))
    rep = verify_certificate(tcert)
    assert not rep and rep.clause == "subject"


def test_unknown_verdict_certificates_verify(sl2):
    p, v = verdict_pair(sl2, "abstract")
    assert v.outcome == "Unknown"
    cert = emit_verdict(p, v)
    assert verify_certificate(cert, algebra=sl2).ok


def test_linear_presentation_with_matrices_binds_them(e2):
    from liedef.linalg import Mat
    mats = (Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
            Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
            Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))
    p = GroupPresentation(e2, "linear", matrices=mats)
    v = definability_oracle(p)
    cert = emit_verdict(p, v)
    assert verify_certificate(cert, algebra=e2, matrices=list(mats)).ok
    # without the matrices the subject hash no longer matches
    rep = verify_certificate(cert, algebra=e2)
    assert not rep and rep.clause == "subject"


def test_schema_version_must_be_the_integer_one(e2):
    cert = emit_tbc(e2, tbc_find(e2).certificate)
    for version in (True, 1.0, "1", 2, None):
        cert["schema"] = version
        rep = verify_certificate(cert, algebra=e2)
        assert not rep and rep.clause == "schema"
    cert["schema"] = 1
    assert verify_certificate(cert, algebra=e2).ok


def test_non_string_kind_and_non_object_verdict_certificate(e2):
    cert = emit_tbc(e2, tbc_find(e2).certificate)
    cert["kind"] = []
    rep = verify_certificate(cert, algebra=e2)
    assert not rep and rep.clause == "schema"
    p, v = verdict_pair(e2, "linear")
    cert = emit_verdict(p, v)
    cert["payload"]["certificate"] = ""
    rep = verify_certificate(cert, algebra=e2)
    assert not rep and rep.clause == "shape"


def test_a_non_solvable_subject_gets_a_report(tmp_path, sl2, capsys):
    tbc = emit_tbc(sl2, TbcCertificate(((1, 0, 0),), (), ((1, 0, 0),), ()))
    rep = verify_certificate(tbc, algebra=sl2)
    assert not rep and rep.clause == "subject"
    assert rep.detail == "certificates describe solvable algebras"
    # the open regime decides nothing, so a certificate on it is false
    p, v = verdict_pair(sl2, "abstract")
    verdict = emit_verdict(p, v)
    verdict["payload"]["certificate"] = copy.deepcopy(tbc["payload"])
    rep = verify_certificate(verdict, algebra=sl2)
    assert not rep and rep.clause == "certificate"
    subject = str(tmp_path / "sl2.json")
    save_algebra_file(subject, sl2)
    for k, cert in enumerate((tbc, verdict)):
        path = str(tmp_path / ("bad%d.json" % k))
        save_certificate(path, cert)
        assert main(["verify-cert", subject, path]) == 1
        assert "rejected at clause" in capsys.readouterr().out


# ------------------------------------------------- solvability asked once

def test_no_call_asks_solvability_of_one_table_twice(monkeypatch):
    """The oracle hands proven solvability down to its rules, and the
    checker from its rule clause to the certificate; the radical is read
    off the same trace form.  So within one definability_oracle or
    verify_certificate call no table has its trace form run twice (which
    is_solvable runs too) or has its Killing rows on [g, g] worked out a
    second time, one row per rref row of [g, g], and none builds a Killing
    matrix; the checker still takes nothing from the oracle."""
    asked = Counter()
    trace_form = LieAlgebra._trace_form
    killing_rows = LieAlgebra._killing_rows
    killing = LieAlgebra.killing_matrix
    rows_built = []

    def counted(self):
        asked[repr(self.table)] += 1
        return trace_form(self)

    def counted_rows(self, vectors):
        asked["killing", repr(self.table)] += 1
        assert len(vectors) == len(self.derived_algebra())
        rows_built.append(len(vectors))
        return killing_rows(self, vectors)

    def counted_killing(self):
        asked["killing matrix", repr(self.table)] += 1
        return killing(self)

    monkeypatch.setattr(LieAlgebra, "_trace_form", counted)
    monkeypatch.setattr(LieAlgebra, "_killing_rows", counted_rows)
    monkeypatch.setattr(LieAlgebra, "killing_matrix", counted_killing)
    rng = random.Random(20260816)
    subjects = [(e.algebra, e.matrices) for e in corpus()]
    subjects += [(_random_solvable(rng), ()) for _ in range(6)]
    calls = 0
    for alg, mats in subjects:
        for kind, fcl in PRESENTATIONS:
            p = GroupPresentation(alg, kind, matrices=mats,
                                  finite_center_levi=fcl)
            asked.clear()
            v = definability_oracle(p)
            assert all(n == 1 for n in asked.values()), (p, asked)
            assert not any(key[0] == "killing matrix" for key in asked), p
            calls += sum(asked.values())
            certs = [emit_verdict(p, v)]
            if v.certificate is not None and v.radical_basis is None:
                certs.append(emit_tbc(alg, v.certificate, mats or None))
            for cert in certs:
                asked.clear()
                assert verify_certificate(cert, algebra=alg,
                                          matrices=mats or None).ok
                assert all(n == 1 for n in asked.values()), (cert, asked)
                assert not any(key[0] == "killing matrix" for key in asked)
                calls += sum(asked.values())
    assert calls > len(subjects)
    assert sum(rows_built) > len(subjects)


def test_a_wrong_rule_on_a_linear_verdict_needs_no_algebra(monkeypatch):
    """A linear presentation is always Theorem 3's, so its rule clause is
    decided before the trace form runs: no Killing row or matrix is
    worked out."""
    built = []
    killing_rows = LieAlgebra._killing_rows
    killing = LieAlgebra.killing_matrix

    def counted_rows(self, vectors):
        built.append(self)
        return killing_rows(self, vectors)

    def counted(self):
        built.append(self)
        return killing(self)

    monkeypatch.setattr(LieAlgebra, "_killing_rows", counted_rows)
    monkeypatch.setattr(LieAlgebra, "killing_matrix", counted)
    kinds = Counter()
    for entry in corpus():
        g, mats = entry.algebra, entry.matrices
        p, v = verdict_pair(g, "linear", matrices=mats)
        cert = emit_verdict(p, v)
        cert["payload"]["rule"] = RULE_FINITE_CENTER
        built.clear()
        rep = verify_certificate(cert, algebra=g, matrices=mats or None)
        assert not rep and rep.clause == "rule"
        assert not built, entry.name
        kinds[g.is_solvable()] += 1
    assert kinds[True] >= 5 and kinds[False] >= 5


def test_a_whole_claimed_radical_builds_one_killing_matrix(monkeypatch):
    """A claimed radical that is the whole algebra is one the Killing form
    vanishes on [g, g] for, which proves it solvable (Cartan's criterion,
    which the same trace form checks against the derived series), so the
    certificate clause works out no second set of Killing rows and builds
    no Killing matrix."""
    built = []
    killing_rows = LieAlgebra._killing_rows
    killing = LieAlgebra.killing_matrix

    def counted_rows(self, vectors):
        built.append(self)
        return killing_rows(self, vectors)

    def counted(self):
        built.append(self)
        return killing(self)

    monkeypatch.setattr(LieAlgebra, "_killing_rows", counted_rows)
    monkeypatch.setattr(LieAlgebra, "killing_matrix", counted)
    checked = row_sets = 0
    for entry in corpus():
        g = entry.algebra
        if not g.is_solvable():
            continue
        p = GroupPresentation(g, "linear", matrices=entry.matrices)
        v = definability_oracle(p)
        if v.certificate is None:
            continue
        cert = emit_verdict(p, v)
        built.clear()
        assert verify_certificate(cert, algebra=g,
                                  matrices=entry.matrices or None).ok
        # the trace form's one set of rows
        assert len(built) <= 1, entry.name
        checked += 1
        row_sets += len(built)
    assert checked > 5 and row_sets > 5


# ------------------------------------------------------------ edit fuzz

POOL = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                    "data", "checker_pool.json")
with open(POOL) as _fh:
    CHECKER_POOL = json.load(_fh)
JUNK = (None, "", "x", "1/0", 0, -1, 10 ** 30, 1.5, True, [], [[]], ["1"],
        {}, {"a": 1})


def _subject(item):
    sub = item["subject"]
    if "weights" in sub:
        return {"weights": [tuple(r) for r in sub["weights"]]}, sub
    alg, mats = algebra_from_dict(sub["algebra"])
    return {"algebra": alg, "matrices": list(mats or ()) or None}, \
        sub["algebra"]


@st.composite
def edited_certificates(draw):
    """A pool item and its certificate under one to three edits, each at a
    random JSON path: a junk value, a deletion, or a duplicate (a list
    element repeated, or a value copied onto a sibling key)."""
    item = draw(st.sampled_from(CHECKER_POOL))
    cert = copy.deepcopy(item["cert"])
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = cert
        while isinstance(node, (dict, list)) and node \
                and (key is None or draw(st.booleans())):
            parent = node
            key = draw(st.sampled_from(sorted(node, key=str))
                       if isinstance(node, dict)
                       else st.integers(0, len(node) - 1))
            node = node[key]
        if parent is None:
            continue
        op = draw(st.sampled_from(("junk", "delete", "duplicate")))
        if op == "junk":
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        elif len(parent) > 1:
            other = draw(st.sampled_from(sorted(
                (k for k in parent if k != key), key=str)))
            parent[other] = copy.deepcopy(node)
    return item, cert


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(edited_certificates())
def test_every_edited_certificate_gets_a_report(pair):
    item, cert = pair
    subject, subject_json = _subject(item)
    report = verify_certificate(cert, **subject)
    assert isinstance(report, CertReport)
    assert report.ok or (report.clause and report.detail)
    with tempfile.TemporaryDirectory() as tmp:
        subject_path = os.path.join(tmp, "subject.json")
        cert_path = os.path.join(tmp, "cert.json")
        with open(subject_path, "w") as fh:
            json.dump(subject_json, fh)
        save_certificate(cert_path, cert)
        assert main(["verify-cert", subject_path, cert_path]) \
            == (0 if report.ok else 1)


# ------------------------------------------- flag clauses against the loops
#
# The three flag checks (the checker's Flag clause, _tbc_verify's flag
# clauses, which the checker and the finder share, and the finder's own
# _check_flag) put the brackets into coordinates of the whole flag at once.
# The references below are the per-step loops they replaced, one
# elimination per prefix, and must give the same first failure.

def _ref_check_flag(payload, alg):
    try:
        flag = certs._real_vectors(payload.get("flag"), alg.dim, "flag")
        chars_raw = payload.get("step_characters")
        chars = (None if chars_raw is None else
                 certs._real_vectors(chars_raw, alg.dim, "step_characters"))
    except InputError as e:
        return CertReport(False, "shape", str(e))
    if len(flag) != alg.dim:
        return CertReport(False, "flag", "flag length %d differs from dim %d"
                          % (len(flag), alg.dim))
    if len(span_basis(flag)) != len(flag):
        return CertReport(False, "flag", "flag vectors are not independent")
    if chars is not None and len(chars) != len(flag):
        return CertReport(False, "shape",
                          "one character row per flag step required")
    for k in range(len(flag)):
        brs = [alg.bracket(x, flag[k]) for x in alg.basis()]
        for i, coords in enumerate(coords_in_span(flag[:k + 1], brs)):
            if coords is None:
                return CertReport(False, "flag", "step %d is not invariant"
                                  % k)
            if chars is not None and coords[k] != chars[k][i]:
                return CertReport(False, "characters",
                                  "step %d acts with the wrong scalar under "
                                  "basis element %d" % (k, i))
    return CertReport(True)


def _ref_tbc_verify(r, cert):
    t = definability._cert_vectors(cert.t_basis, r.dim, "t_basis")
    k = definability._cert_vectors(cert.k_basis, r.dim, "k_basis")
    flag = definability._cert_vectors(cert.flag, r.dim, "flag")
    if cert.torus_evidence and len(cert.torus_evidence) != len(k):
        raise InputError("torus_evidence must match k_basis in length")
    t_span = span_basis(t)
    brackets = [r.bracket(x, row) for x in r.basis() for row in t_span]
    if None in coords_in_span(t_span, brackets):
        return CertReport(False, "t-ideal", "bracket leaves the t part")
    if len(flag) != len(t_span):
        return CertReport(False, "flag", "flag length differs from dim t")
    if len(span_basis(flag)) != len(flag):
        return CertReport(False, "flag", "flag vectors are dependent")
    if None in coords_in_span(t_span, flag):
        return CertReport(False, "flag", "flag vector outside the t part")
    bad = []
    for i, v in enumerate(flag):
        coords = coords_in_span(flag[:i + 1],
                                [r.bracket(x, v) for x in t_span])
        bad += [(j, i) for j, c in enumerate(coords) if c is None]
    if bad:
        return CertReport(False, "flag", "step %d is not an ideal of t"
                          % min(bad)[1])
    k_span = span_basis(k)
    if len(t_span) + len(k_span) != r.dim:
        return CertReport(False, "direct-sum", "dimensions do not add up")
    if len(span_basis(t_span + k_span)) != r.dim:
        return CertReport(False, "direct-sum", "t and k overlap")
    for a in k_span:
        for b in k_span:
            if not is_zero_vec(r.bracket(a, b)):
                return CertReport(False, "k-abelian", "k is not abelian")
    for j, x in enumerate(k):
        ad = r.ad(x)
        cp = char_poly(ad)
        if cert.torus_evidence:
            if tuple(cert.torus_evidence[j]) != tuple(cp.coeffs):
                return CertReport(False, "torus",
                                  "evidence disagrees with ad(k[%d])" % j)
        if not is_semisimple_mat(ad, cp):
            return CertReport(False, "torus",
                              "ad(k[%d]) is not semisimple" % j)
        if not purely_imaginary_spectrum(cp):
            return CertReport(False, "torus",
                              "ad(k[%d]) has a non-imaginary eigenvalue" % j)
    return CertReport(True)


def _ref_finder_check_flag(g, flag, chars):
    if len(span_basis(flag)) != g.dim or len(flag) != g.dim:
        raise InternalCheckError("flag does not span the algebra")
    for i in range(g.dim):
        brs = [g.bracket(x, flag[i]) for x in g.basis()]
        coords = coords_in_span(flag[:i + 1], brs)
        if None in coords:
            raise InternalCheckError("flag step is not an ideal")
        if any(co[i] != chars[i][j] for j, co in enumerate(coords)):
            raise InternalCheckError(
                "step character disagrees with the flag")


def _flag_subjects():
    """(algebra, matrices, certificate) for every Verdict of the corpus and
    of 12 criterion-8-shaped algebras under each presentation, the TBC
    certificate of each solvable verdict that has one, and the Flag
    certificate of each supersolvable algebra."""
    rng = random.Random(20261024)
    subjects = [(e.algebra, e.matrices) for e in corpus()]
    subjects += [(_random_solvable(rng), ()) for _ in range(12)]
    out = {}
    for alg, mats in subjects:
        mats = mats or None
        certs_of = []
        for kind, fcl in PRESENTATIONS:
            p = GroupPresentation(alg, kind, matrices=mats or (),
                                  finite_center_levi=fcl)
            v = definability_oracle(p)
            certs_of.append(emit_verdict(p, v))
            if v.certificate is not None and v.radical_basis is None:
                certs_of.append(emit_tbc(alg, v.certificate, mats))
        if alg.is_solvable():
            ss = supersolvable_test(alg)
            if ss.status == SS_YES:
                certs_of.append(emit_flag(alg, ss.flag, ss.step_characters,
                                          mats))
        for cert in certs_of:
            out[json.dumps(cert, sort_keys=True)] = (alg, mats, cert)
    return list(out.values())


def _vec(v):
    return [Fraction(x) for x in v]


def _json_vec(v):
    return [str(x) for x in v]


def _flag_edits(rng, payload):
    """The payload of a Flag, TBC or Verdict certificate under each false
    edit of its flag: dependent vectors, a vector outside t, two steps
    swapped (with and without their characters), one entry perturbed, and
    one step character changed."""
    body = payload.get("certificate", payload)
    if body is None:
        return []
    flag = body["flag"]
    m = len(flag)
    chars = body.get("step_characters")
    edits = []

    def edited(new_flag, new_chars=None):
        out = copy.deepcopy(payload)
        target = out.get("certificate", out)
        target["flag"] = new_flag
        if new_chars is not None:
            target["step_characters"] = new_chars
        edits.append(out)

    if m >= 2:
        a, b = rng.sample(range(m), 2)
        edited([flag[b] if i == a else v for i, v in enumerate(flag)])
        c = rng.randrange(m)
        summed = _json_vec(x + y for x, y in zip(_vec(flag[b]),
                                                  _vec(flag[c])))
        edited([summed if i == a else v for i, v in enumerate(flag)])
        k = rng.randrange(m - 1)
        swapped = flag[:k] + [flag[k + 1], flag[k]] + flag[k + 2:]
        edited(swapped)
        if chars is not None:
            edited(swapped, chars[:k] + [chars[k + 1], chars[k]]
                   + chars[k + 2:])
    if m >= 1:
        k = rng.randrange(m)
        for outside in body.get("k_basis", [])[:1]:
            edited([outside if i == k else v for i, v in enumerate(flag)])
            moved = _json_vec(x + y for x, y in zip(_vec(flag[k]),
                                                     _vec(outside)))
            edited([moved if i == k else v for i, v in enumerate(flag)])
        for _ in range(2):
            k, j = rng.randrange(m), rng.randrange(len(flag[0]))
            vec = _vec(flag[k])
            vec[j] += rng.choice((1, -1, Fraction(1, 2)))
            edited([_json_vec(vec) if i == k else v
                    for i, v in enumerate(flag)])
        if chars is not None:
            k, i = rng.randrange(m), rng.randrange(len(chars[0]))
            row = _vec(chars[k])
            row[i] += 1
            edited(flag, [_json_vec(row) if s == k else r
                          for s, r in enumerate(chars)])
    return edits


def _finder_outcome(check, alg, payload):
    flag = [tuple(_vec(v)) for v in payload["flag"]]
    chars = [tuple(_vec(c)) for c in payload["step_characters"]]
    try:
        check(alg, flag, chars)
    except InternalCheckError as e:
        return str(e)
    return None


def test_flag_clauses_report_what_the_per_step_loops_report(monkeypatch):
    rng = random.Random(20261025)
    cases = []
    for alg, mats, cert in _flag_subjects():
        cases.append((alg, mats, cert))
        for payload in _flag_edits(rng, cert["payload"]):
            cases.append((alg, mats, dict(cert, payload=payload)))

    def reports():
        out = []
        for alg, mats, cert in cases:
            r = verify_certificate(cert, algebra=alg, matrices=mats)
            out.append((r.ok, r.clause, r.detail))
        return out

    got = reports()
    with monkeypatch.context() as m:
        m.setattr(certs, "_check_flag", _ref_check_flag)
        m.setattr(certs, "_tbc_verify", _ref_tbc_verify)
        m.setattr(definability, "_tbc_verify", _ref_tbc_verify)
        want = reports()
    assert got == want

    # the finder's check raises on the same flags, with the same message
    finder = set()
    for alg, _, cert in cases:
        payload = cert["payload"]
        if cert["kind"] == KIND_FLAG and len(payload["flag"]) == alg.dim:
            outcome = _finder_outcome(definability._check_flag, alg, payload)
            assert outcome == _finder_outcome(_ref_finder_check_flag, alg,
                                              payload)
            finder.add(outcome)

    # every flag clause is reached, on each certificate kind, and passed
    reached = {(cert["kind"], clause, re.sub(r"\d+", "#", detail))
               for (alg, _, cert), (ok, clause, detail) in zip(cases, want)
               if not ok}
    assert {(KIND_FLAG, "flag", "flag vectors are not independent"),
            (KIND_FLAG, "flag", "step # is not invariant"),
            (KIND_FLAG, "characters", "step # acts with the wrong scalar "
                                      "under basis element #"),
            (KIND_TBC, "flag", "flag vectors are dependent"),
            (KIND_TBC, "flag", "flag vector outside the t part"),
            (KIND_TBC, "flag", "step # is not an ideal of t"),
            (KIND_VERDICT, "certificate", "flag: flag vectors are dependent"),
            (KIND_VERDICT, "certificate",
             "flag: flag vector outside the t part"),
            (KIND_VERDICT, "certificate",
             "flag: step # is not an ideal of t")} <= reached
    assert (True, None, None) in want
    assert finder == {None, "flag does not span the algebra",
                      "flag step is not an ideal",
                      "step character disagrees with the flag"}


def test_each_flag_clause_is_one_elimination(monkeypatch, e2):
    """The checker's Flag clause runs one elimination whatever the
    dimension n (the flag's rank and the coordinates of every bracket
    together; one per prefix took n + 1, and a separate independence test
    one more), and _tbc_verify asks for coordinates in t only when t is a
    proper subspace: a t that spans r is an ideal."""
    eliminations = []
    real = linalg._gauss_jordan

    def counted(*args):
        eliminations.append(1)
        return real(*args)

    asked = []

    def recorded(basis, vectors):
        asked.append([tuple(v) for v in basis])
        return coords_in_span(basis, vectors)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    monkeypatch.setattr(definability, "coords_in_span", recorded)
    dims = []
    for entry in corpus():
        g = entry.algebra
        if not g.is_solvable():
            continue
        ss = supersolvable_test(g)
        if ss.status != SS_YES:
            continue
        payload = emit_flag(g, ss.flag, ss.step_characters)["payload"]
        eliminations.clear()
        assert certs._check_flag(payload, g).ok
        assert len(eliminations) == 1
        asked.clear()
        cert = TbcCertificate(ss.flag, (), ss.flag, ())
        assert definability._tbc_verify(g, cert).ok
        assert asked == [list(ss.flag)]
        dims.append(g.dim)
    assert max(dims) >= 3
    cert = tbc_find(e2).certificate
    assert len(span_basis(cert.t_basis)) < e2.dim
    asked.clear()
    assert definability._tbc_verify(e2, cert).ok
    assert asked == [span_basis(cert.t_basis), list(cert.flag)]
