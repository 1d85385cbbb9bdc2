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
import tempfile
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liedef.certs import (CertReport, KIND_FLAG, KIND_REPRESENTATION,
                          KIND_TBC, KIND_TORUS, KIND_VERDICT, emit_flag,
                          emit_representation, emit_tbc, emit_torus_equations,
                          emit_verdict, load_certificate, save_certificate,
                          verify_certificate, weights_hash)
from liedef.cli import main
from liedef.corpus import corpus
from liedef.definability import (RULE_FINITE_CENTER, GroupPresentation,
                                 TbcCertificate, definability_oracle,
                                 supersolvable_test, tbc_find)
from liedef.errors import InputError
from liedef.formats import algebra_from_dict, save_algebra_file
from liedef.lie import LieAlgebra
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


def test_torus_subject_binding():
    cert = emit_torus_equations(torus_zariski_closure(TorusWeights(((1,), (2,)))))
    rep = verify_certificate(cert, weights=((1,), (3,)))
    assert not rep and rep.clause == "subject"
    assert weights_hash(((1,), (2,))) == cert["subject_sha256"]


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
    is_solvable runs too) or gets a second Killing matrix; the checker
    still takes nothing from the oracle."""
    asked = Counter()
    trace_form = LieAlgebra._trace_form
    killing = LieAlgebra.killing_matrix

    def counted(self):
        asked[repr(self.table)] += 1
        return trace_form(self)

    def counted_killing(self):
        asked["killing", repr(self.table)] += 1
        return killing(self)

    monkeypatch.setattr(LieAlgebra, "_trace_form", counted)
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
            calls += sum(asked.values())
            certs = [emit_verdict(p, v)]
            if v.certificate is not None and v.radical_basis is None:
                certs.append(emit_tbc(alg, v.certificate, mats or None))
            for cert in certs:
                asked.clear()
                assert verify_certificate(cert, algebra=alg,
                                          matrices=mats or None).ok
                assert all(n == 1 for n in asked.values()), (cert, asked)
                calls += sum(asked.values())
    assert calls > len(subjects)


def test_a_wrong_rule_on_a_linear_verdict_needs_no_algebra(monkeypatch):
    """A linear presentation is always Theorem 3's, so its rule clause is
    decided before the trace form runs."""
    built = []
    killing = LieAlgebra.killing_matrix

    def counted(self):
        built.append(self)
        return killing(self)

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
    certificate clause builds no second Killing matrix."""
    built = []
    killing = LieAlgebra.killing_matrix

    def counted(self):
        built.append(self)
        return killing(self)

    monkeypatch.setattr(LieAlgebra, "killing_matrix", counted)
    checked = 0
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
        # one for the trace form, none when [g, g] = 0
        assert len(built) <= 1, entry.name
        checked += 1
    assert checked > 5


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
