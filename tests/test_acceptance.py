"""Acceptance gate: nine checks, each printing one pass line with its timing.

Every check is exact arithmetic end to end; the time budgets are generous
on purpose and exist to catch algorithmic blowups, not to benchmark.
"""
import json
import random
import time
from fractions import Fraction
from math import prod

from liedef.certs import (emit_flag, emit_representation, emit_tbc,
                          emit_torus_equations, emit_verdict,
                          verify_certificate)
from liedef.corpus import corpus, corpus_entry
from liedef.definability import (DEFINABLE, NOT_DEFINABLE, UNKNOWN,
                                 GroupPresentation, NonRealWitness,
                                 TbcObstruction, definability_oracle,
                                 supersolvable_test, tbc_find, tbc_verify)
from liedef.lie import LieAlgebra
from liedef.linalg import (Mat, intersect_spans, inverse, mat_pow, rank,
                           span_basis)
from liedef.poly import Poly, squarefree_part, sturm_count_real_roots
from liedef.reps import (ALL_FLAGS, GroupRepData, Representation,
                         is_unipotent, nilpotent_ado, quotient_rep,
                         rep_kernel, supersolvable_triangular_rep,
                         verify_rep)
from liedef.structure import commuting_levi, levi_subalgebra, nilradical, radical
from liedef.torus import TorusWeights, torus_zariski_closure


def _pass(n, label, start, limit):
    elapsed = time.perf_counter() - start
    print("criterion %d: PASS  %s  (%.2fs, budget %gs)"
          % (n, label, elapsed, limit))
    assert elapsed < limit, "criterion %d exceeded its %gs budget" % (n, limit)


# 1 ---------------------------------------------------------------------------

def test_criterion_1_known_answer_oracle_suite():
    budget = 1.0
    timings = []

    e2 = corpus_entry("e2")
    start = time.perf_counter()
    p = GroupPresentation(e2.algebra, "linear", matrices=e2.matrices)
    v = definability_oracle(p)
    assert v.outcome == DEFINABLE
    assert tbc_verify(e2.algebra, v.certificate).ok
    assert verify_certificate(emit_verdict(p, v), algebra=e2.algebra,
                              matrices=list(e2.matrices)).ok
    timings.append(time.perf_counter() - start)

    start = time.perf_counter()
    p = GroupPresentation(e2.algebra, "simply-connected")
    v = definability_oracle(p)
    assert v.outcome == NOT_DEFINABLE
    w = v.counter_witness
    assert isinstance(w, NonRealWitness)
    assert any(getattr(x, "im", 0) for x in w.weight_values)
    assert verify_certificate(emit_verdict(p, v), algebra=e2.algebra).ok
    timings.append(time.perf_counter() - start)

    intro = corpus_entry("intro-example")
    start = time.perf_counter()
    p = GroupPresentation(intro.algebra, "linear", matrices=intro.matrices)
    v = definability_oracle(p)
    assert v.outcome == DEFINABLE
    assert any("need not exhibit" in n for n in v.presentation_notes)
    timings.append(time.perf_counter() - start)

    sl2 = corpus_entry("sl2")
    start = time.perf_counter()
    p = GroupPresentation(sl2.algebra, "abstract", finite_center_levi=True)
    v = definability_oracle(p)
    assert v.outcome == DEFINABLE
    assert v.radical_basis == ()
    assert v.certificate.t_basis == () and v.certificate.k_basis == ()
    assert verify_certificate(emit_verdict(p, v), algebra=sl2.algebra).ok
    timings.append(time.perf_counter() - start)

    worst = max(timings)
    print("criterion 1: PASS  four known-answer verdicts  "
          "(worst case %.2fs, budget %gs each)" % (worst, budget))
    assert worst < budget


# 2 ---------------------------------------------------------------------------

def test_criterion_2_solvable_rule_matches_tbc_annotations():
    start = time.perf_counter()
    checked = 0
    for entry in corpus():
        if not entry.known.get("solvable") or not entry.known_value("solvable"):
            continue
        p = GroupPresentation(entry.algebra, "abstract")
        v = definability_oracle(p)
        want_tbc = entry.known_value("tbc")
        assert (v.outcome == DEFINABLE) == want_tbc, entry.name
        assert v.outcome in (DEFINABLE, NOT_DEFINABLE)
        rep = verify_certificate(emit_verdict(p, v), algebra=entry.algebra)
        assert rep.ok, (entry.name, rep.clause, rep.detail)
        checked += 1
    assert checked >= 12
    _pass(2, "solvable rule vs tbc on %d corpus algebras" % checked,
          start, 5.0)


# 3 ---------------------------------------------------------------------------

def test_criterion_3_triangular_rep_contract():
    start = time.perf_counter()
    checked = 0
    for entry in corpus():
        known = entry.known.get("supersolvable")
        if not known or not known.value:
            continue
        alg = entry.algebra
        rep = supersolvable_triangular_rep(alg)
        assert verify_rep(rep) == ALL_FLAGS, entry.name
        nil = nilradical(alg)
        sub, incl = alg.subalgebra(nil)
        restricted = Representation(sub, rep.target_dim,
                                    tuple(rep.image_of(v) for v in incl))
        assert is_unipotent(restricted), entry.name
        checked += 1
    assert checked >= 8
    _pass(3, "triangular reps on %d supersolvable algebras" % checked,
          start, 5.0)


# 4 ---------------------------------------------------------------------------

def test_criterion_4_ado_dimensions():
    start = time.perf_counter()
    h3 = corpus_entry("h3").algebra
    rep = nilpotent_ado(h3)
    assert rep.target_dim == 10
    assert rep_kernel(rep) == []
    r1 = LieAlgebra.from_entries(1, {})
    rep1 = nilpotent_ado(r1)
    assert rep1.target_dim == 2
    assert rep_kernel(rep1) == []
    _pass(4, "truncated enveloping dims 10 and 2, exact kernels", start, 1.0)


# 5 ---------------------------------------------------------------------------

def test_criterion_5_quotient_rep_kernel_exactness():
    start = time.perf_counter()
    rot = Mat([[0, -1], [1, 0]])
    examples = [
        GroupRepData((rot,), (Mat.identity(2), -1 * Mat.identity(2)), 2),
        GroupRepData((Mat([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),),
                     (Mat.identity(3),
                      Mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]])), 2),
    ]
    for data in examples:
        dim_w, images = quotient_rep(data)
        img = images[0]
        # g^2 lands in F upstairs, so its induced image is exactly the
        # identity; g and g^3 stay outside F and must not act trivially
        assert (mat_pow(img, 2) - Mat.identity(dim_w)).is_zero()
        for k in (1, 3):
            assert not (mat_pow(img, k) - Mat.identity(dim_w)).is_zero()
    _pass(5, "central quotients with exact kernels on both examples",
          start, 2.0)


# 6 ---------------------------------------------------------------------------

def test_criterion_6_torus_closures():
    start = time.perf_counter()
    tw = TorusWeights(((1,), (2,)))
    tc = torus_zariski_closure(tw)
    eqs = set(tc.equation_strings())
    assert "c1^2 - s1^2 - c2" in eqs
    assert "2*c1*s1 - s2" in eqs
    assert tc.equation_strings() == ["c1^2 - s1^2 - c2", "2*c1*s1 - s2",
                                     "c1^2 + s1^2 - 1", "c2^2 + s2^2 - 1"]
    # the double angle identities vanish at rational points of the curve:
    # (c1, s1) on the unit circle and (c2, s2) its double angle
    for t in (Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(5)):
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        point = (c, s, c * c - s * s, 2 * c * s)
        for eq in tc.equations:
            assert sum(coeff * prod(x ** e for x, e in zip(point, exps))
                       for exps, coeff in eq.items()) == 0
    assert verify_certificate(emit_torus_equations(tc), weights=tw).ok

    diag = TorusWeights(((1, 0), (1, 0)))
    dq = torus_zariski_closure(diag)
    deqs = set(dq.equation_strings())
    assert "c1 - c2" in deqs and "s1 - s2" in deqs
    _pass(6, "double-angle and diagonal closures", start, 1.0)


# 7 ---------------------------------------------------------------------------

def test_criterion_7_structure_cross_checks():
    start = time.perf_counter()
    for entry in corpus():
        alg = entry.algebra
        rad = radical(alg)
        assert (len(rad) == alg.dim) == alg.is_solvable(), entry.name
        dec = levi_subalgebra(alg)
        assert span_basis(list(dec.radical)) == list(rad)
        assert intersect_spans(list(dec.radical), list(dec.levi),
                               alg.dim) == []
        assert len(span_basis(list(dec.radical) + list(dec.levi))) == alg.dim
        if dec.levi:
            sub, _ = alg.subalgebra(list(dec.levi))
            assert rank(sub.killing_matrix()) == sub.dim, entry.name

    g = corpus_entry("so3-plus-e2").algebra
    k = [g.basis_vector(5)]
    levi = commuting_levi(g, k)
    assert span_basis(levi) == [
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
    for x in levi:
        for v in k:
            assert not any(g.bracket(x, v))
    assert g.is_subalgebra(levi)
    _pass(7, "radical, Levi and commuting-Levi checks on the corpus",
          start, 5.0)


# 8 ---------------------------------------------------------------------------

def _random_shear(rng, dim):
    t = Mat.identity(dim)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        rows = [list(r) for r in t.rows]
        c = rng.choice((-1, 1))
        for col in range(dim):
            rows[i][col] += c * rows[j][col]
        t = Mat(rows)
    return t


def _change_basis(alg, t):
    tinv = inverse(t)
    cols = [t.col(i) for i in range(alg.dim)]
    table = [[tuple(tinv @ alg.bracket(cols[i], cols[j]))
              for j in range(alg.dim)] for i in range(alg.dim)]
    return LieAlgebra(alg.dim, table)


def _random_solvable(rng):
    """Nilpotent layer plus torus or real-split derivations, then a shear.

    The derivations act in commuting 2x2 rotation-scaling blocks and real
    diagonal entries, so every adjoint weight lives in Q(i) by design.
    """
    values = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
              Fraction(1, 2), Fraction(1), Fraction(2))
    if rng.random() < 0.3:
        # heisenberg base, one derivation with weights a+-bi and 2a
        a = rng.choice(values)
        b = rng.choice((Fraction(0), Fraction(1), Fraction(2)))
        if rng.random() < 0.5:
            entries = {(0, 1): (0, 0, 1)}
            dim = 3
        else:
            entries = {(0, 1): (0, 0, 1, 0)}
            dim = 4
            entries[(3, 0)] = tuple(
                [a, -b] + [Fraction(0)] * 2)
            entries[(3, 1)] = tuple(
                [b, a] + [Fraction(0)] * 2)
            entries[(3, 2)] = (Fraction(0), Fraction(0), 2 * a, Fraction(0))
        alg = LieAlgebra.from_entries(dim, entries)
    else:
        # abelian base of dim m, one or two commuting block derivations
        m = rng.randint(1, 4)
        ext = rng.randint(0, min(2, 5 - m)) if m >= 1 else 0
        dim = m + ext
        entries = {}
        blocks = []
        i = 0
        while i < m:
            if m - i >= 2 and rng.random() < 0.6:
                blocks.append((i, 2))
                i += 2
            else:
                blocks.append((i, 1))
                i += 1
        for e in range(ext):
            row = m + e
            for (pos, size) in blocks:
                if size == 2:
                    a = rng.choice(values)
                    b = rng.choice((Fraction(0), Fraction(1), Fraction(2)))
                    col_x = [Fraction(0)] * dim
                    col_y = [Fraction(0)] * dim
                    col_x[pos], col_x[pos + 1] = a, b
                    col_y[pos], col_y[pos + 1] = -b, a
                    entries[_pair(row, pos)] = _orient(row, pos, col_x)
                    entries[_pair(row, pos + 1)] = _orient(row, pos + 1, col_y)
                else:
                    a = rng.choice(values)
                    col = [Fraction(0)] * dim
                    col[pos] = a
                    entries[_pair(row, pos)] = _orient(row, pos, col)
        entries = {k: v for k, v in entries.items() if any(v)}
        alg = LieAlgebra.from_entries(dim, entries)
    t = _random_shear(rng, alg.dim)
    out = _change_basis(alg, t)
    assert out.validate() == []
    return out


def _pair(i, j):
    return (i, j) if i < j else (j, i)


def _orient(i, j, vec):
    if i < j:
        return tuple(vec)
    return tuple(-c for c in vec)


def test_criterion_8_randomized_soundness_fuzz():
    start = time.perf_counter()
    rng = random.Random(20260816)
    kinds = ("simply-connected", "abstract", "linear")
    counts = {DEFINABLE: 0, NOT_DEFINABLE: 0, UNKNOWN: 0}
    for trial in range(200):
        alg = _random_solvable(rng)
        assert alg.is_solvable()
        p = GroupPresentation(alg, kinds[trial % 3])
        v = definability_oracle(p)
        counts[v.outcome] += 1
        cert = emit_verdict(p, v)
        rep = verify_certificate(cert, algebra=alg)
        assert rep.ok, (trial, v.outcome, rep.clause, rep.detail)
        if v.outcome == NOT_DEFINABLE:
            w = v.counter_witness
            if isinstance(w, NonRealWitness):
                sf = squarefree_part(Poly(tuple(w.char_coeffs)))
                assert sturm_count_real_roots(sf) < sf.degree
            else:
                assert isinstance(w, TbcObstruction)
                assert any(getattr(x, "im", 0) for x in w.weight_values)
    total = sum(counts.values())
    assert total == 200
    _pass(8, "fuzz over 200 algebras: %d Definable, %d NotDefinable, "
             "Unknown rate %.1f%%"
          % (counts[DEFINABLE], counts[NOT_DEFINABLE],
             100.0 * counts[UNKNOWN] / total),
          start, 60.0)


# 9 ---------------------------------------------------------------------------

def _mutations():
    """Fifty certificates, each with one field changed to something false."""
    e2 = corpus_entry("e2").algebra
    h3 = corpus_entry("h3").algebra
    sl2 = corpus_entry("sl2").algebra

    tbc = emit_tbc(e2, tbc_find(e2).certificate)
    ss = supersolvable_test(h3)
    flag = emit_flag(h3, ss.flag, ss.step_characters)
    rep = emit_representation(nilpotent_ado(h3))
    tw = TorusWeights(((1,), (2,)))
    torus = emit_torus_equations(torus_zariski_closure(tw))

    p_sc = GroupPresentation(e2, "simply-connected")
    v_sc = definability_oracle(p_sc)
    verdict_sc = emit_verdict(p_sc, v_sc)
    p_ab = GroupPresentation(e2, "abstract")
    verdict_ab = emit_verdict(p_ab, definability_oracle(p_ab))
    p_lin = GroupPresentation(sl2, "linear")
    verdict_lin = emit_verdict(p_lin, definability_oracle(p_lin))
    p_h3 = GroupPresentation(h3, "simply-connected")
    verdict_h3 = emit_verdict(p_h3, definability_oracle(p_h3))

    bases = {"tbc": (tbc, e2, None), "flag": (flag, h3, None),
             "rep": (rep, h3, None), "torus": (torus, None, tw),
             "verdict_sc": (verdict_sc, e2, None),
             "verdict_ab": (verdict_ab, e2, None),
             "verdict_lin": (verdict_lin, sl2, None),
             "verdict_h3": (verdict_h3, h3, None)}

    out = []

    def mut(base_key, fn):
        base, alg, weights = bases[base_key]
        cert = json.loads(json.dumps(base))
        fn(cert)
        out.append((base_key, cert, alg, weights))

    def setp(path, value):
        def go(cert):
            node = cert
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        return go

    # generic envelope corruption, once per kind
    for key in ("tbc", "flag", "rep", "verdict_sc", "torus"):
        digest = bases[key][0]["subject_sha256"]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        mut(key, setp(("subject_sha256",), flipped))
        mut(key, setp(("schema",), 99))
        mut(key, setp(("kind",), "Sponge"))
        mut(key, setp(("payload",), None))

    # TBC payload
    mut("tbc", setp(("payload", "t_basis"), []))
    mut("tbc", setp(("payload", "k_basis", 0), ["0", "0", "2"]))
    mut("tbc", setp(("payload", "k_basis", 0), ["1", "0", "0"]))
    mut("tbc", lambda c: c["payload"]["flag"].__setitem__(
        1, c["payload"]["flag"][0]))
    mut("tbc", setp(("payload", "torus_evidence", 0), ["1", "1", "1", "1"]))
    mut("tbc", setp(("payload", "flag", 0), ["0", "0", "1"]))

    # Flag payload
    mut("flag", lambda c: c["payload"].__setitem__(
        "flag", c["payload"]["flag"][::-1]))
    mut("flag", setp(("payload", "step_characters", 0, 0), "5"))
    mut("flag", lambda c: c["payload"]["flag"].pop())
    mut("flag", lambda c: c["payload"]["step_characters"].pop())
    mut("flag", setp(("payload", "flag", 0), ["0", "0", "0"]))
    mut("flag", setp(("payload", "step_characters", 1), ["1", "1", "1"]))

    # Representation payload
    dimw = bases["rep"][0]["payload"]["target_dim"]
    zero = [["0"] * dimw for _ in range(dimw)]
    mut("rep", setp(("payload", "images", 2), zero))
    mut("rep", setp(("payload", "target_dim"), dimw + 1))
    mut("rep", lambda c: c["payload"]["claims"].append("sells-timeshares"))
    mut("rep", lambda c: c["payload"]["images"].pop())
    mut("rep", setp(("payload", "images", 0, 0, 1), "7"))
    mut("rep", lambda c: c["payload"]["images"].__setitem__(
        slice(0, 3), [c["payload"]["images"][2],
                      c["payload"]["images"][1],
                      c["payload"]["images"][0]]))

    # Verdict payloads
    mut("verdict_h3", setp(("payload", "outcome"), "NotDefinable"))
    mut("verdict_sc", setp(("payload", "outcome"), "Definable"))
    mut("verdict_ab", setp(("payload", "rule"), "Fact 1 (simply connected)"))
    mut("verdict_sc", setp(("payload", "counter_witness", "char"),
                           ["1", "0", "0", "1"]))
    mut("verdict_sc", setp(("payload", "counter_witness", "element"),
                           ["1", "0", "0"]))
    mut("verdict_lin", setp(("payload", "radical"), [["1", "0", "0"]]))

    # Torus payload
    mut("torus", setp(("payload", "equations", 0), "c1 - c2"))
    mut("torus", setp(("payload", "equations", 0), "c1 +"))
    mut("torus", lambda c: c["payload"]["relations"].append([1, 1]))
    mut("torus", setp(("payload", "relations", 0), ["x", 1]))
    mut("torus", setp(("payload", "weights"), [[1], [3]]))
    mut("torus", lambda c: c["payload"]["equations"].append("s1*c2"))

    return out


def test_criterion_9_mutation_rejection():
    start = time.perf_counter()
    pool = _mutations()
    assert len(pool) == 50
    clauses = {}
    for base_key, cert, alg, weights in pool:
        rep = verify_certificate(cert, algebra=alg, weights=weights)
        assert not rep.ok, (base_key, cert)
        assert rep.clause, base_key
        assert rep.detail, base_key
        clauses[rep.clause] = clauses.get(rep.clause, 0) + 1
    named = ", ".join("%s=%d" % kv for kv in sorted(clauses.items()))
    _pass(9, "50 corrupted certificates rejected (%s)" % named, start, 5.0)
