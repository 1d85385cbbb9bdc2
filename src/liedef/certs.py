"""Certificate files: serialized witnesses bound to subjects by content hash.

A certificate records a claim about one subject (an algebra file, or a weight
matrix for torus equations) together with exactly the data a checker needs to
re-verify the claim.  Verification never reruns a finder; it only replays the
cheap side of each argument: ideals, spans, commutators, characteristic
polynomials, Sturm counts, the binomials of lattice relations.  Every
certificate carries the sha256 of its subject's canonical serialization, so a
certificate and a file can be matched without trusting paths.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction
from math import prod

from .definability import (DEFINABLE, NOT_DEFINABLE, PRESENTATION_KINDS,
                           RULE_FINITE_CENTER, RULE_LINEAR, RULE_OPEN,
                           RULE_SIMPLY_CONNECTED, RULE_SOLVABLE, UNKNOWN,
                           CertReport, DefinabilityVerdict, GroupPresentation,
                           NonRealWitness, TbcCertificate, TbcObstruction,
                           _tbc_verify, tbc_verify)
from .errors import InputError, NotSolvableError, UnsupportedError
from .formats import (algebra_hash, canonical_json, matrix_from_json,
                      matrix_to_json, read_json, vector_from_json,
                      vector_to_json, write_json)
from .lie import LieAlgebra
from .linalg import (Mat, _coords_and_rank, char_poly, kernel,
                     maximal_minor_gcd, rank, span_basis)
from .poly import squarefree_part, sturm_count_real_roots
from .reps import ALL_FLAGS, Representation, verify_rep
from .torus import TorusClosure, TorusWeights, equation_string

SCHEMA_VERSION = 1

KIND_TBC = "TBC"
KIND_FLAG = "Flag"
KIND_REPRESENTATION = "Representation"
KIND_VERDICT = "Verdict"
KIND_TORUS = "TorusEquations"

KNOWN_KINDS = frozenset((KIND_TBC, KIND_FLAG, KIND_REPRESENTATION,
                         KIND_VERDICT, KIND_TORUS))

OUTCOMES = (DEFINABLE, NOT_DEFINABLE, UNKNOWN)
RULES = (RULE_SIMPLY_CONNECTED, RULE_SOLVABLE, RULE_LINEAR,
         RULE_FINITE_CENTER, RULE_OPEN)


def weights_hash(rows) -> str:
    text = canonical_json({"weights": [list(r) for r in rows]})
    return hashlib.sha256(text.encode()).hexdigest()


def _wrap(kind: str, subject_sha256: str, payload: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "subject_sha256": subject_sha256,
            "kind": kind, "payload": payload}


# ---------------------------------------------------------------- emitters

def _tbc_payload(cert: TbcCertificate) -> dict:
    return {
        "t_basis": [vector_to_json(v) for v in cert.t_basis],
        "k_basis": [vector_to_json(v) for v in cert.k_basis],
        "flag": [vector_to_json(v) for v in cert.flag],
        "torus_evidence": [vector_to_json(c) for c in cert.torus_evidence],
    }


def emit_tbc(alg: LieAlgebra, cert: TbcCertificate, matrices=None) -> dict:
    return _wrap(KIND_TBC, algebra_hash(alg, matrices), _tbc_payload(cert))


def emit_flag(alg: LieAlgebra, flag, step_characters=None,
              matrices=None) -> dict:
    payload = {
        "flag": [vector_to_json(v) for v in flag],
        "step_characters": (None if step_characters is None else
                            [vector_to_json(c) for c in step_characters]),
    }
    return _wrap(KIND_FLAG, algebra_hash(alg, matrices), payload)


def emit_representation(rep: Representation, matrices=None) -> dict:
    payload = {
        "target_dim": rep.target_dim,
        "images": [matrix_to_json(m) for m in rep.images],
        "flag": (None if rep.flag is None else
                 [vector_to_json(v) for v in rep.flag]),
        "claims": sorted(rep.verified),
    }
    return _wrap(KIND_REPRESENTATION, algebra_hash(rep.source, matrices),
                 payload)


def _witness_payload(alg: LieAlgebra, verdict: DefinabilityVerdict):
    """Normalize either witness shape to (element over alg, char poly).

    A non-real adjoint eigenvalue of the subject itself is the common core:
    a weight-table obstruction names a basis direction whose weight value
    has nonzero imaginary part, and since the weight values appear in the
    spectrum of that direction's adjoint action (and the radical is an
    ideal, so its adjoint spectrum embeds in the subject's), the subject's
    own characteristic polynomial already exhibits the non-real root.
    """
    w = verdict.counter_witness
    if isinstance(w, NonRealWitness):
        element = tuple(w.element)
    elif isinstance(w, TbcObstruction):
        i = next(j for j, v in enumerate(w.weight_values)
                 if getattr(v, "im", 0))
        basis = verdict.radical_basis
        element = tuple(basis[i]) if basis else alg.basis_vector(i)
    else:
        raise InputError("unrecognized counter-witness type %r"
                         % type(w).__name__)
    cp = char_poly(alg.ad(element))
    return {"element": vector_to_json(element),
            "char": vector_to_json(cp.coeffs)}


def emit_verdict(p: GroupPresentation, verdict: DefinabilityVerdict) -> dict:
    g = p.algebra
    witness = None
    if verdict.counter_witness is not None:
        witness = _witness_payload(g, verdict)
    payload = {
        "outcome": verdict.outcome,
        "rule": verdict.rule_used,
        "presentation": p.kind,
        "finite_center_levi": p.finite_center_levi,
        "notes": list(verdict.presentation_notes),
        "radical": (None if verdict.radical_basis is None else
                    [vector_to_json(v) for v in verdict.radical_basis]),
        "certificate": (None if verdict.certificate is None else
                        _tbc_payload(verdict.certificate)),
        "counter_witness": witness,
        "explanation": verdict.explanation,
    }
    mats = tuple(m if isinstance(m, Mat) else Mat(m) for m in p.matrices)
    return _wrap(KIND_VERDICT, algebra_hash(g, mats or None), payload)


def emit_torus_equations(tc: TorusClosure) -> dict:
    payload = {
        "weights": [list(r) for r in tc.weights.rows],
        "relations": [list(m) for m in tc.relations],
        "equations": tc.equation_strings(),
    }
    return _wrap(KIND_TORUS, weights_hash(tc.weights.rows), payload)


# ---------------------------------------------------------------- checkers

def _fail(clause: str, detail: str) -> CertReport:
    return CertReport(False, clause, detail)


def _real_vectors(items, dim, where):
    if not isinstance(items, list):
        raise InputError(f"{where}: expected a list of vectors")
    out = []
    for k, v in enumerate(items):
        vec = vector_from_json(v, dim, f"{where}[{k}]")
        for x in vec:
            if not isinstance(x, Fraction):
                raise InputError(f"{where}[{k}]: entries must be real "
                                 "rationals")
        out.append(tuple(vec))
    return out


def _decode_tbc(payload, dim) -> TbcCertificate:
    t = _real_vectors(payload.get("t_basis"), dim, "t_basis")
    k = _real_vectors(payload.get("k_basis"), dim, "k_basis")
    flag = _real_vectors(payload.get("flag"), dim, "flag")
    ev_raw = payload.get("torus_evidence")
    if not isinstance(ev_raw, list):
        raise InputError("torus_evidence: expected a list")
    evidence = []
    for k_idx, coeffs in enumerate(ev_raw):
        vec = vector_from_json(coeffs, None, f"torus_evidence[{k_idx}]")
        evidence.append(tuple(vec))
    return TbcCertificate(tuple(t), tuple(k), tuple(flag), tuple(evidence))


def _check_tbc(payload, alg: LieAlgebra) -> CertReport:
    try:
        return tbc_verify(alg, _decode_tbc(payload, alg.dim))
    except InputError as e:
        return _fail("shape", str(e))
    except NotSolvableError as e:
        return _fail("subject", str(e))


def _check_flag(payload, alg: LieAlgebra) -> CertReport:
    """Replay a Flag certificate: each prefix span is an ideal, and basis
    element i acts on step k, modulo the earlier steps, by the claimed
    character chars[k][i].

    One elimination, with the flag vectors as columns and every bracket
    [e_i, flag[k]] as a right-hand side, gives the rank of the flag and the
    coordinates of those brackets in it.  An independent flag of length dim
    is a basis: step k is an ideal when every coordinate past k is zero,
    and coordinate k is the character.  Steps, and basis elements within a
    step, are checked in order, so the first failure is reported.
    """
    try:
        flag = _real_vectors(payload.get("flag"), alg.dim, "flag")
        chars_raw = payload.get("step_characters")
        chars = (None if chars_raw is None else
                 _real_vectors(chars_raw, alg.dim, "step_characters"))
    except InputError as e:
        return _fail("shape", str(e))
    if len(flag) != alg.dim:
        return _fail("flag", "flag length %d differs from dim %d"
                     % (len(flag), alg.dim))
    n = len(flag)
    basis = alg.basis()
    coords, flag_rank = _coords_and_rank(
        flag, [alg.bracket(x, v) for v in flag for x in basis])
    if flag_rank != n:
        return _fail("flag", "flag vectors are not independent")
    if chars is not None and len(chars) != n:
        return _fail("shape", "one character row per flag step required")
    for k in range(n):
        for i, co in enumerate(coords[k * n:(k + 1) * n]):
            if any(co[k + 1:]):
                return _fail("flag", "step %d is not invariant" % k)
            if chars is not None and co[k] != chars[k][i]:
                return _fail("characters",
                             "step %d acts with the wrong scalar under "
                             "basis element %d" % (k, i))
    return CertReport(True)


def _check_representation(payload, alg: LieAlgebra) -> CertReport:
    try:
        target_dim = payload.get("target_dim")
        if not isinstance(target_dim, int) or isinstance(target_dim, bool) \
                or target_dim < 1:
            raise InputError("target_dim must be a positive integer")
        images_raw = payload.get("images")
        if not isinstance(images_raw, list):
            raise InputError("images: expected a list of matrices")
        images = tuple(matrix_from_json(m, f"images[{k}]")
                       for k, m in enumerate(images_raw))
        flag_raw = payload.get("flag")
        flag = (None if flag_raw is None else
                tuple(_real_vectors(flag_raw, target_dim, "flag")))
        claims = payload.get("claims")
        if not isinstance(claims, list) \
                or not all(isinstance(c, str) for c in claims):
            raise InputError("claims: expected a list of strings")
        unknown = sorted(set(claims) - ALL_FLAGS)
        if unknown:
            raise InputError("unknown claim %r" % unknown[0])
        rep = Representation(alg, target_dim, images, flag=flag)
    except InputError as e:
        return _fail("shape", str(e))
    verified = verify_rep(rep)
    missing = sorted(set(claims) - verified)
    if missing:
        return _fail("claims", "claim %r does not hold" % missing[0])
    return CertReport(True)


def _expected_rule(kind: str, finite_center_levi: bool, solvable: bool):
    if kind == "linear":
        return RULE_LINEAR
    if solvable:
        if kind == "simply-connected":
            return RULE_SIMPLY_CONNECTED
        return RULE_SOLVABLE
    if finite_center_levi:
        return RULE_FINITE_CENTER
    return RULE_OPEN


def _radical_rows(alg: LieAlgebra, killing_rows):
    """Killing-orthogonal of the derived subalgebra, as echelon rows, from
    the Killing rows alg._trace_form returns."""
    if not killing_rows:
        return alg.basis()
    return span_basis(kernel(Mat(killing_rows)))


def _check_witness(payload_witness, alg: LieAlgebra) -> CertReport:
    try:
        element = tuple(vector_from_json(payload_witness.get("element"),
                                         alg.dim, "counter_witness.element"))
        stored = tuple(vector_from_json(payload_witness.get("char"), None,
                                        "counter_witness.char"))
        for x in tuple(element) + stored:
            if not isinstance(x, Fraction):
                raise InputError("counter_witness entries must be real "
                                 "rationals")
    except InputError as e:
        return _fail("shape", str(e))
    cp = char_poly(alg.ad(element))
    if tuple(cp.coeffs) != stored:
        return _fail("witness", "characteristic polynomial does not match "
                                "the subject")
    sf = squarefree_part(cp)
    if sturm_count_real_roots(sf) >= sf.degree:
        return _fail("witness", "all eigenvalues of the witness are real")
    return CertReport(True)


def _check_verdict(payload, alg: LieAlgebra) -> CertReport:
    """Replay a Verdict on alg; alg._trace_form runs at most once, and
    not before the rule clause of a linear presentation, which is Theorem
    3's whatever the algebra.  A solvable alg's certificate takes
    _tbc_verify on alg itself, a proper radical's the public tbc_verify."""
    outcome = payload.get("outcome")
    rule = payload.get("rule")
    kind = payload.get("presentation")
    fcl = payload.get("finite_center_levi")
    notes = payload.get("notes")
    explanation = payload.get("explanation")
    if outcome not in OUTCOMES:
        return _fail("shape", "unknown outcome %r" % (outcome,))
    if not isinstance(rule, str):
        return _fail("shape", "rule must be a string")
    if kind not in PRESENTATION_KINDS:
        return _fail("shape", "unknown presentation kind %r" % (kind,))
    if not isinstance(fcl, bool):
        return _fail("shape", "finite_center_levi must be a boolean")
    if not isinstance(notes, list) \
            or not all(isinstance(s, str) for s in notes):
        return _fail("shape", "notes must be a list of strings")
    if explanation is not None and not isinstance(explanation, str):
        return _fail("shape", "explanation must be a string or null")

    if outcome == DEFINABLE and payload.get("certificate") is None:
        return _fail("outcome", "Definable requires a certificate")
    if outcome == NOT_DEFINABLE and payload.get("counter_witness") is None:
        return _fail("outcome", "NotDefinable requires a counter-witness")
    if outcome == UNKNOWN and not explanation:
        return _fail("outcome", "Unknown requires an explanation")

    # Killing rows, empty exactly when alg is solvable
    rows = None if kind == "linear" else alg._trace_form()[1]
    if rule != _expected_rule(kind, fcl, not rows):
        return _fail("rule", "rule %r does not cover this presentation"
                     % rule)

    # alg is proven solvable when no radical is claimed (the solvable rules
    # alone reach a certificate then) or the claimed one is all of alg
    sub = alg
    radical_raw = payload.get("radical")
    if radical_raw is None:
        if rule not in (RULE_SIMPLY_CONNECTED, RULE_SOLVABLE, RULE_OPEN):
            return _fail("radical", "rule %r must identify the radical"
                         % rule)
    else:
        try:
            claimed = _real_vectors(radical_raw, alg.dim, "radical")
        except InputError as e:
            return _fail("shape", str(e))
        if rows is None:
            rows = alg._trace_form()[1]
        if list(span_basis(claimed)) != list(_radical_rows(alg, rows)):
            return _fail("radical", "claimed radical is not the "
                                    "Killing-orthogonal of the derived "
                                    "subalgebra")
        if rows:
            sub, _ = alg.subalgebra(claimed)

    cert_raw = payload.get("certificate")
    if cert_raw is not None:
        if not isinstance(cert_raw, dict):
            return _fail("shape", "certificate must be an object")
        if rule == RULE_OPEN:
            return _fail("certificate", "the open regime carries no "
                                        "certificate")
        try:
            cert = _decode_tbc(cert_raw, sub.dim)
            # a proper radical is not proven solvable here
            verify = _tbc_verify if sub is alg else tbc_verify
            report = verify(sub, cert)
        except InputError as e:
            return _fail("shape", str(e))
        if not report.ok:
            return _fail("certificate", "%s: %s"
                         % (report.clause, report.detail or ""))

    witness_raw = payload.get("counter_witness")
    if witness_raw is not None:
        if not isinstance(witness_raw, dict):
            return _fail("shape", "counter_witness must be an object")
        wr = _check_witness(witness_raw, alg)
        if not wr.ok:
            return wr
    return CertReport(True)


def _closure_strings(blocks: int, relations) -> list:
    """The text torus_zariski_closure prints for these relations: Re and Im
    of prod_{m_j>0} z_j^m_j - prod_{m_j<0} z_j^-m_j, z_j = c_j + i s_j, for
    each m, then the circles.  A side is the Cartesian product of its
    blocks' binomial rows; a term of s-degree K carries i^K and goes to Re
    for even K, and an equation is negated when its first term is."""
    out = []
    for m in relations:
        parts = ({}, {})
        for sign in (1, -1):
            side = {(): sign}
            for mj in m:
                e = max(sign * mj, 0)
                row = [1]
                for k in range(e):
                    row.append(row[-1] * (e - k) // (k + 1))
                side = {exps + (e - k, k): c * b for exps, c in side.items()
                        for k, b in enumerate(row)}
            # the two sides of a nonzero m share no term
            for exps, c in side.items():
                degree = sum(exps[1::2])
                parts[degree & 1][exps] = -c if degree & 2 else c
        for part in parts:
            if part[max(part, key=lambda e: (sum(e), e))] < 0:
                part = {exps: -c for exps, c in part.items()}
            out.append(equation_string(2 * blocks, part))
    return out + ["c%d^2 + s%d^2 - 1" % (j, j) for j in range(1, blocks + 1)]


def _check_torus(payload, tw: TorusWeights) -> CertReport:
    raw_weights = payload.get("weights")
    if [list(r) for r in tw.rows] != raw_weights:
        return _fail("shape", "payload weights differ from the subject")
    relations = payload.get("relations")
    if not isinstance(relations, list):
        return _fail("shape", "relations: expected a list")
    for k, m in enumerate(relations):
        if not isinstance(m, list) or len(m) != tw.blocks \
                or not all(isinstance(c, int) and not isinstance(c, bool)
                           for c in m):
            return _fail("shape", "relations[%d] must list one integer "
                                  "per weight row" % k)
        for col in range(tw.params):
            if sum(mj * tw.rows[j][col] for j, mj in enumerate(m)):
                return _fail("relations", "relation %d does not annihilate "
                                          "the weights" % k)
    # relations inside the lattice, as many as its rank, span it exactly
    # when they are independent and the gcd of their maximal minors is 1
    lattice_rank = tw.blocks - rank(Mat(tw.rows))
    if len(relations) != lattice_rank:
        return _fail("relations", "%d relations listed; the relation "
                                  "lattice has rank %d"
                     % (len(relations), lattice_rank))
    index = maximal_minor_gcd(relations)
    if not index:
        return _fail("relations", "relations are dependent")
    if index != 1:
        return _fail("relations", "relations span a sublattice of index %d"
                     % index)
    equations = payload.get("equations")
    if not isinstance(equations, list) \
            or not all(isinstance(s, str) for s in equations):
        return _fail("shape", "equations: expected a list of strings")
    # a side of m has prod(e + 1) terms over its exponents e, the sides
    # share none, and a circle has three; a coefficient is a product of
    # C(e, k) >= 2^min(k, e - k), and min(k, e - k) sums to e^2 // 4 over
    # k: the closure is written only for a list with as many terms and at
    # least 3/10 of that sum over the closure's terms in characters
    sides = [[c for c in m if c > 0] for m in relations] \
        + [[-c for c in m if c < 0] for m in relations]
    listed = sum(1 + s.count(" + ") + s.count(" - ") for s in equations)
    expected = 3 * tw.blocks + sum(prod(e + 1 for e in side) for side in sides)
    if listed != expected:
        return _fail("equations", "the equations have %d terms; the closure "
                                  "of the listed relations has %d"
                     % (listed, expected))
    chars = sum(map(len, equations))
    digits = 3 * sum(e * e // 4 * prod(f + 1 for f in side) // (e + 1)
                     for side in sides for e in side) // 10
    if digits > chars:
        return _fail("equations", "the equations have %d characters; the "
                     "closure's coefficients have at least %d digits"
                     % (chars, digits))
    try:
        closure = _closure_strings(tw.blocks, relations)
    except ValueError:  # a coefficient past str's digit limit: never emitted
        return _fail("equations", "the closure of the listed relations has "
                                  "a coefficient too long to print")
    if equations != closure:
        k = next((k for k, (a, b) in enumerate(zip(equations, closure))
                  if a != b), min(len(equations), len(closure)))
        return _fail("equations", "equation %d differs from the closure of "
                                  "the listed relations" % k)
    return CertReport(True)


# ---------------------------------------------------------------- dispatch

def verify_certificate(cert, algebra: LieAlgebra | None = None,
                       matrices=None, weights=None) -> CertReport:
    """Re-check a certificate against its subject.

    Algebra-subject kinds need algebra (and the matrices stored alongside it,
    if any, since those enter the content hash); TorusEquations needs
    weights.  The first failing clause is reported; "schema" and "subject"
    cover the envelope, everything else is kind-specific.
    """
    if not isinstance(cert, dict):
        return _fail("schema", "certificate must be a JSON object")
    schema = cert.get("schema")
    # a version is an integer: true and 1.0 equal 1 in Python but are not it
    if type(schema) is not int or schema != SCHEMA_VERSION:
        return _fail("schema", "unsupported schema version %r" % (schema,))
    kind = cert.get("kind")
    if not isinstance(kind, str) or kind not in KNOWN_KINDS:
        return _fail("schema", "unknown certificate kind %r" % (kind,))
    payload = cert.get("payload")
    if not isinstance(payload, dict):
        return _fail("schema", "payload must be a JSON object")
    claimed_hash = cert.get("subject_sha256")
    if not isinstance(claimed_hash, str):
        return _fail("schema", "subject_sha256 must be a string")

    if kind == KIND_TORUS:
        if weights is None:
            return _fail("subject", "torus certificates need weight data")
        if not isinstance(weights, TorusWeights):
            try:
                weights = TorusWeights(tuple(tuple(r) for r in weights))
            except (InputError, UnsupportedError) as e:
                return _fail("subject", str(e))
            except TypeError:
                return _fail("subject", "weights must be rows of integers")
        if weights_hash(weights.rows) != claimed_hash:
            return _fail("subject", "subject hash does not match the weights")
        return _check_torus(payload, weights)

    if algebra is None:
        return _fail("subject", "this certificate kind needs an algebra")
    if algebra_hash(algebra, matrices or None) != claimed_hash:
        return _fail("subject", "subject hash does not match the algebra")
    if kind == KIND_TBC:
        return _check_tbc(payload, algebra)
    if kind == KIND_FLAG:
        return _check_flag(payload, algebra)
    if kind == KIND_REPRESENTATION:
        return _check_representation(payload, algebra)
    return _check_verdict(payload, algebra)


# ---------------------------------------------------------------- file IO

def save_certificate(path: str, cert: dict):
    write_json(path, cert)


def load_certificate(path: str) -> dict:
    data = read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: certificate must be a JSON object")
    return data
