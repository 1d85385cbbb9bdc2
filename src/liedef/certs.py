"""Certificate files: serialized witnesses bound to subjects by content hash.

A certificate records a claim about one subject (an algebra file, or a weight
matrix for torus equations) together with exactly the data a checker needs to
re-verify the claim.  Verification never reruns a finder; it only replays the
cheap side of each argument: ideals, spans, commutators, characteristic
polynomials, Sturm counts, Laurent substitutions.  Every certificate carries
the sha256 of its subject's canonical serialization, so a certificate and a
file can be matched without trusting paths.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .definability import (DEFINABLE, NOT_DEFINABLE, PRESENTATION_KINDS,
                           RULE_FINITE_CENTER, RULE_LINEAR, RULE_OPEN,
                           RULE_SIMPLY_CONNECTED, RULE_SOLVABLE, UNKNOWN,
                           CertReport, DefinabilityVerdict, GroupPresentation,
                           NonRealWitness, TbcCertificate, TbcObstruction,
                           tbc_verify)
from .errors import InputError
from .formats import (algebra_hash, canonical_json, matrix_from_json,
                      matrix_to_json, vector_from_json, vector_to_json)
from .lie import LieAlgebra
from .linalg import Mat, char_poly, coords_in_span, kernel, span_basis
from .poly import squarefree_part, sturm_count_real_roots
from .reps import ALL_FLAGS, Representation, verify_rep
from .torus import TorusClosure, TorusWeights, parse_equation, vanishes_on_torus

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


def _check_flag(payload, alg: LieAlgebra) -> CertReport:
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
    if len(span_basis(flag)) != len(flag):
        return _fail("flag", "flag vectors are not independent")
    if chars is not None and len(chars) != len(flag):
        return _fail("shape", "one character row per flag step required")
    for k in range(len(flag)):
        brs = [alg.bracket(x, flag[k]) for x in alg.basis()]
        for i, coords in enumerate(coords_in_span(flag[:k + 1], brs)):
            if coords is None:
                return _fail("flag", "step %d is not invariant" % k)
            if chars is not None and coords[k] != chars[k][i]:
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


def _expected_rule(alg: LieAlgebra, kind: str, finite_center_levi: bool):
    if kind == "linear":
        return RULE_LINEAR
    if alg.is_solvable():
        if kind == "simply-connected":
            return RULE_SIMPLY_CONNECTED
        return RULE_SOLVABLE
    if finite_center_levi:
        return RULE_FINITE_CENTER
    return RULE_OPEN


def _radical_rows(alg: LieAlgebra):
    """Killing-orthogonal of the derived subalgebra, as echelon rows."""
    derived = alg.bracket_span(alg.basis(), alg.basis())
    if not derived:
        return [tuple(alg.basis_vector(i)) for i in range(alg.dim)]
    km = alg.killing_matrix()
    rows = [km @ d for d in derived]
    return span_basis(kernel(Mat(rows)))


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

    if rule != _expected_rule(alg, kind, fcl):
        return _fail("rule", "rule %r does not cover this presentation"
                     % rule)

    radical_raw = payload.get("radical")
    if radical_raw is None:
        if rule not in (RULE_SIMPLY_CONNECTED, RULE_SOLVABLE, RULE_OPEN):
            return _fail("radical", "rule %r must identify the radical"
                         % rule)
        sub = alg
    else:
        try:
            claimed = _real_vectors(radical_raw, alg.dim, "radical")
        except InputError as e:
            return _fail("shape", str(e))
        if list(span_basis(claimed)) != list(_radical_rows(alg)):
            return _fail("radical", "claimed radical is not the "
                                    "Killing-orthogonal of the derived "
                                    "subalgebra")
        sub, _ = alg.subalgebra(claimed)

    cert_raw = payload.get("certificate")
    if cert_raw is not None:
        try:
            cert = _decode_tbc(cert_raw, sub.dim)
            report = tbc_verify(sub, cert)
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
    equations = payload.get("equations")
    if not isinstance(equations, list) \
            or not all(isinstance(s, str) for s in equations):
        return _fail("shape", "equations: expected a list of strings")
    for k, text in enumerate(equations):
        try:
            poly = parse_equation(2 * tw.blocks, text)
        except InputError as e:
            return _fail("parse", "equation %d: %s" % (k, e))
        if not vanishes_on_torus(tw, poly):
            return _fail("equations", "equation %d does not vanish on the "
                                      "torus" % k)
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
    if cert.get("schema") != SCHEMA_VERSION:
        return _fail("schema", "unsupported schema version %r"
                     % (cert.get("schema"),))
    kind = cert.get("kind")
    if kind not in KNOWN_KINDS:
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
            except InputError as e:
                return _fail("subject", str(e))
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
    with open(path, "w") as fh:
        json.dump(cert, fh, indent=1)
        fh.write("\n")


def load_certificate(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: certificate must be a JSON object")
    return data
