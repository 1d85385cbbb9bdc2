"""Supersolvability, triangular-by-compact splittings, and the oracle.

Everything here is three-valued and certificate-driven.  A positive answer
always carries data that tbc_verify re-checks from scratch, a negative answer
always carries a witness, and anything the exact scalar tower cannot settle
comes back as an explicit Unknown instead of a guess.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (Indeterminate, InputError, InternalCheckError,
                     NotSolvableError)
from .lie import LieAlgebra
from .linalg import (Mat, char_poly, coords_in_span, in_span,
                     is_semisimple_mat, is_zero_vec, jordan_chevalley, kernel,
                     lincomb, solve, span_basis, vsub)
from .poly import (purely_imaginary_spectrum, squarefree_part,
                   sturm_count_real_roots)
from .scalars import GaussRat
from .structure import radical
from .weights import adjoint_weights, weight_flag

SS_YES = "yes"
SS_NO = "no"
SS_INDETERMINATE = "indeterminate"

TBC = "tbc"
NOT_TBC = "not-tbc"
TBC_UNKNOWN = "unknown"

DEFINABLE = "Definable"
NOT_DEFINABLE = "NotDefinable"
UNKNOWN = "Unknown"

# rule tags carried on verdicts; fixed protocol strings
RULE_SIMPLY_CONNECTED = "Fact 1 (simply connected)"
RULE_SOLVABLE = "Fact 1"
RULE_LINEAR = "Theorem 3"
RULE_FINITE_CENTER = "Theorem 5"
RULE_OPEN = "open regime"

PRESENTATION_KINDS = ("simply-connected", "linear", "abstract")


def _real_vec(v):
    """Entries as Fractions, or None if anything has an imaginary part."""
    out = []
    for x in v:
        if isinstance(x, GaussRat):
            if x.im:
                return None
            out.append(x.re)
        else:
            out.append(Fraction(x))
    return tuple(out)


@dataclass(frozen=True)
class ScreenEntry:
    """Realness screen record for one basis element.

    Root counts refer to the squarefree part of the characteristic polynomial
    of ad(e_index), so real_distinct == distinct exactly when the spectrum is
    real.
    """
    index: int
    char_coeffs: tuple
    real_distinct: int
    distinct: int

    @property
    def all_real(self) -> bool:
        return self.real_distinct == self.distinct


@dataclass(frozen=True)
class NonRealWitness:
    """Evidence that some adjoint eigenvalue has nonzero imaginary part.

    element is a basis vector whose ad has nonreal spectrum, with its
    characteristic polynomial and Sturm counts (again of the squarefree
    part).  weight_values is the offending weight functional over the basis
    when the weight table splits over Q(i), None otherwise.
    """
    element: tuple
    char_coeffs: tuple
    real_distinct: int
    distinct: int
    weight_values: tuple | None


@dataclass(frozen=True)
class SupersolvableResult:
    status: str
    flag: tuple | None
    step_characters: tuple | None
    witness: NonRealWitness | None
    screen: tuple
    reason: str | None

    def __bool__(self) -> bool:
        return self.status == SS_YES


def supersolvable_test(g: LieAlgebra) -> SupersolvableResult:
    """Decide supersolvability of a solvable algebra, with a flag or witness.

    The Sturm screen on the basis ad spectra is sound and complete for the
    yes/no question: every weight value on e_i is an eigenvalue of ad(e_i),
    so all weights are real exactly when every screen entry is.  Yes comes
    with a complete flag of ideals with rational step characters; the only
    Indeterminate left is a flag whose real eigenvalues fall outside Q.
    """
    if not g.is_solvable():
        raise NotSolvableError(
            "supersolvability is only asked of solvable algebras")
    screen, bad = _screen(g)
    if bad is None:
        return _flag_result(g, screen)
    witness = NonRealWitness(
        element=g.basis_vector(bad.index),
        char_coeffs=bad.char_coeffs,
        real_distinct=bad.real_distinct,
        distinct=bad.distinct,
        weight_values=_nonreal_weight_values(adjoint_weights(g)))
    return SupersolvableResult(SS_NO, None, None, witness, screen, None)


def _screen(g):
    """The screen entries and the first one with nonreal spectrum, or None."""
    screen = []
    bad = None
    for i in range(g.dim):
        p = char_poly(g.ad(g.basis_vector(i)))
        sf = squarefree_part(p)
        entry = ScreenEntry(i, tuple(p.coeffs),
                            sturm_count_real_roots(sf), sf.degree)
        screen.append(entry)
        if bad is None and not entry.all_real:
            bad = entry
    return tuple(screen), bad


def _flag_result(g, screen):
    """Yes with a rational flag of ideals, or Indeterminate, for an algebra
    whose screen passed."""
    ads = [g.ad(g.basis_vector(i)) for i in range(g.dim)]
    peeled = weight_flag(g, ads)
    if isinstance(peeled, Indeterminate):
        return SupersolvableResult(SS_INDETERMINATE, None, None, None,
                                   screen, peeled.reason)
    flag = []
    chars = []
    for v in peeled[0]:
        rv = _real_vec(v)
        if rv is None:
            raise InternalCheckError("flag vector has an imaginary component")
        flag.append(rv)
    for c in peeled[1]:
        rc = _real_vec(c)
        if rc is None:
            raise InternalCheckError(
                "step character has an imaginary component")
        chars.append(rc)
    _check_flag(g, flag)
    return SupersolvableResult(SS_YES, tuple(flag), tuple(chars), None,
                               screen, None)


def _nonreal_weight_values(table):
    if isinstance(table, Indeterminate):
        return None
    for e in table.entries:
        if not e.real:
            return e.values
    raise InternalCheckError(
        "screen found a nonreal eigenvalue but every weight is real")


def _check_flag(g, flag):
    # prefix spans must be ideals; cheap postcondition of the recursion
    if len(span_basis(flag)) != g.dim or len(flag) != g.dim:
        raise InternalCheckError("flag does not span the algebra")
    for i in range(g.dim):
        brs = [g.bracket(x, flag[i]) for x in g.basis()]
        if None in coords_in_span(flag[:i + 1], brs):
            raise InternalCheckError("flag step is not an ideal")


@dataclass(frozen=True)
class TbcCertificate:
    """Splitting data: t_basis spans the triangular ideal, k_basis the
    compact-type complement, flag a complete chain of ideals of t (prefix
    spans), torus_evidence the characteristic polynomial coefficients of
    each ad(k_basis[j]) as claimed by the finder (may be empty)."""
    t_basis: tuple
    k_basis: tuple
    flag: tuple
    torus_evidence: tuple = ()


@dataclass(frozen=True)
class TbcObstruction:
    """Certified failure: the span of the real-part kernel and the
    imaginary-part kernel of the weight functionals misses gap dimensions,
    while any splitting would have to fit t inside the first and k inside
    the second."""
    weight_values: tuple
    treal: tuple
    k_zero: tuple
    gap: int


@dataclass(frozen=True)
class CertReport:
    """Checker verdict; clause names the first failing check."""
    ok: bool
    clause: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class TbcResult:
    status: str
    certificate: TbcCertificate | None
    obstruction: TbcObstruction | None
    reason: str | None


def _fail(clause, detail):
    return CertReport(False, clause, detail)


def tbc_verify(r: LieAlgebra, cert: TbcCertificate) -> CertReport:
    """Re-check every clause of a splitting certificate from scratch.

    Nothing from the finder is trusted: ideal-ness, the flag chain, the
    direct sum, abelianness of k, and semisimplicity with purely imaginary
    spectrum for each ad(k_basis[j]) are all recomputed.  Shape problems are
    typed errors; a well-formed but false certificate gets a report naming
    the first failing clause.
    """
    if not r.is_solvable():
        raise NotSolvableError("certificates describe solvable algebras")
    t = _cert_vectors(cert.t_basis, r.dim, "t_basis")
    k = _cert_vectors(cert.k_basis, r.dim, "k_basis")
    flag = _cert_vectors(cert.flag, r.dim, "flag")
    if cert.torus_evidence and len(cert.torus_evidence) != len(k):
        raise InputError("torus_evidence must match k_basis in length")

    t_span = span_basis(t)
    if not all(in_span(t_span, r.bracket(x, row))
               for x in r.basis() for row in t_span):
        return _fail("t-ideal", "bracket leaves the t part")

    if len(flag) != len(t_span):
        return _fail("flag", "flag length differs from dim t")
    if len(span_basis(flag)) != len(flag):
        return _fail("flag", "flag vectors are dependent")
    if not all(in_span(t_span, v) for v in flag):
        return _fail("flag", "flag vector outside the t part")
    # report the first step that fails for the first x of t that fails
    bad = []
    for i, v in enumerate(flag):
        coords = coords_in_span(flag[:i + 1], [r.bracket(x, v) for x in t_span])
        bad += [(j, i) for j, c in enumerate(coords) if c is None]
    if bad:
        return _fail("flag", "step %d is not an ideal of t" % min(bad)[1])

    k_span = span_basis(k)
    if len(t_span) + len(k_span) != r.dim:
        return _fail("direct-sum", "dimensions do not add up")
    if len(span_basis(t_span + k_span)) != r.dim:
        return _fail("direct-sum", "t and k overlap")

    for a in k_span:
        for b in k_span:
            if not is_zero_vec(r.bracket(a, b)):
                return _fail("k-abelian", "k is not abelian")

    for j, x in enumerate(k):
        ad = r.ad(x)
        cp = char_poly(ad)
        if cert.torus_evidence:
            if tuple(cert.torus_evidence[j]) != tuple(cp.coeffs):
                return _fail("torus", "evidence disagrees with ad(k[%d])" % j)
        if not is_semisimple_mat(ad):
            return _fail("torus", "ad(k[%d]) is not semisimple" % j)
        if not purely_imaginary_spectrum(cp):
            return _fail("torus", "ad(k[%d]) has a non-imaginary eigenvalue" % j)
    return CertReport(True)


def _cert_vectors(vectors, dim, what):
    out = []
    for v in vectors:
        if len(v) != dim:
            raise InputError("%s vector has length %d, expected %d"
                             % (what, len(v), dim))
        rv = _real_vec(v)
        if rv is None:
            raise InputError("%s vectors must be real rational" % what)
        out.append(rv)
    return out


def _assert_verified(r, cert):
    rep = tbc_verify(r, cert)
    if not rep.ok:
        raise InternalCheckError(
            "finder emitted a certificate the verifier rejects (%s: %s)"
            % (rep.clause, rep.detail))
    return cert


def tbc_find(r: LieAlgebra) -> TbcResult:
    """Best-effort search for a triangular-by-compact splitting.

    Fast path: supersolvable means t = r, k = 0.  Otherwise the weight
    functionals over Q(i) pin both sides: any t lies inside the common
    kernel of their imaginary parts, any k inside the common kernel of the
    real parts, so a dimension gap between r and the sum certifies NotTbc.
    When the sum spans, t is taken to be the full imaginary-part kernel and
    k is completed from the real-part kernel, once as found and once after
    subtracting inner corrections that cancel nilpotent parts.  Every
    candidate passes through tbc_verify before being returned; anything
    unverified is reported as Unknown, never as a guess.
    """
    if not r.is_solvable():
        raise NotSolvableError("tbc splittings describe solvable algebras")
    screen, bad = _screen(r)
    if bad is None:
        ss = _flag_result(r, screen)
        if ss.status == SS_YES:
            cert = TbcCertificate(ss.flag, (), ss.flag, ())
            return TbcResult(TBC, _assert_verified(r, cert), None, None)
        # the flag's peel was this algebra's adjoint weight pass
        table = Indeterminate(ss.reason)
    else:
        table = adjoint_weights(r)
    if isinstance(table, Indeterminate):
        return TbcResult(TBC_UNKNOWN, None, None,
                         "adjoint weights do not split over Q(i): "
                         + str(table.reason))
    # cross-check: the screen's nonreal spectrum must show in the weights
    _nonreal_weight_values(table)

    im_rows = [tuple(v.im for v in e.values) for e in table.entries]
    re_rows = [tuple(v.re for v in e.values) for e in table.entries]
    treal = span_basis(kernel(Mat(im_rows)))
    k_zero = span_basis(kernel(Mat(re_rows)))
    total = span_basis(list(treal) + list(k_zero))
    if len(total) < r.dim:
        wit = next(e for e in table.entries if not e.real)
        obstruction = TbcObstruction(wit.values, tuple(treal), tuple(k_zero),
                                     r.dim - len(total))
        return TbcResult(NOT_TBC, None, obstruction, None)

    # t = the full real-weight ideal; its restricted weights are real and
    # rational, so the flag construction cannot fail here
    sub, incl = r.subalgebra(treal)
    ss_t = supersolvable_test(sub)
    if ss_t.status != SS_YES:
        raise InternalCheckError(
            "real-weight ideal failed its own supersolvability test")
    flag = tuple(lincomb(v, incl, r.dim) for v in ss_t.flag)

    k_cand = []
    for u in k_zero:
        if len(span_basis(list(treal) + k_cand + [tuple(u)])) \
                > len(treal) + len(k_cand):
            k_cand.append(tuple(u))
    if len(treal) + len(k_cand) != r.dim:
        raise InternalCheckError("complement completion lost dimensions")

    last = None
    for k_try in _k_candidates(r, treal, k_cand):
        evidence = tuple(tuple(char_poly(r.ad(u)).coeffs) for u in k_try)
        cert = TbcCertificate(flag, tuple(k_try), flag, evidence)
        rep = tbc_verify(r, cert)
        if rep.ok:
            return TbcResult(TBC, cert, None, None)
        last = rep
    reason = "no verified splitting found"
    if last is not None:
        reason += " (last candidate failed %s: %s)" % (last.clause, last.detail)
    return TbcResult(TBC_UNKNOWN, None, None, reason)


def _k_candidates(r, treal, k_cand):
    yield list(k_cand)
    # second try: cancel nilpotent parts by inner corrections from t
    cols = [r.ad(v).flatten() for v in treal]
    if not cols:
        return
    a = Mat.from_cols(cols)
    corrected = []
    for u in k_cand:
        _, nil = jordan_chevalley(r.ad(u))
        if nil.is_zero():
            corrected.append(u)
            continue
        c = solve(a, nil.flatten())
        if c is None:
            return
        corrected.append(vsub(u, lincomb(c, treal, r.dim)))
    if corrected != k_cand:
        yield corrected


@dataclass(frozen=True)
class GroupPresentation:
    """A connected group given by its algebra plus how it is presented.

    kind is one of "simply-connected", "linear", "abstract".  matrices may
    accompany a linear presentation; finite_center_levi asserts the group
    property the abstract rule needs and is never inferred from the algebra.
    """
    algebra: LieAlgebra
    kind: str = "abstract"
    matrices: tuple = ()
    finite_center_levi: bool = False
    name: str | None = None

    def __post_init__(self):
        if self.kind not in PRESENTATION_KINDS:
            raise InputError("unknown presentation kind %r" % (self.kind,))


@dataclass(frozen=True)
class DefinabilityVerdict:
    outcome: str
    rule_used: str
    certificate: TbcCertificate | None = None
    counter_witness: object | None = None
    explanation: str | None = None
    radical_basis: tuple | None = None
    presentation_notes: tuple = ()

    def __post_init__(self):
        # three-valuedness, enforced at construction
        if self.outcome == DEFINABLE and self.certificate is None:
            raise InternalCheckError("Definable requires a certificate")
        if self.outcome == NOT_DEFINABLE and self.counter_witness is None:
            raise InternalCheckError("NotDefinable requires a counter-witness")
        if self.outcome == UNKNOWN and not self.explanation:
            raise InternalCheckError("Unknown requires an explanation")


def definability_oracle(p: GroupPresentation) -> DefinabilityVerdict:
    """Dispatch a presentation to the decision rule that covers it.

    Solvable simply connected groups are decided by supersolvability alone:
    a splitting with compact part would force a compact quotient of a group
    diffeomorphic to R^n, so t must already be everything.  Solvable groups
    in general go through tbc_find.  Linear presentations and abstract
    presentations with a finite-center Levi part reduce to tbc of the
    radical.  Everything else is honestly Unknown.
    """
    g = p.algebra
    g.require_valid()
    if p.kind == "linear":
        return _radical_rule(p, g, RULE_LINEAR)
    if g.is_solvable():
        if p.kind == "simply-connected":
            return _simply_connected_rule(g)
        return _solvable_rule(g)
    if p.finite_center_levi:
        return _radical_rule(p, g, RULE_FINITE_CENTER)
    return DefinabilityVerdict(
        UNKNOWN, RULE_OPEN,
        explanation="no implemented criterion covers a non-solvable "
                    "presentation without the finite-center assumption")


def _simply_connected_rule(g):
    ss = supersolvable_test(g)
    if ss.status == SS_YES:
        cert = _assert_verified(
            g, TbcCertificate(ss.flag, (), ss.flag, ()))
        return DefinabilityVerdict(DEFINABLE, RULE_SIMPLY_CONNECTED,
                                   certificate=cert)
    if ss.status == SS_NO:
        return DefinabilityVerdict(NOT_DEFINABLE, RULE_SIMPLY_CONNECTED,
                                   counter_witness=ss.witness)
    return DefinabilityVerdict(
        UNKNOWN, RULE_SIMPLY_CONNECTED,
        explanation="realness screen passed but no rational flag was found: "
                    + str(ss.reason))


def _solvable_rule(g):
    tb = tbc_find(g)
    if tb.status == TBC:
        return DefinabilityVerdict(DEFINABLE, RULE_SOLVABLE,
                                   certificate=tb.certificate)
    if tb.status == NOT_TBC:
        return DefinabilityVerdict(NOT_DEFINABLE, RULE_SOLVABLE,
                                   counter_witness=tb.obstruction)
    return DefinabilityVerdict(UNKNOWN, RULE_SOLVABLE, explanation=tb.reason)


def _radical_rule(p, g, rule):
    rad = radical(g)
    notes = _presentation_notes(p)
    if not rad:
        # empty radical is vacuously triangular-by-compact
        cert = TbcCertificate((), (), (), ())
        return DefinabilityVerdict(DEFINABLE, rule, certificate=cert,
                                   radical_basis=(),
                                   presentation_notes=notes)
    sub, incl = g.subalgebra(rad)
    tb = tbc_find(sub)
    if tb.status == TBC:
        if notes:
            notes = notes + (
                "definability holds for the abstract group; the given "
                "presentation need not exhibit it",)
        return DefinabilityVerdict(DEFINABLE, rule,
                                   certificate=tb.certificate,
                                   radical_basis=tuple(incl),
                                   presentation_notes=notes)
    if tb.status == NOT_TBC:
        explanation = None
        if rule == RULE_FINITE_CENTER:
            explanation = ("the radical criterion is taken as necessary "
                           "in this regime")
        return DefinabilityVerdict(NOT_DEFINABLE, rule,
                                   counter_witness=tb.obstruction,
                                   explanation=explanation,
                                   radical_basis=tuple(incl),
                                   presentation_notes=notes)
    return DefinabilityVerdict(UNKNOWN, rule, explanation=tb.reason,
                               radical_basis=tuple(incl),
                               presentation_notes=notes)


def _presentation_notes(p):
    if not p.matrices:
        return ()
    mats = [m if isinstance(m, Mat) else Mat(m) for m in p.matrices]
    notes = []
    if not all(m.is_upper_triangular() for m in mats):
        notes.append("the matrices as given are not upper triangular")
    if not all(is_semisimple_mat(m) and purely_imaginary_spectrum(char_poly(m))
               for m in mats):
        notes.append("the matrices as given are not of compact type")
    return tuple(notes)
