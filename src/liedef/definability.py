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
from .linalg import (Mat, _coords_and_rank, char_poly, coords_in_span,
                     independent, is_semisimple_mat, is_zero_vec,
                     jordan_chevalley, kernel, lincomb, solve, span_basis,
                     vsub)
from .poly import (purely_imaginary_spectrum, squarefree_part,
                   sturm_count_real_roots)
from .scalars import GaussRat
from .structure import _radical
from .weights import (_adjoint_actions, _ideal_chain, _weight_flag,
                      _weight_table)

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
            out.append(x if type(x) is Fraction else Fraction(x))
    return tuple(out)


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
    reason: str | None

    def __bool__(self) -> bool:
        return self.status == SS_YES


def supersolvable_test(g: LieAlgebra) -> SupersolvableResult:
    """Decide supersolvability of a solvable algebra, with a flag or witness.

    One peel of the adjoint module decides (Lie's theorem).  A flag whose
    step characters are all real is yes: _check_flag proves that ad is
    triangular in it with the characters on the diagonal, so every adjoint
    eigenvalue is real and no Sturm count is needed.  A nonreal character is
    no, and the witness is read off the same peel: ad(e_i) is triangular in
    its flag with the value of each character on e_i on the diagonal, so
    the first e_i at which some character is nonreal is the first basis
    element whose ad has a nonreal spectrum.  Its characteristic polynomial
    and one Sturm count confirm it.  A peel that leaves Q(i) has no
    characters, so the spectra of ad(e_0), ad(e_1), ... are screened, up to
    the first nonreal one: it is no when the screen finds one and
    Indeterminate otherwise, so the only Indeterminate left is a flag whose
    real eigenvalues fall outside Q.
    """
    return _supersolvable(g)[0]


def _supersolvable(g):
    """supersolvable_test, and the ideal chain of g its peel walked, for a
    caller that peels another module of g on the same chain."""
    derived, rows = g._trace_form()
    if rows:
        raise NotSolvableError(
            "supersolvability is only asked of solvable algebras")
    ss, _, chain = _adjoint_peel(g, derived)
    return ss, chain


def _adjoint_peel(g, derived):
    """supersolvable_test of a solvable algebra, its adjoint weights, and
    the ideal chain of the peel.

    derived is [g, g] as rref rows, which every caller already holds.  The
    action of each chain direction is read off the structure constants
    (weights._adjoint_actions), and past a nonreal weight the peel keeps
    only the weights, over Q, since no flag vector is read then.  A dense
    ad(e_i) is built only for a witness or the screen.  Returns (result,
    table, chain): table is None on yes, the WeightTable of the same peel
    when a weight is nonreal, and the peel's Indeterminate when the
    weights do not split over Q(i).
    """
    chain = _ideal_chain(g, derived)
    peeled = _weight_flag(chain, _adjoint_actions(g, chain[0]))
    if isinstance(peeled, Indeterminate):
        for i in range(g.dim):
            witness = _nonreal_witness(g, i, None)
            if witness is not None:
                return SupersolvableResult(SS_NO, None, None, witness,
                                           None), peeled, chain
        return SupersolvableResult(SS_INDETERMINATE, None, None, None,
                                   peeled.reason), peeled, chain
    chars = [_real_vec(c) for c in peeled[1]]
    if None not in chars:
        flag = [_real_vec(v) for v in peeled[0]]
        if None in flag:
            raise InternalCheckError("flag vector has an imaginary component")
        _check_flag(g, flag, chars)
        return SupersolvableResult(SS_YES, tuple(flag), tuple(chars),
                                   None, None), None, chain
    table = _weight_table(g, peeled[1], g.dim, chain[2])
    i = next(i for i in range(g.dim)
             if any(not c[i].is_real() for c in peeled[1]))
    values = next(e.values for e in table.entries if not e.real)
    witness = _nonreal_witness(g, i, values)
    if witness is None:
        raise InternalCheckError(
            "a weight is nonreal on e_%d but ad(e_%d) has real spectrum"
            % (i, i))
    return SupersolvableResult(SS_NO, None, None, witness, None), table, chain


def _nonreal_witness(g, i, values):
    """The NonRealWitness of e_i when ad(e_i) has a nonreal eigenvalue, by
    one Sturm count of its squarefree characteristic polynomial; else
    None."""
    p = char_poly(g.ad(g.basis_vector(i)))
    sf = squarefree_part(p)
    real = sturm_count_real_roots(sf)
    if real >= sf.degree:
        return None
    return NonRealWitness(g.basis_vector(i), tuple(p.coeffs), real,
                          sf.degree, values)


def _check_flag(g, flag, chars):
    """Raise InternalCheckError unless every prefix span of flag is an ideal
    of g and e_j acts on flag[i] modulo the earlier steps by chars[i][j];
    the nilradical is read off these characters.

    One elimination, with the flag vectors as columns and every bracket
    [e_j, flag[i]] as a right-hand side, gives the rank of the flag and
    the coordinates of those brackets in it.  A flag of n vectors and rank
    n spans g: step i is an ideal when every coordinate past i is zero, and
    coordinate i is chars[i][j].  Steps are checked in order, each for
    ideal-ness before its characters.  This is the one proof of the
    certificate (flag, (), flag, ()) that a yes hands out (see tbc_find).
    """
    n = g.dim
    basis = g.basis()
    coords, rank = _coords_and_rank(flag, [g.bracket(x, v)
                                           for v in flag for x in basis])
    if rank != n or len(flag) != n:
        raise InternalCheckError("flag does not span the algebra")
    for i in range(n):
        step = coords[i * n:(i + 1) * n]
        if any(any(co[i + 1:]) for co in step):
            raise InternalCheckError("flag step is not an ideal")
        if any(co[i] != chars[i][j] for j, co in enumerate(step)):
            raise InternalCheckError(
                "step character disagrees with the flag")


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
    the first failing clause.  Solvability of r is checked here, and the
    private _tbc_verify runs every other clause: it takes solvability as
    proven by its caller in the same call (the oracle's rules, tbc_find's
    candidate loop, the checker's rule or radical clause).
    """
    if not r.is_solvable():
        raise NotSolvableError("certificates describe solvable algebras")
    return _tbc_verify(r, cert)


def _tbc_verify(r, cert):
    """tbc_verify of an r proven solvable.

    The flag is checked as a basis of t, independent with t's rref basis,
    and then its steps by one elimination: every [x, v] of x in t and v in
    the flag has coordinates in the whole flag, since t is an ideal, and
    step i is an ideal of t when those past i vanish.
    """
    t = _cert_vectors(cert.t_basis, r.dim, "t_basis")
    k = _cert_vectors(cert.k_basis, r.dim, "k_basis")
    flag = _cert_vectors(cert.flag, r.dim, "flag")
    if cert.torus_evidence and len(cert.torus_evidence) != len(k):
        raise InputError("torus_evidence must match k_basis in length")

    t_span = span_basis(t)
    # a t that spans r is an ideal
    if len(t_span) < r.dim:
        brackets = [r.bracket(x, row) for x in r.basis() for row in t_span]
        if None in coords_in_span(t_span, brackets):
            return _fail("t-ideal", "bracket leaves the t part")

    if len(flag) != len(t_span):
        return _fail("flag", "flag length differs from dim t")
    # a t of len(t_span) vectors is independent, with rref basis t_span
    flag_span = t_span if flag == t else span_basis(flag)
    if len(flag_span) != len(flag):
        return _fail("flag", "flag vectors are dependent")
    # both are rref bases, which are equal exactly when the spans are
    if flag_span != t_span:
        return _fail("flag", "flag vector outside the t part")
    # report the first step that fails for the first x of t that fails
    m = len(flag)
    coords = coords_in_span(flag, [r.bracket(x, v)
                                   for v in flag for x in t_span])
    bad = [(j, i) for i in range(m)
           for j, co in enumerate(coords[i * m:(i + 1) * m])
           if any(co[i + 1:])]
    if bad:
        return _fail("flag", "step %d is not an ideal of t" % min(bad)[1])

    k_span = span_basis(k)
    if len(t_span) + len(k_span) != r.dim:
        return _fail("direct-sum", "dimensions do not add up")
    # with k empty, the dimensions adding up means that t spans r
    if k_span and len(span_basis(t_span + k_span)) != r.dim:
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
        if not is_semisimple_mat(ad, cp):
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


def tbc_find(r: LieAlgebra) -> TbcResult:
    """Best-effort search for a triangular-by-compact splitting.

    Fast path: supersolvable means t = r, k = 0, and the certificate is
    (flag, (), flag, ()) with the flag _check_flag has just proved, which
    is every clause of tbc_verify on it: the flag spans r, so t is r and
    needs no ideal test; the flag is t; its steps are the system
    _check_flag solved; and k is empty.  Otherwise the weight functionals
    over Q(i) pin both sides: any t lies inside the common kernel of their
    imaginary parts, any k inside the common kernel of the real parts, so
    a dimension gap between r and the sum certifies NotTbc.  When the sum
    spans, t is taken to be the full imaginary-part kernel and k is
    completed from the real-part kernel, once as found and once after
    subtracting inner corrections that cancel nilpotent parts.  Each such
    candidate passes through tbc_verify's clauses before being returned;
    anything unverified is reported as Unknown, never as a guess.
    Solvability of r is checked here; the private _tbc_find takes it as
    proven by its caller in the same call, which hands it [r, r].
    """
    derived, rows = r._trace_form()
    if rows:
        raise NotSolvableError("tbc splittings describe solvable algebras")
    return _tbc_find(r, derived)


def _tbc_find(r, derived):
    ss, table, _ = _adjoint_peel(r, derived)
    if ss.status == SS_YES:
        # _check_flag has proved this certificate (see tbc_find)
        return TbcResult(TBC, TbcCertificate(ss.flag, (), ss.flag, ()),
                         None, None)
    if isinstance(table, Indeterminate):
        return TbcResult(TBC_UNKNOWN, None, None,
                         "adjoint weights do not split over Q(i): "
                         + str(table.reason))

    im_rows = [tuple(v.im for v in e.values) for e in table.entries]
    re_rows = [tuple(v.re for v in e.values) for e in table.entries]
    treal = span_basis(kernel(Mat(im_rows)))
    k_zero = span_basis(kernel(Mat(re_rows)))
    # the greedy completion of treal by k_zero spans treal + k_zero
    k_cand = [k_zero[i] for i in independent(treal, k_zero)]
    gap = r.dim - len(treal) - len(k_cand)
    if gap:
        obstruction = TbcObstruction(ss.witness.weight_values, tuple(treal),
                                     tuple(k_zero), gap)
        return TbcResult(NOT_TBC, None, obstruction, None)

    # t = the full real-weight ideal; its restricted weights are real and
    # rational, so the flag construction cannot fail here; an ideal of a
    # solvable algebra is solvable, so sub needs no solvability test
    sub, incl = r.subalgebra(treal)
    ss_t = _adjoint_peel(sub, sub.derived_algebra())[0]
    if ss_t.status != SS_YES:
        raise InternalCheckError(
            "real-weight ideal failed its own supersolvability test")
    flag = tuple(lincomb(v, incl, r.dim) for v in ss_t.flag)

    last = None
    for k_try in _k_candidates(r, treal, k_cand):
        evidence = tuple(tuple(char_poly(r.ad(u)).coeffs) for u in k_try)
        cert = TbcCertificate(flag, tuple(k_try), flag, evidence)
        rep = _tbc_verify(r, cert)
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

    One trace-form test (LieAlgebra._trace_form) decides solvability, and
    the radical rules find the radical from its [g, g] and Killing rows.
    The adjoint peel of a solvable g walks a chain above that [g, g], and
    that of a proper radical r above the [r, r] that proved r solvable.
    """
    g = p.algebra
    g.require_valid()
    form = g._trace_form()
    if p.kind == "linear":
        return _radical_rule(p, g, form, RULE_LINEAR)
    if not form[1]:
        # both rules take g's solvability as proven by this test
        if p.kind == "simply-connected":
            return _simply_connected_rule(g, form[0])
        return _solvable_rule(g, form[0])
    if p.finite_center_levi:
        return _radical_rule(p, g, form, RULE_FINITE_CENTER)
    return DefinabilityVerdict(
        UNKNOWN, RULE_OPEN,
        explanation="no implemented criterion covers a non-solvable "
                    "presentation without the finite-center assumption")


def _simply_connected_rule(g, derived):
    ss = _adjoint_peel(g, derived)[0]
    if ss.status == SS_YES:
        # _check_flag has proved this certificate (see tbc_find)
        return DefinabilityVerdict(
            DEFINABLE, RULE_SIMPLY_CONNECTED,
            certificate=TbcCertificate(ss.flag, (), ss.flag, ()))
    if ss.status == SS_NO:
        return DefinabilityVerdict(NOT_DEFINABLE, RULE_SIMPLY_CONNECTED,
                                   counter_witness=ss.witness)
    return DefinabilityVerdict(
        UNKNOWN, RULE_SIMPLY_CONNECTED,
        explanation="realness screen passed but no rational flag was found: "
                    + str(ss.reason))


def _solvable_rule(g, derived):
    tb = _tbc_find(g, derived)
    if tb.status == TBC:
        return DefinabilityVerdict(DEFINABLE, RULE_SOLVABLE,
                                   certificate=tb.certificate)
    if tb.status == NOT_TBC:
        return DefinabilityVerdict(NOT_DEFINABLE, RULE_SOLVABLE,
                                   counter_witness=tb.obstruction)
    return DefinabilityVerdict(UNKNOWN, RULE_SOLVABLE, explanation=tb.reason)


def _radical_rule(p, g, form, rule):
    rad, inner, sub = _radical(g, *form)
    notes = _presentation_notes(p)
    if not rad:
        # empty radical is vacuously triangular-by-compact
        cert = TbcCertificate((), (), (), ())
        return DefinabilityVerdict(DEFINABLE, rule, certificate=cert,
                                   radical_basis=(),
                                   presentation_notes=notes)
    # _radical has proved the radical r solvable, by its [r, r]
    r, incl = sub
    tb = _tbc_find(r, inner)
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
    if not all(is_semisimple_mat(m, cp) and purely_imaginary_spectrum(cp)
               for m, cp in zip(mats, map(char_poly, mats))):
        notes.append("the matrices as given are not of compact type")
    return tuple(notes)
