"""Command-line front end.

Exit codes follow the three-valued verdicts throughout: 0 for success or
Definable, 1 for a certified negative answer, 2 for an honest Unknown, 3 for
malformed input, 4 for an internal error (a computation that failed one of
its own checks), which is no answer at all.  Every positive answer can be
exported as a certificate with --cert-out and re-checked later with
verify-cert, which recomputes only the checking side.
"""
from __future__ import annotations

import argparse
import sys

from .certs import (KIND_TBC, KIND_TORUS, emit_flag, emit_representation,
                    emit_tbc, emit_torus_equations, emit_verdict,
                    load_certificate, save_certificate, verify_certificate)
from .corpus import corpus, corpus_entry, write_corpus_files
from .definability import (NOT_TBC, SS_NO, SS_YES, TBC,
                           DEFINABLE, NOT_DEFINABLE, UNKNOWN,
                           GroupPresentation, NonRealWitness, TbcObstruction,
                           definability_oracle, supersolvable_test, tbc_find)
from .errors import (InputError, InternalCheckError, NotNilpotentError,
                     NotSolvableError, NotSupersolvableError,
                     PreconditionError, UnsupportedError)
from .formats import load_algebra_file, matrix_from_json, read_json
from .linalg import lincomb
from .reps import GroupRepData, nilpotent_ado, quotient_rep, extend_rep, \
    supersolvable_triangular_rep
from .structure import commuting_levi, levi_subalgebra, nilradical, radical
from .torus import TorusWeights, torus_zariski_closure


def _fmt_vec(v) -> str:
    return "[" + ", ".join(str(c) for c in v) + "]"


def _print_rows(title, rows):
    print("%s (%d)" % (title, len(rows)))
    for r in rows:
        print("  " + _fmt_vec(r))


def _load(path):
    alg, mats, raw = load_algebra_file(path)
    alg.require_valid()
    return alg, mats, raw


def _write_cert(args, cert):
    if getattr(args, "cert_out", None):
        save_certificate(args.cert_out, cert)
        print("certificate written to %s" % args.cert_out)


def _print_witness(w):
    if isinstance(w, NonRealWitness):
        print("  witness element: %s" % _fmt_vec(w.element))
        print("  char poly coefficients (low to high): %s"
              % _fmt_vec(w.char_coeffs))
        print("  distinct real roots %d of %d distinct roots"
              % (w.real_distinct, w.distinct))
        if w.weight_values is not None:
            print("  weight values: %s" % _fmt_vec(w.weight_values))
    elif isinstance(w, TbcObstruction):
        print("  non-real weight values: %s" % _fmt_vec(w.weight_values))
        print("  real-kernel dim %d, imaginary-kernel dim %d, gap %d"
              % (len(w.treal), len(w.k_zero), w.gap))
    elif w is not None:
        print("  witness: %r" % (w,))


# ------------------------------------------------------------- commands

def _cmd_validate(args):
    alg, mats, _ = _load(args.file)
    print("valid Lie algebra of dimension %d" % alg.dim)
    if mats:
        print("with %d presentation matrices of size %d"
              % (len(mats), mats[0].nrows))
    return 0


def _cmd_series(args):
    alg, _, _ = _load(args.file)
    ds = alg.derived_series()
    ls = alg.lower_central_series()
    for name, series in (("derived series", ds),
                         ("lower central series", ls)):
        print("%s: dims %s" % (name, [len(step) for step in series]))
        for k, step in enumerate(series):
            _print_rows("  term %d" % k, step)
    return 0


def _cmd_radical(args):
    alg, _, _ = _load(args.file)
    _print_rows("radical", radical(alg))
    return 0


def _cmd_nilradical(args):
    alg, _, _ = _load(args.file)
    _print_rows("nilradical", nilradical(alg))
    return 0


def _cmd_levi(args):
    alg, _, _ = _load(args.file)
    dec = levi_subalgebra(alg)
    _print_rows("radical", dec.radical)
    _print_rows("levi", dec.levi)
    return 0


def _cmd_commuting_levi(args):
    alg, _, _ = _load(args.file)
    if args.torus:
        k_rows = [alg.basis_vector(i) for i in _indices(args.torus, alg.dim)]
    else:
        # pull the compact part out of a tbc splitting of the radical
        rad = radical(alg)
        if not rad:
            _print_rows("levi", [alg.basis_vector(i)
                                 for i in range(alg.dim)])
            return 0
        sub, incl = alg.subalgebra(rad)
        tb = tbc_find(sub)
        if tb.status != TBC:
            raise UnsupportedError(
                "no torus part available: radical splitting is %s"
                % tb.status)
        k_rows = [lincomb(v, incl, alg.dim) for v in tb.certificate.k_basis]
    _print_rows("torus part", k_rows)
    _print_rows("commuting levi", commuting_levi(alg, k_rows))
    return 0


def _indices(text, dim):
    try:
        idx = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InputError("indices must be comma-separated integers")
    for i in idx:
        if not 0 <= i < dim:
            raise InputError("basis index %d out of range" % i)
    return idx


def _cmd_supersolvable(args):
    alg, mats, _ = _load(args.file)
    res = supersolvable_test(alg)
    if res.status == SS_YES:
        print("yes: complete flag of ideals with rational characters")
        for k, v in enumerate(res.flag):
            print("  step %d: %s  characters %s"
                  % (k, _fmt_vec(v), _fmt_vec(res.step_characters[k])))
        _write_cert(args, emit_flag(alg, res.flag, res.step_characters,
                                    mats))
        return 0
    if res.status == SS_NO:
        print("no: some adjoint eigenvalue is not real")
        _print_witness(res.witness)
        return 1
    print("indeterminate: %s" % res.reason)
    return 2


def _cmd_tbc_find(args):
    alg, mats, _ = _load(args.file)
    tb = tbc_find(alg)
    if tb.status == TBC:
        c = tb.certificate
        print("triangular-by-compact: dim t = %d, dim k = %d"
              % (len(c.t_basis), len(c.k_basis)))
        _print_rows("t basis", c.t_basis)
        _print_rows("k basis", c.k_basis)
        _write_cert(args, emit_tbc(alg, c, mats))
        return 0
    if tb.status == NOT_TBC:
        print("not triangular-by-compact")
        _print_witness(tb.obstruction)
        return 1
    print("unknown: %s" % tb.reason)
    return 2


def _cmd_tbc_check(args):
    alg, mats, _ = _load(args.file)
    cert = load_certificate(args.cert)
    if cert.get("kind") != KIND_TBC:
        raise InputError("tbc-check expects a %s certificate" % KIND_TBC)
    report = verify_certificate(cert, algebra=alg, matrices=mats)
    if report.ok:
        print("certificate verified")
        return 0
    print("rejected at clause %r: %s" % (report.clause, report.detail))
    return 1


def _cmd_oracle(args):
    alg, mats, _ = _load(args.file)
    p = GroupPresentation(alg, args.presentation,
                          matrices=tuple(mats or ()),
                          finite_center_levi=args.finite_center_levi)
    v = definability_oracle(p)
    print("verdict: %s" % v.outcome)
    print("rule: %s" % v.rule_used)
    for note in v.presentation_notes:
        print("note: %s" % note)
    if v.explanation:
        print("explanation: %s" % v.explanation)
    if v.radical_basis is not None:
        print("radical dimension: %d" % len(v.radical_basis))
    if v.certificate is not None:
        print("splitting: dim t = %d, dim k = %d"
              % (len(v.certificate.t_basis), len(v.certificate.k_basis)))
    _print_witness(v.counter_witness)
    _write_cert(args, emit_verdict(p, v))
    return {DEFINABLE: 0, NOT_DEFINABLE: 1, UNKNOWN: 2}[v.outcome]


def _report_rep(args, headline, rep, mats):
    """Print headline % the module dimension and the verified flags, and
    write the Representation certificate if asked to."""
    print(headline % rep.target_dim)
    print("verified: %s" % ", ".join(sorted(rep.verified)))
    _write_cert(args, emit_representation(rep, mats))
    return 0


def _cmd_ado(args):
    alg, mats, _ = _load(args.file)
    return _report_rep(args, "faithful strictly upper triangular on %d "
                       "dimensions", nilpotent_ado(alg), mats)


def _cmd_triangular_rep(args):
    alg, mats, _ = _load(args.file)
    return _report_rep(args, "faithful triangular representation on %d "
                       "dimensions", supersolvable_triangular_rep(alg), mats)


def _cmd_extend_rep(args):
    alg, mats, _ = _load(args.file)
    h_rows = [alg.basis_vector(i) for i in _indices(args.ideal, alg.dim)]
    sub, _ = alg.subalgebra(h_rows)
    rho = nilpotent_ado(sub)
    return _report_rep(args, "extended the ideal module to the whole "
                       "algebra: %d dimensions", extend_rep(alg, h_rows, rho),
                       mats)


def _cmd_quotient_rep(args):
    _, mats, raw = _load(args.file)
    if not mats:
        raise InputError("quotient-rep needs generator matrices in the file")
    f_raw = raw.get("f_subgroup")
    if not isinstance(f_raw, list):
        raise InputError("quotient-rep needs an \"f_subgroup\" list of "
                         "matrices")
    f = tuple(matrix_from_json(m, "f_subgroup[%d]" % k)
              for k, m in enumerate(f_raw))
    data = GroupRepData(tuple(mats), f, len(f))
    dim_w, images = quotient_rep(data)
    print("induced representation of G/F on %d dimensions (from %d)"
          % (dim_w, data.dim))
    for k, m in enumerate(images):
        print("  generator %d image:" % k)
        for row in m.rows:
            print("    " + _fmt_vec(row))
    print("note: group-level data carries no certificate kind; "
          "rerun to re-verify")
    return 0


def _parse_weight_rows(text):
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            rows.append(tuple(int(t) for t in part.split(",")))
        except ValueError:
            raise InputError("weights must be integers, rows separated "
                             "by \";\"")
    return tuple(rows)


def _cmd_torus_closure(args):
    if args.weights is not None:
        rows = _parse_weight_rows(args.weights)
    elif args.file:
        rows = _read_weights_file(args.file)
    else:
        raise InputError("give a weights file or --weights")
    tc = torus_zariski_closure(TorusWeights(rows))
    print("weight rows: %d, relations: %d" % (len(rows), len(tc.relations)))
    for s in tc.equation_strings():
        print("  %s = 0" % s)
    _write_cert(args, emit_torus_equations(tc))
    return 0


def _read_weights_file(path):
    data = read_json(path)
    if not isinstance(data, dict) or "weights" not in data:
        raise InputError("%s: expected an object with a \"weights\" key"
                         % path)
    rows = data["weights"]
    if not isinstance(rows, list) \
            or not all(isinstance(r, list) for r in rows):
        raise InputError("%s: weights must be a list of integer rows" % path)
    return tuple(tuple(r) for r in rows)


def _weights_subject(path):
    return {"weights": _read_weights_file(path)}


def _algebra_subject(path):
    alg, mats, _ = _load(path)
    return {"algebra": alg, "matrices": mats}


def _cmd_verify_cert(args):
    cert = load_certificate(args.cert)
    readers = [_algebra_subject, _weights_subject]
    if cert.get("kind") == KIND_TORUS:
        readers.reverse()
    try:
        subject = readers[0](args.subject)
    except InputError as first:
        # a subject of the other kind is read, and the "subject" clause
        # rejects the certificate; a file that is neither is bad input
        try:
            subject = readers[1](args.subject)
        except InputError:
            raise first
    report = verify_certificate(cert, **subject)
    if report.ok:
        print("certificate verified: %s" % cert.get("kind"))
        return 0
    print("rejected at clause %r: %s" % (report.clause, report.detail))
    return 1


def _cmd_corpus(args):
    if args.action == "list":
        for e in sorted(corpus(), key=lambda e: e.name):
            marks = []
            for key in ("solvable", "nilpotent", "supersolvable", "tbc"):
                if key in e.known:
                    marks.append("%s=%s" % (key, e.known[key].value))
            print("%-18s dim %d  %s" % (e.name, e.algebra.dim,
                                        " ".join(marks)))
        return 0
    if args.action == "dump":
        for path in write_corpus_files(args.dir):
            print("wrote %s" % path)
        return 0
    names = sorted(args.names or [e.name for e in corpus()])
    bad = 0
    for name in names:
        entry = corpus_entry(name)
        failures = _run_entry(entry)
        if failures:
            bad += 1
            print("%-18s FAIL: %s" % (name, "; ".join(failures)))
        else:
            print("%-18s ok" % name)
    return 0 if not bad else 1


def _run_entry(entry):
    g = entry.algebra
    failures = []
    if g.validate():
        return ["Jacobi identity fails"]

    def check(key, got):
        want = entry.known[key].value
        if got != want:
            failures.append("%s: got %s, pinned %s" % (key, got, want))

    check("solvable", g.is_solvable())
    check("nilpotent", g.is_nilpotent())
    if "supersolvable" in entry.known:
        check("supersolvable", supersolvable_test(g).status == SS_YES)
    if "tbc" in entry.known:
        check("tbc", tbc_find(g).status == TBC)
    for key, kind, fcl in (
            ("definable-simply-connected", "simply-connected", False),
            ("definable-abstract", "abstract", False),
            ("definable-linear", "linear", False),
            ("definable-finite-center-levi", "abstract", True)):
        if key in entry.known:
            p = GroupPresentation(g, kind, matrices=entry.matrices,
                                  finite_center_levi=fcl)
            check(key, definability_oracle(p).outcome)
    return failures


# ------------------------------------------------------------- wiring

def _build_parser():
    p = argparse.ArgumentParser(
        prog="liedef",
        description="Exact definability toolkit for connected Lie groups "
                    "given by rational structure constants.")
    sub = p.add_subparsers(dest="command")

    def add(name, fn, help_text, *, cert=False, file_arg=True):
        sp = sub.add_parser(name, help=help_text)
        if file_arg:
            sp.add_argument("file", help="algebra JSON file")
        if cert:
            sp.add_argument("--cert-out", help="write a certificate here")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", _cmd_validate, "check the file and the Jacobi identity")
    add("series", _cmd_series, "derived and lower central series")
    add("radical", _cmd_radical, "maximal solvable ideal")
    add("nilradical", _cmd_nilradical, "maximal nilpotent ideal")
    add("levi", _cmd_levi, "Levi decomposition")
    sp = add("commuting-levi", _cmd_commuting_levi,
             "Levi subalgebra commuting with the torus part")
    sp.add_argument("--torus", help="comma-separated basis indices "
                                    "spanning the torus part")
    add("supersolvable", _cmd_supersolvable,
        "complete rational flag of ideals, or a witness", cert=True)
    sp = add("tbc-check", _cmd_tbc_check,
             "verify a TBC certificate against an algebra")
    sp.add_argument("cert", help="certificate JSON file")
    add("tbc-find", _cmd_tbc_find,
        "search for a triangular-by-compact splitting", cert=True)
    sp = add("oracle", _cmd_oracle,
             "decide definability in an o-minimal expansion of the reals",
             cert=True)
    sp.add_argument("--presentation", default="abstract",
                    choices=("simply-connected", "linear", "abstract"))
    sp.add_argument("--finite-center-levi", action="store_true",
                    help="assert the Levi subgroup has finite center")
    add("ado", _cmd_ado,
        "faithful strictly triangular module of a nilpotent algebra",
        cert=True)
    add("triangular-rep", _cmd_triangular_rep,
        "faithful triangular module of a supersolvable algebra", cert=True)
    sp = add("extend-rep", _cmd_extend_rep,
             "extend a faithful module from a nilpotent ideal", cert=True)
    sp.add_argument("--ideal", required=True,
                    help="comma-separated basis indices spanning the ideal")
    add("quotient-rep", _cmd_quotient_rep,
        "kill a finite central subgroup of matrix group generators")
    sp = add("torus-closure", _cmd_torus_closure,
             "equations of the Zariski closure of a weight torus",
             cert=True, file_arg=False)
    sp.add_argument("file", nargs="?", help="JSON file with a weights key")
    sp.add_argument("--weights", help="inline rows like \"1,0;0,1\"")
    sp = add("verify-cert", _cmd_verify_cert,
             "re-check a certificate against its subject", file_arg=False)
    sp.add_argument("subject", help="algebra or weights JSON file")
    sp.add_argument("cert", help="certificate JSON file")
    sp = add("corpus", _cmd_corpus, "named example algebras",
             file_arg=False)
    sp.add_argument("action", choices=("list", "run", "dump"))
    sp.add_argument("names", nargs="*", help="entry names (run)")
    sp.add_argument("--dir", default="corpus", help="output dir (dump)")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # keep exit 2 reserved for honest Unknown; usage problems are 3
        return 0 if e.code == 0 else 3
    if not hasattr(args, "fn"):
        parser.print_help()
        return 3
    try:
        return args.fn(args)
    except NotSupersolvableError as e:
        print("no: %s" % e)
        _print_witness(e.witness)
        return 1
    except UnsupportedError as e:
        print("unknown: %s" % e)
        return 2
    except (InputError, NotSolvableError, NotNilpotentError,
            PreconditionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except InternalCheckError as e:
        print("internal error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
