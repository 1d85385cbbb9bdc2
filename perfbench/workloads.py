"""The four benchmark workloads: their inputs, their operations and the
check each operation's output must pass.

An operation is a closed call into the public API.  Its output is checked
after the timer stops, against the committed reference in data/, which was
built at the commit that introduced the benchmark (make_data.py).
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen
from liedef.certs import (RULES, emit_representation, emit_verdict,
                          verify_certificate)
from liedef.definability import (DEFINABLE, NOT_DEFINABLE, GroupPresentation,
                                 definability_oracle)
from liedef.formats import algebra_from_dict, algebra_hash
from liedef.poly import Poly, squarefree_part, sturm_count_real_roots
from liedef.reps import ALL_FLAGS, supersolvable_triangular_rep

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
REFERENCE = os.path.join(DATA, "reference.json")
CHECKER_POOL = os.path.join(DATA, "checker_pool.json")

# pass sizes, kept small so that a run times every op several times; each
# pass of a workload is the same inputs in the same order
ORACLE_FUZZ = 12
COEFF_FUZZ = 20
MODULE_SHEARS = 4
MODULE_SEMIDIRECT = 2
# a module pass is mostly its three extension-route ops, so it fits only
# twice in a run; the cheap sheared-corpus ops run this often in each pass
# to get as many timings as the other workloads' ops
MODULE_REPEAT = 3
# with one seeded edit per certificate, the checker's median op time spread
# 4-9% of itself (quartile distance) over ten seeds from the choice of edits
# alone; two edits each, and each certificate twice intact so that accepted
# and rejected ops stay half and half, bring that to 3-4%
CHECKER_EDITS = 2


@dataclass
class Op:
    label: str
    fn: Callable
    args: tuple            # the generated inputs the program receives
    # (failure kind or None, verdict outcome or None) of fn's output
    check: Callable[[object], tuple]
    repeat: int = 1        # runs in a row in each pass

    def call(self):
        return self.fn(*self.args)


def reference_key(alg, kind=None, finite_center_levi=False, matrices=()):
    key = algebra_hash(alg, list(matrices) or None)
    if kind is not None:
        key += "|%s|%d" % (kind, finite_center_levi)
    return key


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


# -- oracle -> emit -> verify -------------------------------------------------

def oracle_call(alg, kind, finite_center_levi=False, matrices=()):
    p = GroupPresentation(alg, kind, matrices=tuple(matrices),
                          finite_center_levi=finite_center_levi)
    v = definability_oracle(p)
    cert = emit_verdict(p, v)
    report = verify_certificate(cert, algebra=alg,
                                matrices=list(matrices) or None)
    confirmed = None
    if v.outcome == NOT_DEFINABLE:
        char = cert["payload"]["counter_witness"]["char"]
        sf = squarefree_part(Poly(tuple(Fraction(c) for c in char)))
        confirmed = sturm_count_real_roots(sf) < sf.degree
    return v.outcome, report, confirmed


def oracle_op(label, alg, kind, expected, finite_center_levi=False,
              matrices=()):
    def check(out):
        outcome, report, confirmed = out
        if not report.ok:
            return "rejected", outcome
        if confirmed is False:
            return "witness-not-confirmed", outcome
        if expected in (DEFINABLE, NOT_DEFINABLE) and outcome != expected:
            return "verdict-changed", outcome
        return None, outcome

    return Op(label, oracle_call, (alg, kind, finite_center_levi, matrices),
              check)


def _fuzz_ops(name, structures, seed, reference):
    rng = random.Random("%s/%d" % (name, seed))
    ops = []
    for i, s in enumerate(structures):
        kind = gen.KINDS[i % 3]
        expected = reference.get(reference_key(s, kind))
        ops.append(oracle_op("%s[%d] %s" % (name, i, kind),
                             gen.resigned(s, rng), kind, expected))
    return ops


def oracle_mix(seed, reference):
    ops = _fuzz_ops("fuzz", gen.fuzz_structures(ORACLE_FUZZ), seed,
                    reference["oracle"])
    for entry, kind, fcl, _ in gen.corpus_presentations():
        mats = entry.matrices if kind == "linear" else ()
        expected = reference["oracle"][
            reference_key(entry.algebra, kind, fcl, mats)]
        ops.append(oracle_op("corpus %s %s%s" % (entry.name, kind,
                                                 " fcl" if fcl else ""),
                             entry.algebra, kind, expected, fcl, mats))
    return ops


def coeff_large(seed, reference):
    ops = _fuzz_ops("large", gen.fuzz_structures(COEFF_FUZZ, large=True),
                    seed, reference["oracle"])
    alg = gen.reproducer()
    for kind in gen.KINDS:
        expected = reference["oracle"][reference_key(alg, kind)]
        ops.append(oracle_op("reproducer %s" % kind, alg, kind, expected))
    return ops


# -- faithful modules ---------------------------------------------------------

def module_call(alg):
    rep = supersolvable_triangular_rep(alg)
    report = verify_certificate(emit_representation(rep), algebra=alg)
    return rep.target_dim, rep.verified, report


def module_op(label, alg, expected_dim, repeat=1):
    def check(out):
        target_dim, verified, report = out
        if not report.ok:
            return "rejected", None
        if verified != ALL_FLAGS:
            return "claims-missing", None
        if expected_dim is not None and target_dim != expected_dim:
            return "module-dim-changed", None
        return None, None

    return Op(label, module_call, (alg,), check, repeat)


def modules(seed, reference):
    rng = random.Random("modules/%d" % seed)
    dims = reference["modules"]
    ops = []
    for k, (entry, sheared) in enumerate(
            gen.sheared_corpus(MODULE_SHEARS)):
        ops.append(module_op("%s#%d" % (entry.name, k),
                             gen.resigned(sheared, rng),
                             dims[reference_key(entry.algebra)],
                             MODULE_REPEAT))
    for a in rng.sample(gen.SEMIDIRECT_WEIGHTS, MODULE_SEMIDIRECT):
        alg = gen.h3_semidirect(a)
        ops.append(module_op("h3xD a=%s" % a, alg,
                             dims[reference_key(alg)]))
    alg = gen.h3_plus_aff()
    ops.append(module_op("h3+aff", alg, dims[reference_key(alg)]))
    rng.shuffle(ops)
    return ops


# -- the independent checker --------------------------------------------------

def _parent(cert, path):
    node = cert
    for key in path[:-1]:
        node = node[key]
    return node, path[-1]


def _setp(path, value):
    def go(cert):
        node, key = _parent(cert, path)
        node[key] = value
    return go


def _flip_hash(cert):
    d = cert["subject_sha256"]
    cert["subject_sha256"] = ("0" if d[0] != "0" else "1") + d[1:]


def _flip_outcome(cert):
    p = cert["payload"]
    # the flipped outcome lacks the evidence it requires
    p["outcome"] = NOT_DEFINABLE if p["outcome"] == DEFINABLE else DEFINABLE


def _other_rule(cert):
    p = cert["payload"]
    p["rule"] = next(r for r in RULES if r != p["rule"])


def _bump(path):
    def go(cert):
        node, key = _parent(cert, path)
        node[key] = str(Fraction(node[key]) + 1)
    return go


def corruptions(cert):
    """Known-false edits applicable to this certificate, by name."""
    out = [("subject-hash", _flip_hash),
           ("schema", _setp(("schema",), 99)),
           ("kind", _setp(("kind",), "Sponge")),
           ("payload", _setp(("payload",), None))]
    kind, p = cert["kind"], cert["payload"]
    if kind == "Verdict":
        out.append(("outcome", _flip_outcome))
        out.append(("rule", _other_rule))
        if p["counter_witness"] is not None:
            out.append(("witness-char",
                        _bump(("payload", "counter_witness", "char", 0))))
        if p["certificate"] is not None and p["certificate"]["t_basis"]:
            out.append(("t-basis", _setp(("payload", "certificate",
                                          "t_basis"), [])))
    elif kind == "TBC":
        if p["t_basis"]:
            out.append(("t-basis", _setp(("payload", "t_basis"), [])))
        if p["torus_evidence"]:
            out.append(("torus-evidence",
                        _bump(("payload", "torus_evidence", 0, 0))))
    elif kind == "Flag":
        out.append(("flag-short", lambda c: c["payload"]["flag"].pop()))
        if p["step_characters"]:
            out.append(("character",
                        _bump(("payload", "step_characters", 0, 0))))
    elif kind == "Representation":
        out.append(("target-dim", _setp(("payload", "target_dim"),
                                        p["target_dim"] + 1)))
        out.append(("claim", lambda c: c["payload"]["claims"].append(
            "sells-timeshares")))
        if p["images"]:
            out.append(("images-short",
                        lambda c: c["payload"]["images"].pop()))
    elif kind == "TorusEquations":
        blocks = len(p["weights"])
        out.append(("relation", lambda c: c["payload"]["relations"].append(
            [1] + [0] * (blocks - 1))))
        out.append(("equation-parse", _setp(("payload", "equations", 0),
                                            "c1 +")))
        out.append(("weights", _setp(("payload", "weights"),
                                     [[w + 1 for w in row]
                                      for row in p["weights"]])))
    return out


def checker_call(text, subject):
    return verify_certificate(json.loads(text), **subject)


def checker_op(label, text, subject, expect_ok):
    def check(report):
        if report.ok != expect_ok:
            return ("rejected" if expect_ok else "wrongly-accepted"), None
        if not report.ok and not (report.clause and report.detail):
            return "no-diagnosis", None
        return None, None

    return Op(label, checker_call, (text, subject), check)


def load_checker_pool():
    with open(CHECKER_POOL) as fh:
        return json.load(fh)


def subject_args(subject):
    if "weights" in subject:
        return {"weights": [tuple(r) for r in subject["weights"]]}
    alg, mats = algebra_from_dict(subject["algebra"])
    return {"algebra": alg, "matrices": list(mats or ()) or None}


def checker(seed, reference):
    """Every committed certificate CHECKER_EDITS times intact and under
    CHECKER_EDITS different corruptions."""
    rng = random.Random("checker/%d" % seed)
    ops = []
    for i, item in enumerate(load_checker_pool()):
        subject = subject_args(item["subject"])
        cert = item["cert"]
        text = json.dumps(cert)
        # cycling keeps the mix of cheap and deep rejections about the same
        # for every seed; the seed moves where each certificate enters the
        # cycle, and its edits sit evenly spaced round the cycle
        options = corruptions(cert)
        for k in range(CHECKER_EDITS):
            ops.append(checker_op("cert[%d] %s #%d" % (i, cert["kind"], k),
                                  text, subject, True))
            name, corrupt = options[(i + seed + k * len(options)
                                     // CHECKER_EDITS) % len(options)]
            bad = json.loads(text)
            corrupt(bad)
            ops.append(checker_op("cert[%d] %s -%s" % (i, cert["kind"], name),
                                  json.dumps(bad), subject, False))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "oracle-mix": oracle_mix,
    "coeff-large": coeff_large,
    "modules": modules,
    "checker": checker,
}


def build(name, seed):
    """The operations of one pass of a workload, from its seed."""
    return WORKLOADS[name](seed, load_reference())

