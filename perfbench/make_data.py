"""Build the committed reference and checker pool under perfbench/data.

    python3 perfbench/make_data.py

The files record what the program answered when the benchmark was added,
so the benchmark compares later commits with them; rebuilding them on a
later commit would move the reference with the code it checks.  Corpus
entries take their pinned answers, and ROADMAP item 2's reproducer is
Definable under every presentation by construction (supersolvable with
rational eigenvalues); every other answer is computed on the structure
before the seeded sign changes.  A structure the program cannot answer
today is left out, and the benchmark then accepts any answer whose
certificate verifies.
"""
from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(__file__)]

import gen  # noqa: E402
import workloads  # noqa: E402
from liedef.certs import (emit_flag, emit_representation,  # noqa: E402
                          emit_tbc, emit_torus_equations, emit_verdict)
from liedef.corpus import corpus  # noqa: E402
from liedef.definability import (DEFINABLE, SS_YES, TBC,  # noqa: E402
                                 GroupPresentation, definability_oracle,
                                 supersolvable_test, tbc_find)
from liedef.errors import LieDefError  # noqa: E402
from liedef.formats import algebra_to_dict  # noqa: E402
from liedef.reps import supersolvable_triangular_rep  # noqa: E402
from liedef.torus import TorusWeights, torus_zariski_closure  # noqa: E402

TORUS_WEIGHTS = (((1,), (2,)), ((1, 0), (1, 0)), ((1,), (2,), (3,)),
                 ((1, 0), (0, 1), (1, 1)), ((2, 1), (1, 3)))
CHECKER_FUZZ = 20


def oracle_reference():
    ref = {}
    for entry, kind, fcl, pinned in gen.corpus_presentations():
        mats = entry.matrices if kind == "linear" else ()
        ref[workloads.reference_key(entry.algebra, kind, fcl, mats)] = pinned
    for kind in gen.KINDS:
        ref[workloads.reference_key(gen.reproducer(), kind)] = DEFINABLE
    for large, count in ((False, workloads.ORACLE_FUZZ),
                         (True, workloads.COEFF_FUZZ)):
        for i, s in enumerate(gen.fuzz_structures(count, large)):
            kind = gen.KINDS[i % 3]
            try:
                outcome, report, confirmed = workloads.oracle_call(s, kind)
            except LieDefError as e:
                print("no reference for structure %d%s (%s)"
                      % (i, " large" if large else "", type(e).__name__))
                continue
            if report.ok and confirmed is not False:
                ref[workloads.reference_key(s, kind)] = outcome
    return ref


def module_reference():
    algs = [e.algebra for e in gen.supersolvable_corpus()]
    algs += [gen.h3_semidirect(a) for a in gen.SEMIDIRECT_WEIGHTS]
    algs.append(gen.h3_plus_aff())
    return {workloads.reference_key(a):
            supersolvable_triangular_rep(a).target_dim for a in algs}


def _item(alg, cert, matrices=()):
    subject = algebra_to_dict(alg, list(matrices) or None)
    return {"subject": {"algebra": subject}, "cert": cert}


def checker_pool():
    pool = []
    for entry, kind, fcl, _ in gen.corpus_presentations():
        mats = entry.matrices if kind == "linear" else ()
        p = GroupPresentation(entry.algebra, kind, matrices=mats,
                              finite_center_levi=fcl)
        pool.append(_item(entry.algebra,
                          emit_verdict(p, definability_oracle(p)), mats))
    for i, s in enumerate(gen.fuzz_structures(CHECKER_FUZZ)):
        p = GroupPresentation(s, gen.KINDS[i % 3])
        pool.append(_item(s, emit_verdict(p, definability_oracle(p))))
    solvable = [e.algebra for e in corpus() if e.algebra.is_solvable()]
    solvable += gen.fuzz_structures(CHECKER_FUZZ)
    for alg in solvable:
        tb = tbc_find(alg)
        if tb.status == TBC:
            pool.append(_item(alg, emit_tbc(alg, tb.certificate)))
        ss = supersolvable_test(alg)
        if ss.status == SS_YES:
            pool.append(_item(alg, emit_flag(alg, ss.flag,
                                             ss.step_characters)))
    for alg in ([e.algebra for e in gen.supersolvable_corpus()]
                + [gen.h3_semidirect(gen.SEMIDIRECT_WEIGHTS[0]),
                   gen.h3_plus_aff()]):
        rep = supersolvable_triangular_rep(alg)
        pool.append(_item(alg, emit_representation(rep)))
    for rows in TORUS_WEIGHTS:
        tc = torus_zariski_closure(TorusWeights(rows))
        pool.append({"subject": {"weights": [list(r) for r in rows]},
                     "cert": emit_torus_equations(tc)})
    return pool


def main():
    os.makedirs(workloads.DATA, exist_ok=True)
    reference = {"oracle": oracle_reference(), "modules": module_reference()}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    pool = checker_pool()
    with open(workloads.CHECKER_POOL, "w") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    kinds = {}
    for item in pool:
        kinds[item["cert"]["kind"]] = kinds.get(item["cert"]["kind"], 0) + 1
    print("reference: %d oracle, %d module entries; checker pool: %s"
          % (len(reference["oracle"]), len(reference["modules"]), kinds))


if __name__ == "__main__":
    main()
