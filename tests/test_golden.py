"""Certificate bytes are part of the contract.

The verdict certificate of every corpus entry under every presentation must
hash to the SHA-256 digest recorded in verdict_digests.json, and the module
certificate of supersolvable_triangular_rep on every supersolvable corpus
algebra, on h3 + aff(1) and on h3 x| D for a = 1, 2 to the one recorded in
representation_digests.json.  The Flag certificate of supersolvable_test and
the TBC certificate of tbc_find on every solvable corpus algebra are pinned
in flag_tbc_digests.json (the result status where there is no
certificate).  A change that alters these bytes on purpose says why in
CHANGES.md and rewrites the three files with
`PYTHONPATH=src python tests/test_golden.py`.
"""
import hashlib
import json
import os

from liedef.certs import emit_flag, emit_representation, emit_tbc, emit_verdict
from liedef.corpus import corpus
from liedef.definability import (GroupPresentation, definability_oracle,
                                 supersolvable_test, tbc_find)
from liedef.lie import LieAlgebra
from liedef.reps import supersolvable_triangular_rep

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "verdict_digests.json")
REP_DIGESTS = os.path.join(HERE, "representation_digests.json")
FLAG_TBC_DIGESTS = os.path.join(HERE, "flag_tbc_digests.json")
PRESENTATIONS = (("simply-connected", False), ("linear", False),
                 ("abstract", False), ("abstract", True))


def verdict_digests():
    out = {}
    for entry in corpus():
        for kind, fcl in PRESENTATIONS:
            p = GroupPresentation(entry.algebra, kind,
                                  matrices=entry.matrices,
                                  finite_center_levi=fcl)
            cert = emit_verdict(p, definability_oracle(p))
            key = "%s/%s%s" % (entry.name, kind, "+fcl" if fcl else "")
            out[key] = _digest(cert)
    return out


def _digest(cert):
    text = json.dumps(cert, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def module_algebras():
    """(name, algebra) for every algebra whose module certificate is pinned.

    h3 + aff(1) has its center inside the derived algebra, so it takes the
    nilradical-extension route; h3 x| D, with D = diag(a, -a, 0) on the
    Heisenberg basis (x, y, z), is supersolvable and not nilpotent.
    """
    out = [(e.name, e.algebra) for e in corpus()
           if e.known.get("supersolvable") and e.known_value("supersolvable")]
    out.append(("h3+aff", LieAlgebra.from_entries(
        5, {(0, 1): (0, 0, 1, 0, 0), (3, 4): (0, 0, 0, 0, 1)})))
    for a in (1, 2):
        out.append(("h3xD a=%d" % a, LieAlgebra.from_entries(
            4, {(0, 1): (0, 0, 1, 0), (3, 0): (a, 0, 0, 0),
                (3, 1): (0, -a, 0, 0)})))
    return out


def representation_digests():
    return {name: _digest(emit_representation(
                supersolvable_triangular_rep(alg)))
            for name, alg in module_algebras()}


def flag_tbc_digests():
    out = {}
    for entry in corpus():
        g = entry.algebra
        if not g.is_solvable():
            continue
        ss = supersolvable_test(g)
        out[entry.name + "/flag"] = (
            ss.status if ss.flag is None else
            _digest(emit_flag(g, ss.flag, ss.step_characters)))
        tb = tbc_find(g)
        out[entry.name + "/tbc"] = (
            tb.status if tb.certificate is None else
            _digest(emit_tbc(g, tb.certificate)))
    return out


def _assert_digests(path, got):
    with open(path) as f:
        want = json.load(f)
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert changed == []


def test_verdict_certificate_bytes_are_unchanged():
    _assert_digests(DIGESTS, verdict_digests())


def test_representation_certificate_bytes_are_unchanged():
    _assert_digests(REP_DIGESTS, representation_digests())


def test_flag_and_tbc_certificate_bytes_are_unchanged():
    _assert_digests(FLAG_TBC_DIGESTS, flag_tbc_digests())


if __name__ == "__main__":
    for path, digests in ((DIGESTS, verdict_digests),
                          (REP_DIGESTS, representation_digests),
                          (FLAG_TBC_DIGESTS, flag_tbc_digests)):
        with open(path, "w") as f:
            json.dump(digests(), f, indent=1, sort_keys=True)
            f.write("\n")
