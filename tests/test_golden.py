"""Certificate bytes are part of the contract.

The verdict certificate of every corpus entry under every presentation must
hash to the SHA-256 digest recorded in verdict_digests.json.  A change that
alters these bytes on purpose says why in CHANGES.md and rewrites the file
with `PYTHONPATH=src python tests/test_golden.py`.
"""
import hashlib
import json
import os

from liedef.certs import emit_verdict
from liedef.corpus import corpus
from liedef.definability import GroupPresentation, definability_oracle

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "verdict_digests.json")
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
            text = json.dumps(cert, sort_keys=True)
            key = "%s/%s%s" % (entry.name, kind, "+fcl" if fcl else "")
            out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_verdict_certificate_bytes_are_unchanged():
    with open(DIGESTS) as f:
        want = json.load(f)
    got = verdict_digests()
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert changed == []


if __name__ == "__main__":
    with open(DIGESTS, "w") as f:
        json.dump(verdict_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
