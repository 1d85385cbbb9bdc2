"""The catalog must agree with the pipeline recomputing every stored answer.

This is deliberately independent of the CLI's own corpus runner: the loop
below re-derives each known key from the public API, so a regression in
either the catalog or the deciders shows up as a named disagreement.
"""
import pytest

from liedef.certs import emit_verdict, verify_certificate
from liedef.corpus import (CLASSICAL, COMPUTED, corpus, corpus_entry,
                           write_corpus_files)
from liedef.definability import (DEFINABLE, NOT_DEFINABLE, SS_YES, TBC,
                                 GroupPresentation, definability_oracle,
                                 supersolvable_test, tbc_find)
from liedef.errors import InputError
from liedef.formats import load_algebra_file


def recompute(entry, key):
    alg = entry.algebra
    if key == "solvable":
        return alg.is_solvable()
    if key == "nilpotent":
        return alg.is_nilpotent()
    if key == "supersolvable":
        return supersolvable_test(alg).status == SS_YES
    if key == "tbc":
        return tbc_find(alg).status == TBC
    if key == "definable-finite-center-levi":
        p = GroupPresentation(alg, "abstract", matrices=entry.matrices,
                              finite_center_levi=True)
        return definability_oracle(p).outcome
    if key.startswith("definable-"):
        p = GroupPresentation(alg, key[len("definable-"):],
                              matrices=entry.matrices)
        return definability_oracle(p).outcome
    raise AssertionError("unhandled known key %r" % key)


def test_catalog_is_nonempty_and_sorted_accessible():
    entries = corpus()
    assert len(entries) >= 20
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)


def test_every_known_recomputes():
    for entry in corpus():
        for key in entry.known:
            got = recompute(entry, key)
            want = entry.known_value(key)
            assert got == want, (entry.name, key, got, want)


def test_every_algebra_is_valid():
    for entry in corpus():
        assert entry.algebra.validate() == []
        if entry.matrices:
            assert len(entry.matrices) == entry.algebra.dim


def test_sources_are_labeled():
    for entry in corpus():
        for known in entry.known.values():
            assert known.source in (CLASSICAL, COMPUTED)


def test_corpus_entry_lookup():
    e2 = corpus_entry("e2")
    assert e2.algebra.dim == 3
    with pytest.raises(InputError) as exc:
        corpus_entry("e9")
    assert "e2" in str(exc.value)


def test_corpus_agrees_with_fixtures(e2, h3, sl2, so3, oscillator):
    assert corpus_entry("e2").algebra == e2
    assert corpus_entry("h3").algebra == h3
    assert corpus_entry("sl2").algebra == sl2
    assert corpus_entry("so3").algebra == so3
    assert corpus_entry("oscillator").algebra == oscillator


def test_bianchi_families_disagree_where_they_should():
    # VI and VII0 differ exactly in the sign pattern that flips the
    # adjoint spectrum from real to imaginary
    vi = corpus_entry("bianchi-VI")
    vii = corpus_entry("bianchi-VII0")
    assert vi.known_value("supersolvable") is True
    assert vii.known_value("supersolvable") is False
    assert vi.known_value("definable-simply-connected") == DEFINABLE
    assert vii.known_value("definable-simply-connected") == NOT_DEFINABLE


def test_viia_is_rejected_everywhere():
    viia = corpus_entry("bianchi-VIIa")
    for key in ("definable-simply-connected", "definable-abstract",
                "definable-linear"):
        assert viia.known_value(key) == NOT_DEFINABLE


def test_intro_example_distinguishes_presentations():
    entry = corpus_entry("intro-example")
    assert entry.known_value("definable-linear") == DEFINABLE
    assert entry.known_value("definable-simply-connected") == DEFINABLE
    p = GroupPresentation(entry.algebra, "linear", matrices=entry.matrices)
    v = definability_oracle(p)
    assert v.presentation_notes
    assert any("presentation" in n for n in v.presentation_notes)


def test_write_corpus_files_round_trip(tmp_path):
    write_corpus_files(str(tmp_path))
    files = sorted(f.name for f in tmp_path.iterdir())
    assert "e2.json" in files and "sl2.json" in files
    for entry in corpus():
        alg, mats, _ = load_algebra_file(str(tmp_path / (entry.name + ".json")))
        assert alg == entry.algebra
        if entry.matrices:
            assert tuple(mats) == tuple(entry.matrices)


def test_corpus_verdicts_emit_verifiable_certificates():
    presentations = {
        "definable-simply-connected": ("simply-connected", False),
        "definable-linear": ("linear", False),
        "definable-abstract": ("abstract", False),
        "definable-finite-center-levi": ("abstract", True),
    }
    for entry in corpus():
        for key, (kind, fcl) in presentations.items():
            if key not in entry.known:
                continue
            p = GroupPresentation(entry.algebra, kind,
                                  matrices=entry.matrices,
                                  finite_center_levi=fcl)
            v = definability_oracle(p)
            assert v.outcome == entry.known_value(key)
            cert = emit_verdict(p, v)
            rep = verify_certificate(cert, algebra=entry.algebra,
                                     matrices=list(entry.matrices) or None)
            assert rep.ok, (entry.name, key, rep.clause, rep.detail)
