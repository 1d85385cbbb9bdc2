import json
import subprocess
import sys
from fractions import Fraction

import pytest

from liedef.certs import load_certificate, save_certificate
from liedef.cli import _read_weights_file, main
from liedef.errors import InputError
from liedef.formats import (algebra_from_dict, algebra_hash, algebra_to_dict,
                            load_algebra_file, save_algebra_file,
                            scalar_from_json, scalar_to_json)
from liedef.linalg import Mat
from liedef.scalars import GaussRat


# --------------------------------------------------------------------- formats

def test_scalar_json_round_trip():
    for x in (Fraction(3, 4), Fraction(-2), GaussRat(Fraction(1, 2), Fraction(5))):
        back = scalar_from_json(scalar_to_json(x))
        assert back == x


def test_scalar_json_rejects_floats_and_junk():
    with pytest.raises(InputError):
        scalar_from_json(0.25)
    with pytest.raises(InputError):
        scalar_from_json("three quarters")
    with pytest.raises(InputError):
        scalar_from_json({"re": "1", "im": "2", "stray": 1})
    with pytest.raises(InputError):
        scalar_from_json([1, 2])


def test_algebra_dict_round_trip(e2, h3, sl2):
    for alg in (e2, h3, sl2):
        back, mats = algebra_from_dict(algebra_to_dict(alg))
        assert back == alg
        assert mats is None


def test_algebra_file_round_trip(tmp_path, e2):
    mats = [Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
            Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
            Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])]
    path = tmp_path / "e2.json"
    save_algebra_file(str(path), e2, mats)
    alg, loaded, raw = load_algebra_file(str(path))
    assert alg == e2
    assert loaded == mats
    assert raw["dim"] == 3


def test_companion_keys_survive(tmp_path, r2):
    path = tmp_path / "with_extras.json"
    d = algebra_to_dict(r2)
    d["weights"] = [[1, 0], [0, 1]]
    path.write_text(json.dumps(d))
    alg, mats, raw = load_algebra_file(str(path))
    assert alg == r2 and raw["weights"] == [[1, 0], [0, 1]]


def test_hash_is_content_addressed(e2, h3):
    assert algebra_hash(e2) == algebra_hash(e2)
    assert algebra_hash(e2) != algebra_hash(h3)
    m = [Mat.zeros(2, 2)] * 3
    assert algebra_hash(e2, m) != algebra_hash(e2)


def test_diagnostics_carry_the_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(InputError) as exc:
        load_algebra_file(str(bad))
    assert str(bad) in str(exc.value)

    field = tmp_path / "field.json"
    field.write_text(json.dumps({"dim": 2, "brackets": [
        {"i": 0, "j": 5, "v": ["0", "1"]}]}))
    with pytest.raises(InputError) as exc:
        load_algebra_file(str(field))
    assert str(field) in str(exc.value)
    assert "out of range" in str(exc.value)


def test_every_reader_reports_a_missing_or_malformed_file_alike(tmp_path):
    # the algebra, certificate and weights readers share one JSON reader
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2,\n "brackets": [1,, 2]}\n')
    for read in (load_algebra_file, load_certificate, _read_weights_file):
        with pytest.raises(InputError) as exc:
            read(missing)
        assert str(exc.value) == missing + ": no such file"
        with pytest.raises(InputError) as exc:
            read(str(bad))
        assert str(exc.value) == str(bad) + ":2:17: Expecting value"


def test_algebra_and_certificate_files_are_written_alike(tmp_path, e2):
    # one space of indent and a trailing newline, for both writers
    path = tmp_path / "e2.json"
    save_algebra_file(str(path), e2)
    assert path.read_text() == json.dumps(algebra_to_dict(e2), indent=1) + "\n"
    cert = {"kind": "Verdict", "rows": [["1", "-1/2"]]}
    save_certificate(str(path), cert)
    assert path.read_text() == json.dumps(cert, indent=1) + "\n"


def test_format_rejections():
    with pytest.raises(InputError):
        algebra_from_dict([])
    with pytest.raises(InputError):
        algebra_from_dict({"brackets": []})
    with pytest.raises(InputError):
        algebra_from_dict({"dim": -1})
    with pytest.raises(InputError):
        algebra_from_dict({"dim": 2, "brackets": [
            {"i": 1, "j": 0, "v": ["0", "0"]}]})
    with pytest.raises(InputError):
        algebra_from_dict({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "v": ["0", "0"]},
            {"i": 0, "j": 1, "v": ["0", "0"]}]})
    with pytest.raises(InputError):
        algebra_from_dict({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "v": [{"re": "0", "im": "1"}, "0"]}]})
    with pytest.raises(InputError):
        algebra_from_dict({"dim": 2, "brackets": [],
                           "matrices": [[["0"]]]})


# ------------------------------------------------------------------------- CLI

def write(tmp_path, name, alg, matrices=None):
    path = tmp_path / name
    save_algebra_file(str(path), alg, matrices)
    return str(path)


def test_cli_validate(tmp_path, e2, capsys):
    path = write(tmp_path, "e2.json", e2)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_cli_validate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "v": ["0", "0", "1"]},
        {"i": 0, "j": 2, "v": ["1", "0", "0"]}]}))
    assert main(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Jacobi" in err


def test_cli_oracle_exit_codes(tmp_path, e2, sl2, capsys):
    e2p = write(tmp_path, "e2.json", e2)
    sl2p = write(tmp_path, "sl2.json", sl2)

    assert main(["oracle", e2p, "--presentation", "linear"]) == 0
    out = capsys.readouterr().out
    assert "Definable" in out and "Theorem 3" in out

    assert main(["oracle", e2p, "--presentation", "simply-connected"]) == 1
    out = capsys.readouterr().out
    assert "NotDefinable" in out and "Fact 1 (simply connected)" in out

    assert main(["oracle", sl2p]) == 2
    out = capsys.readouterr().out
    assert "Unknown" in out and "open regime" in out

    assert main(["oracle", sl2p, "--finite-center-levi"]) == 0
    out = capsys.readouterr().out
    assert "Theorem 5" in out


def test_cli_complex_presentation_matrices_exit_zero(tmp_path, capsys):
    # Theorem 3 takes a linear presentation with its matrices, and a
    # complex matrix group is a real linear group too: [[i]] is of compact
    # type and [[1 + i]] is not, and neither run may end in a traceback
    from liedef.certs import load_certificate, verify_certificate
    from liedef.lie import LieAlgebra
    g = LieAlgebra.from_entries(1, {})
    for z, compact in ((GaussRat(0, 1), True), (GaussRat(1, 1), False)):
        p = write(tmp_path, "complex.json", g, [Mat([[z]])])
        cert = str(tmp_path / "complex.cert.json")
        assert main(["oracle", p, "--presentation", "linear",
                     "--cert-out", cert]) == 0
        captured = capsys.readouterr()
        assert "verdict: Definable" in captured.out
        assert captured.err == ""
        if compact:
            assert "note:" not in captured.out
        else:
            assert "note: the matrices as given are not of compact type" \
                in captured.out
        alg, mats, _ = load_algebra_file(p)
        assert verify_certificate(load_certificate(cert), alg, mats).ok


def test_cli_supersolvable_and_certs(tmp_path, h3, e2, capsys):
    h3p = write(tmp_path, "h3.json", h3)
    cert = str(tmp_path / "h3.flag.json")
    assert main(["supersolvable", h3p, "--cert-out", cert]) == 0
    capsys.readouterr()
    assert main(["verify-cert", h3p, cert]) == 0
    out = capsys.readouterr().out
    assert "Flag" in out

    e2p = write(tmp_path, "e2.json", e2)
    assert main(["supersolvable", e2p]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_cli_tbc_round_trip(tmp_path, e2, capsys):
    e2p = write(tmp_path, "e2.json", e2)
    cert = str(tmp_path / "e2.tbc.json")
    assert main(["tbc-find", e2p, "--cert-out", cert]) == 0
    capsys.readouterr()
    assert main(["tbc-check", e2p, cert]) == 0
    capsys.readouterr()

    # doubling the torus vector keeps it torus-like but breaks the stored
    # characteristic polynomial evidence
    data = json.loads(open(cert).read())
    data["payload"]["k_basis"][0] = ["0", "0", "2"]
    open(cert, "w").write(json.dumps(data))
    assert main(["verify-cert", e2p, cert]) == 1
    out = capsys.readouterr().out
    assert "rejected at clause" in out and "torus" in out


def test_cli_exit_code_two_is_honest_unknown(tmp_path, capsys):
    from liedef.lie import LieAlgebra
    g = LieAlgebra.from_entries(3, {(2, 0): (0, 1, 0), (2, 1): (2, 0, 0)})
    p = write(tmp_path, "sqrt2.json", g)
    assert main(["supersolvable", p]) == 2
    out = capsys.readouterr().out
    assert "indeterminate" in out


def test_cli_large_coefficients_are_answered(tmp_path, capsys):
    # ad(e2) has eigenvalues p = 1000000007 and q = 998244353: the roots of
    # its characteristic polynomial are found at any coefficient size
    from liedef.lie import LieAlgebra
    g = LieAlgebra.from_entries(3, {(2, 0): (1000000007, 0, 0),
                                    (2, 1): (0, 998244353, 0)})
    p = write(tmp_path, "large.json", g)
    for kind in ("simply-connected", "abstract", "linear"):
        assert main(["oracle", p, "--presentation", kind]) == 0
        captured = capsys.readouterr()
        assert "verdict: Definable" in captured.out
        assert captured.err == ""


def test_cli_extend_rep_from_the_nilradical(tmp_path, capsys):
    # h3 + aff(1): its center lies in [g, g], so its modules come from
    # extending one of the nilradical, which is spanned by basis vectors
    from liedef.lie import LieAlgebra
    from liedef.linalg import span_basis
    from liedef.structure import nilradical
    g = LieAlgebra.from_entries(
        5, {(0, 1): (0, 0, 1, 0, 0), (3, 4): (0, 0, 0, 0, 1)})
    nil = nilradical(g)
    idx = [next(j for j, c in enumerate(v) if c) for v in nil]
    assert span_basis([g.basis_vector(i) for i in idx]) == nil
    p = write(tmp_path, "h3aff.json", g)
    cert = str(tmp_path / "h3aff.rep.json")
    assert main(["extend-rep", p, "--ideal", ",".join(map(str, idx)),
                 "--cert-out", cert]) == 0
    out = capsys.readouterr().out
    assert "extended the ideal module to the whole algebra" in out
    assert main(["verify-cert", p, cert]) == 0
    assert "certificate verified: Representation" in capsys.readouterr().out
    # span(e3) is a subalgebra but not an ideal; span(e0, e1) is not even
    # closed: both are bad input (exit 3), reported without a traceback
    for ideal in ("3", "0,1"):
        assert main(["extend-rep", p, "--ideal", ideal]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.out + captured.err


def test_cli_module_commands_print_dimension_flags_and_certificate(
        tmp_path, h3, axb, capsys):
    from liedef.lie import LieAlgebra
    g = LieAlgebra.from_entries(
        5, {(0, 1): (0, 0, 1, 0, 0), (3, 4): (0, 0, 0, 0, 1)})
    flags = ("verified: faithful, homomorphism, triangular_in_flag, "
             "unipotent_on_nilradical\n")
    cert = str(tmp_path / "rep.json")
    for args, head in (
            (["ado", write(tmp_path, "h3.json", h3)],
             "faithful strictly upper triangular on 10 dimensions\n"),
            (["triangular-rep", write(tmp_path, "axb.json", axb)],
             "faithful triangular representation on 2 dimensions\n"),
            (["extend-rep", write(tmp_path, "g.json", g), "--ideal",
              "0,1,2,4"], "extended the ideal module to the whole algebra: "
             "15 dimensions\n")):
        assert main(args) == 0
        assert capsys.readouterr().out == head + flags
        assert main(args + ["--cert-out", cert]) == 0
        assert capsys.readouterr().out == (
            head + flags + "certificate written to %s\n" % cert)
        assert main(["verify-cert", args[1], cert]) == 0
        capsys.readouterr()


def test_cli_internal_error_is_four_without_traceback(tmp_path, e2, capsys,
                                                      monkeypatch):
    # a failed internal check is neither an answer nor an input error
    from liedef.errors import InternalCheckError

    def broken_oracle(presentation):
        raise InternalCheckError("postcondition failed")

    monkeypatch.setattr("liedef.cli.definability_oracle", broken_oracle)
    p = write(tmp_path, "e2.json", e2)
    assert main(["oracle", p]) == 4
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == ("internal error: InternalCheckError: "
                            "postcondition failed\n")


def test_cli_usage_errors_stay_off_two(capsys):
    assert main(["no-such-command"]) == 3
    capsys.readouterr()
    assert main(["oracle"]) == 3
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 3
    capsys.readouterr()


def test_cli_missing_file_is_three(capsys):
    assert main(["validate", "/nonexistent/alg.json"]) == 3
    err = capsys.readouterr().err
    assert "no such file" in err


def test_cli_torus_closure(tmp_path, capsys):
    out_cert = str(tmp_path / "torus.json")
    assert main(["torus-closure", "--weights", "1;2",
                 "--cert-out", out_cert]) == 0
    out = capsys.readouterr().out
    assert "c1^2 - s1^2 - c2" in out
    wfile = tmp_path / "weights.json"
    wfile.write_text(json.dumps({"weights": [[1], [2]]}))
    assert main(["verify-cert", str(wfile), out_cert]) == 0
    capsys.readouterr()
    # an empty --weights is given, so the error names the empty rows
    assert main(["torus-closure", "--weights", ""]) == 3
    assert "at least one block row is required" in capsys.readouterr().err


def test_cli_rejects_a_non_ascii_exponent(tmp_path, capsys):
    cert_path = tmp_path / "torus.json"
    assert main(["torus-closure", "--weights", "1;2",
                 "--cert-out", str(cert_path)]) == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["payload"]["equations"][0] = "c1^\u00b2 - s1^2 - c2"
    cert_path.write_text(json.dumps(cert))
    wfile = tmp_path / "weights.json"
    wfile.write_text(json.dumps({"weights": [[1], [2]]}))
    proc = subprocess.run([sys.executable, "-m", "liedef.cli", "verify-cert",
                           str(wfile), str(cert_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.startswith("rejected at clause 'equations': equation "
                                  "0 differs")
    assert "Traceback" not in proc.stderr


def test_cli_reports_a_non_integer_weight_subject(tmp_path, capsys):
    cert_path = tmp_path / "torus.json"
    assert main(["torus-closure", "--weights", "1;2",
                 "--cert-out", str(cert_path)]) == 0
    capsys.readouterr()
    wfile = tmp_path / "weights.json"
    wfile.write_text(json.dumps({"weights": [[1.5], [2]]}))
    proc = subprocess.run([sys.executable, "-m", "liedef.cli", "verify-cert",
                           str(wfile), str(cert_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.startswith("rejected at clause 'subject':")
    assert "Traceback" not in proc.stderr


def test_cli_corpus_run(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "e2" in out and "bianchi-VIIa" in out
    assert main(["corpus", "run"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_console_entry_point(tmp_path, h3):
    path = write(tmp_path, "h3.json", h3)
    proc = subprocess.run([sys.executable, "-m", "liedef.cli",
                           "radical", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "radical (3)" in proc.stdout
