"""File formats: algebra JSON, scalar codecs, canonical hashing.

The algebra format is sparse: only brackets with i < j appear, antisymmetry
is implied, and a missing pair means zero.  Scalars are "p/q" strings;
entries with an imaginary part are {"re": "p/q", "im": "p/q"} objects.
Certificates bind to an algebra by the sha256 of its canonical form, so
formatting and key order never matter.
"""
from __future__ import annotations

import hashlib
import json

from .errors import InputError
from .lie import LieAlgebra
from .linalg import Mat
from .scalars import GaussRat, rat, rat_str


def scalar_to_json(x):
    if isinstance(x, GaussRat):
        if x.is_real():
            return rat_str(x.re)
        return {"re": rat_str(x.re), "im": rat_str(x.im)}
    return rat_str(x)


def scalar_from_json(v, where: str = "value"):
    if isinstance(v, dict):
        extra = set(v) - {"re", "im"}
        if extra:
            raise InputError(f"{where}: unknown keys {sorted(extra)}")
        try:
            return GaussRat(rat(v.get("re", 0)), rat(v.get("im", 0)))
        except (TypeError, ValueError, ZeroDivisionError):
            raise InputError(f"{where}: malformed rational parts")
    if isinstance(v, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    try:
        return rat(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"{where}: cannot parse {v!r} as a rational")


def vector_to_json(v):
    return [scalar_to_json(c) for c in v]


def vector_from_json(v, length: int | None = None, where: str = "vector"):
    if not isinstance(v, list):
        raise InputError(f"{where}: expected a list")
    if length is not None and len(v) != length:
        raise InputError(f"{where}: expected length {length}, got {len(v)}")
    try:
        return tuple(map(scalar_from_json, v))
    except InputError:
        # parse again for the message, which names the failing entry
        return tuple(scalar_from_json(c, f"{where}[{k}]")
                     for k, c in enumerate(v))


def matrix_to_json(m: Mat):
    return [vector_to_json(row) for row in m.rows]


def matrix_from_json(rows, where: str = "matrix") -> Mat:
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{where}: expected a non-empty list of rows")
    width = None
    out = []
    for k, row in enumerate(rows):
        vec = vector_from_json(row, width, f"{where}[{k}]")
        width = len(vec)
        out.append(vec)
    return Mat(out)


def algebra_to_dict(alg: LieAlgebra, matrices=None) -> dict:
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            v = alg.table[i][j]
            if any(v):
                brackets.append({"i": i, "j": j, "v": vector_to_json(v)})
    out = {"dim": alg.dim, "labels": list(alg.names), "brackets": brackets}
    if matrices:
        out["matrices"] = [matrix_to_json(m) for m in matrices]
    return out


def algebra_from_dict(d) -> tuple:
    """Parse the algebra format; returns (algebra, matrices or None).

    Unknown top-level keys are tolerated so companion data (group
    generators, torus weights) can ride in the same file.
    """
    if not isinstance(d, dict):
        raise InputError("top level: expected an object")
    if "dim" not in d:
        raise InputError("top level: missing \"dim\"")
    dim = d["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError("dim: expected a non-negative integer")

    labels = d.get("labels")
    if labels is not None:
        if (not isinstance(labels, list)
                or any(not isinstance(s, str) for s in labels)):
            raise InputError("labels: expected a list of strings")
        if len(labels) != dim:
            raise InputError(
                f"labels: expected {dim} entries, got {len(labels)}")

    entries = {}
    raw = d.get("brackets", [])
    if not isinstance(raw, list):
        raise InputError("brackets: expected a list")
    for k, item in enumerate(raw):
        where = f"brackets[{k}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: expected an object")
        missing = {"i", "j", "v"} - set(item)
        if missing:
            raise InputError(f"{where}: missing {sorted(missing)}")
        i, j = item["i"], item["j"]
        for name, idx in (("i", i), ("j", j)):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise InputError(f"{where}.{name}: expected an integer")
            if not 0 <= idx < dim:
                raise InputError(f"{where}.{name}: index {idx} out of range")
        if i >= j:
            raise InputError(f"{where}: requires i < j (got {i}, {j})")
        if (i, j) in entries:
            raise InputError(f"{where}: duplicate pair ({i}, {j})")
        vec = vector_from_json(item["v"], dim, f"{where}.v")
        if any(isinstance(c, GaussRat) and not c.is_real() for c in vec):
            raise InputError(
                f"{where}.v: structure constants must be real rationals")
        entries[(i, j)] = tuple(
            c.re if isinstance(c, GaussRat) else c for c in vec)

    alg = LieAlgebra.from_entries(dim, entries, labels)

    matrices = None
    if "matrices" in d:
        raw_mats = d["matrices"]
        if not isinstance(raw_mats, list):
            raise InputError("matrices: expected a list")
        matrices = [matrix_from_json(m, f"matrices[{k}]")
                    for k, m in enumerate(raw_mats)]
        for k, m in enumerate(matrices):
            if not m.is_square():
                raise InputError(f"matrices[{k}]: expected a square matrix")
            if m.nrows != matrices[0].nrows:
                raise InputError("matrices: sizes differ")
        if len(matrices) != dim:
            raise InputError(
                f"matrices: expected {dim} generators, got {len(matrices)}")
    return alg, matrices


def read_json(path: str):
    """The JSON value in a file; a missing file or malformed JSON is an
    InputError naming the path (and the line and column)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")


def write_json(path: str, obj):
    """obj as JSON with one-space indents and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_algebra_file(path: str) -> tuple:
    """(algebra, matrices, raw dict) from a JSON file, with diagnostics."""
    raw = read_json(path)
    try:
        alg, mats = algebra_from_dict(raw)
    except InputError as e:
        raise InputError(f"{path}: {e}")
    return alg, mats, raw


def save_algebra_file(path: str, alg: LieAlgebra, matrices=None):
    write_json(path, algebra_to_dict(alg, matrices))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def algebra_hash(alg: LieAlgebra, matrices=None) -> str:
    """Content hash of the canonical serialization; path independent."""
    text = canonical_json(algebra_to_dict(alg, matrices))
    return hashlib.sha256(text.encode()).hexdigest()
