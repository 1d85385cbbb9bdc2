import inspect
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liedef import reps, structure
from liedef.certs import emit_representation, verify_certificate
from liedef.corpus import corpus
from liedef.errors import (InputError, InternalCheckError,
                           NotNilpotentError, NotSupersolvableError,
                           PreconditionError, UnsupportedError)
from liedef.formats import (algebra_from_dict, matrix_from_json,
                            scalar_from_json, vector_from_json)
from liedef.lie import LieAlgebra, from_matrices
from liedef.linalg import (Mat, _sparse_rows, block_diag, intersect_spans,
                           inverse, mat_lincomb, rank, span_basis, vadd)
from liedef.reps import (ALL_FLAGS, FAITHFUL, HOMOMORPHISM, TRIANGULAR,
                         UNIPOTENT, GroupRepData, Representation, extend_rep,
                         is_unipotent, nilpotent_ado, quotient_rep,
                         rep_kernel, supersolvable_triangular_rep, verify_rep)
from liedef.scalars import GaussRat, rat_str
from liedef.structure import nilradical


def r1():
    return LieAlgebra.from_entries(1, {})


# ---------------------------------------------------------------- nilpotent ado

def test_ado_dimensions(r2, h3, filiform4):
    assert nilpotent_ado(r1()).target_dim == 2
    assert nilpotent_ado(r2).target_dim == 3
    assert nilpotent_ado(h3).target_dim == 10
    assert nilpotent_ado(filiform4).target_dim == 14


def test_ado_monomial_count_matches_the_truncation(r2, h3, filiform4):
    # class <= 2 keeps all monomials of degree <= class; class >= 3 switches
    # to the adapted weight, which prunes more aggressively
    from itertools import combinations_with_replacement

    def degree_count(dim, cap):
        return sum(1 for d in range(cap + 1)
                   for _ in combinations_with_replacement(range(dim), d))

    assert nilpotent_ado(r2).target_dim == degree_count(2, 1)
    assert nilpotent_ado(h3).target_dim == degree_count(3, 2)
    assert nilpotent_ado(filiform4).target_dim < degree_count(4, 3)


def test_ado_is_exactly_faithful_strict_triangular(h3, filiform4):
    for alg in (h3, filiform4):
        rep = nilpotent_ado(alg)
        assert rep.verified == ALL_FLAGS
        assert rep_kernel(rep) == []
        assert is_unipotent(rep)
        for m in rep.images:
            assert m.is_upper_triangular(strict=True)


def test_ado_respects_brackets(h3):
    rep = nilpotent_ado(h3)
    x, y = rep.images[0], rep.images[1]
    z = rep.images[2]
    assert (x @ y - y @ x - z).is_zero()


def test_ado_rejects_nonnilpotent(axb):
    with pytest.raises(NotNilpotentError):
        nilpotent_ado(axb)


def test_ado_zero_algebra():
    z = LieAlgebra.from_entries(0, {})
    rep = nilpotent_ado(z)
    assert rep.target_dim == 1 and rep.verified == ALL_FLAGS


# ------------------------------------------------------------------ verify_rep

def test_verify_flags_adjoint_of_h3(h3):
    ads = tuple(h3.ad(h3.basis_vector(i)) for i in range(3))
    flags = verify_rep(Representation(h3, 3, ads))
    assert HOMOMORPHISM in flags
    # the center acts by zero, so the adjoint cannot be faithful
    assert FAITHFUL not in flags


def test_verify_flags_catch_non_homomorphism(r2):
    images = (Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]]))
    flags = verify_rep(Representation(r2, 2, images))
    assert HOMOMORPHISM not in flags
    assert FAITHFUL in flags


def test_verify_triangular_depends_on_flag(axb):
    # lower triangular images become triangular after reversing the basis
    images = (Mat([[0, 0], [0, 1]]), Mat([[0, 0], [1, 0]]))
    plain = Representation(axb, 2, images)
    assert TRIANGULAR not in verify_rep(plain)
    flipped = Representation(axb, 2, images,
                             flag=((0, 1), (1, 0)))
    flags = verify_rep(flipped)
    assert TRIANGULAR in flags and UNIPOTENT in flags


def _reference_flags(rep):
    """verify_rep written out plainly: the bracket relations on the images
    as given, and each claim about the flag judged on pinv @ image @ p."""
    g = rep.source
    flags = set()
    if all(rep.images[i] @ rep.images[j] - rep.images[j] @ rep.images[i]
           == rep.image_of(g.table[i][j])
           for i in range(g.dim) for j in range(i + 1, g.dim)):
        flags.add(HOMOMORPHISM)
    if not rep_kernel(rep):
        flags.add(FAITHFUL)
    p = Mat.identity(rep.target_dim)
    if rep.flag is not None:
        if len(rep.flag) != rep.target_dim:
            return frozenset(flags)
        p = Mat.from_cols(rep.flag)
    try:
        pinv = inverse(p)
    except ValueError:
        return frozenset(flags)
    if all((pinv @ m @ p).is_upper_triangular() for m in rep.images):
        flags.add(TRIANGULAR)
    if all((pinv @ rep.image_of(v) @ p).is_upper_triangular(strict=True)
           for v in nilradical(g)):
        flags.add(UNIPOTENT)
    return frozenset(flags)


def _sheared(g, rng):
    """g in the basis of up to three elementary +-1 row operations."""
    rows = [[Fraction(int(i == j)) for j in range(g.dim)]
            for i in range(g.dim)]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(g.dim), rng.randrange(g.dim)
        if i != j:
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    t = Mat(rows)
    tinv = inverse(t)
    cols = t.cols()
    return LieAlgebra(g.dim, [[tinv @ g.bracket(cols[i], cols[j])
                               for j in range(g.dim)] for i in range(g.dim)])


def _supersolvable_corpus():
    return [e.algebra for e in corpus()
            if e.known.get("supersolvable") and e.known_value("supersolvable")]


def _h3_by_d(a):
    """h3 x| D with D = diag(a, -a, 0): its center meets [g, g]."""
    return LieAlgebra.from_entries(
        4, {(0, 1): (0, 0, 1, 0), (3, 0): (a, 0, 0, 0),
            (3, 1): (0, -a, 0, 0)})


def _h3_plus_aff():
    return LieAlgebra.from_entries(
        5, {(0, 1): (0, 0, 1, 0, 0), (3, 4): (0, 0, 0, 0, 1)})


def _module_algebras():
    """The inputs of the modules benchmark workload: every supersolvable
    corpus algebra as given and under four seeded shears, h3 x| D with
    D = diag(a, -a, 0) for seven weights a, and h3 + aff(1)."""
    rng = random.Random(20261020)
    out = []
    for g in _supersolvable_corpus():
        out.append(g)
        out.extend(_sheared(g, rng) for _ in range(4))
    for a in (1, 2, 3, Fraction(1, 2), Fraction(3, 2), -1, -2):
        out.append(_h3_by_d(a))
    out.append(_h3_plus_aff())
    return out


def _pool_representations():
    """The Representation certificates committed in the checker benchmark's
    pool, decoded as the checker decodes them."""
    path = (Path(__file__).resolve().parents[1]
            / "perfbench" / "data" / "checker_pool.json")
    with open(path) as fh:
        pool = json.load(fh)
    out = []
    for item in pool:
        cert = item["cert"]
        if cert["kind"] != "Representation":
            continue
        alg, _ = algebra_from_dict(item["subject"]["algebra"])
        payload = cert["payload"]
        images = tuple(matrix_from_json(m) for m in payload["images"])
        flag = payload["flag"]
        if flag is not None:
            flag = tuple(tuple(vector_from_json(v)) for v in flag)
        out.append(Representation(alg, payload["target_dim"], images,
                                  flag=flag))
    return out


def _corrupted(rep):
    """rep with two images swapped, one scaled, the identity added to the
    image of a central vector's pivot, the flag permuted, and a flag that
    is not a basis."""
    g, images = rep.source, list(rep.images)
    flag = list(rep.flag or Mat.identity(rep.target_dim).cols())
    out = []
    if g.dim >= 2:
        swapped = images[:]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        out.append(replace(rep, images=tuple(swapped)))
    k = next(i for i, m in enumerate(images) if not m.is_zero())
    scaled = images[:]
    scaled[k] = scaled[k] * Fraction(-2, 3)
    out.append(replace(rep, images=tuple(scaled)))
    for c in g.center()[:1]:
        k = next(i for i, x in enumerate(c) if x)
        shifted = images[:]
        shifted[k] = shifted[k] + Mat.identity(rep.target_dim)
        out.append(replace(rep, images=tuple(shifted)))
    out.append(replace(rep, flag=tuple(reversed(flag))))
    out.append(replace(rep, flag=tuple(flag[1:] + flag[:1])))
    out.append(replace(rep, flag=tuple(flag[:-1] + flag[:1])))
    out.append(replace(rep, flag=tuple(flag[:-1])))
    return out


def test_verify_rep_matches_the_reference_on_the_module_workload():
    seen = set()
    pool = _pool_representations()
    assert pool
    built = [supersolvable_triangular_rep(g) for g in _module_algebras()]
    for rep in built + pool:
        for r in [rep] + _corrupted(rep):
            want = _reference_flags(r)
            assert verify_rep(r) == want
            seen.add(want)
    # intact modules grant every flag, and each corruption loses some
    assert ALL_FLAGS in seen and len(seen) > 4


def _ref_verify(rep, nil):
    """reps._verify written on dense matrices: each image conjugated into
    the flag as pinv @ m @ p, the bracket relations checked as matrix
    identities on those products, faithfulness as the rank of the
    flattened images, and each triangular claim judged by
    is_upper_triangular on the products and on their combinations."""
    g = rep.source
    d = rep.target_dim
    conj = None
    if rep.flag is None:
        conj = rep.images
    elif len(rep.flag) == d:
        try:
            p = Mat.from_cols(rep.flag)
            pinv = inverse(p)
            conj = [pinv @ m @ p for m in rep.images]
        except ValueError:
            conj = None
    flags = set()
    m = rep.images if conj is None else conj
    if all(m[i] @ m[j] - m[j] @ m[i] == mat_lincomb(g.table[i][j], m, d)
           for i in range(g.dim) for j in range(i + 1, g.dim)):
        flags.add(HOMOMORPHISM)
    if rank(Mat([m.flatten() for m in rep.images])) == g.dim:
        flags.add(FAITHFUL)
    if conj is not None:
        if all(m.is_upper_triangular() for m in conj):
            flags.add(TRIANGULAR)
        if nil is None:
            nil = nilradical(g)
        if all(mat_lincomb(v, conj, d).is_upper_triangular(strict=True)
               for v in nil):
            flags.add(UNIPOTENT)
    return frozenset(flags)


def _finder_representations(monkeypatch):
    """(rep, nil) for every module the finder builds on the modules
    workload's algebras, nil being the nilradical it hands _certified."""
    handed = []
    real = reps._certified

    def recorded(rep, required, nil):
        handed.append((rep, nil))
        return real(rep, required, nil)

    monkeypatch.setattr(reps, "_certified", recorded)
    out = []
    for g in _module_algebras():
        supersolvable_triangular_rep(g)
        # the outermost call comes last
        out.append(handed[-1])
    monkeypatch.undo()
    return out


def test_sparse_verify_matches_the_dense_one_on_the_module_workload(
        monkeypatch):
    built = _finder_representations(monkeypatch)
    assert any(rep.flag is not None for rep, _ in built)
    for rep, nil in built:
        assert reps._verify(rep, nil) == _ref_verify(rep, nil) == ALL_FLAGS
        assert reps._verify(rep, None) == _ref_verify(rep, None) \
            == ALL_FLAGS


def _as_json_gaussian(x, im=0):
    """x + im*i as the checker reads a {"re", "im"} JSON scalar."""
    return scalar_from_json({"re": rat_str(x), "im": rat_str(im)})


def _forged(rep, rng):
    """Seeded forgeries of rep: flags that are singular, permuted, not a
    basis or of the wrong length; entries turned into GaussRat as JSON scalars give them, one of them
    off the real line; and one perturbed entry."""
    d = rep.target_dim
    images = list(rep.images)
    flag = list(rep.flag or Mat.identity(d).cols())
    out = []
    if d >= 2:
        a, b = rng.sample(range(d), 2)
        dependent = flag[:]
        dependent[a] = vadd(flag[b], flag[b])
        zero = flag[:]
        zero[a] = (Fraction(0),) * d
        twice = flag[:]
        twice[a] = flag[b]
        permuted = flag[:]
        rng.shuffle(permuted)
        out += [replace(rep, flag=tuple(f))
                for f in (dependent, zero, twice, permuted)]
    out.append(replace(rep, flag=tuple(flag[:-1])))
    out.append(replace(rep, flag=tuple(flag + flag[:1])))
    # flag vectors of the wrong length are no Representation
    for bad in (tuple(v[:-1] for v in flag),
                tuple(v + (Fraction(1),) for v in flag)):
        with pytest.raises(InputError, match="flag vector length"):
            replace(rep, flag=bad)
    # a basis that the images need not keep triangular
    sheared = flag[:]
    if d >= 2:
        sheared[a] = vadd(flag[a], flag[b])
    out.append(replace(rep, flag=tuple(sheared)))

    gaussian = [Mat([[_as_json_gaussian(x) if rng.random() < 0.5 else x
                      for x in row] for row in m.rows]) for m in images]
    gflag = tuple(tuple(_as_json_gaussian(x) if rng.random() < 0.3 else x
                        for x in v) for v in flag)
    out.append(replace(rep, images=tuple(gaussian)))
    out.append(replace(rep, images=tuple(gaussian), flag=gflag))
    k, r, c = (rng.randrange(len(images)), rng.randrange(d),
               rng.randrange(d))
    for shift in (Fraction(rng.choice((-1, 1)), rng.randint(1, 3)),
                  _as_json_gaussian(0, rng.choice((-1, 1)))):
        rows = [list(row) for row in images[k].rows]
        rows[r][c] = rows[r][c] + shift
        perturbed = images[:]
        perturbed[k] = Mat(rows)
        out.append(replace(rep, images=tuple(perturbed)))
    return out


def _cancelling(rng, d):
    """Two images, conjugated by a seeded basis P, whose sum is strictly
    upper triangular in P while neither image is triangular there; with
    the flag P, or with no flag when P is the identity."""
    lower = [[Fraction(rng.randint(-2, 2)) if c <= r else Fraction(0)
              for c in range(d)] for r in range(d)]
    lower[d - 1][0] = Fraction(rng.choice((-2, -1, 1, 2)))
    upper = [[Fraction(rng.randint(-2, 2)) if c > r else Fraction(0)
              for c in range(d)] for r in range(d)]
    x1 = Mat(upper) + Mat(lower)
    x2 = -Mat(lower)
    p = Mat.identity(d)
    if rng.random() < 0.7:
        while True:
            p = Mat([[Fraction(rng.randint(-1, 1)) for _ in range(d)]
                      for _ in range(d)])
            if rank(p) == d:
                break
    pinv = inverse(p)
    images = (p @ x1 @ pinv, p @ x2 @ pinv)
    flag = None if p == Mat.identity(d) else tuple(p.cols())
    g = LieAlgebra(2, [[(Fraction(0),) * 2] * 2 for _ in range(2)])
    return Representation(g, d, images, flag=flag)


def test_sparse_verify_matches_the_dense_one_on_forged_representations(
        monkeypatch):
    rng = random.Random(20261026)
    seen = set()
    built = _finder_representations(monkeypatch)
    for rep, nil in rng.sample(built, 20) + [
            (r, None) for r in _pool_representations()[:6]]:
        for forged in [rep] + _forged(rep, rng):
            got = reps._verify(forged, nil)
            assert got == _ref_verify(forged, nil)
            seen.add(got)
    assert ALL_FLAGS in seen and frozenset((HOMOMORPHISM, FAITHFUL)) in seen
    assert len(seen) >= 6

    # the unipotent claim sums the images before it tests for zero
    for _ in range(40):
        rep = _cancelling(rng, rng.randint(2, 4))
        for nil, unipotent in (([(1, 1)], True), ([(1, 2)], False),
                               ([(1, 0)], False)):
            got = reps._verify(rep, nil)
            assert got == _ref_verify(rep, nil)
            assert (UNIPOTENT in got) == unipotent
            assert TRIANGULAR not in got


def test_sparse_verify_builds_no_dense_matrix(monkeypatch):
    built = _finder_representations(monkeypatch)
    calls = []
    for name in ("__matmul__", "is_upper_triangular"):
        real = getattr(Mat, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(Mat, name, counted)
    assert sum(rep.flag is not None for rep, _ in built) >= 10
    for rep, nil in built:
        assert reps._verify(rep, nil) == ALL_FLAGS
    assert calls == []


_ENTRIES = {
    "int": st.integers(-2, 2),
    "Fraction": st.fractions(min_value=-2, max_value=2, max_denominator=3),
    "GaussRat": st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1)),
}


@st.composite
def _matrix_modules(draw):
    """The defining module of the Lie algebra that a few random matrices
    generate, with int, Fraction or GaussRat entries, and in about half of
    the draws one entry of one image changed."""
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    entry = _ENTRIES[kind]
    n = draw(st.integers(2, 3))
    gens = [Mat([[draw(entry) for _ in range(n)] for _ in range(n)])
            for _ in range(draw(st.integers(1, 3)))]
    if all(m.is_zero() for m in gens):
        gens[0] = Mat([[int(j == i + 1) for j in range(n)] for i in range(n)])
    g, images, _ = from_matrices(gens)
    if kind == "int":
        images = [m.map(lambda x: int(x) if x.denominator == 1 else x)
                  for m in images]
    if draw(st.booleans()):
        k = draw(st.integers(0, g.dim - 1))
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = [list(row) for row in images[k].rows]
        rows[r][c] += draw(entry.filter(bool))
        images[k] = Mat(rows)
    return Representation(g, n, tuple(images))


def test_sparse_homomorphism_check_matches_the_dense_relation():
    seen = set()

    @seed(20261022)
    @settings(max_examples=80, deadline=None, database=None)
    @given(_matrix_modules())
    def check(rep):
        g, m = rep.source, rep.images
        want = all(m[i] @ m[j] - m[j] @ m[i] == rep.image_of(g.table[i][j])
                   for i in range(g.dim) for j in range(i + 1, g.dim))
        nz = [_sparse_rows(x.rows) for x in m]
        assert reps._closes(g, nz, rep.target_dim) == want
        seen.add(want)

    check()
    assert seen == {True, False}


def _pair_list_product(a, b):
    """The earlier sparse product of _verify, on rows listed as (column,
    entry) pairs: a per-row accumulator that starts each column at int 0."""
    out = []
    for row in a:
        acc = {}
        for k, x in row:
            for c, y in b[k]:
                acc[c] = acc.get(c, 0) + x * y
        out.append([(c, x) for c, x in acc.items() if x])
    return out


_SCALARS = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
            GaussRat(1, 1), GaussRat(0, -1), GaussRat(2))


def _typed_pairs(rows):
    return [[(c, type(x).__name__, x,
              (type(x.re), type(x.im)) if isinstance(x, GaussRat) else None)
             for c, x in row] for row in rows]


def test_sparse_product_matches_the_pair_list_product():
    # seeded int, Fraction and GaussRat rows; a column of b repeated with
    # opposite signs in a makes some sums cancel to zero
    rng = random.Random(20261020)
    cancelled = 0
    for _ in range(200):
        m, k, n = rng.randint(1, 4), rng.randint(2, 4), rng.randint(1, 4)
        a = [[rng.choice(_SCALARS) for _ in range(k)] for _ in range(m)]
        b = [[rng.choice(_SCALARS) for _ in range(n)] for _ in range(k)]
        b[1] = b[0]
        for row in a:
            if rng.random() < 0.5:
                row[1] = -row[0]
        got = reps._sparse_product(_sparse_rows(a), _sparse_rows(b))
        want = _pair_list_product(
            [list(r.items()) for r in _sparse_rows(a)],
            [list(r.items()) for r in _sparse_rows(b)])
        assert _typed_pairs(r.items() for r in got) == _typed_pairs(want)
        dense = Mat(a) @ Mat(b)
        assert [[r.get(c, 0) for c in range(n)] for r in got] \
            == [list(r) for r in dense.rows]
        cancelled += sum(1 for r, ra in zip(got, a)
                         for c in range(n) if c not in r
                         and any(x and b[j][c] for j, x in enumerate(ra)))
    assert cancelled > 20


def _faithfulness_cases():
    """Representations of abelian algebras of dimension 0 to 4 on spaces of
    dimension 1 to 3, with seeded small images; about half of them have an
    image that is zero, a copy of another or a combination of two."""
    rng = random.Random(20261023)
    out = [Representation(LieAlgebra(0, []), 1, ())]
    for _ in range(120):
        n, d = rng.randint(0, 4), rng.randint(1, 3)
        images = [Mat([[Fraction(rng.randint(-1, 1), rng.randint(1, 2))
                        for _ in range(d)] for _ in range(d)])
                  for _ in range(n)]
        if n >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(n), 2)
            images[a] = rng.choice((Mat.zeros(d, d), images[b],
                                    images[b] * rng.randint(-2, 2)
                                    + images[(b + 1) % n]))
        out.append(Representation(
            LieAlgebra(n, [[(Fraction(0),) * n] * n for _ in range(n)]),
            d, tuple(images)))
    return out


def test_faithfulness_is_an_empty_kernel():
    seen = set()
    for rep in _faithfulness_cases():
        want = rep_kernel(rep) == []
        assert (FAITHFUL in verify_rep(rep)) == want
        seen.add((want, rep.target_dim == 1, rep.source.dim == 0))
    assert {(True, False, False), (False, False, False), (True, True, False),
            (False, True, False), (True, True, True)} <= seen


def _record_nilradical_calls(monkeypatch):
    """Route structure.nilradical through a recorder of each call's
    innermost callers, by function name."""
    calls = []
    real = structure.nilradical

    def recorded(g):
        calls.append([f.function for f in inspect.stack(0)[1:4]])
        return real(g)

    monkeypatch.setattr(structure, "nilradical", recorded)
    monkeypatch.setattr(reps, "nilradical", recorded)
    return calls


def test_the_finder_reuses_the_nilradical_it_has_proved(monkeypatch):
    calls = _record_nilradical_calls(monkeypatch)
    algebras = _supersolvable_corpus()
    assert len(algebras) == 12
    for g in algebras:
        assert supersolvable_triangular_rep(g).verified == ALL_FLAGS
    assert calls == []
    # the extension route skips extend_rep's public verify_rep too
    for g in (_h3_by_d(1), _h3_plus_aff()):
        assert supersolvable_triangular_rep(g).verified == ALL_FLAGS
    assert calls == []


def test_the_checker_computes_the_nilradical_itself(monkeypatch):
    emitted = [(g, emit_representation(supersolvable_triangular_rep(g)))
               for g in _supersolvable_corpus() + [_h3_by_d(2),
                                                  _h3_plus_aff()]]
    calls = _record_nilradical_calls(monkeypatch)
    for g, cert in emitted:
        calls.clear()
        assert verify_certificate(cert, algebra=g).ok
        assert len(calls) == 1


def test_representation_shape_errors(r2):
    with pytest.raises(InputError):
        Representation(r2, 2, (Mat.identity(2),))
    with pytest.raises(InputError):
        Representation(r2, 3, (Mat.identity(2), Mat.identity(2)))


# ------------------------------------------------------- supersolvable modules

def test_triangular_rep_abelian(r2):
    rep = supersolvable_triangular_rep(r2)
    assert rep.target_dim == 3
    assert rep.verified == ALL_FLAGS


def test_triangular_rep_centerless(axb):
    # trivial center: the adjoint already works
    rep = supersolvable_triangular_rep(axb)
    assert rep.target_dim == 2
    assert rep.verified == ALL_FLAGS
    assert not is_unipotent(rep)


def test_triangular_rep_nilpotent_defers_to_ado(h3):
    rep = supersolvable_triangular_rep(h3)
    assert rep.target_dim == 10
    assert rep.verified == ALL_FLAGS


def test_triangular_rep_center_meets_derived():
    # h3 + a solvable non-nilpotent summand: center {z} lies inside the
    # derived subalgebra, forcing the extension route
    g = LieAlgebra.from_entries(5, {(0, 1): (0, 0, 1, 0, 0),
                                    (3, 4): (0, 0, 0, 0, 1)})
    rep = supersolvable_triangular_rep(g)
    assert rep.verified == ALL_FLAGS
    assert rep.target_dim == 15
    assert rep_kernel(rep) == []


def test_triangular_rep_extends_along_two_complement_directions(
        monkeypatch):
    # (x, y, z, w, d1, d2): [x, y] = z, d1 acts as diag(1, -1, 0) on
    # (x, y, z) and d2 scales w; the center {z} lies in the derived
    # subalgebra, so the nilradical (x, y, z, w) is extended along two
    # complement vectors whose images must close among themselves
    g = LieAlgebra.from_entries(6, {(0, 1): (0, 0, 1, 0, 0, 0),
                                    (4, 0): (1, 0, 0, 0, 0, 0),
                                    (4, 1): (0, -1, 0, 0, 0, 0),
                                    (5, 3): (0, 0, 0, 1, 0, 0)})
    solved = []
    real = reps._solve_extension

    def recorded(g_, incl, comp, rho_images, tinv):
        solved.append((len(incl), len(comp)))
        return real(g_, incl, comp, rho_images, tinv)

    monkeypatch.setattr(reps, "_solve_extension", recorded)
    rep = supersolvable_triangular_rep(g)
    assert solved == [(4, 2)]
    assert rep.target_dim == 15 and rep.verified == ALL_FLAGS
    assert verify_certificate(emit_representation(rep), algebra=g)


def test_triangular_rep_unipotent_exactly_on_nilradical(axb):
    rep = supersolvable_triangular_rep(axb)
    nil = nilradical(axb)
    assert span_basis(nil) == [(0, 1)]
    m = rep.image_of(nil[0])
    p = Mat.from_cols(rep.flag) if rep.flag else Mat.identity(rep.target_dim)
    assert (inverse(p) @ m @ p).is_upper_triangular(strict=True)


def test_triangular_rep_refuses_nonreal_spectrum(e2):
    with pytest.raises(NotSupersolvableError) as exc:
        supersolvable_triangular_rep(e2)
    assert exc.value.witness is not None


def test_triangular_rep_indeterminate_tower():
    g = LieAlgebra.from_entries(3, {(2, 0): (0, 1, 0), (2, 1): (2, 0, 0)})
    with pytest.raises(UnsupportedError):
        supersolvable_triangular_rep(g)


# ------------------------------------------------------------------ extensions

def test_extend_rep_from_translations(e2):
    ideal = [e2.basis_vector(0), e2.basis_vector(1)]
    sub, incl = e2.subalgebra(ideal)
    rho = nilpotent_ado(sub)
    ext = extend_rep(e2, ideal, rho)
    assert ext.target_dim == 3
    assert HOMOMORPHISM in ext.verified and FAITHFUL in ext.verified
    # the restriction to the ideal is rho itself
    for j in range(2):
        assert ext.image_of(e2.basis_vector(j)) == rho.images[j]


def test_commutator_system_matches_its_definition():
    # oracle: column p*d + q holds ([E_pq, R_a])_a, flattened row-major; the
    # sparse rows hold exactly its nonzero entries
    from liedef.reps import _commutator_system
    rng = random.Random(7)

    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(40):
        d = rng.randint(1, 4)
        images = [Mat([[entry() for _ in range(d)] for _ in range(d)])
                  for _ in range(rng.randint(1, 3))]
        cols = []
        for p in range(d):
            for q in range(d):
                e = Mat([[Fraction(int(r == p and c == q)) for c in range(d)]
                         for r in range(d)])
                col = []
                for r_a in images:
                    col.extend((e @ r_a - r_a @ e).flatten())
                cols.append(col)
        want = Mat.from_cols(cols)
        rows = _commutator_system(images, d)
        assert len(rows) == want.nrows
        for row, dense in zip(rows, want.rows):
            assert row == {j: x for j, x in enumerate(dense) if x}


def test_extend_rep_requires_an_ideal(e2):
    sub, _ = e2.subalgebra([e2.basis_vector(2)])
    rho = nilpotent_ado(sub)
    with pytest.raises(PreconditionError):
        extend_rep(e2, [e2.basis_vector(2)], rho)


def test_extend_rep_requires_faithful_base(axb):
    sub, _ = axb.subalgebra([axb.basis_vector(1)])
    zero = Representation(sub, 1, (Mat.zeros(1, 1),))
    with pytest.raises(PreconditionError):
        extend_rep(axb, [axb.basis_vector(1)], zero)


def test_extend_rep_weight_precondition(axb):
    # a nonzero weight on [g, h] cannot extend
    sub, _ = axb.subalgebra([axb.basis_vector(1)])
    rho = Representation(sub, 1, (Mat.identity(1),))
    with pytest.raises(PreconditionError):
        extend_rep(axb, [axb.basis_vector(1)], rho)


def test_extend_rep_decides_weights_outside_q_i(r2):
    # rho(e0) has eigenvalues +-sqrt(2); [g, h] = 0, so nothing must vanish
    sub, _ = r2.subalgebra([r2.basis_vector(0)])
    rho = Representation(sub, 2, (Mat([[0, 2], [1, 0]]),))
    ext = extend_rep(r2, [r2.basis_vector(0)], rho)
    assert HOMOMORPHISM in ext.verified
    assert ext.image_of(r2.basis_vector(0)) == rho.images[0]


def test_extend_rep_rejects_weights_outside_q_i():
    # [a, x] = y, [a, y] = 2x; on h = span(x, y) the weights take the values
    # +-sqrt(2) at x and 1 at y, and [g, h] = h
    g = LieAlgebra.from_entries(3, {(2, 0): (0, 1, 0), (2, 1): (2, 0, 0)},
                                names=("x", "y", "a"))
    h = [g.basis_vector(0), g.basis_vector(1)]
    sub, _ = g.subalgebra(h)
    rho = Representation(sub, 2, (Mat([[0, 2], [1, 0]]), Mat.identity(2)))
    with pytest.raises(PreconditionError,
                       match="module weights do not vanish on"):
        extend_rep(g, h, rho)


def test_extend_rep_full_ideal_is_identity(h3):
    rho = nilpotent_ado(h3)
    ext = extend_rep(h3, h3.basis(), rho)
    assert ext.images == rho.images


# --------------------------------------------------------------------- sums

def test_direct_sum_and_kernel_intersection(h3):
    ado = nilpotent_ado(h3)
    adjoint = Representation(h3, 3,
                             tuple(h3.ad(h3.basis_vector(i)) for i in range(3)))
    total = Representation(h3, 13, tuple(
        block_diag([a, b]) for a, b in zip(ado.images, adjoint.images)))
    assert rep_kernel(adjoint) != []
    assert rep_kernel(total) == intersect_spans(
        rep_kernel(ado), rep_kernel(adjoint), 3) == []
    assert HOMOMORPHISM in verify_rep(total)


# ---------------------------------------------------------- central quotients

def rot90():
    return Mat([[0, -1], [1, 0]])


def test_quotient_rep_trivial_subgroup():
    data = GroupRepData((rot90(),), (Mat.identity(2),), 1)
    dim, images = quotient_rep(data)
    assert dim == 2 and images[0] == rot90()


def test_quotient_rep_kills_minus_identity():
    data = GroupRepData((rot90(),), (Mat.identity(2), -1 * Mat.identity(2)), 2)
    dim, images = quotient_rep(data)
    assert dim == 4
    img = images[0]
    # the rotation squares to -1 upstairs, so its induced image squares to
    # the identity downstairs without being the identity itself
    assert not (img - Mat.identity(4)).is_zero()
    assert (img @ img - Mat.identity(4)).is_zero()


def test_quotient_rep_mixed_eigenspaces():
    f = Mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    gen = Mat([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    data = GroupRepData((gen,), (Mat.identity(3), f), 2)
    dim, images = quotient_rep(data)
    assert dim > 0
    assert all(m.nrows == dim for m in images)


def test_quotient_rep_order_three_unsupported():
    w = Mat([[0, -1], [1, -1]])
    data = GroupRepData((w,), (Mat.identity(2), w, w @ w), 3)
    with pytest.raises(UnsupportedError):
        quotient_rep(data)


def test_quotient_rep_images_on_the_criterion_5_examples(monkeypatch):
    # every entry is pinned, and every entry is a Fraction
    swap = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    f = Mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    gen = Mat([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    for data, want in (
            (GroupRepData((rot90(),), (Mat.identity(2), -1 * Mat.identity(2)),
                          2), swap),
            (GroupRepData((gen,), (Mat.identity(3), f), 2),
             [r + [0, 0] for r in swap]
             + [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])):
        dim, images = quotient_rep(data)
        assert dim == len(want)
        assert ([[(type(c), c) for c in r] for r in images[0].rows]
                == [[(Fraction, c) for c in r] for r in want])
    # a component the generators do not keep is an internal fault
    kernel = reps.kernel
    monkeypatch.setattr(reps, "kernel", lambda m: (
        [(Fraction(1), Fraction(0))] * 2 if m.is_zero() else kernel(m)))
    with pytest.raises(InternalCheckError, match="not invariant"):
        quotient_rep(GroupRepData(
            (rot90(),), (Mat.identity(2), -1 * Mat.identity(2)), 2))


def test_flag_vectors_must_have_the_target_length():
    # a dim-1 source on a 2-dimensional target: Mat.from_cols sizes the
    # flag basis by its first vector, so a vector of another length would
    # be read wrongly or not at all
    for flag in (((1, 0, 0), (0, 1)), ((1, 0), (0, 1, 0))):
        with pytest.raises(InputError, match="flag vector length"):
            Representation(r1(), 2, (Mat.zeros(2, 2),), flag=flag)
    rep = Representation(r1(), 2, (Mat.zeros(2, 2),), flag=((1, 0), (0, 1)))
    assert verify_rep(rep) == frozenset((HOMOMORPHISM, TRIANGULAR, UNIPOTENT))


def test_group_data_validation():
    with pytest.raises(InputError):
        GroupRepData((), (Mat.identity(2),), 1)
    with pytest.raises(InputError):
        GroupRepData((Mat.zeros(2, 2),), (Mat.identity(2),), 1)
    with pytest.raises(InputError):
        GroupRepData((rot90(),), (Mat.identity(2),), 2)
    with pytest.raises(InputError):
        GroupRepData((rot90(),), (-1 * Mat.identity(2),), 1)
    # not closed: {I, rot} with rot^2 = -I outside
    with pytest.raises(InputError):
        GroupRepData((rot90(),), (Mat.identity(2), rot90()), 2)
    # not central
    with pytest.raises(InputError):
        GroupRepData((Mat([[1, 1], [0, 1]]),),
                     (Mat.identity(2), Mat([[1, 0], [0, -1]])), 2)
