import random
import sys
from fractions import Fraction

from collections import Counter

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from liedef import definability, linalg, weights
from liedef.corpus import corpus, corpus_entry
from liedef.errors import Indeterminate, InputError, InternalCheckError
from liedef.lie import LieAlgebra, from_matrices
from liedef.linalg import (Mat, block_diag, char_poly, coords_in_span, det,
                           inverse, kernel, mat_lincomb, span_basis)
from liedef.poly import gaussian_roots
from liedef.reps import extend_rep, nilpotent_ado, supersolvable_triangular_rep
from liedef.scalars import GaussRat, _field, gauss
from liedef.structure import nilradical
from liedef.weights import adjoint_weights, module_weights, weight_flag
from test_golden import weight_flag_inputs


def vals(entry):
    return tuple((v.re, v.im) for v in entry.values)


def test_abelian_adjoint_is_zero(r2):
    table = adjoint_weights(r2)
    assert table.algebra_dim == 2 and table.module_dim == 2
    assert table.is_zero() and table.all_real()
    assert len(table.entries) == 1
    assert table.entries[0].multiplicity == 2


def test_axb_adjoint(axb):
    table = adjoint_weights(axb)
    assert [vals(e) for e in table.entries] == [
        ((0, 0), (0, 0)),
        ((1, 0), (0, 0)),
    ]
    assert all(e.multiplicity == 1 for e in table.entries)
    assert table.all_real()


def test_e2_adjoint_weights_come_in_conjugate_pairs(e2):
    table = adjoint_weights(e2)
    assert [vals(e) for e in table.entries] == [
        ((0, 0), (0, 0), (0, -1)),
        ((0, 0), (0, 0), (0, 0)),
        ((0, 0), (0, 0), (0, 1)),
    ]
    assert not table.all_real()
    assert len(table.nonreal()) == 2


def test_oscillator_adjoint_weights(oscillator):
    table = adjoint_weights(oscillator)
    assert [vals(e) for e in table.entries] == [
        ((0, 0), (0, 0), (0, 0)),
        ((0, 0), (0, 0), (1, -1)),
        ((0, 0), (0, 0), (1, 1)),
    ]
    assert len(table.nonreal()) == 2


def test_weights_vanish_on_derived(e2, oscillator, axb):
    for alg in (e2, oscillator, axb):
        table = adjoint_weights(alg)
        for d in alg.bracket_span(alg.basis(), alg.basis()):
            for e in table.entries:
                total = sum((v * c for v, c in zip(e.values, d)), GaussRat(0))
                assert not total


def test_module_weights_of_nilpotent_matrix_action(h3):
    e12 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    e13 = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    table = module_weights(h3, [e12, e23, e13])
    assert table.module_dim == 3 and table.is_zero()
    assert table.entries[0].multiplicity == 3


def test_module_weights_requires_one_matrix_per_basis_element(r2):
    with pytest.raises(InputError):
        module_weights(r2, [Mat.identity(2)])


def test_public_peels_take_one_square_matrix_per_basis_element(axb):
    ads = [axb.ad(x) for x in axb.basis()]
    big = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    for mats, message in (
            (ads[:1], "one action matrix per basis element"),
            (ads + ads, "one action matrix per basis element"),
            ([ads[0], big], "square and of one size"),
            ([big, ads[1]], "square and of one size"),
            ([Mat([[1, 0]]), Mat([[0, 1]])], "square and of one size"),
            ([[[1, 0]], [[0, 0]]], "square and of one size")):
        for peel in (weight_flag, module_weights):
            with pytest.raises(InputError, match=message):
                peel(axb, mats)
    # the well-formed action, as lists or as Mat, still peels
    assert weight_flag(axb, [m.rows for m in ads]) == weight_flag(axb, ads)


def test_module_weights_rejects_nonsolvable(sl2):
    # gl2 and sl2 x| R^2 are not perfect: the ideal chain takes a level or
    # more before it reaches the perfect term and stops there
    algebras = [sl2] + [corpus_entry(name).algebra
                        for name in ("gl2", "sl2-semidirect-r2")]
    for alg in algebras:
        mats = [alg.ad(alg.basis_vector(i)) for i in range(alg.dim)]
        with pytest.raises(InputError, match="acting algebra is not solvable"):
            module_weights(alg, mats)
    # the public peel meets the same check in the chain's level loop
    ads = [sl2.ad(sl2.basis_vector(i)) for i in range(sl2.dim)]
    with pytest.raises(InputError, match="acting algebra is not solvable"):
        weight_flag(sl2, ads)


def test_module_weights_rejects_matrices_that_are_not_an_action(axb):
    # [a, x] = x, but this a swaps the eigenlines of x, so the first joint
    # eigenspace of the ideal span{x} is not invariant under a
    a = Mat([[0, 1], [1, 0]])
    x = Mat([[0, 0], [0, 1]])
    with pytest.raises(InternalCheckError) as exc:
        module_weights(axb, [a, x])
    assert "not invariant" in str(exc.value)
    # on the plane, e_0 is walked first and its eigenspace for 0 is
    # span{u_0, u_1}, which e_1 sends out of: the restriction reads the
    # coordinates 0, 0 of e_1 u_0 = u_2 and must not take them
    plane = LieAlgebra.from_entries(2, {})
    d = Mat.diag([0, 0, 1])
    leave = Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(InternalCheckError, match="not invariant"):
        module_weights(plane, [d, leave])


def test_weights_outside_the_tower_are_indeterminate():
    # ad(a) on span{x, y} has eigenvalues +-sqrt(2)
    g = LieAlgebra.from_entries(3, {(2, 0): (0, 1, 0), (2, 1): (2, 0, 0)},
                                names=("x", "y", "a"))
    res = adjoint_weights(g)
    assert isinstance(res, Indeterminate)
    assert not res


def test_real_flag_on_nilpotent_adjoint(h3):
    mats = [h3.ad(h3.basis_vector(i)) for i in range(3)]
    flag, chars = weight_flag(h3, mats)
    assert len(flag) == 3 and len(chars) == 3
    for row in chars:
        assert all(not v for v in row)
    # the action maps each prefix span into the previous one
    for k, w in enumerate(flag):
        for m in mats:
            image = m.map(GaussRat) @ w
            before = span_basis(list(flag[:k]))
            assert len(span_basis(before + [image])) == len(before)


def test_real_flag_on_axb_adjoint(axb):
    mats = [axb.ad(axb.basis_vector(i)) for i in range(2)]
    flag, chars = weight_flag(axb, mats)
    assert flag[0] == (0, 1)
    assert chars[0] == (1, 0)
    assert chars[1] == (0, 0)


def test_weight_flag_of_e2_lifts_to_q_i(e2):
    mats = [e2.ad(e2.basis_vector(i)) for i in range(3)]
    flag, chars = weight_flag(e2, mats)
    assert any(v.im for row in chars for v in row)
    assert any(isinstance(c, GaussRat) and c.im for w in flag for c in w)
    # the flag is invariant over Q(i): each image stays in its prefix span
    for k, w in enumerate(flag):
        before = list(flag[:k + 1])
        for m in mats:
            image = m.map(GaussRat) @ w
            assert len(span_basis(before + [image])) == len(before)


def test_real_flag_values_are_rational(axb):
    mats = [axb.ad(axb.basis_vector(i)) for i in range(2)]
    flag, chars = weight_flag(axb, mats)
    for w in flag:
        for c in w:
            assert getattr(c, "im", 0) == 0
    for row in chars:
        for c in row:
            assert getattr(c, "im", 0) == 0


def _record_levels(monkeypatch):
    """Wrap the peel's search for one common eigenvector, which sees the
    action of every chain direction on the module left to peel; the
    returned list gets, per call, whether those actions held a GaussRat."""
    seen = []
    inner = weights.common_eigenspace

    def wrapped(chain, acts, spectra):
        seen.append(any(isinstance(x, GaussRat) for act in acts
                        for row in act.values() for x in row.values()))
        return inner(chain, acts, spectra)

    monkeypatch.setattr(weights, "common_eigenspace", wrapped)
    return seen


def test_real_modules_are_peeled_over_q(monkeypatch):
    # h3 + aff(1): weight_flag on the adjoint and on the extended module, and
    # module_weights on the nilradical's module, all with real weights
    seen = _record_levels(monkeypatch)
    g = LieAlgebra.from_entries(5, {(0, 1): (0, 0, 1, 0, 0),
                                    (3, 4): (0, 0, 0, 0, 1)})
    flag, _ = weight_flag(g, [g.ad(g.basis_vector(i)) for i in range(5)])
    assert len(flag) == 5
    supersolvable_triangular_rep(g)
    assert seen and not any(seen)


def test_peel_lifts_to_q_i_at_the_first_nonreal_eigenvalue(monkeypatch):
    # -1 sorts before -i and i, so the first peel is real; the second picks
    # -i on the rational rotation block and lifts, so the quotient the third
    # peels of the full flag is over Q(i).  module_weights records -i and i
    # at the second peel and quotients by the rational plane of the block,
    # so it never holds a GaussRat and needs no third peel.
    seen = _record_levels(monkeypatch)
    g = LieAlgebra.from_entries(1, {})
    mats = [Mat([[-1, 0, 0], [0, 0, -1], [0, 1, 0]])]
    weight_flag(g, mats)
    assert seen == [False, False, True]
    seen.clear()
    table = module_weights(g, mats)
    assert seen == [False, False]
    assert [(e.values, e.multiplicity, e.real) for e in table.entries] == [
        ((GaussRat(-1),), 1, True),
        ((GaussRat(0, -1),), 1, False),
        ((GaussRat(0, 1),), 1, False),
    ]
    assert repr(table) == (
        "WeightTable(algebra_dim=1, module_dim=3, entries=("
        "WeightEntry(values=(-1,), multiplicity=1, real=True), "
        "WeightEntry(values=(-1*i,), multiplicity=1, real=False), "
        "WeightEntry(values=(1*i,), multiplicity=1, real=False)))")


small = st.integers(-3, 3)
ratios = st.builds(Fraction, small, st.integers(1, 3))


@st.composite
def block_actions(draw):
    """Commuting block-diagonal matrices, one per basis element of an
    abelian algebra: real 1x1 blocks, rational rotation blocks a + bJ and
    2x2 Jordan blocks l + cN, each block shaped alike in every matrix."""
    n_gens = draw(st.integers(1, 2))
    kinds = draw(st.lists(st.sampled_from(("real", "rotation", "jordan")),
                          min_size=1, max_size=3))
    mats = []
    for _ in range(n_gens):
        blocks = []
        for kind in kinds:
            a, b = draw(small), draw(small)
            if kind == "real":
                blocks.append(Mat([[a]]))
            elif kind == "rotation":
                blocks.append(Mat([[a, -b], [b, a]]))
            else:
                blocks.append(Mat([[a, b], [0, a]]))
        mats.append(block_diag(blocks))
    return LieAlgebra.from_entries(n_gens, {}), mats


@settings(max_examples=40, deadline=None)
@given(block_actions(), st.data())
def test_module_weights_do_not_depend_on_the_basis(case, data):
    alg, mats = case
    n = mats[0].nrows
    p = Mat([[data.draw(ratios) for _ in range(n)] for _ in range(n)])
    assume(det(p) != 0)
    p_inv = inverse(p)
    table = module_weights(alg, mats)
    assert module_weights(alg, [p_inv @ m @ p for m in mats]) == table


@st.composite
def planted_lines(draw):
    """Matrices over Q or Q(i) sharing the invariant line w: P B P^-1 with
    P's first column w and B's first column lambda * e_0.  Every entry has
    the field's type, Fraction or GaussRat, as weight_flag keeps them."""
    n = draw(st.integers(2, 4))
    scalar = draw(st.sampled_from((Fraction, gauss)))
    if scalar is Fraction:
        entry = ratios
    else:
        entry = st.builds(GaussRat, small, small)
    w = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    assume(any(w))
    p = Mat([[w[i]] + [draw(entry) for _ in range(n - 1)] for i in range(n)])
    assume(det(p) != 0)
    p_inv = inverse(p)
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        b = Mat([[draw(entry) if j or not i else 0 for j in range(n)]
                 for i in range(n)])
        mats.append((p @ b @ p_inv).map(scalar))
    return scalar, mats, tuple(scalar(c) for c in w)


def _dense_quotient(m, w, scalar):
    """Lower-right block of inverse(T) @ m @ T, T = (w / w_p, e_j for j !=
    p), every sum started from scalar(0)."""
    n = len(w)
    p = next(j for j, c in enumerate(w) if c)
    u = [c / w[p] for c in w]
    cols = [u] + [[scalar(int(i == j)) for i in range(n)]
                  for j in range(n) if j != p]
    t = Mat.from_cols(cols)
    t_inv = inverse(t)
    return [[sum((t_inv[j, a] * m[a, b] * t[b, l]
                  for a in range(n) for b in range(n)), scalar(0))
             for l in range(1, n)] for j in range(1, n)]


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(planted_lines())
def test_peel_quotient_matches_the_dense_conjugation(case):
    # the sparse quotient keeps the coordinates left, which are those of
    # the dense one's rows and columns in order
    scalar, mats, w = case
    for m in mats:
        assert len(span_basis([w, m @ w])) == 1
    acts = [{i: {j: x for j, x in enumerate(r) if x}
             for i, r in enumerate(m.rows)} for m in mats]
    p = weights._peel_quotient(acts, {j: c for j, c in enumerate(w) if c})
    assert p == next(j for j, c in enumerate(w) if c)
    left = [j for j in range(len(w)) if j != p]
    for m, act in zip(mats, acts):
        assert list(act) == left
        want = _dense_quotient(m, w, scalar)
        assert ({(i, j): (type(x), x) for i, row in act.items()
                 for j, x in row.items()}
                == {(left[r], left[c]): (type(x), x)
                    for r, row in enumerate(want)
                    for c, x in enumerate(row) if x})


def test_common_eigenspace_shifts_like_subtracting_a_scaled_identity():
    # b - mu * 1 with a Fraction identity turns every int entry into a
    # Fraction, and so does forming the direction actions; an int 1 pivot
    # is not divided out, so an int left beside it would reach the
    # eigenvectors
    line = LieAlgebra.from_entries(1, {})
    chain = weights._ideal_chain(line, line.derived_algebra())
    for b, mu in ((Mat([[2, 1, 7], [0, 2, 0], [0, 0, 2]]), Fraction(2)),
                  (Mat([[0, 1, 3], [0, 0, Fraction(1, 2)], [0, 0, 0]]),
                   Fraction(0))):
        acts = weights._direction_actions(chain[0], [b])
        char, w, lams = weights.common_eigenspace(chain, acts, [None])
        assert char == (mu,) and lams == [mu]
        want = kernel(b - mu * Mat.identity(3))
        assert ([{j: (type(x), x) for j, x in v.items()} for v in w]
                == [{j: (type(x), x) for j, x in enumerate(v) if x}
                    for v in want])


# ----------------------------------------------------------- reference chain
# The ideal chain of an earlier weights module: every level is materialized
# as its own algebra on the rref rows of its hyperplane, completed in that
# algebra's coordinates, and lifted back to the original ones through a
# product of inclusions.  The chain fixes which flag and characters the peel
# returns, and the golden digests do not pin it on their own.

def _in_span(rows, v):
    return coords_in_span(rows, [v])[0] is not None


def _ref_hyperplane(alg):
    derived = alg.derived_algebra()
    if len(derived) >= alg.dim:
        raise InputError("acting algebra is not solvable")
    rows = list(derived)
    for i in range(alg.dim):
        if len(rows) == alg.dim - 1:
            break
        cand = alg.basis_vector(i)
        if not _in_span(rows, cand):
            rows = span_basis(rows + [cand])
    return rows, next(v for v in alg.basis() if not _in_span(rows, v))


def _ref_ideal_chain(alg):
    dirs = []
    sub, lift = alg, Mat.identity(alg.dim)
    while sub.dim:
        hyp, z = _ref_hyperplane(sub)
        dirs.append(lift @ z)
        if not hyp:
            break
        sub, incl = sub.subalgebra(hyp)
        lift = Mat.from_cols([lift @ row for row in incl])
    return dirs, inverse(Mat.from_cols(dirs))


def _assert_chain_matches_the_reference(alg):
    dirs, inv_z, derived = weights._ideal_chain(alg, alg.derived_algebra())
    want_dirs, want_inv = _ref_ideal_chain(alg)
    assert _typed(list(dirs)) == _typed(list(want_dirs))
    assert _typed(inv_z.rows) == _typed(want_inv.rows)
    assert _typed(derived) == _typed(alg.derived_algebra())


def test_chain_matches_the_reference_on_pinned_and_corpus_algebras():
    algebras = [g for _, g, _ in weight_flag_inputs()]
    algebras += [e.algebra for e in corpus() if e.algebra.is_solvable()]
    assert len(algebras) > 20
    for g in algebras:
        _assert_chain_matches_the_reference(g)


@st.composite
def solvable_algebras(draw):
    """A solvable algebra in a random rational basis: generated by random
    block upper triangular matrices whose diagonal blocks are scalars or
    rotation-scaling blocks a + bJ, so that some weights are nonreal."""
    sizes = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=3))
    n = sum(sizes)
    assume(2 <= n <= 4)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    block = [i for i, size in enumerate(sizes) for _ in range(size)]
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        rows = [[draw(small) if block[j] > block[i] else 0 for j in range(n)]
                for i in range(n)]
        for start, size in zip(starts, sizes):
            a = draw(small)
            rows[start][start] = a
            if size == 2:
                b = draw(small)
                rows[start][start + 1], rows[start + 1][start] = -b, b
                rows[start + 1][start + 1] = a
        gens.append(Mat(rows))
    return _generated_in_random_basis(draw, gens)


@seed(20261101)
@settings(max_examples=60, deadline=None, database=None)
@given(solvable_algebras())
def test_chain_matches_the_reference_on_random_solvable_algebras(g):
    assert g.is_solvable()
    _assert_chain_matches_the_reference(g)


def test_weight_flag_materializes_no_subalgebra(monkeypatch):
    inner = LieAlgebra.subalgebra
    calls = []

    def counted(self, basis):
        calls.append(self)
        return inner(self, basis)

    monkeypatch.setattr(LieAlgebra, "subalgebra", counted)
    for _, g, mats in weight_flag_inputs():
        weight_flag(g, mats)
    assert calls == []


def _typed_rows(rows):
    return [[(type(c), c) for c in r] for r in rows]


def test_each_chain_level_is_picked_by_one_elimination(monkeypatch):
    # one _independent call per level picks g_{k+1}'s completing rows and
    # z_k together, and hands back g_{k+1} as the rref rows of [g_k, g_k]
    # and every pick but the last, which span_basis would give; nothing is
    # reduced a second time
    codims = []
    pick = weights._independent

    def picked(rows, candidates, before=None):
        codims.append(len(candidates) - len(rows))
        kept, below = pick(rows, candidates, before)
        assert before == codims[-1] - 1
        assert len(kept) == codims[-1]
        want = span_basis(list(rows) + [candidates[i] for i in kept[:-1]])
        assert _typed_rows(below) == _typed_rows(want)
        return kept, below

    monkeypatch.setattr(weights, "_independent", picked)
    assert not hasattr(weights, "span_basis")
    assert not hasattr(weights, "independent")
    algebras = [g for _, g, _ in weight_flag_inputs()]
    algebras += [e.algebra for e in corpus() if e.algebra.is_solvable()]
    levels = Counter()
    for g in algebras:
        codims.clear()
        dirs, _, _ = weights._ideal_chain(g, g.derived_algebra())
        assert len(codims) == len(dirs) == g.dim
        levels.update(min(c, 2) for c in codims)
    assert levels[1] > 20 and levels[2] > 20
    assert not hasattr(linalg, "in_span")


def test_the_oracle_spans_and_eliminates_little_on_the_corpus(monkeypatch):
    # over the 68 pinned corpus presentations (matrices for the linear kind
    # only) the greedy completions by span_basis and in_span took 577
    # span_basis and 908 _gauss_jordan calls; one elimination for each
    # completion takes 543 and 874
    calls = Counter()
    for name in ("span_basis", "_gauss_jordan"):
        inner = getattr(linalg, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("liedef") \
                    and getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, counted)
    kinds = {"definable-simply-connected": ("simply-connected", False),
             "definable-abstract": ("abstract", False),
             "definable-linear": ("linear", False),
             "definable-finite-center-levi": ("abstract", True)}
    presentations = 0
    for entry in corpus():
        for key, (kind, fcl) in kinds.items():
            if key in entry.known:
                mats = entry.matrices if kind == "linear" else ()
                definability.definability_oracle(
                    definability.GroupPresentation(
                        entry.algebra, kind, finite_center_levi=fcl,
                        matrices=mats))
                presentations += 1
    assert presentations == 68
    assert 0 < calls["span_basis"] <= 543
    assert 0 < calls["_gauss_jordan"] <= 874


# ------------------------------------------------------------ reference peel
# The peel of an earlier weights module: every chain level combines the
# dense basis actions, picks its eigenvalue from its own characteristic
# polynomial, restricts by dense products, shifts the dense diagonal and
# lifts by dense sums, and every peel quotients the dense basis actions and
# lifts through a dense identity.  An independent reference for the sparse
# peel that carries each direction's spectrum across peels.

REF_INDETERMINATE = "an eigenvalue of the action lies outside Q(i)"


def _ref_pick_root(b):
    if b.nrows == 1:
        return gauss(b.rows[0][0])
    roots = [lam for lam, _ in gaussian_roots(char_poly(b))[0]]
    return next((lam for lam in roots if lam.is_real()),
                roots[0] if roots else None)


def _ref_lincomb(coeffs, vectors, dim):
    out = [Fraction(0)] * dim
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def _ref_shift_diagonal(b, mu):
    """b - mu * 1, with the entry types that subtracting mu times a Fraction
    identity gives: an off-diagonal entry becomes a - 0 (an int a Fraction)
    unless it already has the type of that zero."""
    zero = mu * 0
    rows = []
    for i, row in enumerate(b.rows):
        out = [a if type(a) is type(zero) else a - zero for a in row]
        out[i] = row[i] - mu
        rows.append(out)
    return Mat(rows)


def _ref_peel_quotient(mats, w):
    """The quotient by the line of w in the coordinates e_j, j != p, with p
    the first nonzero entry of w: m[j][l] - (w_j / w_p) m[p][l]."""
    p = next(j for j, c in enumerate(w) if c)
    wp = w[p]
    scaled = [(j, c / wp) for j, c in enumerate(w) if c and j != p]
    out = []
    for m in mats:
        rows = [list(r) for r in m.rows]
        nz_p = [(l, y) for l, y in enumerate(rows[p]) if y and l != p]
        for j, c in scaled:
            row = rows[j]
            for l, y in nz_p:
                row[l] = row[l] - c * y
        del rows[p]
        out.append(Mat([r[:p] + r[p + 1:] for r in rows]))
    return out, p


def _ref_restrict(a, basis):
    cols = coords_in_span(basis, [a @ v for v in basis])
    assert None not in cols
    return Mat.from_cols(cols)


def _ref_common_eigenspace(chain, mats, scalar):
    dirs, inv_z = chain[:2]
    n = mats[0].nrows
    w = None
    lams = []
    for z in reversed(dirs):
        b = mat_lincomb(z, mats, n)
        if w is not None:
            b = _ref_restrict(b, w)
        lam = _ref_pick_root(b)
        if lam is None:
            return None
        if lam.is_real():
            mu = lam.re
        else:
            mu = lam
            scalar = gauss
            b = b.map(gauss)
            if w is not None:
                w = [tuple(gauss(x) for x in v) for v in w]
        eig = kernel(_ref_shift_diagonal(b, mu))
        assert eig
        if w is not None:
            w = [_ref_lincomb(k, w, n) for k in eig]
        elif scalar is gauss:
            w = [tuple(gauss(x) for x in k) for k in eig]
        else:
            w = eig
        lams.append(lam)
    lams.reverse()
    if all(lam.is_real() for lam in lams):
        lams = [lam.re for lam in lams]
    return tuple(gauss(sum((lam * r[j] for lam, r in zip(lams, inv_z.rows)
                            if r[j]), Fraction(0)))
                 for j in range(len(dirs))), w


def _ref_weight_flag(alg, mats):
    """(flag, characters), or the Indeterminate reason."""
    chain = _ref_ideal_chain(alg)
    cur = list(mats)
    scalar = Fraction
    flag, chars = [], []
    lift = Mat.identity(cur[0].nrows)
    while cur[0].nrows:
        res = _ref_common_eigenspace(chain, cur, scalar)
        if res is None:
            return REF_INDETERMINATE
        char, eig = res
        w = eig[0]
        if scalar is Fraction and isinstance(w[0], GaussRat):
            scalar = gauss
            cur = [m.map(gauss) for m in cur]
            lift = lift.map(gauss)
        flag.append(tuple(lift @ w))
        chars.append(char)
        cur, p = _ref_peel_quotient(cur, w)
        lift = Mat([r[:p] + r[p + 1:] for r in lift.rows])
    return flag, chars


def _typed(x):
    if isinstance(x, GaussRat):
        return ("GaussRat", x.re, x.im, type(x.re), type(x.im))
    if isinstance(x, (list, tuple)):
        return [_typed(c) for c in x]
    return (type(x), x)


def _assert_peel_matches_the_reference(alg, mats):
    got = weight_flag(alg, mats)
    want = _ref_weight_flag(alg, mats)
    if isinstance(want, str):
        assert isinstance(got, Indeterminate) and got.reason == want
    else:
        assert _typed(list(got)) == _typed(list(want))
    return got


def _adjoint(g):
    return [g.ad(g.basis_vector(i)) for i in range(g.dim)]


def _extended_module(t):
    nil = nilradical(t)
    sub, _ = t.subalgebra(nil)
    return list(extend_rep(t, nil, nilpotent_ado(sub)).images)


def _h3_plus_aff():
    return LieAlgebra.from_entries(5, {(0, 1): (0, 0, 1, 0, 0),
                                       (3, 4): (0, 0, 0, 0, 1)})


def _h3_semidirect(a):
    return LieAlgebra.from_entries(4, {(0, 1): (0, 0, 1, 0),
                                       (3, 0): (a, 0, 0, 0),
                                       (3, 1): (0, -a, 0, 0)})


def test_peel_matches_the_reference_on_pinned_modules():
    # +-sqrt(2) ends Indeterminate; the extended modules are the 10- to
    # 15-dimensional ones supersolvable_triangular_rep peels
    sqrt2 = LieAlgebra.from_entries(3, {(2, 0): (0, 1, 0),
                                        (2, 1): (2, 0, 0)})
    assert isinstance(
        _assert_peel_matches_the_reference(sqrt2, _adjoint(sqrt2)),
        Indeterminate)
    for g in (_h3_plus_aff(), _h3_semidirect(1), _h3_semidirect(2)):
        _assert_peel_matches_the_reference(g, _adjoint(g))
        mats = _extended_module(g)
        assert mats[0].nrows >= 10
        _assert_peel_matches_the_reference(g, mats)


def _unit_triangular(draw, n, entry):
    """A random invertible rational matrix: unit lower times unit upper."""
    lower = Mat([[1 if i == j else draw(entry) if i > j else 0
                  for j in range(n)] for i in range(n)])
    upper = Mat([[1 if i == j else draw(entry) if i < j else 0
                  for j in range(n)] for i in range(n)])
    return lower @ upper


def _generated_in_random_basis(draw, gens):
    """The algebra the matrices gens generate, of dimension at least 2, in
    a random rational basis."""
    assume(any(not m.is_zero() for m in gens))
    g0, _, _ = from_matrices(gens)
    k = g0.dim
    assume(k >= 2)
    t = _unit_triangular(draw, k, small)
    t_inv = inverse(t)
    cols = t.cols()
    return LieAlgebra(k, [[t_inv @ g0.bracket(cols[i], cols[j])
                           for j in range(k)] for i in range(k)])


@st.composite
def solvable_actions(draw):
    """(g, action): g generated by random upper triangular rational
    matrices, in a random rational basis, acting by its adjoint, or by its
    adjoint plus a 2x2 block a(x) + b(x) J (J the rotation by a right
    angle, a and b characters of g) in a random rational module basis, so
    that a nonreal weight lifts the peel to Q(i)."""
    n = draw(st.integers(2, 3))
    entry = st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    gens = [Mat([[draw(entry) if j >= i else 0 for j in range(n)]
                 for i in range(n)]) for _ in range(draw(st.integers(2, 3)))]
    g = _generated_in_random_basis(draw, gens)
    k = g.dim
    mats = _adjoint(g)
    if draw(st.booleans()):
        derived = g.derived_algebra()
        chars = kernel(Mat(derived)) if derived else \
            [g.basis_vector(i) for i in range(k)]
        re, im = ([sum((draw(small) * c[i] for c in chars), Fraction(0))
                   for i in range(k)] for _ in range(2))
        mats = [block_diag([m, Mat([[a, -b], [b, a]])])
                for m, a, b in zip(mats, re, im)]
        p = _unit_triangular(draw, k + 2, small)
        p_inv = inverse(p)
        mats = [p_inv @ m @ p for m in mats]
    return g, mats


@seed(20261021)
@settings(max_examples=60, deadline=None, database=None)
@given(solvable_actions())
def test_peel_matches_the_reference_on_random_actions(case):
    _assert_peel_matches_the_reference(*case)


@st.composite
def read_off_actions(draw):
    """(g, action) with levels the peel reads off their entries: g is
    generated by random upper triangular rational matrices, in the basis
    from_matrices gives it, plus up to two central directions.  g acts by
    those matrices (triangular levels) and by zero on the other blocks: a
    zero block, and maybe a block on which only the central directions act
    (else they act as zero), a + bJ on each 2x2 diagonal block (J the
    rotation by a right angle) and s times the identity on the 2x2 block
    above them when there are two, so that a peel lifted to Q(i) meets
    triangular Gaussian levels.  The blocks come in a random order, and the
    module coordinates may be reversed, so that upper triangular levels
    become lower triangular ones."""
    n = draw(st.integers(1, 3))
    entry = st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    gens = [Mat([[draw(entry) if j >= i else 0 for j in range(n)]
                 for i in range(n)]) for _ in range(draw(st.integers(1, 3)))]
    assume(any(not m.is_zero() for m in gens))
    g0, basis_mats, _ = from_matrices(gens)
    k = g0.dim
    c = draw(st.integers(0, 2))
    pad = (0,) * c
    g = LieAlgebra(k + c, [[tuple(g0.bracket(g0.basis_vector(i),
                                              g0.basis_vector(j))) + pad
                            if i < k and j < k else (0,) * (k + c)
                            for j in range(k + c)] for i in range(k + c)])
    blocks = [list(basis_mats) + [Mat.zeros(n, n)] * c]
    zeros = draw(st.integers(0, 2))
    if zeros:
        blocks.append([Mat.zeros(zeros, zeros)] * (k + c))
    if c and draw(st.booleans()):
        size = draw(st.sampled_from((2, 4)))
        rot = [[0, -1], [1, 0]]
        block = [Mat.zeros(size, size)] * k
        for _ in range(c):
            a, b, s = draw(small), draw(small), draw(small)
            block.append(Mat([[a * int(i == j)
                               + (b * rot[i % 2][j % 2] if i // 2 == j // 2
                                  else 0)
                               + (s if j == i + 2 else 0)
                               for j in range(size)] for i in range(size)]))
        blocks.append(block)
    blocks = draw(st.permutations(blocks))
    mats = [block_diag([b[x] for b in blocks]) for x in range(k + c)]
    if draw(st.booleans()):
        mats = [Mat([r[::-1] for r in m.rows[::-1]]) for m in mats]
    return g, mats


@seed(20261020)
@settings(max_examples=80, deadline=None, database=None)
@given(read_off_actions())
def test_peel_matches_the_reference_on_read_off_actions(case):
    g, mats = case
    _assert_peel_matches_the_reference(g, mats)
    # the first common eigenspace in full; a peel keeps one vector of it
    chain = weights._ideal_chain(g, g.derived_algebra())
    char, w, _ = weights.common_eigenspace(
        chain, weights._direction_actions(chain[0], mats),
        [None] * len(chain[0]))
    want_char, want_w = _ref_common_eigenspace(_ref_ideal_chain(g), mats,
                                               Fraction)
    assert _typed(list(char)) == _typed(list(want_char))
    n = mats[0].nrows
    assert [tuple(v.get(j, 0) for j in range(n)) for v in w] == want_w


def _sheared(mats):
    """The module in the basis of the columns of a fixed unimodular matrix
    (unit lower times unit upper, every entry off the diagonal 1), so that
    its levels are not triangular."""
    n = mats[0].nrows
    p = (Mat([[int(i >= j) for j in range(n)] for i in range(n)])
         @ Mat([[int(i <= j) for j in range(n)] for i in range(n)]))
    p_inv = inverse(p)
    return [p_inv @ m @ p for m in mats]


def test_each_direction_is_factored_at_most_once(monkeypatch):
    # h3 + aff(1) has 5 chain directions.  Peeling its adjoint meets 9
    # levels of two or more vectors that are not zero, and peeling its
    # extended module 45; in the standard basis each is triangular, so
    # neither module factors a characteristic polynomial.  Sheared, a peel
    # that factored each such level would factor 9 and 45
    g = _h3_plus_aff()
    modules = (_adjoint(g), _extended_module(g))
    calls = Counter()
    for name in ("char_poly", "gaussian_roots"):
        def counted(*args, _inner=getattr(weights, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(weights, name, counted)
    for mats in modules:
        calls.clear()
        weight_flag(g, mats)
        assert calls["char_poly"] == calls["gaussian_roots"] == 0
        calls.clear()
        weight_flag(g, _sheared(mats))
        assert 0 < calls["char_poly"] <= 5
        assert 0 < calls["gaussian_roots"] <= 5


def test_the_extension_route_walks_one_chain(monkeypatch):
    # h3 + aff(1) has its center inside [g, g], so its extended module is
    # peeled, on the chain of the adjoint peel that decided supersolvability
    inner = weights._ideal_chain
    seen = []

    def counted(alg, derived):
        seen.append(alg)
        return inner(alg, derived)

    for namespace in (weights, definability):
        monkeypatch.setattr(namespace, "_ideal_chain", counted)
    g = _h3_plus_aff()
    rep = supersolvable_triangular_rep(g)
    assert rep.target_dim >= 10
    assert sum(alg is g for alg in seen) == 1


def _rotation_first_module():
    """A module of the plane whose first peel picks a nonreal weight: e_0,
    walked first, is 0 on a plane that e_1 rotates, and 5 and 6 are not
    eigenvalues of e_1 there, so e_1 tries them and picks -i, and a real
    peel follows."""
    plane = LieAlgebra.from_entries(2, {})
    return plane, [Mat.diag([0, 0, 1, 1]),
                   Mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 5, 0],
                        [0, 0, 0, 6]])]


def test_carried_spectra_are_those_of_the_current_module(monkeypatch):
    # a spectrum found at an earlier peel, less the eigenvalues peeled since,
    # is the spectrum of its direction on the module left to peel
    inner = weights.common_eigenspace
    checked = []

    def checking(chain, acts, spectra):
        for act, spectrum in zip(acts, spectra):
            if spectrum is not None:
                assert spectrum == weights._spectrum(act)
                checked.append(sum(mult for _, mult in spectrum))
        return inner(chain, acts, spectra)

    monkeypatch.setattr(weights, "common_eigenspace", checking)
    rotation = LieAlgebra.from_entries(1, {})
    e2 = LieAlgebra.from_entries(3, {(0, 2): (0, -1, 0), (1, 2): (1, 0, 0)})
    # module_weights quotients by the rational span of a nonreal
    # eigenspace, and its spectra lose a conjugate pair for each vector
    for peel in (weight_flag, module_weights):
        peel(rotation, [Mat([[-1, 0, 0], [0, 0, -1], [0, 1, 0]])])
        peel(e2, _adjoint(e2))
        peel(*_rotation_first_module())
    for g in (_h3_plus_aff(), _h3_semidirect(2)):
        for mats in (_adjoint(g), _extended_module(g)):
            weight_flag(g, mats)
            weight_flag(g, _sheared(mats))
    assert len(checked) > 20 and max(checked) > 5


def test_zero_and_triangular_levels_are_read_off_their_entries(monkeypatch):
    # a direction that acts as zero, or whose level is zero, costs no
    # characteristic polynomial, restriction or elimination of its own; a
    # triangular level, over Q or Q(i), costs one elimination
    calls = Counter()
    for name in ("char_poly", "_restrict", "_gauss_jordan"):
        def counted(*args, _inner=getattr(weights, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(weights, name, counted)

    def first_peel(g, mats):
        chain = weights._ideal_chain(g, g.derived_algebra())
        acts = weights._direction_actions(chain[0], mats)
        calls.clear()
        _, w, lams = weights.common_eigenspace(chain, acts,
                                               [None] * len(chain[0]))
        return w, lams, dict(calls)

    line = LieAlgebra.from_entries(1, {})
    plane = LieAlgebra.from_entries(2, {})
    zero = Mat.zeros(3, 3)
    upper = Mat([[2, 1, 0], [0, -1, 3], [0, 0, 2]])
    lower = Mat([list(c) for c in upper.cols()])
    gaussian = Mat([[GaussRat(1, 1), 1], [0, GaussRat(1, -1)]])
    one = Fraction(1)
    assert first_peel(line, [zero]) == (
        [{0: one}, {1: one}, {2: one}], [gauss(0)], {})
    assert first_peel(line, [upper])[1:] == ([gauss(-1)],
                                             {"_gauss_jordan": 1})
    assert first_peel(line, [lower])[1:] == ([gauss(-1)],
                                             {"_gauss_jordan": 1})
    assert first_peel(line, [gaussian])[1:] == ([GaussRat(1, -1)],
                                                {"_gauss_jordan": 1})
    # the chain of the plane walks e_1 = z_0 after e_0 = z_1
    assert first_peel(plane, [upper, zero])[1:] == ([gauss(0), gauss(-1)],
                                                    {"_gauss_jordan": 1})
    assert first_peel(plane, [zero, upper])[1:] == ([gauss(-1), gauss(0)],
                                                    {"_gauss_jordan": 1})
    # the second direction is zero on the eigenspace for 0 of the first:
    # one elimination for that eigenspace, and a restriction that reads its
    # coordinates with none
    d = Mat.diag([0, 0, 1])
    assert first_peel(plane, [d, d]) == (
        [{0: one}, {1: one}], [gauss(0), gauss(0)],
        {"_gauss_jordan": 1, "_restrict": 1})


def test_the_oracle_factors_few_spectra_on_the_corpus(monkeypatch):
    # over the 68 pinned corpus presentations (matrices for the linear
    # kind only), factoring every level of two or more vectors that is not
    # a line took 139 spectra; zero and triangular levels need none, and
    # neither do levels of two vectors, which are all the others here
    kinds = {"definable-simply-connected": ("simply-connected", False),
             "definable-abstract": ("abstract", False),
             "definable-linear": ("linear", False),
             "definable-finite-center-levi": ("abstract", True)}
    spectra = []
    inner = weights._spectrum

    def counted(b):
        spectra.append(len(b))
        return inner(b)

    monkeypatch.setattr(weights, "_spectrum", counted)
    presentations = 0
    for entry in corpus():
        for key, (kind, fcl) in kinds.items():
            if key in entry.known:
                mats = entry.matrices if kind == "linear" else ()
                definability.definability_oracle(
                    definability.GroupPresentation(
                        entry.algebra, kind, finite_center_levi=fcl,
                        matrices=mats))
                presentations += 1
    assert presentations == 68
    assert spectra == []


def _two_vector_levels(rng, count):
    """count seeded 2x2 levels, neither zero nor triangular, with entries
    p/q, |p|, q <= 9, and the kind of D = tr^2 - 4 det of each: a, b and d
    are drawn, then a kind, then c among the entries giving that kind."""
    entries = sorted({Fraction(p, q) for p in range(-9, 10)
                      for q in range(1, 10)})
    nonzero = [x for x in entries if x]

    def kind(disc):
        if not disc:
            return "zero"
        root = weights._rational_sqrt(abs(disc))
        if root is None:
            return "no square"
        return "square" if disc > 0 else "minus square"

    kinds = ("zero", "square", "minus square", "no square")
    levels = []
    while len(levels) < count:
        a, d, b = rng.choice(entries), rng.choice(entries), \
            rng.choice(nonzero)
        want = kinds[len(levels) % 4]
        cs = [c for c in nonzero if kind((a - d) ** 2 + 4 * b * c) == want]
        if cs:
            c = rng.choice(cs)
            levels.append(([{j: x for j, x in enumerate(r) if x}
                            for r in ((a, b), (c, d))], want))
    return levels


def test_two_vector_levels_pick_what_factoring_picks():
    # the closed form's candidates are the level's own factored spectrum,
    # in the rule's order and a double root once, so they give the same
    # pick: the eigenvalue, its eigenspace and free columns, or None (no
    # eigenvalue in Q(i), which common_eigenspace makes an Indeterminate)
    seen = Counter()
    for level, kind in _two_vector_levels(random.Random(37037), 400):
        seen[kind] += 1
        b = dict(enumerate(level))
        factored = [lam for lam, _ in weights._spectrum(b)]
        closed = weights._two_vector_roots(level)
        assert _typed(closed) == _typed(factored), level
        want = weights._level_eigenspace(level, factored)
        got = weights._level_eigenspace(level, closed)
        assert _typed(got) == _typed(want), level
        assert (got is None) == (kind == "no square")
    assert len(seen) == 4 and min(seen.values()) == 100


def test_two_vector_levels_with_gaussian_entries_are_factored(monkeypatch):
    # a rational level of two vectors is read in closed form; one with
    # Q(i) entries keeps the factoring route
    calls = Counter()
    for name in ("_two_vector_roots", "_spectrum"):
        def counted(arg, _inner=getattr(weights, name), _name=name):
            calls[_name] += 1
            return _inner(arg)
        monkeypatch.setattr(weights, name, counted)
    line = LieAlgebra.from_entries(1, {})
    _, chars = weight_flag(line, [Mat([[1, -1], [1, 1]])])
    assert chars == [(GaussRat(1, -1),), (GaussRat(1, 1),)]
    assert calls == {"_two_vector_roots": 1}
    calls.clear()
    i = GaussRat(0, 1)
    _, chars = weight_flag(line, [Mat([[i, 1], [1, i]])])
    assert chars == [(GaussRat(-1, 1),), (GaussRat(1, 1),)]
    assert calls == {"_spectrum": 1}


def _inline_direction_actions(dirs, mats):
    """The earlier _direction_actions: every row of B_k summed in place by
    an inline loop over the basis actions."""
    basis = [[{j: _field(x) for j, x in enumerate(r) if x} for r in m.rows]
             for m in mats]
    acts = []
    for z in dirs:
        act = {i: {} for i in range(mats[0].nrows)}
        for c, m in zip(z, basis):
            if c:
                for row, m_row in zip(act.values(), m):
                    for j, x in m_row.items():
                        y = row.get(j)
                        row[j] = c * x if y is None else y + c * x
        acts.append({i: {j: x for j, x in row.items() if x}
                     for i, row in act.items()})
    return acts


def test_direction_actions_match_the_inline_loop():
    # seeded int, Fraction and GaussRat actions and directions; a repeated
    # action taken with opposite coefficients makes some sums cancel
    rng = random.Random(20261021)
    pool = (0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-3, 4),
            GaussRat(1, 1), GaussRat(0, 2), GaussRat(-1))
    cancelled = 0
    for _ in range(150):
        n, k = rng.randint(1, 4), rng.randint(2, 4)
        mats = [Mat([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
                for _ in range(k)]
        mats[1] = mats[0]
        dirs = [[rng.choice(pool) for _ in range(k)]
                for _ in range(rng.randint(1, 3))]
        for z in dirs:
            if rng.random() < 0.5:
                z[1] = -z[0]
        got = weights._direction_actions(dirs, mats)
        want = _inline_direction_actions(dirs, mats)
        assert [[(i, [(j, _typed(x)) for j, x in row.items()])
                 for i, row in act.items()] for act in got] \
            == [[(i, [(j, _typed(x)) for j, x in row.items()])
                 for i, row in act.items()] for act in want]
        cancelled += sum(1 for z, act in zip(dirs, got)
                         for i in range(n) for j in range(n)
                         if j not in act[i] and any(
                             c and m.rows[i][j] for c, m in zip(z, mats)))
    assert cancelled > 20


def _seeded_rotation_algebra(rng):
    """The algebra two or three seeded block upper triangular matrices
    generate, diagonal blocks scalars or rotation-scaling blocks a + bJ as
    in solvable_algebras, in a seeded unit triangular basis."""
    sizes = [rng.choice((1, 2)) for _ in range(rng.randint(1, 3))]
    n = sum(sizes)
    block = [i for i, size in enumerate(sizes) for _ in range(size)]
    gens = []
    for _ in range(rng.randint(2, 3)):
        rows = [[rng.randint(-2, 2) if block[j] > block[i] else 0
                 for j in range(n)] for i in range(n)]
        start = 0
        for size in sizes:
            rows[start][start] = rng.randint(-2, 2)
            if size == 2:
                b = rng.randint(-2, 2)
                rows[start][start + 1], rows[start + 1][start] = -b, b
                rows[start + 1][start + 1] = rows[start][start]
            start += size
        gens.append(Mat(rows))
    g0 = from_matrices(gens)[0]
    k = g0.dim
    t = Mat([[Fraction(int(i == j)) if j <= i else
              Fraction(rng.randint(-2, 2)) for j in range(k)]
             for i in range(k)])
    t_inv, cols = inverse(t), t.cols()
    return LieAlgebra(k, [[t_inv @ g0.bracket(cols[i], cols[j])
                           for j in range(k)] for i in range(k)])


def test_the_weights_only_peel_tabulates_the_full_flag(
        monkeypatch, e2, oscillator):
    # past a nonreal weight, module_weights and the adjoint peel record the
    # weight and its conjugate and quotient by a rational subspace; their
    # tables must equal the one tabulated from weight_flag's full Q(i)
    # characters, and the adjoint peel never quotients a GaussRat
    gaussian = []
    inner = weights._peel_quotient

    def checked(acts, w):
        gaussian.append(any(isinstance(x, GaussRat) for x in w.values())
                        or any(isinstance(x, GaussRat) for act in acts
                               for row in act.values() for x in row.values()))
        return inner(acts, w)

    monkeypatch.setattr(weights, "_peel_quotient", checked)
    rng = random.Random(20261022)
    algebras = [e2, oscillator, corpus_entry("bianchi-VII0").algebra,
                corpus_entry("bianchi-VIIa").algebra]
    while len(algebras) < 40:
        g = _seeded_rotation_algebra(rng)
        if 2 <= g.dim <= 8:
            algebras.append(g)
    modules = [(g, _adjoint(g)) for g in algebras]
    modules.append((LieAlgebra.from_entries(1, {}),
                    [Mat([[-1, 0, 0], [0, 0, -1], [0, 1, 0]])]))
    modules.append(_rotation_first_module())
    nonreal = 0
    for g, mats in modules:
        full = weight_flag(g, mats)
        if isinstance(full, Indeterminate):
            want = full
        else:
            want = weights._weight_table(g, full[1], len(mats[0].rows),
                                         g.derived_algebra())
            nonreal += not want.all_real()
        gaussian.clear()
        got = module_weights(g, mats)
        assert got == want and repr(got) == repr(want)
        assert not any(gaussian)
        if len(mats) == g.dim and mats == _adjoint(g):
            gaussian.clear()
            ss, table, _ = definability._adjoint_peel(g, g.derived_algebra())
            if table is None:
                assert ss.status == "yes" and want.all_real()
            else:
                assert table == want and repr(table) == repr(want)
            assert not any(gaussian)
    assert nonreal > 20
