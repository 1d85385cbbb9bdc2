from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liedef import weights
from liedef.corpus import corpus_entry
from liedef.errors import Indeterminate, InputError, InternalCheckError
from liedef.lie import LieAlgebra
from liedef.linalg import Mat, block_diag, det, inverse, span_basis
from liedef.reps import supersolvable_triangular_rep
from liedef.scalars import GaussRat
from liedef.weights import adjoint_weights, module_weights, weight_flag


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


def test_module_weights_rejects_nonsolvable(sl2):
    # gl2 and sl2 x| R^2 are not perfect: the ideal chain takes a level or
    # more before it reaches the perfect term and stops there
    algebras = [sl2] + [corpus_entry(name).algebra
                        for name in ("gl2", "sl2-semidirect-r2")]
    for alg in algebras:
        mats = [alg.ad(alg.basis_vector(i)) for i in range(alg.dim)]
        with pytest.raises(InputError, match="acting algebra is not solvable"):
            module_weights(alg, mats)


def test_module_weights_rejects_matrices_that_are_not_an_action(axb):
    # [a, x] = x, but this a swaps the eigenlines of x, so the first joint
    # eigenspace of the ideal span{x} is not invariant under a
    a = Mat([[0, 1], [1, 0]])
    x = Mat([[0, 0], [0, 1]])
    with pytest.raises(InternalCheckError) as exc:
        module_weights(axb, [a, x])
    assert "not invariant" in str(exc.value)


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


def _record_restrictions(monkeypatch):
    """Wrap the peel's restriction routine; the returned list gets, per
    call, whether its matrix or basis held a GaussRat."""
    seen = []
    inner = weights.restrict_to_span

    def wrapped(a, basis):
        entries = list(a.flatten()) + [x for v in basis for x in v]
        seen.append(any(isinstance(x, GaussRat) for x in entries))
        return inner(a, basis)

    monkeypatch.setattr(weights, "restrict_to_span", wrapped)
    return seen


def test_real_modules_are_peeled_over_q(monkeypatch):
    # h3 + aff(1): weight_flag on the adjoint and on the extended module, and
    # module_weights on the nilradical's module, all with real weights
    seen = _record_restrictions(monkeypatch)
    g = LieAlgebra.from_entries(5, {(0, 1): (0, 0, 1, 0, 0),
                                    (3, 4): (0, 0, 0, 0, 1)})
    flag, _ = weight_flag(g, [g.ad(g.basis_vector(i)) for i in range(5)])
    assert len(flag) == 5
    supersolvable_triangular_rep(g)
    assert seen and not any(seen)


def test_peel_lifts_to_q_i_at_the_first_nonreal_eigenvalue(monkeypatch):
    # -1 sorts before -i and i, so the first peel is real; the second picks
    # -i on the rational rotation block and lifts, the third runs over Q(i)
    seen = _record_restrictions(monkeypatch)
    g = LieAlgebra.from_entries(1, {})
    table = module_weights(g, [Mat([[-1, 0, 0], [0, 0, -1], [0, 1, 0]])])
    assert seen == [False, False, True]
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
