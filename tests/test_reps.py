import random
from fractions import Fraction

import pytest

from liedef.errors import (InputError, NotNilpotentError,
                           NotSupersolvableError, PreconditionError,
                           UnsupportedError)
from liedef.lie import LieAlgebra
from liedef.linalg import Mat, intersect_spans, inverse, span_basis
from liedef.reps import (ALL_FLAGS, FAITHFUL, HOMOMORPHISM, TRIANGULAR,
                         UNIPOTENT, GroupRepData, Representation, direct_sum,
                         extend_rep, is_unipotent, nilpotent_ado, quotient_rep,
                         rep_kernel, supersolvable_triangular_rep, verify_rep)


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


def test_triangular_rep_unipotent_exactly_on_nilradical(axb):
    from liedef.structure import nilradical
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
    # oracle: column p*d + q holds ([E_pq, R_a])_a, flattened row-major
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
        assert _commutator_system(images, d) == Mat.from_cols(cols)


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
    total = direct_sum(ado, adjoint)
    assert total.target_dim == 13
    assert rep_kernel(adjoint) != []
    assert rep_kernel(total) == intersect_spans(
        rep_kernel(ado), rep_kernel(adjoint), 3) == []
    assert HOMOMORPHISM in verify_rep(total)


def test_direct_sum_shapes(r2):
    a = Representation(r2, 1, (Mat.zeros(1, 1), Mat.zeros(1, 1)))
    b = Representation(r2, 2, (Mat.zeros(2, 2), Mat.zeros(2, 2)))
    assert direct_sum(a, b).target_dim == 3


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
