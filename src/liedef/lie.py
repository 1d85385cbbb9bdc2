"""Finite-dimensional Lie algebras over Q given by structure constants.

A LieAlgebra is a bracket table on a fixed basis.  Antisymmetry is enforced
at construction; the Jacobi identity is a runtime validation that reports the
first offending basis triple, so malformed input fails loudly instead of
corrupting everything downstream.  Solvability is always computed twice, once
from the derived series and once from the trace-form criterion, and the two
must agree.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InputError, InternalCheckError
from .linalg import (Mat, coords_in_span, in_span, inverse, is_zero_vec,
                     kernel, rank, span_basis, trace_product, vadd)


def _unit(n: int, i: int):
    return tuple(Fraction(int(j == i)) for j in range(n))


class LieAlgebra:
    """Structure-constant presentation of a Lie algebra on basis e_0..e_{n-1}."""

    __slots__ = ("dim", "table", "names")

    def __init__(self, dim: int, table, names=None):
        self.dim = dim
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.names = tuple(names) if names else tuple(f"e{i}" for i in range(dim))
        if len(self.names) != dim:
            raise InputError("basis name count does not match the dimension")
        if len(self.table) != dim or any(len(r) != dim for r in self.table):
            raise InputError("bracket table shape does not match the dimension")
        for i in range(dim):
            for j in range(dim):
                if len(self.table[i][j]) != dim:
                    raise InputError("bracket value has the wrong length")
                if self.table[i][j] != tuple(-c for c in self.table[j][i]):
                    raise InputError(
                        f"bracket table is not antisymmetric at ({i}, {j})")

    @staticmethod
    def from_entries(dim: int, entries, names=None) -> "LieAlgebra":
        """Build from a sparse map (i, j) -> bracket vector, filling antisymmetry."""
        zero = tuple(Fraction(0) for _ in range(dim))
        table = [[zero] * dim for _ in range(dim)]
        seen = set()
        for (i, j), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"bracket index ({i}, {j}) out of range")
            v = tuple(Fraction(c) for c in v)
            if len(v) != dim:
                raise InputError(f"bracket value at ({i}, {j}) has wrong length")
            if i == j:
                if not is_zero_vec(v):
                    raise InputError(f"[e{i}, e{i}] must vanish")
                continue
            neg = tuple(-c for c in v)
            if (i, j) in seen:
                if table[i][j] != v:
                    raise InputError(f"conflicting entries for ({i}, {j})")
            if (j, i) in seen and table[j][i] != neg:
                raise InputError(
                    f"entries at ({i}, {j}) and ({j}, {i}) are not antisymmetric")
            table[i][j] = v
            table[j][i] = neg
            seen.add((i, j))
        return LieAlgebra(dim, table, names)

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.table == other.table)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    def basis_vector(self, i: int):
        return _unit(self.dim, i)

    def basis(self):
        return [_unit(self.dim, i) for i in range(self.dim)]

    def bracket(self, x, y):
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                t = self.table[i][j]
                c = xi * yj
                for k, tk in enumerate(t):
                    if tk:
                        out[k] = out[k] + c * tk
        return tuple(out)

    def ad(self, x) -> Mat:
        """Matrix of y -> [x, y] on the defining basis."""
        cols = [self.bracket(x, _unit(self.dim, j)) for j in range(self.dim)]
        return Mat.from_cols(cols)

    def validate(self):
        """All Jacobi failures as (i, j, k, residual); empty means valid."""
        bad = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    ei, ej, ek = (self.basis_vector(t) for t in (i, j, k))
                    res = vadd(vadd(self.bracket(self.bracket(ei, ej), ek),
                                    self.bracket(self.bracket(ej, ek), ei)),
                               self.bracket(self.bracket(ek, ei), ej))
                    if not is_zero_vec(res):
                        bad.append((i, j, k, res))
        return bad

    def require_valid(self):
        bad = self.validate()
        if bad:
            i, j, k, _ = bad[0]
            raise InputError(
                f"Jacobi identity fails on basis triple ({i}, {j}, {k})")

    # -- derived structure -----------------------------------------------------

    def bracket_span(self, a_basis, b_basis):
        vecs = [self.bracket(a, b) for a in a_basis for b in b_basis]
        return span_basis(vecs)

    def derived_series(self):
        series = [span_basis(self.basis())]
        while series[-1]:
            nxt = self.bracket_span(series[-1], series[-1])
            if len(nxt) == len(series[-1]):
                break
            series.append(nxt)
        return series

    def lower_central_series(self):
        series = [span_basis(self.basis())]
        while series[-1]:
            nxt = self.bracket_span(series[0], series[-1])
            if len(nxt) == len(series[-1]):
                break
            series.append(nxt)
        return series

    def center(self):
        return self.centralizer(self.basis())

    def centralizer(self, vectors):
        """Basis of {x : [x, v] = 0 for all listed v}."""
        rows = []
        for v in vectors:
            cols = [self.bracket(_unit(self.dim, i), v) for i in range(self.dim)]
            m = Mat.from_cols(cols)
            rows.extend(m.rows)
        if not rows:
            return span_basis(self.basis())
        return kernel(Mat(rows))

    def killing(self, x, y):
        return trace_product(self.ad(x), self.ad(y))

    def killing_matrix(self) -> Mat:
        n = self.dim
        ads = [self.ad(_unit(n, i)) for i in range(n)]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = trace_product(ads[i], ads[j])
        return Mat(rows)

    def is_abelian(self) -> bool:
        return all(is_zero_vec(self.table[i][j])
                   for i in range(self.dim) for j in range(self.dim))

    def is_solvable(self) -> bool:
        series = self.derived_series()
        by_series = not series[-1]
        # [g, g] is series[1], or series[0] when g is perfect (or zero)
        derived = series[1] if len(series) > 1 else series[0]
        killing = self.killing_matrix()
        by_trace_form = all(
            is_zero_vec(killing @ d) for d in derived)
        if by_series != by_trace_form:
            raise InternalCheckError(
                "solvability by derived series and by trace form disagree")
        return by_series

    def is_nilpotent(self) -> bool:
        return not self.lower_central_series()[-1]

    def is_semisimple(self) -> bool:
        return rank(self.killing_matrix()) == self.dim

    def nilpotency_class(self) -> int:
        if not self.is_nilpotent():
            raise InputError("nilpotency class of a non-nilpotent algebra")
        return len(self.lower_central_series()) - 1

    def is_ideal(self, basis) -> bool:
        rows = span_basis(basis)
        return all(in_span(rows, self.bracket(_unit(self.dim, i), b))
                   for i in range(self.dim) for b in rows)

    def is_subalgebra(self, basis) -> bool:
        rows = span_basis(basis)
        return all(in_span(rows, self.bracket(a, b))
                   for a in rows for b in rows)

    def subalgebra(self, basis):
        """Materialize a closed subspace as its own algebra.

        Returns (algebra, inclusion) where inclusion lists the chosen basis
        vectors of the parent; coordinates are taken in that list.  A basis
        of the whole space has the standard rref rows, so its brackets are
        already coordinates in them.
        """
        rows = span_basis(basis)
        if len(rows) == self.dim:
            return LieAlgebra(self.dim, [[self.bracket(a, b) for b in rows]
                                         for a in rows]), rows
        if not self.is_subalgebra(rows):
            raise InputError("subspace is not closed under the bracket")
        k = len(rows)
        coords = coords_in_span(rows, [self.bracket(a, b)
                                       for a in rows for b in rows])
        if None in coords:
            raise InternalCheckError("closed subspace failed to close")
        table = [coords[i * k:(i + 1) * k] for i in range(k)]
        return LieAlgebra(k, table), rows

    def quotient(self, ideal_basis):
        """Quotient by an ideal.

        Returns (algebra, lift, proj) where lift lists coset representatives
        and proj is the matrix sending a parent vector to quotient coordinates.
        """
        ideal = span_basis(ideal_basis)
        if not self.is_ideal(ideal):
            raise InputError("subspace is not an ideal")
        pivots = {next(j for j, c in enumerate(r) if c) for r in ideal}
        lift = [_unit(self.dim, i) for i in range(self.dim) if i not in pivots]
        full = ideal + lift
        q = len(lift)
        to_coords = inverse(Mat.from_cols(full))
        proj = Mat(to_coords.rows[len(ideal):])
        table = [[None] * q for _ in range(q)]
        for i in range(q):
            for j in range(q):
                table[i][j] = proj @ self.bracket(lift[i], lift[j])
        return LieAlgebra(q, table), lift, proj


def from_matrices(mats):
    """Lie algebra generated by matrices under the commutator.

    Returns (algebra, basis_mats, grew) where basis_mats realizes the basis
    inside the ambient matrix space and grew says whether closure enlarged
    the span of the generators.
    """
    mats = [m if isinstance(m, Mat) else Mat(m) for m in mats]
    if not mats:
        raise InputError("no generating matrices")
    n = mats[0].nrows
    if any(not m.is_square() or m.nrows != n for m in mats):
        raise InputError("generators must be square matrices of one size")

    flat = [m.flatten() for m in mats]
    rows = span_basis(flat)
    start = len(rows)
    while True:
        cur = [Mat([r[i * n:(i + 1) * n] for i in range(n)]) for r in rows]
        new = []
        for a in cur:
            for b in cur:
                new.append((a @ b - b @ a).flatten())
        grown = span_basis(rows + new)
        if len(grown) == len(rows):
            break
        rows = grown
    basis_mats = [Mat([r[i * n:(i + 1) * n] for i in range(n)]) for r in rows]
    k = len(rows)
    coords = coords_in_span(rows, [(a @ b - b @ a).flatten()
                                   for a in basis_mats for b in basis_mats])
    if None in coords:
        raise InternalCheckError("commutator left the closed span")
    table = [coords[i * k:(i + 1) * k] for i in range(k)]
    return LieAlgebra(k, table), basis_mats, len(rows) > start
