"""Finite-dimensional Lie algebras over Q given by structure constants.

A LieAlgebra is a bracket table on a fixed basis.  Antisymmetry is enforced
at construction; the Jacobi identity is a runtime validation that reports the
first offending basis triple, so malformed input fails loudly instead of
corrupting everything downstream.  Solvability is always computed twice, once
from the derived series and once from the trace-form criterion, and the two
must agree, in _trace_form, which also hands the radical its [g, g] and
Killing rows.  Those rows are K d for the rref rows d of [g, g] only, each
read as (tr(ad e_i ad d))_i off the nonzero entries of ad d and of each
ad e_i, so the trace form never builds the n x n Killing matrix.

Besides the public table, an algebra keeps one private index, _terms:
_terms[i][j] lists the pairs (k, c_ij^k) with c_ij^k nonzero, in increasing
k.  It is built in the constructor from the table alone.  bracket, ad and
the centralizer walk it, and so does everything asked of the basis itself:
the Jacobi check sums each residual off the structure constants, [g, g] (the
first step of the derived and lower central series) is the span of the
nonzero entries [e_i, e_j], and the Killing form K_ij = tr(ad e_i ad e_j) is
the sum of c * d over the nonzero ad(e_i)[k][l] = c with ad(e_j)[l][k] = d
nonzero.  No unit vector is bracketed and no dense ad matrix is built.  The
later steps of the derived series bracket their rows off _terms straight
into sparse rows for the elimination, with no dense bracket in between.
Nothing else is remembered between calls: every series, radical and Killing
form is recomputed each time it is asked for.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import InputError, InternalCheckError
from .linalg import (Mat, _span_rows, coords_in_span, inverse, is_zero_vec,
                     kernel, rank, span_basis, trace_product)
from .scalars import _field

# shared entries of unit vectors and of zero accumulators (Fractions are
# immutable, so sharing one object is safe)
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _unit(n: int, i: int):
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def _nonzero(v):
    return tuple((k, c) for k, c in enumerate(v) if c)


class LieAlgebra:
    """Structure-constant presentation of a Lie algebra on basis e_0..e_{n-1}."""

    __slots__ = ("dim", "table", "names", "_terms")

    def __init__(self, dim: int, table, names=None):
        self.dim = dim
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.names = tuple(names) if names else tuple(f"e{i}" for i in range(dim))
        if len(self.names) != dim:
            raise InputError("basis name count does not match the dimension")
        if len(self.table) != dim or any(len(r) != dim for r in self.table):
            raise InputError("bracket table shape does not match the dimension")
        self._terms = self._index_terms()

    def _index_terms(self):
        """Nonzero structure constants of each (i, j), checked antisymmetric.

        Each pair i <= j is checked once.  A value of the wrong length at
        (j, i) fails the comparison at (i, j), so the first error named is
        the one a scan of every (i, j) in order would meet first.
        """
        dim, table = self.dim, self.table
        terms = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                v, w = table[i][j], table[j][i]
                if len(v) != dim:
                    raise InputError("bracket value has the wrong length")
                up, down = _nonzero(v), _nonzero(w)
                if len(w) != dim or up != tuple((k, -c) for k, c in down):
                    raise InputError(
                        f"bracket table is not antisymmetric at ({i}, {j})")
                terms[i][j], terms[j][i] = up, down
        return tuple(tuple(row) for row in terms)

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
        """[x, y]: each k gets x_i y_j c_ij^k added in increasing (i, j)."""
        out = [_ZERO] * self.dim
        ys = _nonzero(y)
        for xi, row in zip(x, self._terms):
            if not xi:
                continue
            for j, yj in ys:
                terms = row[j]
                if terms:
                    c = xi * yj
                    for k, tk in terms:
                        out[k] = out[k] + c * tk
        return tuple(out)

    def ad(self, x) -> Mat:
        """Matrix of y -> [x, y] on the defining basis: entry (k, j) is the
        sum of x_i c_ij^k in increasing i."""
        rows = [[_ZERO] * self.dim for _ in range(self.dim)]
        for xi, row in zip(x, self._terms):
            if not xi:
                continue
            for j, terms in enumerate(row):
                for k, tk in terms:
                    rows[k][j] = rows[k][j] + xi * tk
        return Mat(rows)

    def validate(self):
        """All Jacobi failures as (i, j, k, residual); empty means valid.

        The residual [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        is summed off _terms: each c_ij^m contributes c_ij^m times the
        table entry [e_m, e_k], and so on round the triple.
        """
        terms, bad = self._terms, []
        for i, j, k in combinations(range(self.dim), 3):
            res = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in terms[a][b]:
                    for p, y in terms[m][c]:
                        res[p] = res.get(p, _ZERO) + x * y
            if any(res.values()):
                bad.append((i, j, k, tuple(res.get(p, _ZERO)
                                           for p in range(self.dim))))
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

    def _pair_span(self, vectors):
        """span of [a, b] over unordered pairs a, b of the vectors; by
        antisymmetry that is the span over all ordered pairs.

        Each bracket goes to _span_rows as the {k: entry} dict of its
        nonzero entries, summed off _terms as bracket sums it, so no dense
        bracket is built.  The vectors are rref rows over Q (Fraction
        entries), so every entry is a Fraction, as in bracket.
        """
        terms = self._terms
        rows = []
        for a, b in combinations([_nonzero(v) for v in vectors], 2):
            out = {}
            for i, x in a:
                row = terms[i]
                for j, y in b:
                    if row[j]:
                        c = x * y
                        for k, tk in row[j]:
                            z = out.get(k)
                            out[k] = c * tk if z is None else z + c * tk
            rows.append({k: z for k, z in out.items() if z})
        return _span_rows(rows, self.dim)

    def derived_algebra(self):
        """[g, g] as rref rows: the span of the nonzero table entries
        [e_i, e_j], i < j, read off _terms (an int constant as a
        Fraction)."""
        return _span_rows([{k: _field(c) for k, c in terms}
                           for i, row in enumerate(self._terms)
                           for terms in row[i + 1:] if terms], self.dim)

    def derived_series(self):
        # the standard basis is already rref
        series = [self.basis()]
        nxt = self.derived_algebra()
        while len(nxt) < len(series[-1]):
            series.append(nxt)
            if not nxt:
                break
            nxt = self._pair_span(nxt)
        return series

    def lower_central_series(self):
        # a later step [g, g^k] needs every ordered pair; the standard basis
        # is already rref
        series = [self.basis()]
        nxt = self.derived_algebra()
        while len(nxt) < len(series[-1]):
            series.append(nxt)
            nxt = self.bracket_span(series[0], nxt)
        return series

    def center(self):
        return self.centralizer(self.basis())

    def centralizer(self, vectors):
        """Basis of {x : [x, v] = 0 for all listed v}."""
        # [x, v] = -ad(v) x, so x is in the kernel of every ad(v) stacked
        rows = [r for v in vectors for r in self.ad(v).rows]
        if not rows:
            return self.basis()
        return kernel(Mat(rows))

    def killing(self, x, y):
        return trace_product(self.ad(x), self.ad(y))

    def killing_matrix(self) -> Mat:
        """K_ij = tr(ad e_i ad e_j), summed over the nonzero entries
        ad(e_i)[k][l] = c_il^k whose transposed entry ad(e_j)[l][k] is
        nonzero too."""
        n = self.dim
        # ad(e_i) as {(row k, column l): c_il^k}
        ads = [{(k, l): c for l, terms in enumerate(row) for k, c in terms}
               for row in self._terms]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            a = ads[i]
            for j in range(i, n):
                b = ads[j]
                rows[i][j] = rows[j][i] = sum(
                    (c * b[l, k] for (k, l), c in a.items() if (l, k) in b),
                    _ZERO)
        return Mat(rows)

    def is_abelian(self) -> bool:
        return all(is_zero_vec(self.table[i][j])
                   for i in range(self.dim) for j in range(self.dim))

    def is_solvable(self) -> bool:
        return not self._trace_form()[1]

    def _killing_rows(self, vectors):
        """killing_matrix() @ v for each v, without the matrix: entry i is
        tr(ad e_i ad v), the sum of c * d over the nonzero entries
        ad(e_i)[k][l] = c_il^k whose transposed entry ad(v)[l][k] = d is
        nonzero, where ad v = sum_j v_j ad e_j is read off _terms at the
        nonzero v_j.  So each row costs about two passes over the nonzero
        structure constants, and for a rational v its entries are
        Fractions, as those of K @ v are."""
        # ad(e_i) as ((k, l), (l, k), c_il^k) triples
        ads = [[((k, l), (l, k), c) for l, terms in enumerate(row)
                for k, c in terms] for row in self._terms]
        out = []
        for v in vectors:
            # ad v, keyed by the transpose of each entry's position
            adv = {}
            for vj, ad in zip(v, ads):
                if vj:
                    for _, lk, c in ad:
                        x = adv.get(lk)
                        adv[lk] = vj * c if x is None else x + vj * c
            row = []
            for ad in ads:
                acc = _ZERO
                for kl, _, c in ad:
                    x = adv.get(kl)
                    if x:
                        acc = acc + c * x
                row.append(acc)
            out.append(tuple(row))
        return out

    def _trace_form(self):
        """([g, g] as rref rows, the nonzero rows K d of the Killing matrix
        at its rows d): Cartan's criterion makes rows empty exactly when g
        is solvable, which the derived series must confirm.  The kernel of
        rows is the radical.  The rows K d come from _killing_rows, so the
        Killing matrix itself is never built here."""
        series = self.derived_series()
        # [g, g] is series[1], or series[0] when g is perfect (or zero)
        derived = series[1] if len(series) > 1 else series[0]
        rows = [r for r in self._killing_rows(derived) if not is_zero_vec(r)]
        if bool(series[-1]) != bool(rows):
            raise InternalCheckError(
                "solvability by derived series and by trace form disagree")
        return derived, rows

    def is_nilpotent(self) -> bool:
        return not self.lower_central_series()[-1]

    def is_semisimple(self) -> bool:
        return rank(self.killing_matrix()) == self.dim

    def nilpotency_class(self) -> int:
        if not self.is_nilpotent():
            raise InputError("nilpotency class of a non-nilpotent algebra")
        return len(self.lower_central_series()) - 1

    def is_ideal(self, basis) -> bool:
        """True iff [e_i, b] stays in the span for every e_i and row b: one
        elimination over all the brackets; the whole space is an ideal."""
        rows = span_basis(basis)
        if len(rows) == self.dim:
            return True
        return None not in coords_in_span(
            rows, [self.bracket(_unit(self.dim, i), b)
                   for i in range(self.dim) for b in rows])

    def is_subalgebra(self, basis) -> bool:
        rows = span_basis(basis)
        return None not in coords_in_span(
            rows, [self.bracket(a, b) for a in rows for b in rows])

    def subalgebra(self, basis):
        """Materialize a closed subspace as its own algebra.

        Returns (algebra, inclusion) where inclusion lists the chosen basis
        vectors of the parent; coordinates are taken in that list.  Each
        pair is bracketed once: a bracket without coordinates in the rows
        means the subspace is not closed.  A basis of the whole space has
        the standard rref rows, so its brackets are already coordinates in
        them.
        """
        rows = span_basis(basis)
        if len(rows) == self.dim:
            return LieAlgebra(self.dim, [[self.bracket(a, b) for b in rows]
                                         for a in rows]), rows
        k = len(rows)
        coords = coords_in_span(rows, [self.bracket(a, b)
                                       for a in rows for b in rows])
        if None in coords:
            raise InputError("subspace is not closed under the bracket")
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
