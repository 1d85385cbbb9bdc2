"""Exact linear algebra over Fraction and GaussRat entries.

Everything downstream (brackets, flags, certificates, representations) runs on
this layer, so the expensive invariants are checked where they are cheap to
state: integer left kernels are verified against their unimodular row
transforms on every call, and Jordan decompositions are verified
semisimple-plus-nilpotent before they are returned.  Yes/no questions about
one matrix are asked directly: is_nilpotent_mat takes a power, and
is_semisimple_mat evaluates the squarefree part of the norm of the
characteristic polynomial (a rational polynomial, see poly.norm), without
building a Jordan decomposition.

Matrices are dense, and the package has one sparse row format: a
{column: entry} dict of the nonzero entries of a row, which _sparse_rows
reads off dense rows and _combine sums (c_1 row_1 + ... over
(coefficient, row) pairs, a zero coefficient skipped).  Only two indexes
keep (index, entry) pairs instead: LieAlgebra._terms, the immutable
structure constants of an algebra, and the local lists of
_row_sparse_product, which gives Mat @ its dense rows.

Every linear system goes through one sparse Gauss-Jordan elimination,
_gauss_jordan, which takes its equations in that format and answers all of
the right-hand sides and the null space at once.  rank, kernel, solve,
inverse, span_basis and coords_in_span hand it the nonzero entries of dense
rows, and raise ValueError on a length that does not fit.  Its per-row
step, _reduce_row, also decides alone whether a vector is new: independent
runs it to complete a basis greedily, and the associative hull in structure
to grow a span.  Answers are exact, and all-Fraction input gives
all-Fraction answers.  Otherwise a zero coefficient of a reduced row, and so
of a null vector or a span_basis row, is Fraction(0), and so is a free
variable of a solution; every other entry, and every entry that comes from
the right-hand sides (solutions, inverses), has the type that exact
arithmetic on the inputs gives it, or its input type when none touched it.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError
from .poly import Poly, norm, squarefree_part
from .scalars import GaussRat, _field, gauss


# Sums skip an entry only where adding zero cannot change it: a + 0 is a in
# value, and in type only when 0 has the type of a (an int plus Fraction(0)
# is a Fraction, a Fraction plus GaussRat(0) a GaussRat).

def vadd(u, v):
    return tuple(a if not b and type(a) is type(b) else a + b
                 for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a if not b and type(a) is type(b) else a - b
                 for a, b in zip(u, v))


def is_zero_vec(v) -> bool:
    return all(not a for a in v)


class Mat:
    """Immutable matrix; entries are Fraction, GaussRat, or int."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        if self.rows:
            n = len(self.rows[0])
            if any(len(r) != n for r in self.rows):
                raise ValueError("ragged matrix")

    @staticmethod
    def zeros(m: int, n: int) -> "Mat":
        return Mat([[Fraction(0)] * n for _ in range(m)])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols) -> "Mat":
        cols = list(cols)
        if not cols:
            return Mat([])
        return Mat([[col[i] for col in cols] for i in range(len(cols[0]))])

    @staticmethod
    def diag(entries) -> "Mat":
        entries = list(entries)
        n = len(entries)
        return Mat([[entries[i] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def col(self, j: int):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in r) for r in self.rows)
        return f"Mat[{body}]"

    def is_zero(self) -> bool:
        return all(not c for r in self.rows for c in r)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __add__(self, other: "Mat") -> "Mat":
        return Mat([vadd(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([vsub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-c for c in r] for r in self.rows])

    def __mul__(self, scalar) -> "Mat":
        return Mat([[c * scalar for c in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            return Mat(_row_sparse_product(self.rows, other.rows, other.ncols))
        # matrix times column vector
        if self.ncols != len(other):
            raise ValueError("shape mismatch")
        return tuple(_dot(r, other) for r in self.rows)

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def conj(self) -> "Mat":
        return Mat([[c.conj() if isinstance(c, GaussRat) else c for c in r]
                    for r in self.rows])

    def map(self, fn) -> "Mat":
        return Mat([[fn(c) for c in r] for r in self.rows])

    def flatten(self):
        return tuple(c for r in self.rows for c in r)

    def is_upper_triangular(self, strict: bool = False) -> bool:
        lo = 1 if strict else 0
        return all(not self.rows[i][j]
                   for i in range(self.nrows)
                   for j in range(min(i + lo, self.ncols)))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _row_sparse_product(rows_a, rows_b, n):
    """Rows of a @ b, touching only the nonzero entries of both.

    Entry (i, j) is Fraction(0) plus a[i][k] * b[k][j] over the k where both
    are nonzero, in increasing k: the additions _dot makes, so values and
    entry types are those of the dense product.
    """
    nz_b = [[(j, y) for j, y in enumerate(r) if y] for r in rows_b]
    out = []
    for ra in rows_a:
        acc = [Fraction(0)] * n
        for x, nz in zip(ra, nz_b):
            if x:
                for j, y in nz:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def trace_product(a: Mat, b: Mat):
    """tr(a @ b), in O(n^2) and without forming the product."""
    return sum((x * y for ra, cb in zip(a.rows, zip(*b.rows))
                for x, y in zip(ra, cb) if x and y), Fraction(0))


def mat_pow(a: Mat, k: int) -> Mat:
    out = Mat.identity(a.nrows)
    base = a
    while k:
        if k & 1:
            out = out @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return out


def kron(a: Mat, b: Mat) -> Mat:
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append([x * y for x in ra for y in rb])
    return Mat(rows)


def block_diag(mats) -> Mat:
    mats = list(mats)
    n = sum(m.nrows for m in mats)
    p = sum(m.ncols for m in mats)
    rows = [[Fraction(0)] * p for _ in range(n)]
    i0 = j0 = 0
    for m in mats:
        for i, r in enumerate(m.rows):
            for j, c in enumerate(r):
                rows[i0 + i][j0 + j] = c
        i0 += m.nrows
        j0 += m.ncols
    return Mat(rows)


# -- elimination ---------------------------------------------------------------


def _sparse_rows(rows):
    """Each row as a {column: entry} dict of its nonzero entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _combine(terms):
    """sum of c * row over the (coefficient, row) pairs, a zero c skipped,
    as a dict of the nonzero entries: each column starts from its first
    product, and one whose sum cancels is dropped once every term is in."""
    out = {}
    for c, row in terms:
        if c:
            for j, y in row.items():
                x = out.get(j)
                out[j] = c * y if x is None else x + c * y
    return {j: x for j, x in out.items() if x}


def _gauss_jordan(rows, ncols, rhs):
    """The reduced echelon form of a system in ncols unknowns, and its
    inconsistent right-hand sides.

    rows lists the equations as {column: coefficient} dicts that hold only
    nonzero coefficients (an empty dict is a zero row), which are reduced
    in place; rhs lists the right-hand sides, each with one entry per row.
    Returns (pivots, bad): pivots maps each pivot column c to [row, b],
    where row holds 1 at c and otherwise only free columns, and b lists its
    entry for each right-hand side; bad holds the indices of the
    inconsistent right-hand sides.

    Each row goes through _reduce_row in turn, so the rows kept are the
    reduced echelon form, which is unique whichever row supplies each
    pivot.  A row that reduces to zero leaves a combination of right-hand
    sides that must vanish; each one it leaves nonzero is inconsistent, so
    with no right-hand side the elimination stops once every column has a
    pivot.
    """
    n_rows = len(rows)
    if any(len(b) != n_rows for b in rhs):
        raise ValueError("shape mismatch")
    pivots = {}          # pivot column -> [row with 1 there, rhs entries]
    bad = set()
    for row, b in zip(rows, zip(*rhs) if rhs else [()] * n_rows):
        if not rhs and len(pivots) == ncols:
            break
        b = list(b)
        if not _reduce_row(pivots, row, b):
            bad.update(k for k, x in enumerate(b) if x)
    return pivots, bad


def _reduce_row(pivots, row, b):
    """One step of _gauss_jordan: reduce row and its right-hand side
    entries b in place by the pivot rows and, if anything is left, pivot on
    its least column, clearing that column from the earlier pivot rows; so
    every pivot row leads with its pivot.  Returns True iff it pivoted,
    i.e. iff row is independent of the rows that gave the pivots.  An int
    pivot is divided through _field, so int entries never become floats.
    """
    for c in [c for c in row if c in pivots]:
        f = row.pop(c)
        prow, pb = pivots[c]
        _sparse_axpy(row, f, prow, c)
        for k, y in enumerate(pb):
            if y:
                b[k] = b[k] - f * y
    if not row:
        return False
    p = min(row)
    inv = _field(row[p])
    if inv != 1:
        row = {j: v / inv for j, v in row.items()}
        b = [x / inv if x else x for x in b]
    for qrow, qb in pivots.values():
        f = qrow.pop(p, None)
        if f is not None:
            _sparse_axpy(qrow, f, row, p)
            for k, y in enumerate(b):
                if y:
                    qb[k] = qb[k] - f * y
    pivots[p] = [row, b]
    return True


def _sparse_axpy(row, f, prow, skip):
    """row -= f * prow over the columns of prow but skip, in place, keeping
    only nonzero entries."""
    for j, v in prow.items():
        if j != skip:
            x = row.get(j)
            if x is None:
                row[j] = -(f * v)
            else:
                x = x - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]


def _solutions(pivots, bad, ncols, n_rhs):
    """One solution per right-hand side, free variables zero, or None for
    an inconsistent one."""
    zero = Fraction(0)
    out = []
    for k in range(n_rhs):
        if k in bad:
            out.append(None)
            continue
        x = [zero] * ncols
        for c, (_, b) in pivots.items():
            x[c] = b[k]
        out.append(tuple(x))
    return out


def _null_space(pivots, ncols):
    """One null vector per free column: 1 there, zero at the other free
    columns."""
    zero = Fraction(0)
    # the entries of a reduced pivot row off its pivot are all free columns
    free = {c: i for i, c in
            enumerate(c for c in range(ncols) if c not in pivots)}
    null = [[zero] * ncols for _ in free]
    for c, i in free.items():
        null[i][c] = Fraction(1)
    for c, (row, _) in pivots.items():
        for j, v in row.items():
            if j != c:
                null[free[j]][c] = -v
    return [tuple(v) for v in null]


def rank(m: Mat) -> int:
    return len(_gauss_jordan(_sparse_rows(m.rows), m.ncols, ())[0])


def kernel(m: Mat):
    """Basis of the right null space, as a list of tuples."""
    return _null_space(_gauss_jordan(_sparse_rows(m.rows), m.ncols, ())[0],
                       m.ncols)


def solve(a: Mat, b):
    """One solution x of a @ x = b, or None if inconsistent."""
    pivots, bad = _gauss_jordan(_sparse_rows(a.rows), a.ncols, [b])
    return _solutions(pivots, bad, a.ncols, 1)[0]


def inverse(a: Mat) -> Mat:
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    # the right-hand sides are the columns of the identity, so the entries
    # of pivot row c are row c of the inverse
    pivots, _ = _gauss_jordan(_sparse_rows(a.rows), n, Mat.identity(n).rows)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return Mat([pivots[c][1] for c in range(n)])


def det(a: Mat):
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in a.rows]
    n = len(rows)
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        out = out * rows[c][c]
        inv = _field(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out * sign


# -- span utilities ----------------------------------------------------------


def span_basis(vectors):
    """Canonical (rref) basis of the span of the given row vectors."""
    vectors = list(vectors)
    if not vectors:
        return []
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("ragged matrix")
    return _span_rows(_sparse_rows(vectors), n)


def _span_rows(rows, n: int):
    """span_basis of length-n vectors given as {column: entry} dicts of
    their nonzero entries, which are reduced in place."""
    return _echelon(_gauss_jordan(rows, n, ())[0], n)


def _echelon(pivots, n: int):
    """The pivot rows of an elimination in n columns as dense rref rows, in
    pivot order, a zero entry Fraction(0)."""
    zero = Fraction(0)
    out = []
    for c in sorted(pivots):
        v = [zero] * n
        for j, x in pivots[c][0].items():
            v[j] = x
        out.append(tuple(v))
    return out


def independent(rows, candidates):
    """Indices, in order, of the candidates that a greedy completion of
    rows keeps: those outside the span of rows and of the candidates kept
    before them.

    One elimination serves every candidate: the rows and then each
    candidate go through _reduce_row, and a candidate is kept when it
    pivots.
    """
    return _independent(rows, candidates)[0]


def _independent(rows, candidates, before=None):
    """independent(rows, candidates), and with before given, the span_basis
    of rows and the first before candidates kept, read off the same
    elimination once it has kept them; it then stops at the next candidate
    it keeps.  Without before the span is None."""
    rows, candidates = list(rows), list(candidates)
    n = len(rows[0]) if rows else len(candidates[0]) if candidates else 0
    if any(len(v) != n for v in rows + candidates):
        raise ValueError("ragged matrix")
    pivots = {}
    for row in _sparse_rows(rows):
        _reduce_row(pivots, row, [])
    kept = []
    span = _echelon(pivots, n) if before == 0 else None
    for i, row in enumerate(_sparse_rows(candidates)):
        if _reduce_row(pivots, row, []):
            kept.append(i)
            if len(kept) == before:
                span = _echelon(pivots, n)
            elif span is not None:
                break
    return kept, span


def coords_in_span(basis, vectors):
    """Coefficients of each vector in the given basis vectors, or None for a
    vector outside their span.

    One elimination serves every vector: the basis vectors are the columns
    and each vector is a right-hand side.  Free basis columns get zero
    coefficients, as in solve.
    """
    return _coords_and_rank(basis, vectors)[0]


def _coords_and_rank(basis, vectors):
    """coords_in_span, and the rank of the basis vectors, which is the
    number of pivots of the same elimination."""
    basis, vectors = list(basis), list(vectors)
    n = len(basis[0]) if basis else len(vectors[0]) if vectors else 0
    if any(len(v) != n for v in basis):
        raise ValueError("shape mismatch")
    rows = [{j: v[i] for j, v in enumerate(basis) if v[i]} for i in range(n)]
    pivots, bad = _gauss_jordan(rows, len(basis), vectors)
    return _solutions(pivots, bad, len(basis), len(vectors)), len(pivots)


def lincomb(coeffs, vectors, dim: int):
    """sum of c * v over the pairs, as a tuple of length dim.

    Only the nonzero c and, in each v, the nonzero entries are multiplied.
    Entry j has the value and type of Fraction(0) + c_1 v_1[j] + ... over
    the nonzero c: a GaussRat when one of those c or v[j], zero or not, is
    a GaussRat, else a Fraction.  So the output starts from GaussRat(0) when
    some coefficient is one, else from Fraction(0), and a GaussRat zero
    entry promotes its entry without arithmetic.
    """
    terms = [(c, v) for c, v in zip(coeffs, vectors) if c]
    gaussian = any(isinstance(c, GaussRat) for c, _ in terms)
    out = [GaussRat(0) if gaussian else Fraction(0)] * dim
    for c, v in terms:
        for j, y in enumerate(v):
            if y:
                out[j] = out[j] + c * y
            elif isinstance(y, GaussRat) and not isinstance(out[j], GaussRat):
                out[j] = GaussRat(out[j])
    return tuple(out)


def mat_lincomb(coeffs, mats, n: int) -> Mat:
    """sum of c * m over the pairs; the n x n zero matrix if every c is 0.

    Starts from the first nonzero term, so no zero matrix is built, and
    takes a matrix with coefficient 1 as it is.
    """
    out = None
    for c, m in zip(coeffs, mats):
        if c:
            term = m if c == 1 else m * c
            out = term if out is None else out + term
    return Mat.zeros(n, n) if out is None else out


def intersect_spans(a, b, n: int):
    """Basis of span(a) intersect span(b) inside an n-dimensional space."""
    a = span_basis(a)
    b = span_basis(b)
    if not a or not b:
        return []
    cols = [list(v) for v in a] + [[-c for c in v] for v in b]
    return span_basis([lincomb(k[:len(a)], a, n)
                       for k in kernel(Mat.from_cols(cols))])


# -- invariants of a single operator --------------------------------------------


def char_poly(a: Mat) -> Poly:
    """Characteristic polynomial det(xI - a), monic, in O(n^3).

    Reduces a to upper Hessenberg form H by similarity (Gaussian elimination
    below the subdiagonal, each row operation undone on the columns), then
    runs the recurrence p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im
    h_(i+1,i)...h_(m,m-1) p_(i-1) over the leading blocks (Cohen, A Course
    in Computational Algebraic Number Theory, 2.2.9).
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.nrows
    h = [[_field(x) for x in r] for r in a.rows]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        rm = h[m]
        piv = rm[m - 1]
        nz = [k for k in range(m - 1, n) if rm[k]]
        ops = {}
        for j in range(m + 1, n):
            rj = h[j]
            if rj[m - 1]:
                u = rj[m - 1] / piv
                for k in nz:
                    rj[k] = rj[k] - u * rm[k]
                ops[j] = u
        # H <- L H L^-1: the row operations above, then their inverse on
        # the columns
        for row in h:
            for j, u in ops.items():
                if row[j]:
                    row[m] = row[m] + u * row[j]
    # polys[m] holds the coefficients of det(xI - H[:m, :m]), lowest first
    polys = [[Fraction(1)]]
    for m in range(n):
        prev = polys[m]
        nxt = [Fraction(0)] + prev
        if h[m][m]:
            for k, c in enumerate(prev):
                nxt[k] = nxt[k] - h[m][m] * c
        t = Fraction(1)
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i]
            if not t:
                break
            f = h[i][m] * t
            if f:
                for k, c in enumerate(polys[i]):
                    nxt[k] = nxt[k] - f * c
        polys.append(nxt)
    return Poly(polys[n])


def poly_at(p: Poly, a: Mat) -> Mat:
    """p(a) by Horner's rule, each coefficient added on the diagonal of
    out @ a.  A Gaussian coefficient makes every entry Gaussian, as adding
    it times the identity would."""
    n = a.nrows
    out = Mat.zeros(n, n)
    for c in reversed(p.coeffs):
        rows = _row_sparse_product(out.rows, a.rows, n)
        if isinstance(c, GaussRat):
            rows = [[gauss(x) for x in r] for r in rows]
        if c:
            for i, r in enumerate(rows):
                r[i] = r[i] + c
        out = Mat(rows)
    return out


def jordan_chevalley(a: Mat):
    """Split a = s + n with s semisimple, n nilpotent, s n = n s, both
    polynomials in a.

    Newton iteration against f, the squarefree part of the norm of the
    characteristic polynomial: f is rational, f(a) is nilpotent and f'(a)
    is invertible.  The decomposition is verified before being returned.
    """
    n_dim = a.nrows
    f = squarefree_part(norm(char_poly(a)))
    x = a
    fx = poly_at(f, x)
    for _ in range(max(1, n_dim).bit_length() + 2):
        if fx.is_zero():
            break
        try:
            corr = inverse(poly_at(f.derivative(), x)) @ fx
        except ValueError:
            raise InternalCheckError(
                "derivative became singular during the Jordan split")
        x = x - corr
        fx = poly_at(f, x)
    if not fx.is_zero():
        raise InternalCheckError("Jordan split did not converge")
    s = x
    nil = a - s
    if s @ nil != nil @ s:
        raise InternalCheckError("Jordan split parts do not commute")
    if not is_nilpotent_mat(nil):
        raise InternalCheckError("Jordan split second part is not nilpotent")
    if not is_semisimple_mat(s, char_poly(s)):
        raise InternalCheckError("Jordan split first part is not semisimple")
    return s, nil


def is_nilpotent_mat(a: Mat) -> bool:
    return mat_pow(a, a.nrows).is_zero()


def is_semisimple_mat(a: Mat, cp: Poly) -> bool:
    """True iff a is diagonalizable over the algebraic closure; cp is
    char_poly(a), which every caller also needs for the spectrum.

    That holds exactly when the minimal polynomial is squarefree.  The
    squarefree part f of the norm of cp is rational and has every root of
    cp as a simple root (with their conjugates, which need not be
    eigenvalues), so the minimal polynomial divides f, i.e. f(a) = 0,
    exactly when it is squarefree.  No Jordan decomposition is built.
    """
    return poly_at(squarefree_part(norm(cp)), a).is_zero()


# -- integer lattices ----------------------------------------------------------


def _int_rows(m) -> list:
    rows = m.rows if isinstance(m, Mat) else m
    out = []
    for r in rows:
        row = []
        for c in r:
            ic = int(c)
            if ic != c:
                raise ValueError("integer matrix expected")
            row.append(ic)
        out.append(row)
    return out


def _int_echelon(a, u) -> int:
    """Euclid's row reduction of the integer rows a to echelon form, in
    place: in each column, move the row with the smallest nonzero entry up
    and subtract integer multiples of it from the rows below, doing every
    row step to the rows u as well.  Returns the number of pivots; pivot t
    sits in row t."""
    nr = len(a)
    t = 0
    for c in range(len(a[0]) if a else 0):
        while t < nr:
            live = [i for i in range(t, nr) if a[i][c]]
            if not live:
                break
            p = min(live, key=lambda i: abs(a[i][c]))
            a[t], a[p] = a[p], a[t]
            u[t], u[p] = u[p], u[t]
            if len(live) == 1:
                t += 1
                break
            for i in range(t + 1, nr):
                if a[i][c]:
                    q = a[i][c] // a[t][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
    return t


def integer_left_kernel(m):
    """Saturated basis of the lattice of integer rows v with v @ m = 0.

    One integer row reduction of [m | I] (_int_echelon) brings m to echelon
    form U @ m.  The basis is the rows of U at the zero rows of U @ m.
    Verified on every call: U @ m recomputed equals the echelon, |det U| = 1
    (so the basis is saturated), the zero rows number nrows - rank(m), and
    each basis row annihilates m.
    """
    a = _int_rows(m)
    if not a:
        return []
    mm = Mat(a)
    nr = len(a)
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    _int_echelon(a, u)
    um = Mat(u)
    if um @ mm != Mat(a):
        raise InternalCheckError("row reduction transform identity failed")
    if abs(det(um.map(Fraction))) != 1:
        raise InternalCheckError("row reduction transform is not unimodular")
    basis = [tuple(u[i]) for i in range(nr) if not any(a[i])]
    if len(basis) != nr - rank(mm):
        raise InternalCheckError("left kernel size is not the rank defect")
    for b in basis:
        if not is_zero_vec(tuple(_dot(b, c) for c in mm.cols())):
            raise InternalCheckError("left kernel row fails to annihilate")
    return basis


def maximal_minor_gcd(rows) -> int:
    """The gcd of the k x k minors of k integer rows: 0 when they are
    dependent, 1 exactly when they are a basis of the integer points of
    their rational span, and otherwise the index of their lattice in it.

    Euclid's row reduction of the transpose (column steps on the rows)
    keeps that gcd and ends in a k x k triangle above zero rows, whose
    diagonal product is the one nonzero maximal minor left.
    """
    a = [list(col) for col in zip(*_int_rows(rows))]
    if _int_echelon(a, [[] for _ in a]) < len(rows):
        return 0
    out = 1
    for i in range(len(rows)):
        out *= abs(a[i][i])
    return out
