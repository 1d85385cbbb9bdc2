"""Exact dense linear algebra over Fraction and GaussRat entries.

Everything downstream (brackets, flags, certificates, representations) runs on
this layer, so the expensive invariants are checked where they are cheap to
state: Smith forms are verified against their unimodular transforms on every
call, and Jordan decompositions are verified semisimple-plus-nilpotent before
they are returned.  Yes/no questions about one matrix are asked directly:
is_nilpotent_mat takes a power, and is_semisimple_mat evaluates the
squarefree part of the characteristic polynomial, without building a
Jordan decomposition.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InputError, InternalCheckError
from .poly import Poly, poly_gcd, squarefree_part
from .scalars import GaussRat


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


def _field(x):
    """x itself, or as a Fraction when it is a plain int, so that dividing
    by it stays exact."""
    return Fraction(x) if isinstance(x, int) else x


def rref(m: Mat):
    """Reduced row echelon form; returns (R, pivot column indices).

    Sparse in the pivot row: only its nonzero entries are normalised, and
    the other rows change only in those columns.
    """
    rows = [list(r) for r in m.rows]
    nr, nc = len(rows), m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        # columns left of c are already zero in every row from r down
        nz = [j for j in range(c, nc) if prow[j]]
        inv = _field(prow[c])
        if inv != 1:
            for j in nz:
                prow[j] = prow[j] / inv
        for i in range(nr):
            row = rows[i]
            f = row[c]
            if i != r and f:
                for j in nz:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat(rows), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel(m: Mat):
    """Basis of the right null space, as a list of tuples."""
    R, pivots = rref(m)
    nc = m.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R.rows[i][fc]
        basis.append(tuple(v))
    return basis


def solve(a: Mat, b):
    """One solution x of a @ x = b, or None if inconsistent."""
    aug = Mat([list(r) + [bv] for r, bv in zip(a.rows, b)])
    R, pivots = rref(aug)
    nc = a.ncols
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for i, pc in enumerate(pivots):
        x[pc] = R.rows[i][nc]
    return tuple(x)


def inverse(a: Mat) -> Mat:
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    aug = Mat([list(r) + [Fraction(int(i == j)) for j in range(n)]
               for i, r in enumerate(a.rows)])
    R, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise ValueError("singular matrix")
    return Mat([r[n:] for r in R.rows])


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
    vectors = [v for v in vectors if not is_zero_vec(v)]
    if not vectors:
        return []
    R, pivots = rref(Mat(vectors))
    return [tuple(R.rows[i]) for i in range(len(pivots))]


def in_span(rows, v) -> bool:
    """True iff v lies in the span of rref rows (as span_basis returns)."""
    v = list(v)
    for row in rows:
        p = next(j for j, c in enumerate(row) if c)
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return is_zero_vec(v)


def coords_in_span(basis, vectors):
    """Coefficients of each vector in the given basis vectors, or None for a
    vector outside their span.

    One elimination of [basis | vectors] serves every vector.  Its rows with
    a pivot among the vector columns mark vectors outside span(basis); a
    vector inside has zeros in all of those rows, so its coefficients are
    read off the basis pivot rows untouched.  Free basis columns get zero
    coefficients, as in solve.
    """
    vectors = list(vectors)
    if not basis:
        return [() if is_zero_vec(v) else None for v in vectors]
    if not vectors:
        return []
    d = len(basis)
    R, pivots = rref(Mat.from_cols(list(basis) + vectors))
    rb = sum(1 for pc in pivots if pc < d)
    extra = R.rows[rb:len(pivots)]
    out = []
    for j in range(d, d + len(vectors)):
        if any(row[j] for row in extra):
            out.append(None)
            continue
        x = [Fraction(0)] * d
        for i in range(rb):
            x[pivots[i]] = R.rows[i][j]
        out.append(tuple(x))
    return out


def restrict_to_span(a: Mat, basis):
    """Matrix of a on an invariant span, in the given basis coordinates."""
    cols = coords_in_span(basis, [a @ v for v in basis])
    if None in cols:
        raise InputError("matrix does not preserve the span")
    return Mat.from_cols(cols)


def coords_in_basis(basis, v):
    """Coefficients of v in the given (independent) vectors, or None."""
    return coords_in_span(basis, [v])[0]


def lincomb(coeffs, vectors, dim: int):
    """sum of c * v over the pairs, as a tuple of length dim."""
    out = [Fraction(0)] * dim
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
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
        ops = []
        for j in range(m + 1, n):
            rj = h[j]
            if rj[m - 1]:
                u = rj[m - 1] / piv
                for k in nz:
                    rj[k] = rj[k] - u * rm[k]
                ops.append((j, u))
        # H <- L H L^-1: the row operations above, then their inverse on
        # the columns
        for row in h:
            for j, u in ops:
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
    out = Mat.zeros(a.nrows, a.nrows)
    ident = Mat.identity(a.nrows)
    for c in reversed(p.coeffs):
        out = out @ a + c * ident
    return out


def minimal_poly(a: Mat) -> Poly:
    if not a.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = a.nrows
    powers = [Mat.identity(n).flatten()]
    cur = Mat.identity(n)
    for k in range(1, n + 1):
        cur = cur @ a
        c = coords_in_basis(powers, cur.flatten())
        if c is not None:
            return Poly(list(-x for x in c) + [Fraction(1)])
        powers.append(cur.flatten())
    raise InternalCheckError("minimal polynomial exceeded the dimension bound")


def jordan_chevalley(a: Mat):
    """Split a = s + n with s semisimple, n nilpotent, s n = n s, both in Q[a].

    Newton iteration against the squarefree part of the characteristic
    polynomial.  The decomposition is verified before being returned.
    """
    n_dim = a.nrows
    f = squarefree_part(char_poly(a))
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
    if not mat_pow(nil, n_dim).is_zero():
        raise InternalCheckError("Jordan split second part is not nilpotent")
    mp = minimal_poly(s)
    if poly_gcd(mp, mp.derivative()).degree != 0:
        raise InternalCheckError("Jordan split first part is not semisimple")
    return s, nil


def is_nilpotent_mat(a: Mat) -> bool:
    return mat_pow(a, a.nrows).is_zero()


def is_semisimple_mat(a: Mat) -> bool:
    """True iff a is diagonalizable over the algebraic closure.

    That holds exactly when the minimal polynomial is squarefree, i.e. when
    the squarefree part of the characteristic polynomial annihilates a; no
    Jordan decomposition is built.
    """
    return poly_at(squarefree_part(char_poly(a)), a).is_zero()


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


def smith_normal_form(m):
    """U, D, V with U @ m @ V = D, U and V unimodular, D a divisibility chain.

    Verified on every call: the transform identity, the chain, and that both
    determinants are +-1.
    """
    a = _int_rows(m)
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(nr, nc):
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            stray = next(((i, j) for i in range(t + 1, nr)
                          for j in range(t + 1, nc)
                          if a[i][j] % a[t][t] != 0), None)
            if stray is None:
                break
            # fold the offending row in so the pivot can shrink
            a[t] = [x + y for x, y in zip(a[t], a[stray[0]])]
            u[t] = [x + y for x, y in zip(u[t], u[stray[0]])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    um, dm, vm = Mat(u), Mat(a), Mat(v)
    mm = Mat(_int_rows(m))
    if um @ mm @ vm != dm:
        raise InternalCheckError("Smith transform identity failed")
    diag = [dm.rows[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j and dm.rows[i][j]:
                raise InternalCheckError("Smith form is not diagonal")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise InternalCheckError("Smith diagonal has a zero before a nonzero")
        if x and y % x != 0:
            raise InternalCheckError("Smith diagonal is not a divisibility chain")
    if abs(det(um.map(Fraction))) != 1 or abs(det(vm.map(Fraction))) != 1:
        raise InternalCheckError("Smith transforms are not unimodular")
    return um, dm, vm


def integer_left_kernel(m):
    """Basis of the lattice of integer rows v with v @ m = 0 (a saturated basis)."""
    mm = Mat(_int_rows(m))
    if mm.nrows == 0:
        return []
    u, d, _ = smith_normal_form(mm)
    r = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i])
    basis = [u.rows[i] for i in range(r, mm.nrows)]
    for b in basis:
        if not is_zero_vec(tuple(_dot(b, c) for c in mm.cols())):
            raise InternalCheckError("left kernel row fails to annihilate")
    return [tuple(b) for b in basis]
