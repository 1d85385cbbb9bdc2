"""Seeded input generators for the benchmark workloads.

These are the benchmark's own copies: nothing here imports from the
repository's tests, so later test edits cannot shift the inputs.

Every generated algebra is a pair (structure, resigned).  The structure,
shear included, is drawn from a fixed stream and is the key into the
committed reference; the run seed negates some of its ad-nilpotent basis
vectors, which gives the algebra the program receives, and orders the
pass.  Definability, supersolvability and faithful-module dimensions are
invariant under a change of basis, so the reference answer for the
structure is the answer for every seed.  These sign changes leave the work
the program does alone, so the cost of a pass does not depend on the seed;
a seeded shear, basis permutation or arbitrary sign change moved it by
15-30% on coeff-large.
"""
from __future__ import annotations

import random
from fractions import Fraction

from liedef.corpus import corpus
from liedef.lie import LieAlgebra
from liedef.linalg import Mat, inverse, is_nilpotent_mat

# the criterion-8 fuzz seed; the fixed structures of the oracle workloads
# and the fixed shears of the modules workload come from streams seeded
# with it
STRUCTURE_SEED = 20260816
KINDS = ("simply-connected", "abstract", "linear")

# ROADMAP item 2: supersolvable with rational eigenvalues, so Definable
# under every presentation, but the root search leaves the tower
REPRODUCER_P = 1000000007
REPRODUCER_Q = 998244353

SMALL_VALUES = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
                Fraction(1, 2), Fraction(1), Fraction(2))
SMALL_IMAG = (Fraction(0), Fraction(1), Fraction(2))

# the seeded weight a of h3 x| D, with D = diag(a, -a, 0) on (x, y, z)
SEMIDIRECT_WEIGHTS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                      Fraction(3, 2), Fraction(-1), Fraction(-2))


def _pair(i, j):
    return (i, j) if i < j else (j, i)


def _orient(i, j, vec):
    return tuple(vec) if i < j else tuple(-c for c in vec)


def random_shear(rng, dim):
    """Product of up to three elementary +-1 row operations."""
    t = Mat.identity(dim)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        rows = [list(r) for r in t.rows]
        c = rng.choice((-1, 1))
        for col in range(dim):
            rows[i][col] += c * rows[j][col]
        t = Mat(rows)
    return t


def change_basis(alg, t):
    """The algebra in the basis given by the columns of t."""
    tinv = inverse(t)
    cols = [t.col(i) for i in range(alg.dim)]
    table = [[tuple(tinv @ alg.bracket(cols[i], cols[j]))
              for j in range(alg.dim)] for i in range(alg.dim)]
    return LieAlgebra(alg.dim, table)


def random_solvable_structure(rng, pick_real, pick_imag):
    """Nilpotent layer plus torus or real-split derivations (criterion 8).

    The derivations act in commuting 2x2 rotation-scaling blocks and real
    diagonal entries, so every adjoint weight lives in Q(i) by design.
    Drawn from the criterion-8 stream, these are criterion 8's algebras.
    """
    if rng.random() < 0.3:
        a = pick_real(rng)
        b = pick_imag(rng)
        if rng.random() < 0.5:
            entries = {(0, 1): (0, 0, 1)}
            dim = 3
        else:
            entries = {(0, 1): (0, 0, 1, 0)}
            dim = 4
            entries[(3, 0)] = (a, -b, Fraction(0), Fraction(0))
            entries[(3, 1)] = (b, a, Fraction(0), Fraction(0))
            entries[(3, 2)] = (Fraction(0), Fraction(0), 2 * a, Fraction(0))
        alg = LieAlgebra.from_entries(dim, entries)
    else:
        m = rng.randint(1, 4)
        ext = rng.randint(0, min(2, 5 - m))
        dim = m + ext
        entries = {}
        blocks = []
        i = 0
        while i < m:
            if m - i >= 2 and rng.random() < 0.6:
                blocks.append((i, 2))
                i += 2
            else:
                blocks.append((i, 1))
                i += 1
        for e in range(ext):
            row = m + e
            for pos, size in blocks:
                if size == 2:
                    a = pick_real(rng)
                    b = pick_imag(rng)
                    col_x = [Fraction(0)] * dim
                    col_y = [Fraction(0)] * dim
                    col_x[pos], col_x[pos + 1] = a, b
                    col_y[pos], col_y[pos + 1] = -b, a
                    entries[_pair(row, pos)] = _orient(row, pos, col_x)
                    entries[_pair(row, pos + 1)] = _orient(row, pos + 1, col_y)
                else:
                    col = [Fraction(0)] * dim
                    col[pos] = pick_real(rng)
                    entries[_pair(row, pos)] = _orient(row, pos, col)
        entries = {k: v for k, v in entries.items() if any(v)}
        alg = LieAlgebra.from_entries(dim, entries)
    return change_basis(alg, random_shear(rng, alg.dim))


def _small_real(rng):
    return rng.choice(SMALL_VALUES)


def _small_imag(rng):
    return rng.choice(SMALL_IMAG)


def _large_real(rng):
    return Fraction(rng.randint(-100, 100), rng.randint(1, 100))


def _large_imag(rng):
    if rng.random() < 1 / 3:
        return Fraction(0)
    return Fraction(rng.randint(1, 100), rng.randint(1, 100))


def fuzz_structures(count, large=False):
    """The first count criterion-8 structures, or their large-coefficient
    variant (numerators and denominators up to 100)."""
    if large:
        rng = random.Random("coeff-large/%d" % STRUCTURE_SEED)
        picks = (_large_real, _large_imag)
    else:
        rng = random.Random(STRUCTURE_SEED)
        picks = (_small_real, _small_imag)
    return [random_solvable_structure(rng, *picks) for _ in range(count)]


def reproducer():
    p, q = REPRODUCER_P, REPRODUCER_Q
    return LieAlgebra.from_entries(3, {(0, 2): (-p, 0, 0), (1, 2): (0, -q, 0)})


def h3_plus_aff():
    """h3 + aff(1): the center meets the derived algebra, 15-dim module."""
    return LieAlgebra.from_entries(5, {(0, 1): (0, 0, 1, 0, 0),
                                       (3, 4): (0, 0, 0, 0, 1)})


def h3_semidirect(a):
    """h3 x| R d with [d, x] = a x, [d, y] = -a y, [d, z] = 0."""
    return LieAlgebra.from_entries(4, {(0, 1): (0, 0, 1, 0),
                                       (3, 0): (a, 0, 0, 0),
                                       (3, 1): (0, -a, 0, 0)})


def corpus_presentations():
    """(entry, kind, finite_center_levi, pinned outcome) for every pin."""
    out = []
    for entry in corpus():
        for key, known in entry.known.items():
            if key == "definable-finite-center-levi":
                out.append((entry, "abstract", True, known.value))
            elif key.startswith("definable-"):
                out.append((entry, key[len("definable-"):], False,
                            known.value))
    return out


def supersolvable_corpus():
    return [e for e in corpus()
            if e.known.get("supersolvable") and e.known_value("supersolvable")]


def sheared_corpus(copies):
    """Each supersolvable corpus entry under copies fixed shears."""
    rng = random.Random("module-shears/%d" % STRUCTURE_SEED)
    return [(entry, change_basis(entry.algebra,
                                 random_shear(rng, entry.algebra.dim)))
            for _ in range(copies) for entry in supersolvable_corpus()]


def resigned(alg, rng):
    """alg with a seeded choice of its ad-nilpotent basis vectors negated.

    Negating e_i conjugates every ad matrix by the same sign matrix and
    negates ad(e_i); when ad(e_i) is nilpotent no basis vector's spectrum
    moves, so the program takes the same path on every seed.  Negating a
    vector with nonzero eigenvalues reorders the roots the weight
    recursion picks from and moved single ops by 3x.
    """
    signs = [rng.choice((-1, 1)) if is_nilpotent_mat(alg.ad(e)) else 1
             for e in alg.basis()]
    return change_basis(alg, Mat.diag(signs))
