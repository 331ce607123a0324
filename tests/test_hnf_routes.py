"""Differential tests: the list-based column HNF kernel against the route it
replaced.

The references are the earlier routes, kept verbatim: ``column_hnf`` on
tuples with the unimodular transform always built, its ``_colop_sub``
helper, ``Lattice.from_generators`` through an ``IntMatrix`` round trip that
discarded the transform, and ``hnf_solve`` with generator sums.  The routes
under test run through the one in-place kernel ``intlinalg._hnf``, which
carries the transform only for ``column_hnf``.

``ref_intersect_subspace`` is the earlier ``Lattice.intersect_subspace`` on
these references.  The library no longer has it; the index, quotient and
chart references of other test files take Z_A ∩ span Γ from it.
"""

import random
from fractions import Fraction
from math import lcm

from gkzkit.intlinalg import (
    IntMatrix,
    column_hnf,
    integer_kernel_basis,
    integer_orthogonal_complement,
    xgcd,
)
from gkzkit.lattice import Lattice, hnf_solve

# -- references: the parent's HNF routes, verbatim ------------------------------


def _colop_sub(cols, j, src, q):
    cols[j] = tuple(a - q * b for a, b in zip(cols[j], cols[src]))


def ref_column_hnf(M: IntMatrix):
    """Canonical column Hermite normal form.

    Returns (H, U) with H = M*U, U unimodular.  Convention: pivots are
    positive, each pivot is the first nonzero entry of its column (pivot rows
    strictly increasing left to right), entries to the left of a pivot in its
    row lie in [0, pivot), and zero columns are shifted to the right.
    """
    m, n = M.rows, M.cols
    cols = M.columns_list()
    ucols = IntMatrix.identity(n).columns_list()
    piv = 0
    for row in range(m):
        # sweep the row with extended-gcd column ops until one pivot survives
        j = piv
        while True:
            nz = [l for l in range(piv, n) if cols[l][row] != 0]
            if not nz:
                break
            j = nz[0]
            if len(nz) == 1:
                break
            l = nz[1]
            a, b = cols[j][row], cols[l][row]
            if a % b == 0:
                q = a // b
                _colop_sub(cols, j, l, q)
                _colop_sub(ucols, j, l, q)
            elif b % a == 0:
                q = b // a
                _colop_sub(cols, l, j, q)
                _colop_sub(ucols, l, j, q)
            else:
                g, x, y = xgcd(a, b)
                cj, cl = cols[j], cols[l]
                uj, ul = ucols[j], ucols[l]
                cols[j] = tuple(x * p + y * q_ for p, q_ in zip(cj, cl))
                ucols[j] = tuple(x * p + y * q_ for p, q_ in zip(uj, ul))
                cols[l] = tuple((-b // g) * p + (a // g) * q_ for p, q_ in zip(cj, cl))
                ucols[l] = tuple((-b // g) * p + (a // g) * q_ for p, q_ in zip(uj, ul))
        if not any(cols[l][row] != 0 for l in range(piv, n)):
            continue
        if j != piv:
            cols[j], cols[piv] = cols[piv], cols[j]
            ucols[j], ucols[piv] = ucols[piv], ucols[j]
        if cols[piv][row] < 0:
            cols[piv] = tuple(-a for a in cols[piv])
            ucols[piv] = tuple(-a for a in ucols[piv])
        p = cols[piv][row]
        for l in range(piv):
            q = cols[l][row] // p  # floor division puts remainder in [0, p)
            if q:
                _colop_sub(cols, l, piv, q)
                _colop_sub(ucols, l, piv, q)
        piv += 1
    H = IntMatrix.from_columns(cols, rows=m)
    U = IntMatrix.from_columns(ucols, rows=n)
    return H, U


def ref_integer_kernel_basis(M: IntMatrix):
    """Basis of {u in Z^cols : M*u = 0}, as a tuple of integer vectors."""
    H, U = ref_column_hnf(M)
    out = []
    for j in range(M.cols):
        if all(H.entries[i][j] == 0 for i in range(M.rows)):
            out.append(U.column(j))
    return tuple(out)


def ref_from_generators(generators, ambient_dim: int | None = None) -> Lattice:
    generators = [tuple(int(a) for a in g) for g in generators]
    if ambient_dim is None:
        if not generators:
            raise ValueError("empty generator list needs explicit ambient_dim")
        ambient_dim = len(generators[0])
    H, _ = ref_column_hnf(IntMatrix.from_columns(generators, rows=ambient_dim))
    cols = [H.column(j) for j in range(H.cols) if any(H.column(j))]
    return Lattice(ambient_dim, IntMatrix.from_columns(cols, rows=ambient_dim))


def ref_intersect_subspace(self: Lattice, spanning_vectors) -> Lattice:
    """The saturated sublattice of self lying in the rational span of the vectors."""
    constraints = integer_orthogonal_complement(spanning_vectors, self.ambient_dim)
    rows = tuple(
        tuple(sum(c[i] * g[i] for i in range(self.ambient_dim)) for g in self.generators())
        for c in constraints
    )
    if not rows:
        return self
    kernel = ref_integer_kernel_basis(IntMatrix(rows))
    gens = [self.basis.mul_vec(k) for k in kernel]
    return ref_from_generators(gens, self.ambient_dim)


def ref_hnf_solve(rows, pivots, v):
    den = lcm(*(a.denominator for a in v))
    for j, p in enumerate(pivots):
        den *= rows[p][j]
    w = [a.numerator * (den // a.denominator) for a in v]
    num = []
    for j, p in enumerate(pivots):
        row = rows[p]
        num.append((w[p] - sum(row[k] * num[k] for k in range(j))) // row[j])
    for row, target in zip(rows, w, strict=True):
        if sum(a * n for a, n in zip(row, num)) != target:
            return None
    return num, den


# -- the corpus ------------------------------------------------------------------


def _matrix(rng):
    """A seeded integer matrix of 1-6 rows and 0-7 columns with entries in
    [-30, 30], often with zero rows, zero columns, repeated columns or
    dependent columns."""
    m, n = rng.randint(1, 6), rng.randint(0, 7)
    bound = rng.choice((1, 3, 9, 30))
    cols = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    for c in cols:
        if rng.random() < 0.15:
            c[:] = [0] * m
    if cols and rng.random() < 0.3:  # a combination of two columns
        a, b = rng.choice(cols), rng.choice(cols)
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        combination = [x * p + y * q for p, q in zip(a, b)]
        if max(map(abs, combination)) <= 30:
            cols[rng.randrange(n)] = combination
    if n > 1 and rng.random() < 0.3:
        cols[rng.randrange(n)] = list(rng.choice(cols))
    if rng.random() < 0.3:
        i = rng.randrange(m)
        for c in cols:
            c[i] = 0
    return IntMatrix.from_columns([tuple(c) for c in cols], rows=m)


def _corpus(seed, count):
    rng = random.Random(seed)
    return [(rng, _matrix(rng)) for _ in range(count)]


def _shape_counts(corpus):
    counts = {"no columns": 0, "zero row": 0, "zero column": 0, "repeated": 0, "deficient": 0}
    for _, M in corpus:
        cols = M.columns_list()
        counts["no columns"] += not cols
        counts["zero row"] += bool(cols) and any(not any(r) for r in M.entries)
        counts["zero column"] += any(not any(c) for c in cols)
        counts["repeated"] += len(set(cols)) < len(cols)
        counts["deficient"] += ref_from_generators(cols, M.rows).rank < min(M.rows, M.cols)
    return counts


def test_column_hnf_matches_the_tuple_route():
    corpus = _corpus(2024, 2400)
    for _, M in corpus:
        assert column_hnf(M) == ref_column_hnf(M), M.entries
    assert all(c >= 100 for c in _shape_counts(corpus).values())


def test_lattices_match_the_tuple_route():
    kernels = 0
    for _, M in _corpus(77, 800):
        cols = M.columns_list()
        L = Lattice.from_generators(cols, M.rows)
        assert L == ref_from_generators(cols, M.rows)
        assert Lattice.from_generators([list(c) for c in cols], M.rows) == L
        ker = integer_kernel_basis(M)
        assert ker == ref_integer_kernel_basis(M)
        kernels += bool(ker)
    assert kernels >= 200


def test_hnf_solve_matches_the_generator_sums():
    hits = misses = 0
    for rng, M in _corpus(5, 600):
        L = Lattice.from_generators(M.columns_list(), M.rows)
        rows, piv = L.basis.entries, L.pivots
        for _ in range(4):
            k = [rng.randint(-5, 5) for _ in range(L.rank)]
            member = [sum(c * g[i] for c, g in zip(k, L.generators())) for i in range(M.rows)]
            den = rng.choice((1, 1, 2, 6))
            queries = (
                member,
                [Fraction(a, den) for a in member],
                [rng.randint(-9, 9) for _ in range(M.rows)],
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(M.rows)],
            )
            for v in queries:
                got = hnf_solve(rows, piv, v)
                assert got == ref_hnf_solve(rows, piv, v), (rows, v)
                hits += got is not None
                misses += got is None
    assert hits >= 2000 and misses >= 500
