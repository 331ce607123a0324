"""Differential tests: the list-based column HNF kernel and the integer
kernel against the routes they replaced.

The references are the earlier routes, references since commit 29d0397,
which replaced them, kept verbatim but for their matrices, which are tuples
of rows here as in the library: ``column_hnf`` on tuples with the unimodular
transform always built (``ref_column_hnf``), its ``_colop_sub`` helper,
``Lattice.from_generators`` through a matrix round trip that discarded the
transform (``ref_from_generators``), ``hnf_solve`` with generator sums
(``ref_hnf_solve``), and ``Lattice.coordinates`` through ``hnf_solve``'s
rational coordinates (``ref_coordinates``, the route until the integer
forward substitution).  They stay as the routes the in-place kernel replaced;
sympy's HNF in ``test_lattice_core.py`` is the independent one.  The routes
under test run through the one in-place kernel ``intlinalg._hnf``; only
``_hnf_kernel``, behind ``integer_kernel_basis`` and the face HNF, and the
HNF behind ``PointConfiguration.facet_constraints`` carry the transform.
The tests here run ``_hnf`` with a transform block they build themselves,
``hnf_with_transform``.

The integer kernel is checked against ``ref_integer_kernel_basis`` (the
zero columns of ``ref_column_hnf``) and against the span of the Fraction
orthogonal complement, ``ref_integer_orthogonal_complement`` of
``test_kernel_routes.py``, on that file's seeded matrices, on every input
the faces of the routes corpora hand to it, on the rows X of their facet
constraints' HNF (whose L and kernel are ``_hnf_kernel``'s), and on the
start-facet rows the earlier hull start, ``ref_start`` of
``test_elimination_routes.py``, builds on the hull corpus (the hull's own
start takes no kernel).

``ref_intersect_subspace`` is the earlier ``Lattice.intersect_subspace`` on
these references.  The library no longer has it; the index, quotient and
chart references of other test files take Z_A ∩ span Γ from it.
"""

import random
from fractions import Fraction
from math import lcm

from _corpus import (
    collinear,
    coplanar,
    face_corpus,
    from_columns,
    hnf_with_transform,
    hull_corpus,
    random_rows,
    skewed_configs,
    solid_configs,
    width,
)
from test_elimination_routes import ref_start
from test_kernel_routes import ref_integer_orthogonal_complement as integer_orthogonal_complement
from gkzkit import configuration, intlinalg, polytope
from gkzkit.configuration import _face_quotient_images
from gkzkit.intlinalg import (
    _hnf,
    _hnf_kernel,
    clear_denominators,
    dot,
    integer_kernel_basis,
    rational_rank,
    xgcd,
)
from gkzkit.lattice import Lattice, hnf_solve
from gkzkit.polytope import convex_hull

# -- references: the parent's HNF routes, verbatim ------------------------------


def _colop_sub(cols, j, src, q):
    cols[j] = tuple(a - q * b for a, b in zip(cols[j], cols[src]))


def ref_column_hnf(M):
    """Canonical column Hermite normal form.

    Returns (H, U) with H = M*U, U unimodular.  Convention: pivots are
    positive, each pivot is the first nonzero entry of its column (pivot rows
    strictly increasing left to right), entries to the left of a pivot in its
    row lie in [0, pivot), and zero columns are shifted to the right.
    """
    m, n = len(M), width(M)
    cols = list(zip(*M))
    ucols = [tuple(int(i == j) for i in range(n)) for j in range(n)]
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
    H = from_columns(cols, m)
    U = from_columns(ucols, n)
    return H, U


def ref_integer_kernel_basis(M):
    """Basis of {u in Z^cols : M*u = 0}, as a tuple of integer vectors."""
    H, U = ref_column_hnf(M)
    out = []
    for j in range(width(M)):
        if all(H[i][j] == 0 for i in range(len(M))):
            out.append(tuple(row[j] for row in U))
    return tuple(out)


def ref_from_generators(generators, ambient_dim: int | None = None) -> Lattice:
    generators = [tuple(int(a) for a in g) for g in generators]
    if ambient_dim is None:
        if not generators:
            raise ValueError("empty generator list needs explicit ambient_dim")
        ambient_dim = len(generators[0])
    H, _ = ref_column_hnf(from_columns(generators, ambient_dim))
    cols = [c for c in zip(*H) if any(c)]
    return Lattice(ambient_dim, from_columns(cols, ambient_dim))


def ref_intersect_subspace(self: Lattice, spanning_vectors) -> Lattice:
    """The saturated sublattice of self lying in the rational span of the vectors."""
    constraints = integer_orthogonal_complement(spanning_vectors, self.ambient_dim)
    rows = tuple(
        tuple(sum(c[i] * g[i] for i in range(self.ambient_dim)) for g in self.generators())
        for c in constraints
    )
    if not rows:
        return self
    kernel = ref_integer_kernel_basis(rows)
    gens = [tuple(dot(row, k) for row in self.basis) for k in kernel]
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
    return from_columns([tuple(c) for c in cols], m)


def _corpus(seed, count):
    rng = random.Random(seed)
    return [(rng, _matrix(rng)) for _ in range(count)]


def _shape_counts(corpus):
    counts = {"no columns": 0, "zero row": 0, "zero column": 0, "repeated": 0, "deficient": 0}
    for _, M in corpus:
        cols = list(zip(*M))
        counts["no columns"] += not cols
        counts["zero row"] += bool(cols) and any(not any(r) for r in M)
        counts["zero column"] += any(not any(c) for c in cols)
        counts["repeated"] += len(set(cols)) < len(cols)
        counts["deficient"] += ref_from_generators(cols, len(M)).rank < min(len(M), width(M))
    return counts


def test_hnf_with_a_transform_block_matches_the_tuple_route():
    corpus = _corpus(2024, 2400)
    for _, M in corpus:
        assert hnf_with_transform(M) == ref_column_hnf(M), M
    assert all(c >= 100 for c in _shape_counts(corpus).values())


def test_lattices_match_the_tuple_route():
    kernels = 0
    for _, M in _corpus(77, 800):
        cols = list(zip(*M))
        L = Lattice.from_generators(cols, len(M))
        assert L == ref_from_generators(cols, len(M))
        assert Lattice.from_generators([list(c) for c in cols], len(M)) == L
        ker = integer_kernel_basis(M, width(M))
        assert ker == ref_integer_kernel_basis(M)
        kernels += bool(ker)
    assert kernels >= 200


def test_hnf_solve_matches_the_generator_sums():
    hits = misses = 0
    for rng, M in _corpus(5, 600):
        L = Lattice.from_generators(zip(*M), len(M))
        rows, piv = L.basis, L.pivots
        for _ in range(4):
            k = [rng.randint(-5, 5) for _ in range(L.rank)]
            member = [sum(c * g[i] for c, g in zip(k, L.generators())) for i in range(len(M))]
            den = rng.choice((1, 1, 2, 6))
            queries = (
                member,
                [Fraction(a, den) for a in member],
                [rng.randint(-9, 9) for _ in range(len(M))],
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(len(M))],
            )
            for v in queries:
                got = hnf_solve(rows, piv, v)
                assert got == ref_hnf_solve(rows, piv, v), (rows, v)
                hits += got is not None
                misses += got is None
    assert hits >= 2000 and misses >= 500


def ref_coordinates(L, v):
    """The earlier ``Lattice.coordinates``: ``hnf_solve``'s rational
    coordinates, integral exactly for members, here from ``ref_hnf_solve``,
    which shares no code with the library's substitution."""
    solved = ref_hnf_solve(L.basis, L.pivots, v)
    if solved is None or any(n % solved[1] for n in solved[0]):
        return None
    return tuple(n // solved[1] for n in solved[0])


def test_coordinates_match_the_hnf_solve_route():
    # members B k; B k + e_p on a pivot row p whose pivot exceeds 1, which
    # fails the division at p's step; B k + e_i on a row i that is no pivot
    # row, which passes every step and fails only the residual; random
    # integer and rational vectors
    kinds = dict.fromkeys(("member", "step", "residual", "random"), 0)
    for rng, M in _corpus(9, 800):
        L = Lattice.from_generators(zip(*M), len(M))
        n = len(M)
        for _ in range(3):
            k = [rng.randint(-5, 5) for _ in range(L.rank)]
            member = [sum(c * g[i] for c, g in zip(k, L.generators())) for i in range(n)]
            queries = [("member", member)]
            for kind, rows in (
                ("step", [p for j, p in enumerate(L.pivots) if L.basis[p][j] > 1]),
                ("residual", [i for i in range(n) if i not in L.pivots]),
            ):
                if rows:
                    i = rng.choice(rows)
                    queries.append((kind, [a + (r == i) for r, a in enumerate(member)]))
            queries += [
                ("random", [rng.randint(-9, 9) for _ in range(n)]),
                ("random", [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]),
            ]
            for kind, v in queries:
                got = L.coordinates(v)
                assert got == ref_coordinates(L, v), (L.basis, v)
                assert (v in L) == (got is not None)
                if kind == "member":
                    assert got == tuple(k)
                elif kind != "random":
                    assert got is None
                kinds[kind] += 1
    assert min(kinds.values()) >= 500, kinds


# -- the integer kernel ------------------------------------------------------------


def _check_kernel(rows, n):
    """The kernel of integer rows of length n against the references; returns
    its rank."""
    L, K = _hnf_kernel(rows, n)
    ker = integer_kernel_basis(rows, n)
    assert ker == tuple(map(tuple, K)), (rows, n)
    if rows:
        H, _ = ref_column_hnf(rows)
        assert ker == ref_integer_kernel_basis(rows), (rows, n)
        assert L == [list(c) for c in zip(*H) if any(c)], (rows, n)
    else:
        assert L == [] and ker == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert all(dot(row, u) == 0 for row in rows for u in ker)
    # the same rational span as the Bareiss orthogonal complement
    complement = integer_orthogonal_complement(rows, n)
    assert len(ker) == len(complement) == rational_rank([*ker, *complement]), (rows, n)
    return len(ker)


def test_kernel_matches_the_references_on_seeded_matrices():
    # the seeded rational rows of test_kernel_routes.py, some of them sums of
    # earlier rows; each row is scaled to integers, which keeps its kernel
    rng = random.Random(20240515)
    shapes = {"no rows": 0, "zero row": 0, "deficient": 0, "trivial kernel": 0, "rank >= 2": 0}
    for trial in range(2000):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        rows = [list(clear_denominators(r)) for r in random_rows(rng, m, n, trial % 2 == 1)]
        r = _check_kernel(rows, n)
        shapes["no rows"] += not rows
        shapes["zero row"] += any(not any(row) for row in rows)
        shapes["deficient"] += rational_rank(rows) < min(m, n)
        shapes["trivial kernel"] += r == 0
        shapes["rank >= 2"] += r >= 2
    assert min(shapes.values()) >= 100, shapes


def test_kernel_matches_the_references_on_the_hull_and_face_inputs(monkeypatch):
    inputs = set()

    def spy(rows, n):
        inputs.add((tuple(map(tuple, rows)), n))
        return _hnf_kernel(rows, n)

    def facet_spy(cols, m):
        # the facet constraints' HNF of X, run with the identity below X,
        # reads the L and the kernel that _hnf_kernel(X, n) returns
        if cols and len(cols[0]) > m:
            inputs.add((tuple(zip(*(c[:m] for c in cols))), len(cols)))
        return _hnf(cols, m)

    monkeypatch.setattr(intlinalg, "_hnf_kernel", spy)
    monkeypatch.setattr(configuration, "_hnf_kernel", spy)
    monkeypatch.setattr(configuration, "_hnf", facet_spy)
    # the hull's start reaches no kernel; its earlier route took one per facet
    monkeypatch.setattr(polytope, "_start", ref_start)
    for pts in hull_corpus():
        convex_hull(pts)
    hulls = len(inputs)
    configs = [
        *face_corpus(),
        *(collinear(n) for n in (1, 5, 16)),
        *(coplanar(n) for n in (2, 4, 6)),
        *solid_configs(5, 3),
        *solid_configs(7, 1),
        *skewed_configs(47, 120),
    ]
    for A in configs:
        A.facet_constraints
        # the oracle's quotient runs the face HNF on every proper face; the
        # library's reads vertices and facets off the Newton hull
        for face in A.poset.faces:
            if face.supporting is not None:
                _face_quotient_images(A, face)
    monkeypatch.undo()
    ranks = [_check_kernel([list(row) for row in rows], n) for rows, n in inputs]
    assert hulls >= 2000 and len(inputs) - hulls >= 500, (hulls, len(inputs))
    # a vertex hands the face HNF no rows
    assert any(rows == () for rows, _ in inputs)
    assert {1, 2, 3} <= set(ranks)  # a proper face of A leaves a nonzero quotient
