"""Metamorphic tests: the invariants of a configuration do not depend on its
coordinates or on the order of its columns.

Each input of ``random_small_config`` is moved by a seeded unimodular change
of coordinates U of Z^(1+n) and a permutation of its columns.  U maps the
group Z_A onto Z_UA and each face onto a face, so every invariant below must
come back unchanged, once mapped by the transform: the faces as index sets,
the normalized volume, the integers (i, v, m) of every face, the points that
each saturation adds, the redundancy verdicts and, for at most 7 columns,
the regular triangulations.  No reference is needed, and the moved input
makes the HNF bases, charts and pivots differ from the original's.
"""

import random

from _corpus import random_small_config
from gkzkit.configuration import (
    PointConfiguration,
    is_lattice_redundant,
    multiplicity_table,
    saturate,
)
from gkzkit.intlinalg import det_fraction, dot
from gkzkit.secondary import enumerate_regular_triangulations

TRIANGULATION_MAX_COLUMNS = 7


def unimodular(rng, n):
    """An n x n integer matrix of determinant ±1: a product of a few
    elementary shears, a row swap and a sign change."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    i, j = rng.randrange(n), rng.randrange(n)
    U[i], U[j] = U[j], U[i]
    k = rng.randrange(n)
    U[k] = [-a for a in U[k]]
    return tuple(map(tuple, U))


def moved(rng, A):
    """(B, U, to): B holds the columns U a of A, the column j of A at index
    to[j] of B."""
    U = unimodular(rng, A.ambient_dim)
    assert abs(det_fraction(U)) == 1
    order = list(range(A.size))
    rng.shuffle(order)  # B's column k is A's column order[k]
    to = [0] * A.size
    for k, j in enumerate(order):
        to[j] = k
    B = PointConfiguration.from_columns([image(U, A.points[j]) for j in order])
    return B, U, to


def image(U, p):
    return tuple(dot(row, p) for row in U)


def indices(to, face_indices):
    return frozenset(to[j] for j in face_indices)


def invariants(A, to=None, U=None):
    """Every invariant of A, in B's index sets and coordinates when to and U
    map A's columns and points to B's."""
    to = to or list(range(A.size))
    point = (lambda p: image(U, p)) if U else tuple
    faces = {indices(to, f.indices): f.dim for f in A.poset.faces}
    mults = {
        indices(to, r.face.indices): (r.index_i, r.subvol_v, r.mult_m)
        for r in multiplicity_table(A)
    }
    added = {
        mode: frozenset(map(point, saturate(A, mode).added_points)) for mode in ("s", "p", "full")
    }
    redundant = {}
    for i in range(A.size):
        report = is_lattice_redundant(A, i)
        per_face = frozenset((indices(to, f), same) for f, same in report.per_face)
        redundant[to[i]] = (report.redundant, report.reason, per_face)
    triangulations = None
    if A.size <= TRIANGULATION_MAX_COLUMNS:
        triangulations = frozenset(
            frozenset((indices(to, c), v) for c, v in zip(T.cells, T.volumes))
            for T in enumerate_regular_triangulations(A)
        )
    return {
        "faces": faces,
        "volume": A.volume,
        "multiplicities": mults,
        "saturations": added,
        "redundancy": redundant,
        "triangulations": triangulations,
    }


def test_invariants_follow_a_change_of_coordinates_and_a_column_permutation():
    rng = random.Random(5)
    planar = triangulated = moved_charts = 0
    for _ in range(150):
        A = random_small_config(rng)
        B, U, to = moved(rng, A)
        got, want = invariants(B), invariants(A, to, U)
        for key in want:
            assert got[key] == want[key], (key, A.points, U, to)
        planar += A.newton.dim == 2
        triangulated += want["triangulations"] is not None
        moved_charts += B.newton.chart.basis != A.newton.chart.basis
    # both families, triangulations on most inputs, and HNF charts that differ
    assert planar >= 50 and 150 - planar >= 50
    assert triangulated >= 100 and moved_charts >= 100, (triangulated, moved_charts)
