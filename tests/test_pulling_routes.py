"""Differential tests: everything read off the one Newton hull against the
routes that rebuilt it.

The references below are the earlier routes, kept verbatim up to access
paths since commit 55c21be, which replaced them: the pulling triangulation
that hulls every facet again, the volume over it
(``ref_normalized_volume``), and the volume chart as Z_A cut to the
direction space of N.  They stay as the routes the one-hull reads replaced,
and as the most independent volume: it hulls each face again, so it runs
through no pulling of the library.  ``test_subdiagram_routes.py`` measures
the truncation route's volumes by ``ref_normalized_volume``.
"""

import random
from fractions import Fraction

from _corpus import integral_multiple
from test_hnf_routes import ref_intersect_subspace
from test_minors_routes import ref_cell_volume
from gkzkit.configuration import PointConfiguration
from gkzkit.intlinalg import det_fraction, vsub
from gkzkit.polytope import convex_hull, face_poset, pulling_cells


def triangulate_vertices(points):
    """Decompose conv(points) into simplices on the given points.

    Returns tuples of points; each simplex has dim+1 elements.  Points interior
    to the hull are ignored.
    """
    return _triangulate(convex_hull(points))


def _triangulate(P):
    """Pulling triangulation of the hull P from its least vertex."""
    verts = [P.points[i] for i in P.vertex_indices]
    if P.dim == 0:
        return [(verts[0],)]
    if len(verts) == P.dim + 1:
        return [tuple(verts)]
    poset = face_poset(P)
    v0 = min(verts)
    out = []
    for f in poset.of_dim(P.dim - 1):
        fpts = [P.points[i] for i in f.indices]
        if v0 in fpts:
            continue
        for s in triangulate_vertices(fpts):
            out.append((v0,) + s)
    return out


def ref_normalized_volume(points) -> Fraction:
    """Normalized volume of the full-dimensional conv(points), summed over the
    pulling triangulation that hulls every facet again."""
    pts = [tuple(p) for p in points]
    ambient = len(pts[0])
    P = convex_hull(pts)
    if P.dim != ambient:
        raise ValueError("normalized_volume needs full-dimensional input")
    total = Fraction(0)
    for simplex in _triangulate(P):
        rows = [vsub(p, simplex[0]) for p in simplex[1:]]
        total += abs(det_fraction(rows))
    return total


def volume_chart(A):
    """Basis of Z_A cut to the direction space of N; points in these coords."""
    span = [vsub(p, A.points[0]) for p in A.points[1:]]
    direction_lattice = ref_intersect_subspace(A.group_lattice, span)
    coords = tuple(direction_lattice.coordinates(vsub(p, A.points[0])) for p in A.points)
    if None in coords:
        raise AssertionError("config differences must lie in the direction lattice")
    return direction_lattice, coords


def _point_sets(seed, count):
    """Integer point sets in dimensions 1-4, some with repeated points and
    some of lower dimension.  Some are drawn rational and scaled to integers
    by their least common denominator."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        d = 1 + k % 4
        n = rng.randint(d + 1, min(d + 5, 9))
        rational = k % 3 == 1
        pts = [
            tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if rational
                else rng.randint(-3, 3)
                for _ in range(d)
            )
            for _ in range(n)
        ]
        if k % 5 == 2:  # flat: a hyperplane, or one point on the line
            pts = [pts[0]] * n if d == 1 else [(*p[:-1], p[0]) for p in pts]
        if k % 4 == 3:
            pts += rng.sample(pts, 2)
        out.append(integral_multiple(pts)[0])
    return out


POINT_SETS = _point_sets(5, 160)


def test_pulling_cells_match_the_rehulled_faces():
    flat = 0
    for pts in POINT_SETS:
        pts = list(dict.fromkeys(pts))
        P = convex_hull(pts)
        flat += P.dim < len(pts[0])
        got = {frozenset(pts[i] for i in c) for c in pulling_cells(face_poset(P))}
        assert got == {frozenset(s) for s in triangulate_vertices(pts)}, pts
        assert all(len(c) == P.dim + 1 for c in got)
    assert flat > 0


def pulled_volume(points):
    """Normalized volume of conv(points), summed over its pulling
    triangulation; repeated points count once."""
    pts = list(dict.fromkeys(tuple(p) for p in points))
    return sum(ref_cell_volume(pts, c) for c in pulling_cells(face_poset(convex_hull(pts))))


def test_normalized_volume_matches_the_rehulled_faces():
    repeated = flat = 0
    for pts in POINT_SETS:
        repeated += len(set(pts)) < len(pts)
        try:
            expect = ref_normalized_volume(pts)
        except ValueError:
            flat += 1
            assert convex_hull(pts).dim < len(pts[0]), pts
            continue
        assert pulled_volume(pts) == expect, pts
    assert repeated > 0 and flat > 0
    assert pulled_volume([(0,), (7,), (7,)]) == 7


def _homogeneous_configs(seed, count):
    """Configurations with first coordinate 1 or 2, some on sublattices, under
    a random unimodular change of coordinates."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        scale = rng.choice([1, 1, 2, 3])
        c = rng.choice([1, 2])
        cols = {
            (c, *(scale * rng.randint(-2, 2) for _ in range(d)))
            for _ in range(rng.randint(1, 6))
        }
        U = [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
        for _ in range(3):
            i, j = rng.sample(range(d + 1), 2)
            k = rng.randint(-2, 2)
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
        cols = sorted({tuple(sum(r[t] * p[t] for t in range(d + 1)) for r in U) for p in cols})
        out.append(PointConfiguration.from_columns(cols))
    return out


def test_chart_points_match_the_volume_chart():
    for A in _homogeneous_configs(9, 120):
        lattice, coords = volume_chart(A)
        assert A.newton.chart == lattice, A.points
        shift = vsub(A.chart_points[0], coords[0])
        assert all(vsub(x, y) == shift for x, y in zip(A.chart_points, coords)), A.points
        assert A.volume == int(ref_normalized_volume(coords)), A.points
