"""Differential tests: everything read off the one Newton hull against the
routes that rebuilt it.

The references below are the earlier routes, kept verbatim up to access
paths: the pulling triangulation that hulls every facet again, the volume
over it, the volume chart as Z_A cut to the direction space of N, and the
enumeration started from the lower hull of the first generic random lift
(by the heights times their least common denominator, as the library
lifts), with the earlier circuits and flips of ``test_fan_walk_routes.py``
and one LP per candidate.
"""

import random
from collections import deque
from fractions import Fraction

from _corpus import integral_multiple
from test_chart_routes import ref_ambient_functional
from test_fan_walk_routes import ref_circuits, ref_flips
from test_hnf_routes import ref_intersect_subspace
from test_secondary_routes import FAMILY
from gkzkit.configuration import PointConfiguration
from gkzkit.intlinalg import clear_denominators, det_fraction, dot, vsub
from gkzkit.polytope import cell_volume, convex_hull, face_poset, pulling_cells
from gkzkit.secondary import (
    DegenerateHeightsError,
    Triangulation,
    _folding_rows,
    _lower_hull,
    enumerate_regular_triangulations,
    gkz_vector,
    is_regular,
)

# The earlier spot check's heights were integers over this denominator.
SPOT_DENOMINATOR = 992


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


def normalized_volume_ref(points) -> Fraction:
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


def _cell_volume(coords, cell) -> int:
    base = coords[cell[0]]
    rows = [vsub(coords[j], base) for j in cell[1:]]
    return abs(int(det_fraction(rows)))


def make_triangulation_ref(A, cells):
    coords = volume_chart(A)[1]
    cells = tuple(sorted(tuple(sorted(c)) for c in cells))
    vols = tuple(_cell_volume(coords, c) for c in cells)
    if any(v == 0 for v in vols):
        raise ValueError("degenerate cell")
    return Triangulation(cells, vols)


def regular_triangulation_ref(A, heights):
    coords = volume_chart(A)[1]
    heights = [Fraction(h) for h in heights]
    d = len(coords[0])
    # the heights times their least common denominator: the library's lift
    lifted = [(*x, w) for x, w in zip(coords, clear_denominators(heights))]
    hull = convex_hull(lifted)
    if hull.dim <= d:
        cells = [tuple(range(A.size))]
    else:
        cells = [
            tuple(sorted(on))
            for (h, _), on in zip(hull.facets, hull.facet_sets)
            if ref_ambient_functional(hull, h)[-1] < 0
        ]
    for cell in cells:
        if len(cell) != d + 1:
            raise DegenerateHeightsError(
                f"lower cell {cell} is not a simplex; perturb the heights"
            )
    T = make_triangulation_ref(A, cells)
    if T.total_volume != int(normalized_volume_ref(coords)):
        raise AssertionError("lower hull cells must cover the polytope")
    return T


def enumerate_ref(A):
    """The earlier enumeration: the first generic lift is hulled and starts
    the search."""
    rng = random.Random(20240 + A.size)
    draws = [[rng.randrange(-10**6, 10**6) for _ in range(A.size)] for _ in range(20)]
    for first, heights in enumerate(draws):
        try:
            start = regular_triangulation_ref(
                A, [Fraction(h, SPOT_DENOMINATOR) for h in heights]
            )
            break
        except DegenerateHeightsError:
            continue
    else:
        raise DegenerateHeightsError("no generic heights among 20 random draws")
    circuits = ref_circuits(volume_chart(A)[1])
    seen = {start.cells}
    queue = deque([start])
    certified = []
    while queue:
        T = queue.popleft()
        ok, witness = is_regular(A, T)
        if not ok:
            continue
        T = Triangulation(T.cells, T.volumes, clear_denominators(witness))
        certified.append((gkz_vector(A, T), T, _folding_rows(A, T)))
        for cells in ref_flips(frozenset(map(frozenset, T.cells)), circuits):
            U = make_triangulation_ref(A, cells)
            if U.total_volume != T.total_volume:
                raise AssertionError("a flip must keep the covered volume")
            if U.cells not in seen:
                seen.add(U.cells)
                queue.append(U)
    found = {T.cells for _, T, _ in certified}
    if start.cells not in found:
        raise AssertionError("the lower-hull triangulation that starts the search is not regular")
    for heights in draws[first + 1:]:
        try:
            T = _lower_hull(A, certified, heights)
        except DegenerateHeightsError:
            continue
        if T.cells not in found:
            raise AssertionError("random lower-hull triangulation missing from enumeration")
    return tuple(sorted((T for _, T, _ in certified), key=lambda T: T.cells))


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
    return sum(cell_volume(pts, c) for c in pulling_cells(face_poset(convex_hull(pts))))


def test_normalized_volume_matches_the_rehulled_faces():
    repeated = flat = 0
    for pts in POINT_SETS:
        repeated += len(set(pts)) < len(pts)
        try:
            expect = normalized_volume_ref(pts)
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
        assert A.volume == int(normalized_volume_ref(coords)), A.points
        assert A.affine_lattice.delta == lattice


def test_enumeration_matches_the_lifted_start():
    for A in FAMILY:
        got = enumerate_regular_triangulations(A)
        expect = enumerate_ref(A)
        assert [(T.cells, T.volumes) for T in got] == [
            (T.cells, T.volumes) for T in expect
        ], A.points
        # the witnesses differ: each must pass the reference's folding rows
        for T, R in zip(got, expect):
            assert all(dot(r, T.heights) < 0 for r in _folding_rows(A, R)), (A.points, T)
