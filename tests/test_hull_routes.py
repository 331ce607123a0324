"""Differential tests: the double-description hull and the graded face poset
of ``gkzkit.polytope`` against the routes they replaced.

The references are the earlier routes, references since commit 425837f,
which replaced them, kept verbatim but for the input-size point cap, which
no longer exists: the hull as an exhaustive search over the C(n, dim) point
subsets (``ref_convex_hull``), with a vertex test by the rank of the facets
through a point, and the face dims as the rank of each face's point
differences (``ref_face_poset``).  They stay as the routes the
double-description pass replaced, and as the most independent hull: a
subset search shares no step with incremental rays.

``ref_chart_coordinates`` is the chart of ``convex_hull`` before its points
were solved in one pass: the lattice of the differences by
``Lattice.from_generators``, which checks them for integers again, and each
difference's coordinates by its own ``Lattice.coordinates`` call.  It is
compared here and, on the configuration corpora, in ``test_derived_routes``.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from _corpus import facet_indices, integral_multiple, rational_coordinates, scaled_hull_corpus
from test_kernel_routes import ref_integer_orthogonal_complement as integer_orthogonal_complement
from gkzkit.intlinalg import _ints, clear_denominators, dot, rational_rank, vsub
from gkzkit.lattice import Lattice
from gkzkit.polytope import Face, FacePoset, Polytope, convex_hull, face_poset


def ref_convex_hull(points) -> Polytope:
    """Exact hull of integer or rational points; V- and H-data consistent."""
    pts = tuple(tuple(p) for p in points)
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    anchor = min(pts)
    diffs = [vsub(p, anchor) for p in pts]
    # chart basis = HNF basis of the difference lattice, so integer input
    # points get integer chart coordinates
    gens = [clear_denominators(d) for d in diffs if any(d)]
    lat = Lattice.from_generators(gens, len(anchor))
    coords = tuple(rational_coordinates(lat, d) for d in diffs)
    dim = lat.rank
    if dim == 0:
        return Polytope(pts, 0, anchor, lat, (), (0,), coords, ())
    # the facet search runs on the integer points D * x: same hyperplanes,
    # same sides, without Fraction arithmetic in the inner loop
    D = lcm(*(a.denominator for x in coords for a in x))
    icoords = [tuple(int(a * D) for a in x) for x in coords]
    # facet (integer normal, integer offset) in chart coordinates -> points on it
    facets = {}
    for subset in itertools.combinations(range(len(pts)), dim):
        if any(s.issuperset(subset) for s in facets.values()):
            continue  # lies on a facet already found
        base = icoords[subset[0]]
        null = integer_orthogonal_complement([vsub(icoords[i], base) for i in subset[1:]], dim)
        if len(null) != 1:
            continue  # subset does not span a hyperplane in the chart
        h = null[0]
        c = dot(h, base)
        side_hi = any(dot(h, x) > c for x in icoords)
        side_lo = any(dot(h, x) < c for x in icoords)
        if side_hi and side_lo:
            continue
        if side_hi:
            h, c = tuple(-a for a in h), -c
        # h . x <= c / D in chart coordinates; as h is primitive, the least
        # integral multiple is (k h, c / g) with g = gcd(c, D), k = D / g
        g = gcd(c, D)
        facets[tuple(D // g * a for a in h), c // g] = frozenset(
            i for i, x in enumerate(icoords) if dot(h, x) == c
        )
    order = tuple(sorted(facets))
    vert = []
    for i, x in enumerate(icoords):
        active = [h for h, c in order if dot(h, x) == c * D]
        if active and rational_rank(active) == dim:
            vert.append(i)
    return Polytope(
        pts, dim, anchor, lat, order, tuple(vert), coords, tuple(facets[f] for f in order)
    )


def ref_chart_coordinates(points):
    """(chart lattice, chart coordinates of the points) of ``convex_hull``,
    one ``Lattice.coordinates`` call per point."""
    pts = tuple(tuple(_ints(p)) for p in points)
    anchor = min(pts)
    diffs = [vsub(p, anchor) for p in pts]
    lat = Lattice.from_generators([d for d in diffs if any(d)], len(anchor))
    return lat, tuple(lat.coordinates(d) for d in diffs)


def ref_face_poset(P: Polytope) -> FacePoset:
    """All nonempty faces of P, closed under intersection."""
    coords, active_sets = P.point_coords, tuple(map(facet_indices, P.facet_sets))
    all_idx = frozenset(range(len(P.points)))
    seen = {all_idx}
    queue = [all_idx]
    while queue:
        s = queue.pop()
        for a in active_sets:
            t = s & a
            if t and t not in seen:
                seen.add(t)
                queue.append(t)
    faces = []
    top = None
    for s in seen:
        pts = [coords[i] for i in s]
        d = rational_rank([vsub(x, pts[0]) for x in pts[1:]]) if len(pts) > 1 else 0
        if s == all_idx:
            sup = None
        else:
            hs = [(h, c) for (h, c), a in zip(P.facets, active_sets) if s <= a]
            sup = (
                tuple(sum(h[i] for h, _ in hs) for i in range(P.dim)),
                sum(c for _, c in hs),
            )
        face = Face(tuple(sorted(s)), sup, d)
        faces.append(face)
        if s == all_idx:
            top = face
    faces.sort(key=lambda f: (f.dim, f.indices))
    return FacePoset(P, tuple(faces), top)


# -- seeded inputs -----------------------------------------------------------------


def _small_sets():
    """(points, D): 300 seeded sets of up to nine distinct points in dimension
    1-4, every third rational and every fourth from the second on a
    hyperplane."""
    rng = random.Random(4242)
    out = []
    for trial in range(300):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 9)
        pts = set()
        for _ in range(count):
            p = [rng.randint(-2, 2) for _ in range(dim)]
            if trial % 3 == 0:  # rational points, scaled to integers below
                p = [Fraction(a, rng.choice((1, 2, 3))) for a in p]
            if trial % 4 == 1 and dim > 1:  # lower-dimensional: a hyperplane
                p[-1] = p[0] + 1
            pts.add(tuple(p))
        out.append(integral_multiple(sorted(pts)))
    return out


def test_hull_and_poset_match_the_subset_search():
    spread = {
        "dims": set(),
        "lower": 0,
        "scaled": 0,
        "repeated": 0,
        "interior": 0,
        "faces": 0,
        "small": 0,
    }
    corpus = [(pts, D, False) for pts, D in scaled_hull_corpus()]
    corpus += [(pts, D, True) for pts, D in _small_sets()]
    for pts, D, small in corpus:
        P, R = convex_hull(pts), ref_convex_hull(pts)
        assert P == R, pts
        assert tuple(map(facet_indices, P.facet_sets)) == R.facet_sets, pts
        assert P.point_coords == R.point_coords, pts
        assert (P.chart, P.point_coords) == ref_chart_coordinates(pts), pts
        faces = face_poset(P).faces
        assert faces == ref_face_poset(P).faces, pts
        spread["dims"].add(P.dim)
        spread["lower"] += P.dim < len(pts[0])
        spread["scaled"] += D > 1
        spread["repeated"] += len(set(pts)) < len(pts)
        spread["interior"] += len(P.vertex_indices) < len(set(pts))
        spread["faces"] += len(faces)
        spread["small"] += small and P.dim > 0
    assert spread["dims"] == {0, 1, 2, 3, 4} and spread["small"] > 250, spread
    assert min(spread["lower"], spread["scaled"], spread["repeated"]) > 300, spread
    assert spread["interior"] > 400 and spread["faces"] > 30_000, spread
