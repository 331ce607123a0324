"""Differential tests: the double-description hull and the graded face poset
of ``gkzkit.polytope`` against the routes they replaced.

The references are the earlier routes, kept verbatim but for the input-size
point cap, which no longer exists: the hull as an exhaustive search over the
C(n, dim) point subsets, with a vertex test by the rank of the facets through
a point, and the face dims as the rank of each face's point differences.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from _corpus import CATALOG, MOTHER, integral_multiple
from test_chart_routes import rational_coordinates
from test_kernel_routes import ref_integer_orthogonal_complement as integer_orthogonal_complement
from gkzkit.intlinalg import clear_denominators, dot, rational_rank, vsub
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


def ref_face_poset(P: Polytope) -> FacePoset:
    """All nonempty faces of P, closed under intersection."""
    coords, active_sets = P.point_coords, P.facet_sets
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


def _point_set(rng):
    """(points, D): up to ten points of a random lattice of rank 1-4,
    embedded in ambient dimension up to 6 and translated, some repeated.
    Some sets are rational; they are scaled to integers by their least
    common denominator D, so their charts are proper sublattices."""
    dim = rng.randint(1, 4)
    ambient = rng.randint(dim, min(6, dim + 2))
    denominators = (1, 2, 3) if rng.random() < 0.2 else (1,)
    basis = [
        [Fraction(rng.randint(-2, 2), rng.choice(denominators)) for _ in range(ambient)]
        for _ in range(dim)
    ]
    shift = [rng.randint(-3, 3) for _ in range(ambient)]
    pts = []
    for _ in range(rng.randint(1, 10 if dim < 4 else 9)):
        if pts and rng.random() < 0.15:
            pts.append(rng.choice(pts))
            continue
        m = [rng.randint(-2, 2) for _ in range(dim)]
        p = [a + sum(k * b[j] for k, b in zip(m, basis)) for j, a in enumerate(shift)]
        pts.append(tuple(p))
    return integral_multiple(pts)


def _scaled_corpus():
    """The seeded sets as (points, D), D > 1 for a scaled rational set, and
    the fixed sets with D = 1."""
    rng = random.Random(20261018)
    sets = [_point_set(rng) for _ in range(2600)]
    fixed = [[(1, *p) for p in points] for points in (*CATALOG, MOTHER)]
    fixed.append([(t, t * t, t**3, t**4) for t in range(9)])  # a cyclic 4-polytope
    fixed.append([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)] * 2)
    return sets + [(pts, 1) for pts in fixed]


def _corpus():
    return [pts for pts, _ in _scaled_corpus()]


def test_hull_and_poset_match_the_subset_search():
    spread = {
        "dims": set(),
        "lower": 0,
        "scaled": 0,
        "repeated": 0,
        "interior": 0,
        "faces": 0,
    }
    for pts, D in _scaled_corpus():
        P, R = convex_hull(pts), ref_convex_hull(pts)
        assert P == R, pts
        assert P.facet_sets == R.facet_sets and P.point_coords == R.point_coords, pts
        faces = face_poset(P).faces
        assert faces == ref_face_poset(R).faces, pts
        spread["dims"].add(P.dim)
        spread["lower"] += P.dim < len(pts[0])
        spread["scaled"] += D > 1
        spread["repeated"] += len(set(pts)) < len(pts)
        spread["interior"] += len(P.vertex_indices) < len(set(pts))
        spread["faces"] += len(faces)
    assert spread["dims"] == {0, 1, 2, 3, 4}
    assert min(spread["lower"], spread["scaled"], spread["repeated"]) > 300, spread
    assert spread["interior"] > 400 and spread["faces"] > 30_000, spread
