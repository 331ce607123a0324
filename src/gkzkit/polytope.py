"""Exact convex hulls, face posets and lattice-point enumeration.

Polytopes here are tiny (a dozen points, ambient dimension at most six), so
the hull is found by exhaustive facet search over point subsets with exact
rational arithmetic.  Configurations whose affine span drops dimension are
handled through an affine chart: facet data lives in chart coordinates, all
membership queries accept ambient points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .intlinalg import (
    clear_denominators,
    det_fraction,
    dot,
    primitive,
    rational_nullspace,
    rational_rank,
    solve_rational,
    vsub,
)
from .lattice import AffineLattice

HULL_POINT_CAP = 48


def _as_fraction_vec(p):
    return tuple(Fraction(a) for a in p)


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by the input points lying on it."""

    indices: tuple
    supporting: tuple | None  # (chart functional h, offset c); None for the top face
    dim: int

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class Polytope:
    points: tuple
    dim: int
    chart_anchor: tuple
    chart_basis: tuple  # tuples spanning the affine hull, ambient coords
    facets: tuple  # (primitive integer chart-normal h, integer offset c), h.x <= c inside
    vertex_indices: tuple

    # -- coordinates ---------------------------------------------------------

    def chart_coords(self, point):
        """Chart coordinates of an ambient point, or None if off the affine hull."""
        if self.dim == 0:
            return () if _as_fraction_vec(point) == _as_fraction_vec(self.chart_anchor) else None
        diff = vsub(_as_fraction_vec(point), _as_fraction_vec(self.chart_anchor))
        rows = tuple(zip(*self.chart_basis))  # ambient x dim matrix
        x = solve_rational(rows, diff)
        if x is None:
            return None
        back = tuple(
            sum(x[j] * Fraction(self.chart_basis[j][i]) for j in range(self.dim))
            for i in range(len(diff))
        )
        return x if back == diff else None

    def ambient_functional(self, h):
        """Integer ambient functional f with f . b_j = t * h_j on the chart
        basis vectors b_j, t > 0 the least factor making f integral.

        f restricts to t * h on the chart directions, so it orders points of
        the affine hull as the chart functional h does.
        """
        f = solve_rational(self.chart_basis, list(h))
        if f is None:
            raise AssertionError("chart basis must admit a dual functional")
        return clear_denominators(f)

    def contains(self, point) -> bool:
        x = self.chart_coords(point)
        if x is None:
            return False
        return all(dot(h, x) <= c for h, c in self.facets)

    def contains_strict(self, point) -> bool:
        """Membership in the relative interior."""
        x = self.chart_coords(point)
        if x is None:
            return False
        if self.dim == 0:
            return True
        return all(dot(h, x) < c for h, c in self.facets)

    @property
    def vertices(self):
        return tuple(self.points[i] for i in self.vertex_indices)


def convex_hull(points) -> Polytope:
    """Exact hull of integer or rational points; V- and H-data consistent."""
    pts = tuple(tuple(p) for p in points)
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    if len(pts) > HULL_POINT_CAP:
        raise ValueError(f"hull limited to {HULL_POINT_CAP} points, got {len(pts)}")
    anchor = min(pts, key=_as_fraction_vec)
    diffs = [vsub(_as_fraction_vec(p), _as_fraction_vec(anchor)) for p in pts]
    # chart basis = HNF basis of the difference lattice, so integer input
    # points get integer chart coordinates
    from .lattice import Lattice

    gens = [clear_denominators(d) for d in diffs if any(d)]
    lat = Lattice.from_generators(gens, len(anchor)) if gens else None
    dim = lat.rank if lat else 0
    if dim == 0:
        return Polytope(pts, 0, anchor, (), (), (0,))
    chart = Polytope(pts, dim, anchor, lat.generators(), (), ())
    coords = [chart.chart_coords(p) for p in pts]
    # the facet search runs on the integer points D * x: same hyperplanes,
    # same sides, without Fraction arithmetic in the inner loop
    D = lcm(*(a.denominator for x in coords for a in x))
    icoords = [tuple(int(a * D) for a in x) for x in coords]
    facets = set()
    on_facet = []  # index sets of the facet hyperplanes found so far
    for subset in itertools.combinations(range(len(pts)), dim):
        if any(s.issuperset(subset) for s in on_facet):
            continue  # lies on a facet already found
        base = icoords[subset[0]]
        if dim == 1:
            null = [(Fraction(1),)]
        else:
            rows = [vsub(icoords[i], base) for i in subset[1:]]
            null = rational_nullspace(rows)
        if len(null) != 1:
            continue  # subset does not span a hyperplane in the chart
        h = primitive(clear_denominators(null[0]))
        c = dot(h, base)
        side_hi = any(dot(h, x) > c for x in icoords)
        side_lo = any(dot(h, x) < c for x in icoords)
        if side_hi and side_lo:
            continue
        if side_hi:
            h, c = tuple(-a for a in h), -c
        on_facet.append(frozenset(i for i, x in enumerate(icoords) if dot(h, x) == c))
        hc = clear_denominators((*h, Fraction(c, D)))
        facets.add((hc[:-1], hc[-1]))
    facets = tuple(sorted(facets))
    vert = []
    for i, x in enumerate(icoords):
        active = [h for h, c in facets if dot(h, x) == c * D]
        if active and rational_rank(active) == dim:
            vert.append(i)
    return Polytope(pts, dim, anchor, lat.generators(), facets, tuple(vert))


@dataclass(frozen=True)
class FacePoset:
    polytope: Polytope
    faces: tuple  # all faces, graded by (dim, indices)
    top: Face

    def of_dim(self, d):
        return tuple(f for f in self.faces if f.dim == d)

    def face_with_indices(self, indices):
        key = tuple(sorted(indices))
        for f in self.faces:
            if f.indices == key:
                return f
        raise KeyError(f"no face with point set {key}")

    def subfaces(self, face: Face):
        s = set(face.indices)
        return tuple(f for f in self.faces if set(f.indices) <= s)

    def faces_containing(self, face: Face):
        s = set(face.indices)
        return tuple(f for f in self.faces if set(f.indices) >= s)


def face_poset(P: Polytope) -> FacePoset:
    """All nonempty faces of P, closed under intersection."""
    coords = [P.chart_coords(p) for p in P.points]
    active_sets = [
        frozenset(i for i, x in enumerate(coords) if dot(h, x) == c) for h, c in P.facets
    ]
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


def minimal_face_containing(poset: FacePoset, point) -> Face:
    """The unique face whose relative interior holds the point."""
    P = poset.polytope
    x = P.chart_coords(point)
    if x is None or not P.contains(point):
        raise ValueError(f"{tuple(point)} is not in the polytope")
    coords = [P.chart_coords(p) for p in P.points]
    s = set(range(len(P.points)))
    for h, c in P.facets:
        if dot(h, x) == c:
            s &= {i for i, y in enumerate(coords) if dot(h, y) == c}
    return poset.face_with_indices(s)


def face_polytope(poset_or_P, face: Face) -> Polytope:
    P = poset_or_P.polytope if isinstance(poset_or_P, FacePoset) else poset_or_P
    return convex_hull([P.points[i] for i in face.indices])


def lattice_points_in(P: Polytope, L: AffineLattice, strict: bool = False):
    """All points of the affine lattice inside P (relative interior if strict).

    Requires the rational span of L to contain P's affine hull.
    """
    if L.rank == 0:
        inside = P.contains_strict(L.anchor) if strict else P.contains(L.anchor)
        return (tuple(L.anchor),) if inside else ()
    gens = L.delta.generators()
    boxes = []
    for v in (P.points[i] for i in P.vertex_indices) if P.vertex_indices else P.points:
        x = L.delta.rational_coordinates(vsub(_as_fraction_vec(v), _as_fraction_vec(L.anchor)))
        if x is None:
            raise ValueError("lattice span does not contain the polytope's hull")
        boxes.append(x)
    lo = [min(b[i] for b in boxes) for i in range(L.rank)]
    hi = [max(b[i] for b in boxes) for i in range(L.rank)]
    out = []
    rng = [range(int(a.__ceil__()), int(b.__floor__()) + 1) for a, b in zip(lo, hi)]
    test = P.contains_strict if strict else P.contains
    for m in itertools.product(*rng):
        p = tuple(
            L.anchor[i] + sum(m[j] * gens[j][i] for j in range(L.rank))
            for i in range(len(L.anchor))
        )
        if test(p):
            out.append(p)
    return tuple(sorted(out))


def relative_interior_lattice_points(P: Polytope, face: Face, L: AffineLattice):
    """Lattice points strictly inside a face (the vertex itself for 0-faces)."""
    return lattice_points_in(face_polytope(P, face), L, strict=True)


def triangulate_vertices(points):
    """Decompose conv(points) into simplices on the given points.

    Returns tuples of points; each simplex has dim+1 elements.  Points interior
    to the hull are ignored.
    """
    return _triangulate(convex_hull(points))


def _triangulate(P: Polytope):
    """Pulling triangulation of the hull P from its least vertex."""
    verts = [P.points[i] for i in P.vertex_indices]
    if P.dim == 0:
        return [(verts[0],)]
    if len(verts) == P.dim + 1:
        return [tuple(verts)]
    poset = face_poset(P)
    v0 = min(verts, key=_as_fraction_vec)
    out = []
    for f in poset.of_dim(P.dim - 1):
        fpts = [P.points[i] for i in f.indices]
        if v0 in fpts:
            continue
        for s in triangulate_vertices(fpts):
            out.append((v0,) + s)
    return out


def normalized_volume(points) -> Fraction:
    """Lattice-normalized volume of conv(points) in the given coordinates.

    The coordinates are taken to be lattice coordinates: a unimodular simplex
    has volume 1 (this is dim! times the Euclidean volume).  The hull must be
    full-dimensional in those coordinates.
    """
    pts = [tuple(p) for p in points]
    ambient = len(pts[0])
    P = convex_hull(pts)
    if P.dim != ambient:
        raise ValueError("normalized_volume needs full-dimensional input")
    total = Fraction(0)
    for simplex in _triangulate(P):
        rows = [vsub(_as_fraction_vec(p), _as_fraction_vec(simplex[0])) for p in simplex[1:]]
        total += abs(det_fraction(rows))
    return total
