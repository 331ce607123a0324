"""Exact convex hulls, face posets and lattice-point enumeration.

Polytopes here are small (at most a few hundred points) and highly
degenerate, so the hull is exact and integral: a double-description pass over
integer chart coordinates, which needs no general position, under a budget on
the facet pairs it tests.  Configurations whose affine span drops dimension
are handled through an affine chart: facet data lives in chart coordinates,
and lattice-point queries take lattices of chart coordinates.  Every simplex
volume is read off the hull's one table of minors, which lives as long as it;
each lattice-point scan hit is placed once, in a table derived hulls share.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod
from operator import add, mul

from .intlinalg import _ints, _reduce, dot, record, vec_gcd, vsub
from .lattice import Lattice, _substitute, hnf_solve

# Candidate facet pairs that one hull may test.  The largest hull of the test
# suite needs 8333 (the 128 GKZ vectors of the 9-point segment), those of the
# benchmark workloads and the scripts 59, `curve verify` on the support
# {0,...,5} 651; the cyclic 6-polytope on 24 points needs 711416.
HULL_PAIR_CAP = 200_000
# Points of the search box that lattice_points_in may test.  The largest box
# the benchmark workloads and the scripts reach has 45 points; the test suite
# reaches 7722 on purpose, in its lattice-point routes corpora.
# The cap bounds the box's size, not the work of finding the points inside:
# every box point is tested, so a box under it can still hold few hits.
LATTICE_BOX_CAP = 10_000


class BudgetError(ValueError):
    """A computation would exceed one of gkzkit's work budgets: the hull's
    candidate facet pairs, the lattice-point search box, the triangulation
    enumeration cap or the symbolic degree cap.  The message says which."""


@record
class Face:
    """A face of a polytope, identified by the input points lying on it."""

    indices: tuple
    supporting: tuple | None  # (chart functional h, offset c); None for the top face
    dim: int


@record(hidden=("point_coords", "facet_sets"))
class Polytope:
    points: tuple
    dim: int
    chart_anchor: tuple
    chart: Lattice  # HNF lattice of the point differences; its basis spans the affine hull
    facets: tuple  # (primitive integer chart-normal h, integer offset c), h.x <= c inside
    vertex_indices: tuple
    point_coords: tuple  # chart coordinates of ``points``
    facet_sets: tuple  # bit masks of the points on each facet: bit j for point j

    @property
    def vertices(self):
        return tuple(self.points[i] for i in self.vertex_indices)

    @cached_property
    def minors(self):
        """The signed minors of the points, filled on demand (see :class:`_Minors`)."""
        return _Minors(self.point_coords)

    def minor(self, cols) -> int:
        """The signed minor of the dim + 1 points ``cols`` in :attr:`minors`."""
        return self.minors[_mask(cols)]

    @cached_property
    def placements(self):
        """Ambient point -> (chart coordinates, bit mask of the facets it is
        tight on), for each hit of a :func:`lattice_points_in` scan of this
        hull or of a hull that shares the table: the hulls that
        :func:`extended_hull` and :func:`deleted_hull` derive keep the
        facets, chart and anchor, and share it."""
        return {}


def _placement(P: Polytope, p):
    """p's placement in P (see :attr:`Polytope.placements`), or None when p
    is off P or off its affine lattice: a scan hit's, which the scan's slack
    tests certify, or else solved in the chart and tested on every facet."""
    placed = P.placements.get(p)
    if placed is None:
        x = P.chart.coordinates(vsub(p, P.chart_anchor))
        slack = [] if x is None else [c - dot(h, x) for h, c in P.facets]
        if x is None or min(slack, default=0) < 0:
            return None
        placed = x, _mask(j for j, s in enumerate(slack) if not s)
    return placed


class _Minors(dict):
    """Signed maximal minors of the homogenised chart points (1, x_j), filled
    on demand: a mask of dim + 1 points maps to the determinant of their
    rows (1, x_j), ascending, the absolute value of which is the cell's
    normalized volume.  A missing entry is that of the differences x_j - x_0
    from the first point: one fraction-free elimination, its last pivot times
    the sign of its row swaps.  Only the entries asked for are kept."""

    def __init__(self, coords):
        self.coords = coords

    def __missing__(self, mask):
        base, *rest = (x for j, x in enumerate(self.coords) if mask >> j & 1)
        rows = [vsub(x, base) for x in rest]
        pivots, d, sign = _reduce(rows, len(rows))
        minor = sign * d if len(pivots) == len(rows) else 0
        self[mask] = minor
        return minor


def _mask(cols) -> int:
    """The bit mask of the distinct indices ``cols``: a key of :class:`_Minors`,
    a face's point set in :class:`FacePoset`."""
    return sum(1 << j for j in cols)


def _bits(mask) -> tuple:
    """The indices of the set bits of ``mask``, ascending: the inverse of :func:`_mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _start(icoords, dim):
    """(start, rays) for integer points in Z^dim: affinely independent ones,
    the first of each new direction, and the facet of their simplex opposite
    each, or rays None when the points are not full-dimensional.  One
    fraction-free elimination of (1, ..., 1) and the coordinate rows, with
    the identity beside them, gives T B = d I on the pivot columns B: row k
    of sign(d) T is (c, w) with c + w . x = 0 on the other start points, and
    (-w, c) / gcd(w) is the facet opposite k."""
    n, eye = len(icoords), range(dim + 1)
    rows = [[*r, *(int(i == k) for k in eye)] for i, r in enumerate([[1] * n, *zip(*icoords)])]
    start, d, _ = _reduce(rows, n)
    if len(start) <= dim:
        return start, None
    rays = []
    for i, row in zip(start, rows):
        c, *w = row[n:] if d > 0 else [-a for a in row[n:]]
        g = vec_gcd(w)
        rays.append((tuple(-a // g for a in w), c // g, _mask(j for j in start if j != i)))
    return start, rays


def _facet_rays(icoords, dim):
    """The facets of conv(icoords), integer points in Z^dim, as (primitive
    integer h, c, bit mask of the points with h . x = c), h . x <= c on every
    point; None when the points are not full-dimensional.

    Double description (Fukuda & Prodon, *Double description method
    revisited*, 1996): the inequalities (h, c) valid on the points inserted so
    far form a pointed cone, and its extreme rays are their hull's facets.
    Each ray carries its set Z of inserted points tight on it.  The pass
    starts from a simplex, whose dim + 1 facets, read off one elimination by
    :func:`_start`, are the rays of its cone.  Inserting a point x keeps the
    rays with s = h . x - c <= 0, adding x to Z where s = 0, and combines
    each kept ray a with s_a < 0 and each cut ray b with s_b > 0 into
    s_b a - s_a b, which is tight on x, if a and b are adjacent.  Adjacency
    is decided on the Z sets alone: the face of the cone tight on
    Z = Z_a & Z_b is spanned by the rays whose Z contains Z, so it is the
    2-face spanned by a and b iff no third ray's Z contains Z; a 2-face needs
    at least dim - 1 tight points.  No general position is needed, and
    repeated points are tight together.

    More than HULL_PAIR_CAP candidate pairs raise BudgetError.
    """
    start, rays = _start(icoords, dim)
    if rays is None:
        return None
    rest = sorted(set(range(len(icoords))) - set(start))
    pairs = 0
    for step, i in enumerate(rest):
        x, bit = icoords[i], 1 << i
        cut, kept, below = [], [], []
        for h, c, z in rays:
            s = dot(h, x) - c
            if s > 0:
                cut.append((s, h, c, z))
            elif s:
                kept.append((h, c, z))
                below.append((s, h, c, z))
            else:
                kept.append((h, c, z | bit))
        pairs += len(below) * len(cut)
        if pairs > HULL_PAIR_CAP:
            raise BudgetError(
                f"hull limited to {HULL_PAIR_CAP} candidate facet pairs, {pairs} needed "
                f"with {len(start) + step} of {len(icoords)} points inserted "
                f"and {len(rays)} facets so far"
            )
        masks = [z for _, _, z in rays]
        for sa, ha, ca, za in below:
            for sb, hb, cb, zb in cut:
                z = za & zb
                if z.bit_count() < dim - 1 or sum(w & z == z for w in masks) > 2:
                    continue
                h = [sb * a - sa * b for a, b in zip(ha, hb)]
                g = vec_gcd(h)
                kept.append((tuple(a // g for a in h), (sb * ca - sa * cb) // g, z | bit))
        rays = kept
    return rays


def convex_hull(points) -> Polytope:
    """Exact hull of integer points; V- and H-data consistent.  An entry
    that is not an integer raises ValueError naming it."""
    pts = tuple(tuple(_ints(p)) for p in points)
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    anchor = min(pts)
    diffs = [vsub(p, anchor) for p in pts]
    # chart basis = HNF basis of the difference lattice, so every difference
    # has integer chart coordinates, solved in one pass
    lat = Lattice._spanned([list(d) for d in diffs if any(d)], len(anchor))
    dim = lat.rank
    coords = tuple(map(tuple, _substitute(lat.basis, lat.pivots, diffs)))
    if dim == 0:
        return Polytope(pts, 0, anchor, lat, (), (0,), coords, ())
    facets = {(h, c): z for h, c, z in _facet_rays(coords, dim)}
    order = tuple(sorted(facets))
    masks = tuple(facets[f] for f in order)
    # a point is a vertex iff the facets through it meet in copies of it
    everything = (1 << len(pts)) - 1
    copies = {}
    for i, x in enumerate(coords):
        copies[x] = copies.get(x, 0) | 1 << i
    vert = []
    for i, x in enumerate(coords):
        meet = everything
        for z in masks:
            if z >> i & 1:
                meet &= z
        if meet & ~copies[x] == 0:
            vert.append(i)
    return Polytope(pts, dim, anchor, lat, order, tuple(vert), coords, masks)


def extended_hull(P: Polytope, new):
    """convex_hull(P.points + new), read off P when every new integer point
    lies in P and on the affine lattice chart_anchor + P.chart, and None
    otherwise.  The new points must be distinct from P's.

    Such points keep the hull, its facets, its vertices and the difference
    lattice.  They keep the chart anchor too: min(points) is the least point
    of P in the lexicographic order, and that is a vertex (minimising each
    coordinate in turn narrows P to a face each time, down to a point).  So
    the new points only add their chart coordinates, and their bits, from
    len(P.points) on, to the masks of the facets they are tight on: both are
    read off their placements (see :func:`_placement`), and the new hull
    shares P's table of them.
    """
    placed = [_placement(P, p) for p in new]
    if None in placed:
        return None
    sets = list(P.facet_sets)
    for k, (_, tight) in enumerate(placed, len(P.points)):
        for j in _bits(tight):
            sets[j] |= 1 << k
    Q = Polytope(
        (*P.points, *new), P.dim, P.chart_anchor, P.chart, P.facets, P.vertex_indices,
        (*P.point_coords, *(x for x, _ in placed)), tuple(sets),
    )
    vars(Q)["placements"] = P.placements
    return Q


def deleted_hull(P: Polytope, i: int) -> Polytope:
    """convex_hull of P's points without point i, read off P, for a point i
    that is not a vertex of P and without which the points' differences
    still generate the chart lattice.

    Such a deletion keeps the hull, its facets and the chart; it keeps the
    chart anchor too, a vertex (see :func:`extended_hull`), and so every
    other point's chart coordinates.  Only the indices move: point j > i
    becomes j - 1, in the vertex indices and the chart coordinates, and the
    facet masks lose bit i and shift their higher bits down by one.  The
    placements stay, and the new hull shares P's table of them.
    """
    Q = Polytope(
        P.points[:i] + P.points[i + 1:], P.dim, P.chart_anchor, P.chart, P.facets,
        tuple(j - (j > i) for j in P.vertex_indices),
        P.point_coords[:i] + P.point_coords[i + 1:],
        tuple(_dropped(z, i) for z in P.facet_sets),
    )
    vars(Q)["placements"] = P.placements
    return Q


def _dropped(mask, i):
    """``mask`` without bit i, its higher bits shifted down by one."""
    return mask & ((1 << i) - 1) | mask >> (i + 1) << i


@record
class FacePoset:
    polytope: Polytope
    faces: tuple  # all faces, graded by (dim, indices)
    top: Face

    def of_dim(self, d):
        return tuple(f for f in self.faces if f.dim == d)

    @cached_property
    def _by_mask(self):
        """Each face's bit mask of point indices -> the face, in the order of
        ``faces``; the constructors below seed it."""
        return {_mask(f.indices): f for f in self.faces}

    @cached_property
    def _signatures(self):
        """Each face's mask -> its facet signature, the mask of the facets
        through it (0 for the top face); the constructors below seed it."""
        sets = self.polytope.facet_sets
        return {m: _mask(j for j, z in enumerate(sets) if m & z == m) for m in self._by_mask}

    def face_with_indices(self, indices):
        key = tuple(sorted(indices))
        try:  # 1 << j raises on a negative or a non-integer j
            face = self._by_mask.get(_mask(key))
        except (TypeError, ValueError):
            face = None
        if face is None or face.indices != key:  # a repeated j adds up to another mask
            raise KeyError(f"no face with point set {key}")
        return face

    def subfaces(self, face: Face):
        m = _mask(face.indices)
        return tuple(f for z, f in self._by_mask.items() if z & m == z)


def _poset(P: Polytope, faces) -> FacePoset:
    """The FacePoset of P on (mask, face, facet signature) triples in graded
    order, with its mask and signature tables."""
    by_mask = {m: f for m, f, _ in faces}
    poset = FacePoset(P, tuple(by_mask.values()), by_mask[(1 << len(P.points)) - 1])
    vars(poset)["_by_mask"] = by_mask
    vars(poset)["_signatures"] = {m: s for m, _, s in faces}
    return poset


def _graded(item):
    return item[1].dim, item[1].indices


def face_poset(P: Polytope) -> FacePoset:
    """All nonempty faces of P, graded top down (Kaibel & Pfetsch,
    *Computing the face lattice of a polytope from its vertex-facet
    incidences*, 2002).

    Faces are point masks, and those of the facets are P's facet masks.  The
    facets of a smaller face G are the maximal nonempty proper intersections
    of G with the facet masks: a facet F of G is a face of P, the meet of
    the facets of P through it, one of which misses G, and that one cuts G
    to a proper face of G holding F, so to F itself.  A face's supporting
    functional is the sum of the facets through it, and its facet signature
    their mask.
    """
    facets = tuple(zip(P.facets, P.facet_sets))
    everything = (1 << len(P.points)) - 1
    faces = [(everything, Face(_bits(everything), None, P.dim), 0)]
    level = P.facet_sets
    for d in range(P.dim - 1, -1, -1):
        below = set()
        for g in level:
            through, cuts, signature = [], set(), 0
            for j, (f, z) in enumerate(facets):
                t = g & z
                if t == g:
                    through.append(f)
                    signature |= 1 << j
                elif t:
                    cuts.add(t)
            kept = []  # the maximal cuts: none lies in a larger one
            for t in sorted(cuts, key=int.bit_count, reverse=True):
                for k in kept:
                    if t & k == t:
                        break
                else:
                    kept.append(t)
            below.update(kept)
            if len(through) > 1:
                hs, cs = zip(*through)
                through = [(tuple(map(sum, zip(*hs))), sum(cs))]
            faces.append((g, Face(_bits(g), through[0], d), signature))
        level = below
    faces.sort(key=_graded)
    return _poset(P, faces)


def extended_poset(F: FacePoset, P: Polytope) -> FacePoset:
    """face_poset(P) read off F, for P = :func:`extended_hull` of F's
    polytope.  The new points keep the hull, so each face keeps its dim, its
    supporting functional and its facet signature.  A new point joins the
    face iff it lies on every facet through the face, that is iff its mask
    of tight facets, read off P's facet masks, holds the face's signature,
    and it always joins the top face, whose signature is 0.  Two faces of one
    dim do not nest, so neither one's indices are a prefix of the other's,
    and appending the new indices, past the old ones, keeps the graded order.
    """
    n, sets = len(F.polytope.points), P.facet_sets
    new = [(j, _mask(k for k, z in enumerate(sets) if z >> j & 1)) for j in range(n, len(P.points))]
    signatures, faces = F._signatures, []
    for m, f in F._by_mask.items():
        s = signatures[m]
        m |= _mask(j for j, tight in new if tight & s == s)
        faces.append((m, Face(_bits(m), f.supporting, f.dim), s))
    return _poset(P, faces)


def deleted_poset(F: FacePoset, P: Polytope, i: int) -> FacePoset:
    """face_poset(P) read off F, for P = :func:`deleted_hull` of F's polytope
    and point i: the faces keep their dims and supporting functionals, and their
    masks lose bit i and shift as the facet masks do.  That can change the
    graded order, so the faces are sorted again.  Facet signatures stay."""
    signatures, faces = F._signatures, []
    for m, f in F._by_mask.items():
        k = _dropped(m, i)
        faces.append((k, Face(_bits(k), f.supporting, f.dim), signatures[m]))
    faces.sort(key=_graded)
    return _poset(P, faces)


def lattice_points_in(P: Polytope, L: Lattice | None = None, face: Face | None = None):
    """The points of P whose chart coordinates lie on x_v + L, as sorted
    (ambient point, mask) pairs: L is a lattice of chart coordinates (Z^dim
    by default) and x_v the chart coordinates of the face's first point.
    Bit j of mask is set when the point lies on ``P.facets[j]``, so the
    point is in the relative interior of the face where those facets meet.

    Given a face of P, the points inside that face instead, with no hull of
    the face built: a point of P's affine hull lies in the face iff it
    satisfies every facet of P through the face with equality and the other
    facets weakly, and in its relative interior iff it satisfies the others
    strictly, that is iff its mask holds the face's facets alone.  The
    search box is read off the coordinates in L's basis of the vertices of P
    on the face, so L's span must contain the face's hull.  A search box of
    more than LATTICE_BOX_CAP points raises BudgetError before any point is
    tested.

    A point x_v + sum m_k g_k has integer chart coordinates, so each facet
    (h, c) gives one integer slack form c - h . x_v - sum m_k h . g_k in m.
    Box points are tested by the forms alone; a hit's chart coordinates are
    x = x_v + t, t = sum m_k g_k, and it is the face's first point plus B t,
    B the chart basis, placed in P (see :attr:`Polytope.placements`) with x
    and its mask.  Z^dim's generators are the unit vectors, so there t = m
    and the box is read off the vertices' chart differences, with no solve.
    """
    indices = face.indices if face is not None else range(len(P.points))
    on, first = _mask(indices), indices[0]
    x0 = P.point_coords[first]
    through = [on & z == on for z in P.facet_sets]
    diffs = [vsub(P.point_coords[i], x0) for i in P.vertex_indices if on >> i & 1]
    if L is None:  # the unit vectors: m is the chart difference, and G the identity
        G, lo, hi = None, [min(c) for c in zip(*diffs)], [max(c) for c in zip(*diffs)]
    else:
        # the vertices' coordinates in L, each as (numerators, denominator)
        boxes = [hnf_solve(L.basis, L.pivots, x) for x in diffs]
        if None in boxes:
            raise ValueError("lattice span does not contain the polytope's hull")
        G = L.basis
        lo = [min(-(-x[j] // d) for x, d in boxes) for j in range(L.rank)]
        hi = [max(x[j] // d for x, d in boxes) for j in range(L.rank)]
    size = prod(max(b - a + 1, 0) for a, b in zip(lo, hi))
    if size > LATTICE_BOX_CAP:
        raise BudgetError(
            f"lattice-point search limited to {LATTICE_BOX_CAP} box points, got {size}"
        )
    # (constant, coefficients, tight, bit): a facet's slack, tight on the
    # facets through the face
    forms = [
        (c - dot(h, x0), [-a for a in h] if G is None else [-dot(h, g) for g in zip(*G)],
         t, 1 << j)
        for j, ((h, c), t) in enumerate(zip(P.facets, through))
    ]
    base, B = P.points[first], P.chart.basis
    placements, out = P.placements, []
    for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        mask = 0
        for a, k, tight, bit in forms:
            s = a + sum(map(mul, k, m))
            if (s != 0) if tight else (s < 0):
                break
            if not s:
                mask |= bit
        else:
            t = m if G is None else [sum(map(mul, row, m)) for row in G]
            p = tuple([a + sum(map(mul, row, t)) for a, row in zip(base, B)])
            placements[p] = (tuple(map(add, x0, t)), mask)
            out.append((p, mask))
    return tuple(sorted(out))


def pulling_cells(poset: FacePoset, face: Face | None = None):
    """The pulling triangulation of a face of the poset's polytope (the whole
    polytope by default) from its least vertex, as tuples of point indices
    with face.dim + 1 entries each.

    The least vertex v of a face is coned over the pulling triangulations of
    the face's facets that miss v, and the facets of a face are the faces of
    the poset one dimension lower inside it, so no face is hulled again.
    Pulling triangulations are regular (De Loera-Rambau-Santos,
    *Triangulations*, 2010, sec. 4.3).  Points that are not vertices are in
    no cell; the points must be distinct.
    """
    P = poset.polytope
    vertices = set(P.vertex_indices)

    def pull(face):
        verts = [i for i in face.indices if i in vertices]
        if len(verts) == face.dim + 1:
            return [tuple(verts)]
        v = min(verts, key=P.points.__getitem__)
        return [
            (v, *cell)
            for f in poset.subfaces(face)
            if f.dim == face.dim - 1 and v not in f.indices
            for cell in pull(f)
        ]

    return pull(poset.top if face is None else face)

