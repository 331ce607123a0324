"""Differential tests of subdiagram volumes, face quotients and face
indices.  Each layer keeps its most independent reference and the route the
library replaced.

Subdiagram volume:

- ``ref_truncated_volume``, a reference since commit 983398c, which replaced
  it: the truncation route, kept verbatim but for its volume.  It cuts
  cone(G) and conv(G) + cone(G) at a level h <= c past every generator and
  subtracts the truncated volumes.  Its hull input is pruned by the cone's
  own facet normals: dominated generators and non-vertices go, and in rank
  >= 3 the extreme rays are read off those normals.  It stays as the most
  independent route: it shares nothing with the pyramids from 0 but the
  images, and it measures its volumes by ``ref_normalized_volume`` of
  ``test_pulling_routes.py``, which hulls every face again.
- ``ref_multiplicity``, a reference since commit 751a772: the route that
  ``multiplicity`` replaced, kept verbatim but for its docstrings.  The face
  HNF and the quotient images solve each point in Z_A's HNF basis again on
  every face, and the seen pyramids build a hull, its face poset and a
  pulling triangulation on every face, facets included.  The route under
  test solves nothing in Z_A: it reads the columns' chart differences from
  the face's first point, in the basis of Z_A that that point and the
  Newton hull's chart make (checked by
  ``test_a_face_point_and_the_chart_basis_are_a_basis_of_z_a``).  It reads
  a facet's v off its images, and builds the face poset only for a seen
  face that is not a simplex.  In rank 2 it builds no hull at all: one
  angular scan keeps the chain of conv(G) that 0 sees.  That scan is checked
  against ``ref_seen_pyramids`` on seeded half-plane sets and against the
  sweep oracle on every rank-2 face of the corpus.

Face quotient: ``ref_face_quotient_images``, a reference since commit
e31c4f5, is the oldest route, kept verbatim but for the error it raises off
Z_A: Z_A / (Z_A ∩ span Γ) through a Smith normal form with transforms of the
kernel's coordinates in the basis of Z_A.  It stays as the one route that
shares no HNF with the library.  The route the library replaced,
``ref_quotient_images`` on ``ref_face_hnf``, is part of ``ref_multiplicity``.

Face index: ``ref_index_i``, a reference since commit c78cbdb, is the route
``index_i`` replaced, and the oldest one, kept verbatim but for its cache:
[Z_A ∩ span Γ : Z_{A∩Γ}] as ``ref_lattice_index`` of the intersected subspace
and the face group.  The routes under test read both the index and the
quotient off ``_face_quotient``: a vertex's quotient is the chart, a facet's
map its primitive chart normal, an edge's index a gcd and a larger facet's
index the row index of its face lattice's HNF basis, and only the other
faces take one column HNF of the face's chart differences.  The
differential tests reach each of the three on at least 1000 faces.  The sweep
oracle keeps the face HNF's quotient, ``_face_quotient_images``, on every
face.  The Smith and index routes take Z_A ∩ span Γ from
``ref_intersect_subspace`` of ``test_hnf_routes.py``.
"""

import math
import random
from fractions import Fraction

import pytest
from sympy import Matrix

from _corpus import (
    OBSTRUCTED,
    collinear,
    coplanar,
    criterion_8_configs,
    face_corpus,
    facet_indices,
    from_columns,
    integral_multiple,
    rational_coordinates,
    skewed_configs,
    solid_configs,
    width,
)
from test_chart_routes import ref_ambient_functional
from test_hnf_routes import ref_intersect_subspace
from test_pulling_routes import ref_normalized_volume
from gkzkit import configuration
from gkzkit.configuration import (
    PointConfiguration,
    _cross,
    _extreme_rays,
    _face_hnf,
    _face_quotient_images,
    _row_index,
    _seen_chain,
    _seen_pyramids,
    index_i,
    multiplicity,
    multiplicity_table,
    saturate,
    subdiagram_volume,
    subdiagram_volume_oracle,
)
from gkzkit.intlinalg import _hnf, det_fraction, dot, primitive, rational_rank, vsub
from gkzkit.lattice import Lattice
from gkzkit.polytope import convex_hull, face_poset, pulling_cells


# -- the truncation route, the reference of subdiagram_volume --------------------


def _volume(points):
    """``ref_normalized_volume`` of rational points: that of their integral
    multiple by D, over D^dim.  Repeated points count once."""
    pts, D = integral_multiple(sorted(set(points)))
    return ref_normalized_volume(pts) / D ** len(pts[0])



def ref_extreme_rays(G, normals=None):
    """Primitive direction representatives of the extreme rays of cone(G).

    In rank >= 3 the rays are read off the inner facet normals of cone(G),
    taken from ``normals`` when the caller has them already.
    """
    dirs = sorted({primitive(g) for g in G})
    r = len(dirs[0])
    if r == 1 or len(dirs) == 1:
        return dirs[:1] if len(dirs) == 1 else sorted({(d[0] // abs(d[0]),) for d in dirs})
    if r == 2:
        out = []
        for g in dirs:
            if all(_cross(g, h) >= 0 for h in dirs):
                out.append(g)
                break
        for g in dirs:
            if all(_cross(g, h) <= 0 for h in dirs):
                out.append(g)
                break
        return sorted(set(out))
    # g spans an extreme ray iff the facets through it cut out a line
    if normals is None:
        normals = ref_cone_facet_inner_normals(dirs)
    return [
        g for g in dirs
        if rational_rank([n for n in normals if dot(n, g) == 0]) == r - 1
    ]


def ref_cone_facet_inner_normals(G):
    """Primitive inner normals of the facets of the full-dimensional cone(G)."""
    r = len(G[0])
    if r == 1:
        s = 1 if G[0][0] > 0 else -1
        return [(s,)]
    hull = convex_hull([(0,) * r] + [tuple(g) for g in G])
    return [  # the facets through the apex, point 0
        tuple(-a for a in ref_ambient_functional(hull, h))
        for (h, _), on in zip(hull.facets, hull.facet_sets)
        if 0 in facet_indices(on)
    ]


def ref_minkowski_generators(G, normals):
    """Generators enough to span conv(G) + cone(G), found without an LP.

    Two prunings, neither of which changes the truncated hull that
    :func:`ref_truncated_volume` measures.

    Dominance: with n . x >= 0 for all inner facet normals n deciding x in
    cone(G), drop g whenever g - g' lies in cone(G) for another g' in G.  On
    the pointed cone(G) the relation g' <= g iff g - g' in cone(G) is a
    partial order, so every dropped g lies in g'' + cone(G) for a kept,
    minimal g'' below it.  Then g and every shift g + t*e along a ray already
    lie in conv(kept) + cone(G), so dropping g changes neither
    conv(G) + cone(G) nor its truncation at h <= c.

    Convexity: of the points left, drop those that are not vertices of their
    own hull.  Such a g is a convex combination sum lambda_i g_i of kept
    vertices.  Its shift to the truncation level, g + t(g) e with
    t(g) = (c - h.g) / h.e affine in g, is then sum lambda_i (g_i + t(g_i) e),
    a convex combination of the kept shifts, so the hull is unchanged.

    No vertex of conv(G) + cone(G) is dropped: a vertex is neither g' + r for
    a nonzero r in the recession cone nor a convex combination of other
    points of the set.  The pruning may keep points that are not vertices
    (a convex combination of kept points plus a ray); they only add hull
    input and never change a volume.
    """
    kept = [
        g for g in G
        if not any(
            g2 != g and all(dot(n, vsub(g, g2)) >= 0 for n in normals) for g2 in G
        )
    ]
    if len(kept) <= 2:
        return kept  # one or two points are all vertices
    vertices = set(convex_hull(kept).vertex_indices)
    return [g for i, g in enumerate(kept) if i in vertices]


def ref_truncated_volume(
    A, face, minkowski_generators=ref_minkowski_generators, extreme_rays=ref_extreme_rays
):
    """Lattice volume between the hulls of the quotient semigroup and its
    nonzero part, computed polyhedrally.

    Writing S for the semigroup generated by the images G of the off-face
    points (in the quotient of the ambient group by the saturated span of the
    face), one has conv(S \\ 0) = conv(G) + cone(G): every nonempty sum g_1 +
    ... + g_m lies in g_1 + cone(G), and conversely any g + sum lambda_j g_j
    with real lambda_j >= 0 is a convex combination of the semigroup points
    g + sum (integer roundings of lambda_j) g_j.  Both hulls agree beyond any
    truncation h <= c with h positive on the cone and c past every vertex of
    conv(G) + cone(G) (those vertices are among G), so the volume of the set
    difference is the difference of the truncated volumes.
    """
    if face.supporting is None:
        return 1  # the trivial quotient semigroup by convention
    G = _face_quotient_images(A, face)
    if not G:
        raise AssertionError("a proper face must leave nonzero images")
    r = len(G[0])
    normals = ref_cone_facet_inner_normals(G)
    hfun = tuple(sum(n[i] for n in normals) for i in range(r))
    hvals = [sum(a * b for a, b in zip(hfun, g)) for g in G]
    if any(v <= 0 for v in hvals):
        raise AssertionError("truncating functional must be positive on the cone")
    c = 1 + max(hvals)
    extremes = extreme_rays(G, normals)
    cone_trunc = [(0,) * r] + [
        tuple(Fraction(c, sum(a * b for a, b in zip(hfun, e))) * x for x in e)
        for e in extremes
    ]
    mink_gens = minkowski_generators(G, normals)
    shifted = list(mink_gens)
    for g in mink_gens:
        hg = sum(a * b for a, b in zip(hfun, g))
        for e in extremes:
            he = sum(a * b for a, b in zip(hfun, e))
            shifted.append(tuple(x + Fraction(c - hg, he) * y for x, y in zip(g, e)))
    vol = _volume(cone_trunc) - _volume(shifted)
    if vol < 0 or vol.denominator != 1:
        raise AssertionError(f"subdiagram volume must be a nonnegative integer, got {vol}")
    return int(vol)


# -- the differential tests ---------------------------------------------------------


def test_subdiagram_volume_matches_the_truncation_route():
    configs = [
        *face_corpus(),
        *solid_configs(5, 1),
        *(collinear(n) for n in (1, 5, 16)),
        *(coplanar(n) for n in (2, 4, 6)),
    ]
    ranks = {}
    flat = solid = 0
    for A in configs:
        for face in A.poset.faces:
            assert subdiagram_volume(A, face) == ref_truncated_volume(A, face), (A.points, face)
            if face.supporting is None:
                ranks[0] = ranks.get(0, 0) + 1
                continue
            G = _face_quotient_images(A, face)
            r = len(G[0])
            ranks[r] = ranks.get(r, 0) + 1
            if r == 2:
                assert _extreme_rays(G) == ref_extreme_rays(G), G
            # both branches: 0 sees some facets of a solid conv(G), or all of a flat one
            if rational_rank([vsub(g, G[0]) for g in G[1:]]) == r:
                solid += 1
            else:
                flat += 1
    assert set(ranks) == {0, 1, 2, 3} and sum(ranks.values()) >= 1500, ranks
    assert flat >= 100 and solid >= 100 and flat + solid >= 1506, (flat, solid)


def _vertex_quotient(A, vertex):
    face = A.minimal_face(A.index_of(vertex))
    return face, _face_quotient_images(A, face)


def _hull_sizes(A, face, monkeypatch):
    """The point counts of the hulls subdiagram_volume builds on the face."""
    sizes = []

    def counting_hull(points):
        sizes.append(len(points))
        return convex_hull(points)

    with monkeypatch.context() as m:
        m.setattr(configuration, "convex_hull", counting_hull)
        subdiagram_volume(A, face)
    return sizes


def test_collinear_generators_stay_under_the_hull_cap(monkeypatch):
    # the vertex (1,0,0) sees 17 quotient images on one segment; none
    # dominates another, and the truncation route, kept whole, would shift
    # them to 51 hull points
    n = 16
    A = collinear(n)
    face, G = _vertex_quotient(A, (1, 0, 0))
    assert len(G) == n + 1
    assert len(ref_minkowski_generators(G, ref_cone_facet_inner_normals(G))) == 2
    # the gap is the triangle x, y >= 0, x + y <= n of area n^2, measured in
    # the quotient lattice x + y = 0 mod n of index n
    assert subdiagram_volume(A, face) == n == subdiagram_volume_oracle(A, face)
    assert ref_truncated_volume(A, face) == n
    # the pyramid over a segment of images, off one angular scan: no hull
    assert _hull_sizes(A, face, monkeypatch) == []


def test_coplanar_generators_stay_under_the_hull_cap(monkeypatch):
    # rank-3 analogue, out of the oracle's reach: 15 and 28 images on a triangle
    for n in (4, 6):
        A = coplanar(n)
        face, G = _vertex_quotient(A, (1, 0, 0, 0))
        assert len(G) == A.size - 1
        assert len(ref_minkowski_generators(G, ref_cone_facet_inner_normals(G))) == 3
        # the gap is the simplex x >= 0, x1 + x2 + x3 <= n of volume n^3,
        # measured in the quotient lattice x1 + x2 + x3 = 0 mod n of index n
        assert subdiagram_volume(A, face) == n**2 == ref_truncated_volume(A, face)
        assert _hull_sizes(A, face, monkeypatch) == [len(G)]


def test_subdiagram_volume_builds_one_hull_per_proper_face(monkeypatch):
    # a facet's images lie on one side of 0 on a line: v is the least |g|,
    # read off them with no hull; rank-2 images are scanned by angle, with
    # no hull; only rank >= 3 builds one
    counts = {}
    for A in [OBSTRUCTED, saturate(OBSTRUCTED, "s").result] + solid_configs(5, 1):
        for face in A.poset.faces:
            sizes = _hull_sizes(A, face, monkeypatch)
            r = 0 if face.supporting is None else len(_face_quotient_images(A, face)[0])
            counts[r] = counts.get(r, 0) + 1
            expect = 1 if r >= 3 else 0
            assert len(sizes) == expect and all(s <= A.size for s in sizes), (A.points, face)
    assert counts[1] >= 10 and counts[2] >= 10 and counts[3] >= 1, counts


def test_subdiagram_volume_solves_no_lp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("subdiagram_volume must not solve an LP")

    monkeypatch.setattr(configuration, "lp_maximize", forbidden)
    for A in solid_configs(7, 1):
        for face in A.poset.faces:
            subdiagram_volume(A, face)


# -- per-face solves and a poset per face, the reference of multiplicity -------


def ref_face_hnf(A, face):
    """(L, tail) of ``_face_hnf``, each face point solved in Z_A again."""
    coords = [A.group_lattice.coordinates(p) for p in A.face_points(face)]
    m, r = len(coords), A.group_lattice.rank
    cols = [[*(x[j] for x in coords), *(int(i == j) for i in range(r))] for j in range(r)]
    s = _hnf(cols, m)
    return [c[:m] for c in cols[:s]], [c[m:] for c in cols[s:]]


def ref_quotient_images(A, tail):
    """(project, G) of ``_face_quotient_images``, from the tail of U."""

    def project(p):
        x = A.group_lattice.coordinates(p)
        return tuple(dot(u, x) for u in tail)

    images = {project(p) for p in A.points}
    images.discard((0,) * len(tail))
    return project, sorted(images)


def ref_seen_pyramids(G):
    """The subdiagram volume of the nonzero images G, as in
    :func:`subdiagram_volume`."""
    if not G:
        raise AssertionError("a proper face must leave nonzero images")
    poset = face_poset(convex_hull(G))
    P = poset.polytope
    x = rational_coordinates(P.chart, vsub((0,) * len(G[0]), P.chart_anchor))
    if x is None:
        seen = [poset.top]
    else:
        facets = poset.of_dim(poset.top.dim - 1)
        seen = [f for f in facets if dot(f.supporting[0], x) > f.supporting[1]]
    cells = [cell for f in seen for cell in pulling_cells(poset, f)]
    return sum(abs(int(det_fraction([G[i] for i in cell]))) for cell in cells)


def ref_multiplicity(A, face):
    """(i, v, m) as the earlier ``multiplicity`` computed them."""
    if face.supporting is None:
        return 1, 1, 1
    L, tail = ref_face_hnf(A, face)
    i = _row_index(L)
    v = ref_seen_pyramids(ref_quotient_images(A, tail)[1])
    return i, v, i * v


def _square_pyramid():
    """The vertex (1, 0, 0, 0), a unit square at height 1 and an apex above
    its corner: at the vertex the images span a square pyramid, and the one
    facet 0 sees is its square base, which is not a simplex."""
    square = [(1, a, b, 1) for a in (0, 1) for b in (0, 1)]
    return PointConfiguration.from_columns([(1, 0, 0, 0), *square, (1, 1, 1, 2)])


def _poset_builds(A, face, monkeypatch):
    """The face posets multiplicity builds on the face."""
    calls = []

    def counting_poset(P):
        calls.append(P)
        return face_poset(P)

    A.poset  # the Newton polytope's own poset, once per configuration
    with monkeypatch.context() as m:
        m.setattr(configuration, "face_poset", counting_poset)
        multiplicity(A, face)
    return len(calls)


def _planar_sets(rng, count):
    """Seeded sets of 3-6 distinct points of [0, 3]^2 that span the plane."""
    out = []
    while len(out) < count:
        pts = sorted({(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(3, 6))})
        if len(pts) >= 3 and rational_rank([vsub(p, pts[0]) for p in pts[1:]]) == 2:
            out.append(pts)
    return out


def _widened_corpus():
    """Planar sets whose columns (2, p) are quasi-homogeneous but not
    primitive (h = (1/2, 0, 0)), flat sets in ambient dimension 4, and the
    configurations that read their hull off another's: ``saturate``,
    ``with_point`` and the deletions that keep N and Z_A."""
    rng = random.Random(3601)
    doubled = [PointConfiguration.from_columns([(2, *p) for p in pts]) for pts in _planar_sets(rng, 25)]
    flat = [
        PointConfiguration.from_columns([(1, a + b, 2 * b, 3 * a - b) for a, b in pts])
        for pts in _planar_sets(rng, 25)
    ]
    flat.append(PointConfiguration.from_columns([(1, k, 2 * k, 0) for k in (0, 2, 3, 7)]))
    derived = []
    for A in doubled[:10] + flat[:10] + [OBSTRUCTED, collinear(5)]:
        full = saturate(A, "full").result
        derived += [saturate(A, "s").result, full]
        derived += [A.with_point(p) for p in full.points[A.size:][:2]]
        derived += [
            B for B in (full.delete(i) for i in range(full.size)) if "newton" in vars(B)
        ][:3]
    assert all("newton" in vars(B) for B in derived) and len(derived) >= 90, len(derived)
    return doubled + flat + derived


def _face_kind(A, face):
    """Which route of ``_face_quotient`` the face takes."""
    if face.supporting is None:
        return "top"
    if face.dim == 0:
        return "vertex"
    return "facet" if face.dim == A.newton.dim - 1 else "other"


def test_multiplicity_matches_the_per_face_route():
    # vertices and facets read their quotients off the Newton hull, edges
    # their index off a gcd, and the other faces off the face HNF: the
    # corpus reaches each route on at least 1000 faces
    counts, kinds = {}, {}
    widened = _widened_corpus()
    configs = face_corpus() + skewed_configs(37, 100) + solid_configs(5, 10)
    configs += [*(collinear(n) for n in (1, 5, 16)), *(coplanar(n) for n in (2, 4, 6))]
    for A in configs + [_square_pyramid()] + widened:
        for face in A.poset.faces:
            rec = multiplicity(A, face)
            got = (rec.index_i, rec.subvol_v, rec.mult_m)
            assert rec.face == face and got == ref_multiplicity(A, face), (A.points, face)
            assert (index_i(A, face), subdiagram_volume(A, face)) == got[:2], (A.points, face)
            r = 0 if face.supporting is None else len(configuration._face_quotient(A, face)[1][0])
            counts[r] = counts.get(r, 0) + 1
            kind = _face_kind(A, face)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert set(counts) == {0, 1, 2, 3, 4} and sum(counts.values()) >= 4000, counts
    assert min(kinds["vertex"], kinds["facet"], kinds["other"]) >= 1000, kinds
    # the widened corpus reaches faces of index > 1
    assert any(index_i(A, face) > 1 for A in widened for face in A.poset.faces)


def test_multiplicities_build_no_group_lattice():
    for A in face_corpus()[:20] + _widened_corpus()[:50:5]:
        fresh = PointConfiguration.from_columns(A.points)
        multiplicity_table(fresh)
        assert "group_lattice" not in vars(fresh), A.points


def test_a_face_point_and_the_chart_basis_are_a_basis_of_z_a():
    """The basis the face HNF reads i and G in: for each face's first point
    v, a_j = a_v + B (x_j - x_v) for every column, B the chart basis, and
    a_v with B generates Z_A, whose rank is 1 + dim N.  ``group_lattice``,
    read off the chart anchor and B, is the lattice of the columns, on each
    configuration, its deletions and its saturations."""
    for A in face_corpus() + [collinear(16), coplanar(4)] + _widened_corpus():
        derived = [A.delete(i) for i in range(A.size) if A.size > 1]
        derived += [saturate(A, mode).result for mode in ("s", "p", "full")]
        for C in (A, *derived):
            assert C.group_lattice == Lattice.from_generators(C.points)
        B, x = A.newton.chart.generators(), A.chart_points
        assert A.group_lattice.rank == 1 + len(B) == 1 + A.newton.dim
        for v in {face.indices[0] for face in A.poset.faces}:
            a_v = A.points[v]
            for a, y in zip(A.points, x):
                dy = vsub(y, x[v])
                assert a == tuple(c + sum(t * b[k] for t, b in zip(dy, B)) for k, c in enumerate(a_v))
            assert Lattice.from_generators([a_v, *B]) == A.group_lattice


def test_facet_images_on_both_sides_of_zero_fail_the_invariant():
    assert _seen_pyramids([(2,), (3,)]) == 2 and _seen_pyramids([(-4,), (-3,)]) == 3
    with pytest.raises(AssertionError, match="one side of 0"):
        _seen_pyramids([(-1,), (2,)])


def test_rank_2_images_off_an_open_half_plane_fail_the_invariant():
    assert _seen_pyramids([(0, 1), (1, 0)]) == 1 and _seen_pyramids([(1, -1), (1, 1), (2, 0)]) == 2
    # the hull route has no such check: it reads 0 off the triangle around 0
    assert ref_seen_pyramids([(-1, -1), (0, 1), (1, 0)]) == 0
    for G in [
        [(-1, -1), (0, 1), (1, 0)],
        [(-1, 0), (0, 1), (1, 0)],
        [(-1, 0), (1, 0)],
        [(-2, -1), (1, 0), (2, 1)],
        [(-1, 1), (0, -1), (1, 1)],
        # sorted by angle its first and last points span a pointed cone,
        # which misses (1, 1)
        [(-2, -2), (-2, -1), (-1, -1), (1, 1)],
    ]:
        with pytest.raises(AssertionError, match="open half-plane"):
            _seen_pyramids(G)
    for G in [[(1, 2), (2, 4)], [(-3, 0), (-2, 0), (-1, 0)]]:
        with pytest.raises(AssertionError, match="one ray"):
            _seen_pyramids(G)


def test_rank_3_images_around_0_fail_the_invariant():
    # 0 = (sum of the first four) / 4 lies inside conv(G); the hull route
    # finds no seen facet and returned 0 on both sets before the check
    tetra = [(-1, -1, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for G in [tetra, sorted([*tetra, (2, 0, 0)])]:
        assert ref_seen_pyramids(G) == 0
        with pytest.raises(AssertionError, match="open half-space"):
            _seen_pyramids(G)
    # on the boundary of conv(G), 0 sees no facet either
    with pytest.raises(AssertionError, match="open half-space"):
        _seen_pyramids([(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert _seen_pyramids([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def _half_plane_sets(seed, count):
    """Seeded sets of distinct points of Z^2 in an open half-plane phi > 0,
    not all on one ray, in four kinds by turn: random points; points on a
    line missing 0; a few rays with up to three points each; random points
    with multiples of some of them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        phi = (rng.randint(-4, 4), rng.randint(-4, 4))
        if phi == (0, 0):
            continue
        box = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if dot(phi, (x, y)) > 0]
        kind = len(out) % 4
        if kind == 0:
            G = rng.sample(box, rng.randint(2, 9))
        elif kind == 1:
            p, d = rng.choice(box), primitive((-phi[1], phi[0]))
            G = [(p[0] + k * d[0], p[1] + k * d[1]) for k in rng.sample(range(-5, 6), rng.randint(2, 6))]
        elif kind == 2:
            rays = {primitive(g) for g in rng.sample(box, rng.randint(2, 4))}
            G = [(t * g[0], t * g[1]) for g in rays for t in rng.sample(range(1, 5), rng.randint(1, 3))]
        else:
            G = rng.sample(box, rng.randint(2, 6))
            G += [(t * g[0], t * g[1]) for g in rng.sample(G, rng.randint(1, len(G))) for t in (2, 3)]
        G = sorted(set(G))
        if rational_rank(G) == 2:
            out.append(G)
    return out


def test_rank_2_scan_matches_the_hull_route_on_half_plane_sets():
    rng = random.Random(2828)
    flat = rays = 0
    for G in _half_plane_sets(28, 5000):
        v = ref_seen_pyramids(G)
        # the scan orders the ties on a ray itself, whatever the input order
        assert _seen_pyramids(G) == v == _seen_chain(rng.sample(G, len(G))), G
        flat += rational_rank([vsub(g, G[0]) for g in G[1:]]) == 1
        rays += len({primitive(g) for g in G}) < len(G)
    assert flat >= 1250 and rays >= 2500, (flat, rays)


def test_rank_2_scan_matches_the_oracle_on_every_rank_2_face():
    faces = 0
    for A in face_corpus():
        for face in A.poset.faces:
            if face.supporting is not None and len(_face_quotient_images(A, face)[0]) == 2:
                assert subdiagram_volume(A, face) == subdiagram_volume_oracle(A, face), (A.points, face)
                faces += 1
    assert faces >= 500, faces


def _forbidden(*args, **kwargs):
    raise AssertionError("this route must not run here")


def test_the_oracle_keeps_its_own_quotient(monkeypatch):
    # the sweep oracle reads its images off the face HNF on every face, so
    # it answers with the library's quotient route gone
    faces = [
        (A, face, subdiagram_volume(A, face))
        for A in criterion_8_configs(40)
        for face in A.poset.faces
        if face.supporting is not None
    ]
    monkeypatch.setattr(configuration, "_face_quotient", _forbidden)
    for A, face, v in faces:
        assert subdiagram_volume_oracle(A, face) == v, (A.points, face)
    assert len(faces) >= 200, len(faces)


def test_planar_sets_and_curves_build_no_face_hnf(monkeypatch):
    # every proper face of a planar set or a curve is a vertex or a facet,
    # whose quotient the Newton hull holds: multiplicity_table runs neither
    # the oracle's quotient nor a face HNF there
    configs = criterion_8_configs(40)
    want = [
        [1 if face.supporting is None else subdiagram_volume_oracle(A, face) for face in A.poset.faces]
        for A in configs
    ]
    monkeypatch.setattr(configuration, "_face_quotient_images", _forbidden)
    monkeypatch.setattr(configuration, "_face_hnf", _forbidden)
    dims = set()
    for A, vs in zip(configs, want):
        assert [rec.subvol_v for rec in multiplicity_table(A)] == vs, A.points
        dims.add(A.newton.dim)
    assert dims == {1, 2}


def test_rank_2_scan_runs_through_no_oracle_or_hull_helper(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the rank-2 scan must not run through this helper")

    faces = [
        (A, face)
        for A in face_corpus() + [collinear(16)]
        for face in A.poset.faces
        if face.supporting is not None and len(_face_quotient_images(A, face)[0]) == 2
    ]
    sets = _half_plane_sets(29, 200)
    for name in [
        "_hull2d", "_shoelace2", "_clip_halfplane", "_extreme_rays", "_cross",
        "convex_hull", "face_poset", "pulling_cells", "hnf_solve", "_abs_det",
    ]:
        monkeypatch.setattr(configuration, name, forbidden)
    for A, face in faces:
        subdiagram_volume(A, face)
        multiplicity(A, face)
    for G in sets:
        _seen_pyramids(G)
    assert len(faces) >= 500


def test_face_poset_only_for_seen_faces_that_are_not_simplices(monkeypatch):
    A = _square_pyramid()
    face, G = _vertex_quotient(A, (1, 0, 0, 0))
    assert len(G) == 5 and len(G[0]) == 3
    assert _poset_builds(A, face, monkeypatch) == 1
    # the pyramid from 0 over the unit square at lattice height 1
    assert multiplicity(A, face).subvol_v == 2 == ref_seen_pyramids(G)
    # in quotient rank <= 2 every seen face is a point or a segment
    for A in face_corpus()[:100]:
        for face in A.poset.faces:
            assert _poset_builds(A, face, monkeypatch) == 0, (A.points, face)
    # the seeded 3-polytopes reach both routes
    builds = [
        _poset_builds(A, face, monkeypatch) for A in solid_configs(9, 25) for face in A.poset.faces
    ]
    assert 0 < sum(builds) < len(builds)


# -- the Smith-normal-form quotient route, the reference of the tests below ----


def ref_smith_normal_form_transforms(M):
    """Return (U, D, V) with D = U*M*V diagonal, d_1 | d_2 | ..., U, V unimodular."""
    m, n = len(M), width(M)
    a = [list(row) for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, src, q):
        a[i] = [p - q * r for p, r in zip(a[i], a[src])]
        U[i] = [p - q * r for p, r in zip(U[i], U[src])]

    def col_sub(j, src, q):
        for r in range(m):
            a[r][j] -= q * a[r][src]
        for r in range(n):
            V[r][j] -= q * V[r][src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    s = 0
    while True:
        pos = None
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pos = (i, j)
        if pos is None:
            break
        row_swap(s, pos[0])
        col_swap(s, pos[1])
        while True:
            dirty = False
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    row_sub(i, s, q)
                    if a[i][s]:  # remainder became the smaller pivot candidate
                        row_swap(s, i)
                        dirty = True
            for j in range(s + 1, n):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    col_sub(j, s, q)
                    if a[s][j]:
                        col_swap(s, j)
                        dirty = True
            if not dirty and all(a[i][s] == 0 for i in range(s + 1, m)) and all(
                a[s][j] == 0 for j in range(s + 1, n)
            ):
                break
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            U[s] = [-x for x in U[s]]
        # enforce divisibility d_s | a[i][j]
        fixed = False
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if a[i][j] % a[s][s] != 0:
                    row_sub(s, i, -1)  # add row i into the pivot row
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        s += 1
    return tuple(map(tuple, U)), tuple(map(tuple, a)), tuple(map(tuple, V))


def ref_quotient_project(source, kernel):
    """The projection of source onto Z^(rank source - rank kernel), and that
    rank; the quotient must be torsion-free."""
    coords = [source.coordinates(g) for g in kernel.generators()]
    if None in coords:
        raise ValueError("kernel not contained in source")
    r = source.rank
    K = from_columns(coords, r)
    U, D, _ = ref_smith_normal_form_transforms(K)
    k = kernel.rank
    torsion = tuple(D[i][i] for i in range(k) if abs(D[i][i]) != 1)
    if torsion:
        raise AssertionError(f"quotient has torsion {torsion}")
    # rows k..r-1 of U kill the kernel and surject onto Z^(r-k)
    proj = U[k:r]

    def project(v):
        coords = source.coordinates(v)
        if coords is None:
            raise ValueError(f"{v} is not in the source lattice")
        return tuple(dot(row, coords) for row in proj)

    return project, r - k


def ref_face_quotient_images(A, face):
    kernel = ref_intersect_subspace(A.group_lattice, A.face_points(face))
    project, rank = ref_quotient_project(A.group_lattice, kernel)
    images = {project(p) for p in A.points}
    images.discard((0,) * rank)
    return project, sorted(images)


def _unimodular_image(R, N):
    """Is there an integer U with det U = ±1 and U r = n for each pair of
    columns?  The columns of R generate Z^rank, so U is unique if it exists."""
    R, N = Matrix(R).T, Matrix(N).T
    if R.shape != N.shape or R.rank() != R.rows:
        return False
    U = N * R.T * (R * R.T).inv()
    return U * R == N and all(a.is_integer for a in U) and abs(U.det()) == 1


def test_quotient_images_match_the_smith_route():
    configs = criterion_8_configs(30) + [OBSTRUCTED, saturate(OBSTRUCTED, "s").result] + solid_configs(5, 3)
    ranks = set()
    faces = 0
    for A in configs:
        for face in A.poset.faces:
            if face.supporting is None:
                continue
            G = _face_quotient_images(A, face)
            tail = _face_hnf(A, face)[1]
            base = A.chart_points[face.indices[0]]
            images = [tuple(dot(u, vsub(x, base)) for u in tail) for x in A.chart_points]
            assert G == sorted(set(images) - {(0,) * len(tail)})
            ref_project, ref_G = ref_face_quotient_images(A, face)
            ranks.add(len(G[0]))
            assert len(G) == len(ref_G)
            R = [ref_project(p) for p in A.points]
            assert _unimodular_image(R, images), (A.points, face)
            # the library's images, off the Newton hull on vertices and facets
            hull = configuration._face_quotient(A, face)[1]
            assert _unimodular_image(R, hull), (A.points, face)
            assert subdiagram_volume(A, face) == _seen_pyramids(ref_G), (A.points, face)
            faces += 1
    assert ranks == {1, 2, 3} and faces >= 300


# -- the intersected-subspace index, the reference of index_i -------------------


def ref_face_group(A: PointConfiguration, face):
    """Group generated by the configuration points on the face; the earlier
    ``configuration.face_group``, which the library no longer calls."""
    return Lattice.from_generators(A.face_points(face))


def ref_lattice_index(sup, sub):
    """[sup : sub], or math.inf when the ranks differ; the earlier
    ``lattice.lattice_index``, which the library no longer has.

    Raises ValueError when sub is not contained in sup.
    """
    coords = [sup.coordinates(g) for g in sub.generators()]
    if None in coords:
        raise ValueError("sub lattice not contained in sup lattice")
    if sub.rank < sup.rank:
        return math.inf
    return abs(int(det_fraction(coords)))


def ref_index_i(A: PointConfiguration, face) -> int:
    """[Z_A cut to the face span : group generated by the face points]."""
    if face.supporting is None:
        return 1
    sup = ref_intersect_subspace(A.group_lattice, A.face_points(face))
    return ref_lattice_index(sup, ref_face_group(A, face))


def test_index_matches_the_intersected_subspace_route():
    configs = face_corpus() + skewed_configs(37, 100) + solid_configs(5, 10)
    configs += [collinear(n) for n in (1, 5, 16)] + [coplanar(n) for n in (2, 4, 6)]
    counts, kinds = {}, {}
    for A in configs:
        for face in A.poset.faces:
            i = index_i(A, face)
            assert i == ref_index_i(A, face), (A.points, face)
            counts[i] = counts.get(i, 0) + 1
            kind = "edge" if face.dim == 1 and face.supporting is not None else _face_kind(A, face)
            kinds[kind, i > 1] = kinds.get((kind, i > 1), 0) + 1
    # 371 faces have i > 1; the pivots of L itself are wrong on 75 of them,
    # and the gcd of an edge's first chart difference alone on 7 edges
    assert set(counts) == {1, 2, 3, 4, 6} and sum(counts.values()) == 4004, counts
    assert sum(n for i, n in counts.items() if i > 1) >= 300, counts
    # the gcd route, the facet's face lattice and the face HNF each reach
    # faces of index > 1
    assert kinds["edge", True] >= 100 and kinds["facet", True] >= 100, kinds
    assert kinds["other", True] >= 50, kinds
