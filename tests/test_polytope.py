"""Hulls, face posets, minimal faces, relative-interior lattice points."""

import random
import re
from fractions import Fraction

import pytest

from _corpus import (
    face_corpus,
    facet_indices,
    hull_corpus,
    interior_points_in,
    random_heights,
    rational_coordinates,
)
from test_incidence_routes import ref_contains, ref_minimal_face_containing
from test_minors_routes import ref_cell_volume
from gkzkit import polytope
from gkzkit.configuration import PointConfiguration, face_lattice, multiplicity_table
from gkzkit.intlinalg import vsub
from gkzkit.polytope import (
    convex_hull,
    face_poset,
    lattice_points_in,
    pulling_cells,
)
from gkzkit.secondary import DegenerateHeightsError, regular_triangulation

# planar configuration on the triangle with vertices (1,0,0), (1,3,0), (1,0,3)
# and marked points on two of its edges
TRI_POINTS = [(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 1, 0), (1, 0, 2)]


def test_hull_triangle():
    P = convex_hull(TRI_POINTS)
    assert P.dim == 2
    assert len(P.facets) == 3
    assert sorted(P.vertices) == [(1, 0, 0), (1, 0, 3), (1, 3, 0)]


def test_hull_single_point():
    P = convex_hull([(4, 5)])
    assert P.dim == 0 and P.facets == ()
    assert ref_contains(P, (4, 5)) and not ref_contains(P, (4, 6))


def test_hull_segment():
    P = convex_hull([(1, 0), (1, 1), (1, 3)])
    assert P.dim == 1
    assert len(P.facets) == 2
    assert sorted(P.vertices) == [(1, 0), (1, 3)]


def test_every_face_is_exactly_its_equality_set():
    P = convex_hull(TRI_POINTS)
    poset = face_poset(P)
    coords = [rational_coordinates(P.chart, vsub(p, P.chart_anchor)) for p in P.points]
    for f in poset.faces:
        if f.supporting is None:
            continue
        h, c = f.supporting
        on = {i for i, x in enumerate(coords) if sum(a * b for a, b in zip(h, x)) == c}
        assert on == set(f.indices)


def test_face_poset_triangle_counts():
    poset = face_poset(convex_hull(TRI_POINTS))
    assert len(poset.of_dim(0)) == 3
    assert len(poset.of_dim(1)) == 3
    assert len(poset.of_dim(2)) == 1
    d = poset.polytope.dim
    euler = sum((-1) ** f.dim for f in poset.faces if f.supporting is not None)
    assert euler == 1 - (-1) ** d


def test_face_poset_closed_under_intersection():
    poset = face_poset(convex_hull(TRI_POINTS))
    sets = [set(f.indices) for f in poset.faces]
    for a in sets:
        for b in sets:
            inter = a & b
            if inter:
                assert inter in sets


def test_face_poset_segment():
    poset = face_poset(convex_hull([(1, 0), (1, 3)]))
    assert len(poset.faces) == 3


def test_minimal_face_vertex_edge_interior():
    A = PointConfiguration.from_columns(TRI_POINTS)
    v = A.minimal_face(0)
    assert v.dim == 0 and v.indices == (0,)
    e = A.minimal_face(3)
    assert e.dim == 1 and set(e.indices) == {0, 1, 3}
    assert A.minimal_face(4).indices == (0, 2, 4)
    # the barycenter is no column: the face holding it comes from its slacks
    top = ref_minimal_face_containing(A.poset, (1, 1, 1))
    assert top.dim == 2
    assert A.with_point((1, 1, 1)).minimal_face(5).dim == 2
    with pytest.raises(ValueError):
        ref_minimal_face_containing(A.poset, (1, 3, 3))


def test_relative_interior_points_bottom_edge():
    A = PointConfiguration.from_columns(TRI_POINTS)
    P = A.newton
    edge = A.poset.face_with_indices((0, 1, 3))
    L = face_lattice(A, edge)
    assert L.generators() == ((1, 0),)
    pts = interior_points_in(P, L, face=edge)
    # each point is tight on the edge's facet alone
    bit = 1 << [facet_indices(s) for s in P.facet_sets].index(frozenset(edge.indices))
    assert pts == (((1, 1, 0), bit), ((1, 2, 0), bit))


def test_relative_interior_points_step3_edge_is_empty():
    A = PointConfiguration.from_columns(TRI_POINTS)
    edge = A.poset.face_with_indices((1, 2))
    L = face_lattice(A, edge)
    assert L.generators() in (((3, -3),), ((-3, 3),))
    assert interior_points_in(A.newton, L, face=edge) == ()
    # the chart's own lattice holds the edge's two interior points
    assert len(interior_points_in(A.newton, face=edge)) == 2


def test_relative_interior_points_two_face():
    P = convex_hull(TRI_POINTS)
    poset = face_poset(P)
    pts = interior_points_in(P, face=poset.top)
    assert pts == (((1, 1, 1), 0),)


def test_vertex_relative_interior_is_itself():
    P = convex_hull(TRI_POINTS)
    poset = face_poset(P)
    v = poset.face_with_indices((0,))
    bits = sum(1 << j for j, s in enumerate(P.facet_sets) if 0 in facet_indices(s))
    assert bits.bit_count() == 2
    assert interior_points_in(P, face=v) == (((1, 0, 0), bits),)


def test_lattice_points_in_triangle():
    P = convex_hull(TRI_POINTS)
    assert len(lattice_points_in(P)) == 10


def _volume(points):
    """Normalized volume of conv(points), distinct and full-dimensional,
    summed over its pulling triangulation."""
    poset = face_poset(convex_hull(points))
    return sum(ref_cell_volume(points, c) for c in pulling_cells(poset))


def test_triangulation_and_volume():
    assert _volume([(0, 0), (3, 0), (0, 3)]) == 9
    assert _volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert _volume([(0,), (5,)]) == 5
    # interior points do not disturb the decomposition
    assert _volume([(0, 0), (3, 0), (0, 3), (1, 1)]) == 9
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert _volume(square) == 8
    tris = pulling_cells(face_poset(convex_hull(square)))
    assert len(tris) == 2


@pytest.mark.parametrize(
    "entry",
    [0.5, Fraction(5, 2), "1", "1/2", float("inf"), float("nan"), None],
    ids=["float", "fraction", "string", "ratio-string", "inf", "nan", "none"],
)
def test_hull_refuses_non_integer_entries(entry):
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        convex_hull([(entry, 0), (1, 1)])


def test_hull_takes_integral_values_of_other_types():
    P = convex_hull([(0, 0), (2.0, Fraction(4, 2)), (0, 1)])
    assert P.points == ((0, 0), (2, 2), (0, 1))
    assert all(type(a) is int for p in P.points for a in p)


def test_integer_points_build_no_fraction_in_the_hull_layer():
    # the hull layer has no Fraction to build, and no rational determinant:
    # chart coordinates, volumes and lifted cells stay ints
    assert not hasattr(polytope, "Fraction") and not hasattr(polytope, "det_fraction")
    hulls = lifts = 0
    for pts in hull_corpus():
        P = convex_hull(pts)
        assert all(type(a) is int for x in P.point_coords for a in x)
        hulls += 1
    rng = random.Random(2411)
    for A in face_corpus():
        assert type(A.volume) is int and A.volume > 0
        multiplicity_table(A)
        for _ in range(2):  # heights over the denominator 997
            try:
                T = regular_triangulation(A, random_heights(rng, A))
                assert all(type(v) is int for v in T.volumes)
                lifts += 1
            except DegenerateHeightsError:
                pass
    assert hulls > 2000 and lifts > 200, (hulls, lifts)
