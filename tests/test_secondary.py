"""Regular triangulations, GKZ vectors, secondary polytopes, facet restriction."""

import re
from fractions import Fraction

import pytest

from gkzkit import configuration, secondary
from gkzkit.configuration import PointConfiguration, saturate
from gkzkit.polytope import BudgetError
from gkzkit.secondary import (
    DegenerateHeightsError,
    check_facet_restriction,
    config_volume,
    enumerate_regular_triangulations,
    gkz_vector,
    is_regular,
    make_triangulation,
    regular_triangulation,
    secondary_polytope,
)


def curve(support):
    return PointConfiguration.from_columns([(1, a) for a in support])


C013 = curve([0, 1, 3])
C012 = curve([0, 1, 2])


def test_lower_hull_point_above():
    T = regular_triangulation(C013, [0, 1, 0])
    assert T.cells == ((0, 2),)
    assert T.volumes == (3,)


def test_lower_hull_point_below():
    T = regular_triangulation(C013, [0, -1, 0])
    assert T.cells == ((0, 1), (1, 2))
    assert T.volumes == (1, 2)


def test_simplex_any_heights():
    simplex = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    T = regular_triangulation(simplex, [0, 0, 0])
    assert T.cells == ((0, 1, 2),)


def test_degenerate_heights_error():
    square = PointConfiguration.from_columns(
        [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    )
    with pytest.raises(DegenerateHeightsError):
        regular_triangulation(square, [0, 0, 0, 0])


@pytest.mark.parametrize(
    "entry", [float("inf"), float("nan"), None, True], ids=["inf", "nan", "none", "bool"]
)
def test_heights_refuse_non_rational_entries_by_name(entry):
    # inf raised OverflowError, None TypeError, NaN Fraction's message, and
    # True was taken as 1
    with pytest.raises(ValueError, match=rf"^non-rational entry {entry!r}$"):
        regular_triangulation(C013, [0, entry, 0])


def test_heights_of_every_rational_type_lift_alike():
    T = regular_triangulation(C013, [0, Fraction(-1, 2), 0])
    for heights in ([0, -0.5, 0], [0, "-1/2", 0], [Fraction(0), Fraction(-1, 2), 0.0]):
        assert regular_triangulation(C013, heights) == T
    assert regular_triangulation(C013, [0, 1, 0]) == regular_triangulation(C013, [0.0, "1", 0])


def test_heights_invariant_under_affine_shift():
    # adding an affine function of the points to the heights keeps the output
    A = curve([0, 1, 2, 3])
    base = [Fraction(1, 3), 0, Fraction(5, 7), 1]
    T1 = regular_triangulation(A, base)
    shifted = [h + 2 * a + 5 for h, (_, a) in zip(base, A.points)]
    T2 = regular_triangulation(A, shifted)
    assert T1 == T2


def test_gkz_vectors_curve():
    assert gkz_vector(C013, regular_triangulation(C013, [0, 1, 0])) == (3, 0, 3)
    assert gkz_vector(C013, regular_triangulation(C013, [0, -1, 0])) == (1, 3, 2)


def test_gkz_sum_rule():
    for A in (C013, C012, curve([0, 1, 2, 3])):
        d = A.newton.dim
        vol = config_volume(A)
        for T in enumerate_regular_triangulations(A):
            assert sum(gkz_vector(A, T)) == (d + 1) * vol


def test_enumeration_counts():
    assert len(enumerate_regular_triangulations(C013)) == 2
    assert len(enumerate_regular_triangulations(C012)) == 2
    simplex = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    assert len(enumerate_regular_triangulations(simplex)) == 1


def test_enumeration_counts_power_rule():
    # one-dimensional configurations: 2^(number of interior points)
    for support in ([0, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 4]):
        A = curve(support)
        expect = 2 ** (len(support) - 2)
        assert len(enumerate_regular_triangulations(A)) == expect


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_regular_triangulations(curve(list(range(14))))


def test_regularity_certificate_roundtrip():
    A = curve([0, 1, 2, 3])
    for T in enumerate_regular_triangulations(A):
        ok, heights = is_regular(A, T)
        assert ok
        assert regular_triangulation(A, heights) == T


SQUARE = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])


@pytest.mark.parametrize(
    "cell",
    [(0, 1), (0, 1, 2, 3), (0, 0, 1), (0, 1, 5), (-1, 0, 1), (0.0, 1, 3), (True, 2, 3)],
    ids=["too-few", "too-many", "repeated", "out-of-range", "negative", "float", "bool"],
)
def test_make_triangulation_refuses_malformed_cells_by_name(cell):
    # a cell of the unit square is three distinct columns among its 4; an
    # edge would otherwise get volume 1 and pass is_regular, a negative
    # index would read the last column, 0.0 raised a TypeError and True
    # would read column 1
    name = re.escape(str(tuple(sorted(cell))))
    with pytest.raises(ValueError, match=rf"^cell {name} is not 3 distinct columns of the 4$"):
        make_triangulation(SQUARE, [(0, 1, 2), cell])


def test_secondary_polytope_curves():
    S = secondary_polytope(C013)
    assert sorted(S.vertices) == [(1, 3, 2), (3, 0, 3)]
    S2 = secondary_polytope(C012)
    assert sorted(S2.vertices) == [(1, 2, 1), (2, 0, 2)]
    simplex = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    assert secondary_polytope(simplex).dim == 0


def test_gkz_vectors_are_secondary_vertices():
    for A in (C013, curve([0, 1, 2, 3])):
        S = secondary_polytope(A)
        verts = set(S.vertices)
        seen = set()
        for T in enumerate_regular_triangulations(A):
            v = gkz_vector(A, T)
            assert v in verts
            assert v not in seen  # distinct triangulations, distinct vectors
            seen.add(v)


def test_facet_restriction_dense_line():
    A = curve([0, 1, 2, 3])
    assert check_facet_restriction(A, 2)
    assert check_facet_restriction(A, 1)


def test_facet_restriction_rejects_lattice_drop():
    A = curve([0, 1, 2])
    with pytest.raises(ValueError):
        check_facet_restriction(A, 1)  # deleting 1 leaves {0,2}: index-2 sublattice
    with pytest.raises(ValueError):
        check_facet_restriction(A, 0)  # vertex


def test_facet_restriction_refuses_a_lattice_drop_on_the_chart(monkeypatch):
    # {0, 2, 4} spans 2Z: the refusal is read off A's chart, and no hull of
    # the deletion is built to be compared
    A = curve([0, 1, 2, 4])
    A.newton
    hulls = []
    hull = configuration.convex_hull
    monkeypatch.setattr(configuration, "convex_hull", lambda pts: hulls.append(pts) or hull(pts))
    with pytest.raises(ValueError, match="^deletion changes the group lattice$"):
        check_facet_restriction(A, 1)
    assert hulls == []


def test_an_accepted_facet_restriction_asks_the_lattice_question_once(monkeypatch):
    # the deletion keeps Z_A: that is decided once, before deleting, and the
    # deletion re-indexes A's hull instead of building its own
    A = curve([0, 1, 2, 3])
    A.newton
    asked, hulls = [], []
    keeps, hull = configuration._keeps_z_a, configuration.convex_hull
    for module in (configuration, secondary):
        monkeypatch.setattr(module, "_keeps_z_a", lambda B, i: asked.append(i) or keeps(B, i))
    monkeypatch.setattr(configuration, "convex_hull", lambda pts: hulls.append(pts) or hull(pts))
    assert check_facet_restriction(A, 1)
    assert asked == [1] and hulls == []


def test_facet_restriction_rejects_columns_out_of_range():
    # a negative column was deleted as a no-op and compared A with itself
    A = curve([0, 1, 2, 3])
    for i in (-3, -1, A.size, 9):
        with pytest.raises(IndexError, match=f"^column {i} out of range$"):
            check_facet_restriction(A, i)


def test_facet_restriction_rejects_planar_lattice_drop():
    tri = PointConfiguration.from_columns(
        [(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 1, 0), (1, 0, 2)]
    )
    with pytest.raises(ValueError):
        check_facet_restriction(tri, tri.index_of((1, 1, 0)))


def test_rank_volume_triangle():
    tri = PointConfiguration.from_columns(
        [(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 1, 0), (1, 0, 2)]
    )
    assert config_volume(tri) == 9
    # volume is invariant under saturation
    assert config_volume(saturate(tri, "s").result) == 9
    assert config_volume(saturate(tri, "full").result) == 9


def test_enumeration_is_capped_at_twelve_points():
    with pytest.raises(BudgetError, match=r"^enumeration capped at 12 points, got 13$"):
        enumerate_regular_triangulations(curve(range(13)))
