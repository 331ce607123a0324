"""Differential tests: the Newton hull that an enlarged configuration reads
off its parent's (``polytope.extended_hull``, behind ``with_point`` and the
saturation results) against a fresh ``convex_hull`` of its columns.

A point of N on Z_A's affine lattice keeps N, its facets, vertices, chart
lattice and chart anchor, and Z_A; only the facet sets gain it.  A point
outside N, off the lattice or off N's affine hull falls back to the fresh
hull, and ``replay_chain`` always builds one.
"""

import random

import pytest

from _corpus import random_small_config
from test_chart_routes import OBSTRUCTED
from test_subdiagram_routes import _solid_configs
from gkzkit import configuration
from gkzkit.configuration import PointConfiguration, reduction_chain, replay_chain, saturate
from gkzkit.intlinalg import vsub
from gkzkit.lattice import Lattice
from gkzkit.polytope import convex_hull, extended_hull, face_poset, lattice_points_in


def _configs():
    rng = random.Random(88)  # the corpus of acceptance criterion 8, first configs
    return [random_small_config(rng) for _ in range(40)] + [OBSTRUCTED] + _solid_configs(9, 10)


def _fresh(A):
    return PointConfiguration.from_columns(A.points, A.labels)


def assert_rebuilt(B, inherited):
    """B's Newton hull, hidden fields included, its face poset and Z_A equal
    those built from B's columns; ``inherited`` says whether B read its hull
    and Z_A off its parent."""
    assert ("newton" in vars(B), "group_lattice" in vars(B)) == (inherited, inherited)
    P = convex_hull(B.points)
    assert B.newton == P
    assert (B.newton.point_coords, B.newton.facet_sets) == (P.point_coords, P.facet_sets)
    assert B.poset == face_poset(P)
    assert B.group_lattice == Lattice.from_generators(B.points)
    assert B.volume == _fresh(B).volume


def test_a_point_of_n_on_the_lattice_keeps_the_hull():
    kinds = {"interior": 0, "facet": 0, "lower": 0}
    for A in _configs():
        N = A.newton
        full = [p for p, _ in lattice_points_in(N, A.affine_lattice)]
        # the least point of N is a vertex, so no added point moves the anchor
        assert min(full) == min(A.points) == N.chart_anchor
        for p in full:
            if p in A.points:
                continue
            B = A.with_point(p)
            assert_rebuilt(B, True)
            face = B.minimal_face(B.size - 1)
            kind = "interior" if face.dim == N.dim else "facet" if face.dim == N.dim - 1 else "lower"
            kinds[kind] += 1
            # and a second point on top of the first
            for q in full[:3]:
                if q not in B.points:
                    assert_rebuilt(B.with_point(q), True)
    assert min(kinds.values()) >= 15, kinds


@pytest.mark.parametrize("mode", ["s", "p", "full"])
def test_saturations_keep_the_hull(mode):
    added = 0
    for A in _configs():
        res = saturate(_fresh(A), mode)
        assert_rebuilt(res.result, True)
        added += len(res.added_points) > 1
    assert added >= 15


def _outside(A):
    """2v - w for the first two vertices v, w of N: on Z_A's affine lattice,
    and outside N since v would be the midpoint of w and it."""
    v, w = A.newton.vertices[:2]
    return tuple(2 * a - b for a, b in zip(v, w))


def test_points_outside_n_or_off_the_lattice_fall_back_to_a_fresh_hull():
    outside = 0
    for A in _configs():
        if A.newton.dim == 0:
            continue
        p = _outside(A)
        assert extended_hull(A.newton, [p]) is None
        assert_rebuilt(A.with_point(p), False)
        outside += 1
    assert outside >= 60
    # on N's affine hull but off Z_A's affine lattice: the points of the
    # coarse lattices 2Z^2 and 2Z in N, and a point off a flat N's hull
    square = PointConfiguration.from_columns([(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)])
    segment = PointConfiguration.from_columns([(1, 0), (1, 2), (1, 4)])
    flat = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    for A, p in [
        (square, (1, 1, 1)), (square, (1, 1, 0)), (segment, (1, 1)), (segment, (1, 3)),
        (flat, (1, 1, 1)),
    ]:
        assert A.newton.chart.coordinates(vsub(p, A.newton.chart_anchor)) is None
        assert extended_hull(A.newton, [p]) is None
        assert_rebuilt(A.with_point(p), False)
    # a batch with one point that does not fit falls back as a whole
    assert extended_hull(square.newton, [(1, 2, 0), (1, 1, 1)]) is None


def test_replay_builds_each_enlarged_configuration_from_its_columns(monkeypatch):
    chains = [reduction_chain(_fresh(A), "p") for A in _configs()]
    assert sum(len(c.steps) for c in chains) >= 40

    def inherited(P, new):
        raise AssertionError("replay_chain must hull each configuration afresh")

    monkeypatch.setattr(configuration, "extended_hull", inherited)
    assert all(replay_chain(c) for c in chains if c.complete)
