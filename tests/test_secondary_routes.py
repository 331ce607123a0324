"""Differential tests: the witness certificates of ``gkzkit.secondary``
against the hulls they replaced.

The references below are the earlier routes, references since commit
bd73937, which replaced them, kept verbatim: the secondary polytope as the
convex hull of the GKZ vectors (``hull_secondary_polytope``), and the spot
check as the lower hull of every lifted random draw (``hull_verdict``).  They
stay as the routes the certificates replaced, and as the independent ones:
they read no witness.  The enumeration hulls no lift of its own: it starts
from the pulling triangulation, and the folding rows decide every generic
draw.
"""

import random
from fractions import Fraction

import pytest

from _corpus import CATALOG, FAMILY, MOTHER, config
from gkzkit import secondary
from gkzkit.polytope import convex_hull
from gkzkit.secondary import (
    DegenerateHeightsError,
    _certified_vertices,
    _flips,
    _folding_rows,
    _lower_hull,
    enumerate_regular_triangulations,
    gkz_vector,
    regular_triangulation,
    secondary_polytope,
)

# The earlier spot check's heights were integers over this denominator.
SPOT_DENOMINATOR = 992


def hull_secondary_polytope(A):
    """The earlier route: the convex hull of the GKZ vectors."""
    vecs = [gkz_vector(A, T) for T in enumerate_regular_triangulations(A)]
    return convex_hull(sorted(set(vecs)))


def hull_verdict(A, heights):
    """The earlier spot check: the lifted lower hull of one draw."""
    try:
        return regular_triangulation(A, [Fraction(h, SPOT_DENOMINATOR) for h in heights])
    except DegenerateHeightsError:
        return DegenerateHeightsError


def test_witness_vertices_match_the_hull():
    # and the 8- and 9-point segments: 64 and 128 GKZ vectors
    for A in (*FAMILY, config([(a,) for a in range(8)]), config([(a,) for a in range(9)])):
        S = secondary_polytope(A)
        P = hull_secondary_polytope(A)
        assert S.vertices == tuple(sorted(P.vertices)), A.points
        assert S.dim == P.dim, A.points


def test_forged_witness_is_rejected():
    # the segment {0, 1, 2}: <(0,-1,0), .> is least at (1,2,1), <(0,1,0), .> at (2,0,2)
    vectors = [(1, 2, 1), (2, 0, 2)]
    assert _certified_vertices(vectors, [(0, -1, 0), (0, 1, 0)]).dim == 1
    with pytest.raises(AssertionError):
        _certified_vertices(vectors, [(0, -1, 0), (1, 1, 1)])  # a tie, 4 = 4
    with pytest.raises(AssertionError):
        _certified_vertices(vectors, [(0, -1, 0), (0, -1, 0)])  # the wrong side
    S = secondary_polytope(config(MOTHER))
    assert _certified_vertices(S.vertices, S.witnesses) == S
    swapped = (S.witnesses[1], S.witnesses[0], *S.witnesses[2:])
    with pytest.raises(AssertionError):
        _certified_vertices(S.vertices, swapped)


def test_spot_check_gives_the_hull_verdict(monkeypatch):
    hulls = []

    def counted(A, heights):
        hulls.append(heights)
        return regular_triangulation(A, heights)

    monkeypatch.setattr(secondary, "regular_triangulation", counted)
    rng = random.Random(11)
    generic = total = 0
    for A in FAMILY:
        tris = enumerate_regular_triangulations(A)
        certified = [(gkz_vector(A, T), T, _folding_rows(A, T)) for T in tris]
        # a spread of 2 makes degenerate lifts common, 10**6 rare
        draws = [[0] * A.size] + [
            [rng.randint(-spread, spread) for _ in range(A.size)]
            for spread in (2, 10**6)
            for _ in range(15)
        ]
        for heights in draws:
            expect = hull_verdict(A, heights)
            hulls.clear()
            try:
                got = _lower_hull(A, certified, heights)
            except DegenerateHeightsError:
                got = DegenerateHeightsError
            assert got == expect, (A.points, heights)
            # the rows decide every generic draw; only degenerate ones are hulled
            assert len(hulls) == (expect is DegenerateHeightsError)
            generic += expect is not DegenerateHeightsError
            total += 1
    assert total / 2 < generic < total  # both kinds of draw were seen


def test_a_dropped_flip_is_caught(monkeypatch):
    def dropped(cells, circuits):
        return list(_flips(cells, circuits))[:-1]

    def unchecked(A, certified, heights):
        return certified[0][1]

    configs = [config([(a,) for a in range(5)]), config(CATALOG[0]), config(MOTHER)]
    expect = [enumerate_regular_triangulations(A) for A in configs]
    monkeypatch.setattr(secondary, "_flips", dropped)
    for A, full in zip(configs, expect):
        # the mutated search really loses a triangulation ...
        with monkeypatch.context() as m:
            m.setattr(secondary, "_lower_hull", unchecked)
            lossy = enumerate_regular_triangulations.__wrapped__(A)
        assert set(lossy) < set(full), A.points
        # ... and the spot check catches it
        with pytest.raises(AssertionError, match="missing from enumeration"):
            enumerate_regular_triangulations.__wrapped__(A)


def test_enumeration_hulls_no_lift(monkeypatch):
    calls = []

    def counted(A, heights):
        calls.append(heights)
        return regular_triangulation(A, heights)

    monkeypatch.setattr(secondary, "regular_triangulation", counted)
    for points in CATALOG:
        enumerate_regular_triangulations.__wrapped__(config(points))
    assert calls == []


def test_degenerate_draws_are_skipped(monkeypatch):
    class Coarse(random.Random):
        """Spot-check heights in {-2, ..., 2}: degenerate lifts are common."""

        def getrandbits(self, k):
            # randrange would call getrandbits again; random() does not
            return (1 << k - 1) + int(5 * self.random()) - 2

    class Flat(random.Random):
        """All-zero spot-check heights: every lift is degenerate."""

        def getrandbits(self, k):
            return 1 << k - 1

    outcomes = []

    def counted(A, heights):
        try:
            T = regular_triangulation(A, heights)
        except DegenerateHeightsError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return T

    A = config(CATALOG[0])
    expect = enumerate_regular_triangulations(A)
    monkeypatch.setattr(secondary, "regular_triangulation", counted)
    monkeypatch.setattr(secondary.random, "Random", Coarse)
    assert enumerate_regular_triangulations.__wrapped__(A) == expect
    # degenerate draws were hulled, and skipped
    assert outcomes.count(False) > 0
    monkeypatch.setattr(secondary.random, "Random", Flat)
    with pytest.raises(DegenerateHeightsError, match="no generic heights"):
        enumerate_regular_triangulations.__wrapped__(A)


def test_the_spot_check_tests_twenty_draws(monkeypatch):
    """Each enumeration tests 20 seeded height draws, integers in
    [-2^20, 2^20); every generic one gets its lower hull, which is one of
    the triangulations enumerated."""
    draws = []

    def counted(A, certified, heights):
        try:
            T = _lower_hull(A, certified, heights)
        except DegenerateHeightsError:
            draws.append((heights, None))
            raise
        draws.append((heights, T.cells))
        return T

    monkeypatch.setattr(secondary, "_lower_hull", counted)
    segment = config([(a,) for a in (0, 1, 3, 4, 7, 9)])
    for A in (*(config(points) for points in CATALOG), segment):
        draws.clear()
        found = {T.cells for T in enumerate_regular_triangulations.__wrapped__(A)}
        assert len(draws) == 20
        assert len({tuple(h) for h, _ in draws}) == 20
        generic = 0
        for heights, cells in draws:
            assert len(heights) == A.size and all(-(2**20) <= h < 2**20 for h in heights)
            try:
                hull = regular_triangulation(A, heights).cells
            except DegenerateHeightsError:
                hull = None
            assert cells == hull, (A.points, heights)
            generic += cells is not None
            assert cells is None or cells in found
        assert generic == 20  # draws of 21 bits are almost never degenerate
