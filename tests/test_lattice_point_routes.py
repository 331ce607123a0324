"""Differential tests: lattice points by integer slack forms against the
per-point scan, lower facets of the lift hulled directly (the last entry of
each facet normal) against ambient functionals on its chart hull, and
resonance from the configuration's facet constraints, over one common
denominator, against a rational rebuild per call.

The references below are the earlier routes, kept verbatim up to access
paths: ``ref_lattice_points_in`` builds every box point and tests it by
``ref_slacks`` (the earlier ``P._slacks``), one solve in P's chart per point,
and reads each hit's mask of tight facets off the same slacks; ``ref_regular_triangulation``
hulls the lift by the heights times their least common denominator, as the
library lifts, through ``convex_hull`` and its chart, and picks the lower
facets by the last entry of each facet's ambient functional; it sorts its
cells, so that a DegenerateHeightsError names the least non-simplex cell, as
the library's does;
``ref_is_nonresonant`` builds each codimension-one face's constraint rows and
image lattice on every call, and tests rational membership, through
``ref_coordinates`` of ``test_hnf_routes.py`` (the earlier
``Lattice.coordinates`` on the earlier ``hnf_solve``) rather than the
library's integer substitution.  The three are
references since commit 30258b6, which replaced them, and stay as the routes
the library replaced and the oldest ones left: the per-point scan tests every
box point.

``ref_lattice_points_in`` keeps the ambient frame: its lattice is an
(anchor, difference lattice) pair of ambient points, built here by
``ambient_span``, and its box is measured in the ambient HNF basis, while
the library scans a lattice of chart coordinates in the HNF basis of the
face's chart differences.  The two boxes can differ on a skewed embedding;
the points they hold cannot.
"""

import itertools
import random
import re
from fractions import Fraction
from math import ceil, floor, lcm, prod

import pytest

from _corpus import (
    OBSTRUCTED,
    ambient_span,
    collinear,
    coplanar,
    criterion_8_configs,
    face_corpus,
    facet_indices,
    interior_points_in,
    random_beta,
    random_heights,
    rational_coordinates,
    skewed_configs,
    solid_configs,
)
from test_chart_routes import ref_ambient_functional
from test_hnf_routes import ref_coordinates
from test_incidence_routes import ref_slacks
from test_kernel_routes import ref_integer_orthogonal_complement as integer_orthogonal_complement
from gkzkit.configuration import PointConfiguration, face_lattice, saturate
from gkzkit.hyper import ResonanceReport, is_nonresonant, resonance_box_oracle
from gkzkit.intlinalg import clear_denominators, dot, vsub
from gkzkit.lattice import Lattice
from gkzkit.polytope import (
    LATTICE_BOX_CAP,
    BudgetError,
    _facet_rays,
    convex_hull,
    lattice_points_in,
)
from gkzkit.secondary import (
    DegenerateHeightsError,
    config_volume,
    make_triangulation,
    regular_triangulation,
)

# -- the per-point scan, the reference of lattice_points_in ----------------------


def ref_box(delta, anchor, points):
    """(lo, hi): the least integer box of coordinates in delta's basis that
    holds every point's coordinates, relative to the anchor."""
    boxes = [rational_coordinates(delta, vsub(p, anchor)) for p in points]
    if None in boxes:
        raise ValueError("lattice span does not contain the polytope's hull")
    lo = [ceil(min(b[j] for b in boxes)) for j in range(delta.rank)]
    hi = [floor(max(b[j] for b in boxes)) for j in range(delta.rank)]
    return lo, hi


def _size(box):
    return prod(max(b - a + 1, 0) for a, b in zip(*box))


def ref_lattice_points_in(P, L, strict=False, face=None, tight_weakly=False):
    """All points of the affine lattice L = (ambient anchor, difference
    lattice) inside P (relative interior if strict), or inside the given
    face of P, each with the bits of the facets it lies on.

    ``tight_weakly`` is the mutation of the face test: the facets through the
    face are tested weakly (>= 0) instead of with equality.
    """
    anchor, delta = L
    on = frozenset(face.indices if face is not None else range(len(P.points)))
    through = [on <= facet_indices(s) for s in P.facet_sets]
    lo, hi = ref_box(delta, anchor, [P.points[i] for i in P.vertex_indices if i in on])
    size = _size((lo, hi))
    if size > LATTICE_BOX_CAP:
        raise BudgetError(
            f"lattice-point search limited to {LATTICE_BOX_CAP} box points, got {size}"
        )
    gens = delta.generators()
    out = []
    for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        p = tuple(a + sum(k * g[i] for k, g in zip(m, gens)) for i, a in enumerate(anchor))
        slacks = ref_slacks(P, p)
        if slacks is not None and all(
            (a >= 0 if tight_weakly else a == 0) if t else a > 0 if strict else a >= 0
            for a, t in zip(slacks, through)
        ):
            out.append((p, sum(1 << j for j, a in enumerate(slacks) if a == 0)))
    return tuple(sorted(out))


def _outcome(f, *args, **kwargs):
    """(None, f's value), or (the type, the message) of the ValueError it
    raised."""
    try:
        return None, f(*args, **kwargs)
    except ValueError as e:
        return type(e), str(e)


def _face_configs():
    return [*face_corpus(), *(collinear(n) for n in (1, 5, 16)), *(coplanar(n) for n in (2, 4, 6))]


def _lattices(A, face):
    """The face's own lattice and Z_A's, whose box around a proper face also
    holds points of P off the face: each as the library's lattice of chart
    coordinates and the reference's ambient span, both anchored at the
    face's first point."""
    first = A.points[face.indices[0]]
    return (
        (face_lattice(A, face), ambient_span(A.face_points(face))),
        (None, ambient_span([first, *A.points])),
    )


def test_face_points_match_the_per_point_scan():
    faces = hits = mutant_misses = 0
    for A in [*_face_configs(), saturate(OBSTRUCTED, "s").result, *criterion_8_configs(30)]:
        P = A.newton
        for face in A.poset.faces:
            for L, ref_L in _lattices(A, face):
                for strict in (True, False):
                    got = (interior_points_in if strict else lattice_points_in)(P, L, face)
                    assert got == ref_lattice_points_in(P, ref_L, strict, face), (A.points, face)
                    hits += len(got)
                    # the mutation: facets through the face tested weakly
                    mutant_misses += got != ref_lattice_points_in(P, ref_L, strict, face, True)
            faces += 1
        for strict in (True, False):
            got = (interior_points_in if strict else lattice_points_in)(P)
            assert got == ref_lattice_points_in(P, ambient_span(A.points), strict)
    assert faces > 1900 and hits > 5000, (faces, hits)
    # the comparison above tells the mutation from the live route
    assert mutant_misses > 500, mutant_misses


def test_skewed_embeddings_match_the_per_point_scan():
    # each face's own lattice: the HNF basis of its chart differences against
    # the ambient HNF basis of its points' differences, whose boxes differ on
    # some faces; the masks, and so the interiors, are frame-free
    faces = hits = differ = 0
    for A in skewed_configs(37, 100):
        P, x = A.newton, A.chart_points
        for face in A.poset.faces:
            L, (anchor, delta) = face_lattice(A, face), ambient_span(A.face_points(face))
            got = lattice_points_in(P, L, face)
            assert got == ref_lattice_points_in(P, (anchor, delta), face=face), (A.points, face)
            hits += len(got)
            verts = [i for i in P.vertex_indices if i in face.indices]
            chart = ref_box(L, x[face.indices[0]], [x[i] for i in verts])
            differ += _size(chart) != _size(ref_box(delta, anchor, [A.points[i] for i in verts]))
            faces += 1
    assert faces > 1500 and hits > 3000 and differ > 10, (faces, hits, differ)


def test_face_lattices_carry_to_the_ambient_spans():
    # B L is the ambient difference lattice of the face's points, B the
    # chart basis, and the top face's lattice is the whole chart lattice
    faces = 0
    for A in [*_face_configs(), *skewed_configs(37, 100)]:
        B = A.newton.chart.basis
        d = A.newton.dim
        assert face_lattice(A, A.poset.top) == Lattice.from_generators(
            [[int(i == j) for j in range(d)] for i in range(d)], d
        )
        for face in A.poset.faces:
            carried = [[dot(row, g) for row in B] for g in face_lattice(A, face).generators()]
            _, delta = ambient_span(A.face_points(face))
            assert Lattice.from_generators(carried, A.ambient_dim) == delta, (A.points, face)
            faces += 1
    assert faces > 3500, faces


def test_a_lattice_short_of_the_face_is_refused():
    A = OBSTRUCTED
    edge = A.poset.of_dim(1)[0]
    L = face_lattice(A, A.poset.of_dim(0)[0])
    with pytest.raises(ValueError, match="lattice span does not contain"):
        lattice_points_in(A.newton, L, edge)


# -- lower facets, the reference of regular_triangulation -------------------------


def ref_regular_triangulation(A, heights):
    coords = A.chart_points
    heights = [Fraction(h) for h in heights]
    if len(heights) != A.size:
        raise ValueError("need one height per column")
    d = len(coords[0])
    # the heights times their least common denominator: the library's lift
    lifted = [(*x, w) for x, w in zip(coords, clear_denominators(heights))]
    hull = convex_hull(lifted)
    if hull.dim <= d:
        cells = [tuple(range(A.size))]
    else:
        cells = sorted(
            tuple(sorted(facet_indices(on)))
            for (h, _), on in zip(hull.facets, hull.facet_sets)
            if ref_ambient_functional(hull, h)[-1] < 0  # lower facets only
        )
    for cell in cells:
        if len(cell) != d + 1:
            raise DegenerateHeightsError(
                f"lower cell {cell} is not a simplex; perturb the heights"
            )
    T = make_triangulation(A, cells)
    if T.total_volume != config_volume(A):
        raise AssertionError("lower hull cells must cover the polytope")
    return T


def test_lower_facets_match_the_ambient_functionals():
    # the facets of the lift, hulled directly, against those of its chart
    # hull: the same point sets, each lower in both frames or in neither
    rng = random.Random(5)
    lower = upper = degenerate = 0
    for A in face_corpus()[:120]:
        d = A.newton.dim
        for heights in [random_heights(rng, A) for _ in range(3)] + [[0] * A.size]:
            lift = [(*x, w) for x, w in zip(A.chart_points, clear_denominators(heights))]
            hull = convex_hull(lift)
            rays = _facet_rays(lift, d + 1)
            assert (rays is None) == (hull.dim <= d)
            if rays is not None:
                got = {frozenset(i for i in range(A.size) if z >> i & 1): h[-1] < 0 for h, _, z in rays}
                assert got == {
                    facet_indices(on): ref_ambient_functional(hull, h)[-1] < 0
                    for (h, _), on in zip(hull.facets, hull.facet_sets)
                }
                lower += sum(got.values())
                upper += len(got) - sum(got.values())
            got = _outcome(regular_triangulation, A, heights)
            assert got == _outcome(ref_regular_triangulation, A, heights)
            degenerate += got[0] is DegenerateHeightsError
    assert lower > 500 and upper > 500 and degenerate > 0, (lower, upper, degenerate)


def _affine_heights(rng, A):
    """Nonzero heights c + h . x on the chart points x, over a denominator:
    their lift is not full-dimensional."""
    h = [rng.randint(-4, 4) for _ in range(A.newton.dim)]
    c, den = rng.choice((-3, -1, 1, 2)), rng.choice((1, 3, 997))
    return [Fraction(c + dot(h, x), den) for x in A.chart_points]


def test_lifted_hulls_match_the_chart_hull_route():
    # affine heights (a rank-deficient lift), flat configurations in ambient
    # dimension 4 and heights as the saturations benchmark draws them
    rng = random.Random(38)
    flat = [A for A in skewed_configs(43, 200) if A.ambient_dim == 4 and A.newton.dim < 3]
    counts = dict.fromkeys(("affine simplex", "affine degenerate", "flat", "generic"), 0)
    for A in [*_face_configs(), *flat]:
        heights = _affine_heights(rng, A)
        got = _outcome(regular_triangulation, A, heights)
        assert got == _outcome(ref_regular_triangulation, A, heights), (A.points, heights)
        counts["affine simplex" if got[0] is None else "affine degenerate"] += 1
        for _ in range(2):
            heights = random_heights(rng, A)
            got = _outcome(regular_triangulation, A, heights)
            assert got == _outcome(ref_regular_triangulation, A, heights), (A.points, heights)
            counts["generic"] += got[0] is None
            counts["flat"] += A in flat
    assert counts["affine simplex"] > 10 and counts["affine degenerate"] > 150, counts
    assert counts["flat"] > 50 and counts["generic"] > 300, counts


def test_degenerate_heights_name_the_least_lower_cell():
    # x^2 on the 3 x 2 grid lifts two squares, (0, 1, 2, 3) and (2, 3, 4, 5)
    A = PointConfiguration.from_columns([(1, x, y) for x in range(3) for y in range(2)])
    heights = [(x - 1) ** 2 for x in range(3) for y in range(2)]
    with pytest.raises(DegenerateHeightsError, match=re.escape("lower cell (0, 1, 2, 3) ")):
        regular_triangulation(A, heights)


# -- per-call facet constraints, the reference of is_nonresonant -----------------


def ref_is_nonresonant(A, beta):
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != A.ambient_dim:
        raise ValueError("parameter length must match the ambient dimension")
    d = A.newton.dim
    for face in A.poset.of_dim(d - 1):
        rows = integer_orthogonal_complement(A.face_points(face), A.ambient_dim)
        image = Lattice.from_generators(zip(*rows), len(rows))
        if ref_coordinates(image, tuple(dot(row, beta) for row in rows)) is not None:
            return ResonanceReport(False, face.indices)
    return ResonanceReport(True, None)


def test_nonresonance_matches_a_rebuild_per_call():
    rng = random.Random(16)
    verdicts = {True: 0, False: 0}
    for A in _face_configs():
        for planted in (False, True, False, True):
            beta = random_beta(rng, A, planted)
            got = is_nonresonant(A, beta)
            assert got == ref_is_nonresonant(A, beta), (A.points, beta)
            verdicts[bool(got)] += 1
        beta = [Fraction(rng.randint(-3, 3)) for _ in range(A.ambient_dim)]
        assert is_nonresonant(A, beta) == ref_is_nonresonant(A, beta)
    assert min(verdicts.values()) > 100, verdicts


def test_facet_constraints_map_onto_the_standard_lattice():
    # M's rows are the last columns of a unimodular transform, so M's
    # columns span Z^k and is_nonresonant needs no image lattice
    facets = 0
    for A in (*face_corpus(), *skewed_configs(47, 120), *solid_configs(5, 10)):
        for _, M in A.facet_constraints:
            k = len(M)
            eye = [[int(i == j) for j in range(k)] for i in range(k)]
            assert Lattice.from_generators(zip(*M), k) == Lattice.from_generators(eye, k), A.points
            facets += 1
    assert facets > 1300, facets


def test_nonresonance_over_one_denominator_matches_the_rational_routes():
    # Newton polytopes that are not full-dimensional, so M has several rows,
    # which map Z^(1+n) onto Z^k, and parameters beta = b / D with M b
    # integral but not divisible by D on some facet: against the rebuild per
    # call and the box search
    rng = random.Random(61)
    flat = [A for A in skewed_configs(47, 120) if A.newton.dim + 1 < A.ambient_dim <= 4]
    several = off_d = 0
    for A in flat:
        several += any(len(M) > 1 for _, M in A.facet_constraints)
        betas = [random_beta(rng, A, planted=i % 2 == 0) for i in range(8)]
        for beta in betas:
            assert is_nonresonant(A, beta) == ref_is_nonresonant(A, beta), (A.points, beta)
            D = lcm(*(b.denominator for b in beta))
            b = [a * D for a in beta]
            for _, M in A.facet_constraints:
                off_d += any(dot(row, b) % D for row in M)
        # the planted translates gamma lie in [-2, 2]^n, inside the search box
        oracle = resonance_box_oracle(A, betas, radius=3)
        assert [bool(is_nonresonant(A, beta)) for beta in betas] == oracle, A.points
    assert len(flat) > 25 and several == len(flat) and off_d > 200, (len(flat), several, off_d)

