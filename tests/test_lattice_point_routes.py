"""Differential tests: lattice points by integer slack forms against the
per-point scan, lower facets by the chart coordinates of the vertical unit
vector against ambient functionals, and resonance from the configuration's
facet constraints against a rebuild per call.

The references below are the earlier routes, kept verbatim up to access
paths: ``ref_lattice_points_in`` builds every box point and tests it by
``ref_slacks`` (the earlier ``P._slacks``), one solve in P's chart per point,
and reads each hit's mask of tight facets off the same slacks; ``ref_regular_triangulation``
picks the lower facets by the last entry of each facet's ambient functional,
on the lift by the heights times their least common denominator, as the
library lifts;
``ref_is_nonresonant`` builds each codimension-one face's constraint rows and
image lattice on every call.  The three are references since commit
30258b6, which replaced them, and stay as the routes the library replaced
and the oldest ones left: the per-point scan tests every box point.
"""

import itertools
import random
from fractions import Fraction
from math import ceil, floor, prod

import pytest

from _corpus import (
    OBSTRUCTED,
    chart_point_sets,
    collinear,
    coplanar,
    criterion_8_configs,
    face_corpus,
    interior_points_in,
    random_beta,
    random_heights,
    rational_coordinates,
)
from test_chart_routes import ref_ambient_functional
from test_incidence_routes import ref_slacks
from test_kernel_routes import ref_integer_orthogonal_complement as integer_orthogonal_complement
from gkzkit.configuration import face_lattice, saturate
from gkzkit.hyper import ResonanceReport, is_nonresonant
from gkzkit.intlinalg import clear_denominators, dot, vsub
from gkzkit.lattice import AffineLattice, Lattice
from gkzkit.polytope import (
    LATTICE_BOX_CAP,
    BudgetError,
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


def ref_lattice_points_in(P, L, strict=False, face=None, tight_weakly=False):
    """All points of the affine lattice inside P (relative interior if strict),
    or inside the given face of P, each with the bits of the facets it lies on.

    ``tight_weakly`` is the mutation of the face test: the facets through the
    face are tested weakly (>= 0) instead of with equality.
    """
    on = frozenset(face.indices if face is not None else range(len(P.points)))
    through = [on <= s for s in P.facet_sets]
    boxes = [
        rational_coordinates(L.delta, vsub(P.points[i], L.anchor))
        for i in P.vertex_indices
        if i in on
    ]
    if None in boxes:
        raise ValueError("lattice span does not contain the polytope's hull")
    gens = L.delta.generators()
    lo = [ceil(min(b[j] for b in boxes)) for j in range(L.rank)]
    hi = [floor(max(b[j] for b in boxes)) for j in range(L.rank)]
    size = prod(max(b - a + 1, 0) for a, b in zip(lo, hi))
    if size > LATTICE_BOX_CAP:
        raise BudgetError(
            f"lattice-point search limited to {LATTICE_BOX_CAP} box points, got {size}"
        )
    out = []
    for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        p = tuple(a + sum(k * g[i] for k, g in zip(m, gens)) for i, a in enumerate(L.anchor))
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


def test_face_points_match_the_per_point_scan():
    faces = hits = mutant_misses = 0
    for A in [*_face_configs(), saturate(OBSTRUCTED, "s").result, *criterion_8_configs(30)]:
        P = A.newton
        for face in A.poset.faces:
            # the face's own lattice, and Z_A's, whose box around a proper
            # face also holds points of P off the face
            for L in (face_lattice(A, face), A.affine_lattice):
                for strict in (True, False):
                    got = (interior_points_in if strict else lattice_points_in)(P, L, face)
                    assert got == ref_lattice_points_in(P, L, strict, face), (A.points, face)
                    hits += len(got)
                    # the mutation: facets through the face tested weakly
                    mutant_misses += got != ref_lattice_points_in(P, L, strict, face, True)
            faces += 1
        for strict in (True, False):
            L = A.affine_lattice
            got = (interior_points_in if strict else lattice_points_in)(P, L)
            assert got == ref_lattice_points_in(P, L, strict)
    assert faces > 1900 and hits > 5000, (faces, hits)
    # the comparison above tells the mutation from the live route
    assert mutant_misses > 500, mutant_misses


def test_points_off_a_flat_hull_match_the_per_point_scan():
    # the lattice Z^n through the first point: on flat point sets its span
    # leaves P's affine hull, and on rational ones its anchor is rational
    flat = nonempty = budget = 0
    for _, pts in chart_point_sets(7, 120):
        P = convex_hull(pts)
        n = len(pts[0])
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        L = AffineLattice(pts[0], Lattice.from_generators(unit))
        for strict in (True, False):
            error, got = _outcome(interior_points_in if strict else lattice_points_in, P, L)
            assert (error, got) == _outcome(ref_lattice_points_in, P, L, strict), pts
            budget += error is BudgetError
            if P.dim < n and error is None:
                flat += 1
                nonempty += len(got) > 1
    assert flat > 100 and nonempty > 30 and budget > 0, (flat, nonempty, budget)


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
        cells = [
            tuple(sorted(on))
            for (h, _), on in zip(hull.facets, hull.facet_sets)
            if ref_ambient_functional(hull, h)[-1] < 0  # lower facets only
        ]
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
    rng = random.Random(5)
    lower = upper = degenerate = 0
    for A in face_corpus()[:120]:
        d = A.newton.dim
        for heights in [random_heights(rng, A) for _ in range(3)] + [[0] * A.size]:
            lift = clear_denominators(heights)
            hull = convex_hull([(*x, w) for x, w in zip(A.chart_points, lift)])
            if hull.dim > d:
                u = rational_coordinates(hull.chart, (0,) * d + (1,))
                for h, _ in hull.facets:
                    down = dot(h, u) < 0
                    assert down == (ref_ambient_functional(hull, h)[-1] < 0)
                    lower += down
                    upper += not down
            got = _outcome(regular_triangulation, A, heights)
            assert got == _outcome(ref_regular_triangulation, A, heights)
            degenerate += got[0] is DegenerateHeightsError
    assert lower > 500 and upper > 500 and degenerate > 0, (lower, upper, degenerate)


# -- per-call facet constraints, the reference of is_nonresonant -----------------


def ref_is_nonresonant(A, beta):
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != A.ambient_dim:
        raise ValueError("parameter length must match the ambient dimension")
    d = A.newton.dim
    for face in A.poset.of_dim(d - 1):
        rows = integer_orthogonal_complement(A.face_points(face), A.ambient_dim)
        image = Lattice.from_generators(zip(*rows), len(rows))
        if tuple(dot(row, beta) for row in rows) in image:
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

