"""Differential tests: triangular solves on HNF bases against Gauss-Jordan.

The references below are the earlier routes, references since commit
cb84dca, which replaced them, kept verbatim up to access paths: chart
coordinates, ambient functionals and lattice coordinates through
``solve_rational`` with a back-multiplication check (``_chart_coords_ref``,
``_ambient_functional_ref``, ``_coordinates_ref``,
``_rational_coordinates_ref``, and ``_solve_ref`` to swap in), and face
points from a fresh hull of each face (``_lattice_points_in_ref``, in its
present form since commit e8d3094).  They stay as the routes the triangular
solves replaced, and as the most independent ones: Gauss-Jordan shares no
step with the HNF solve.  ``_lattice_points_in_ref`` is only swapped in
here, under the saturations and reduction chains; the face points
themselves are compared with the per-point scan of
``test_lattice_point_routes.py``, which hulls nothing.

``ref_ambient_functional`` is the earlier ``Polytope.ambient_functional``, a
reference since commit 30258b6, kept verbatim up to access paths: the
triangular solve on the chart basis's pivot rows.  The library no longer
calls it; it is checked against the Gauss-Jordan route here and shared with
the references of ``test_subdiagram_routes.py`` and
``test_lattice_point_routes.py``.

``ref_face_interior`` is the earlier ``PointConfiguration.face_interior``,
one scan of each face, a reference since commit f3fca80, which replaced it
by one scan per maximal face.

``ref_check_homogeneous`` is the earlier ``check_homogeneous``, kept
verbatim: a ``Fraction`` functional h with h . a = 1 on every column, solved
by Gauss-Jordan on the n columns.  ``from_columns`` now reads the same
yes/no answer off the Newton hull's chart, where 0 must be off the affine
hull, and the two must refuse the same column sets.

The library reads chart coordinates as ``hnf_solve``'s pair of integer
numerators and positive denominator; ``rational_coordinates`` of
``_corpus.py`` reads the pair as Fractions for the tests.  Integer lattice
coordinates, ``Lattice.coordinates``, skip the pair; under the saturations
and reduction chains ``_coordinates_ref`` is swapped in for them.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from _corpus import (
    OBSTRUCTED,
    chart_point_sets,
    criterion_8_configs,
    face_corpus,
    interior_points_in,
    random_coord,
    rational_coordinates,
)
from gkzkit import configuration, lattice, polytope
from gkzkit.configuration import (
    InhomogeneousError,
    PointConfiguration,
    face_lattice,
    reduction_chain,
    saturate,
)
from gkzkit.intlinalg import clear_denominators, dot, solve_rational, vsub
from gkzkit.lattice import Lattice
from gkzkit.polytope import convex_hull, lattice_points_in

def _as_fraction_vec(p):
    return tuple(Fraction(a) for a in p)


def _chart_coords_ref(P, point):
    """Chart coordinates of an ambient point, or None if off the affine hull."""
    chart_basis = P.chart.generators()
    if P.dim == 0:
        return () if _as_fraction_vec(point) == _as_fraction_vec(P.chart_anchor) else None
    diff = vsub(_as_fraction_vec(point), _as_fraction_vec(P.chart_anchor))
    rows = tuple(zip(*chart_basis))  # ambient x dim matrix
    x = solve_rational(rows, diff)
    if x is None:
        return None
    back = tuple(
        sum(x[j] * Fraction(chart_basis[j][i]) for j in range(P.dim))
        for i in range(len(diff))
    )
    return x if back == diff else None


def ref_ambient_functional(P, h):
    """Integer ambient functional f with f . b_j = t * h_j on the chart
    basis vectors b_j, t > 0 the least factor making f integral.

    f restricts to t * h on the chart directions, so it orders points of
    the affine hull as the chart functional h does.  It is supported on
    the pivot rows, where the system is square and triangular (b_k
    vanishes on the pivot rows of the earlier columns), so its solution
    is unique.
    """
    rows, piv = P.chart.basis, P.chart.pivots
    x = solve_rational([[rows[p][j] for p in piv] for j in range(P.dim)], h)
    f = [0] * len(rows)
    for p, a in zip(piv, x):
        f[p] = a
    return clear_denominators(f)


def _ambient_functional_ref(P, h):
    f = solve_rational(P.chart.generators(), list(h))
    if f is None:
        raise AssertionError("chart basis must admit a dual functional")
    return clear_denominators(f)


def _coordinates_ref(L, v):
    """Integer coordinates of v in this basis, or None if v is not a member."""
    x = solve_rational(L.basis, tuple(v))
    if x is None or any(a.denominator != 1 for a in x):
        return None
    coords = tuple(int(a) for a in x)
    if tuple(dot(row, coords) for row in L.basis) != tuple(v):
        return None
    return coords


def _rational_coordinates_ref(L, v):
    """Rational coordinates of v in the basis, or None if outside the span."""
    x = solve_rational(L.basis, tuple(v))
    if x is None:
        return None
    if tuple(dot(row, x) for row in L.basis) != tuple(Fraction(a) for a in v):
        return None
    return x


def _lattice_points_in_ref(P, L=None, face=None, interior=False):
    """``lattice_points_in``, with the points of a face read off a fresh hull
    of the face (the vertex itself for 0-faces), and each point's bits of
    the facets of P it lies on read off its Gauss-Jordan chart coordinates.
    With ``interior``, the points off every facet of that hull alone.  L, in
    P's chart (Z^dim by default), must lie in the face's span, as the
    configuration's scans' lattices do: it is carried into the fresh hull's
    chart through the ambient space, each generator g as B g, B P's chart
    basis."""
    Q = P if face is None else convex_hull([P.points[i] for i in face.indices])
    eye = range(P.dim)
    gens = L.generators() if L is not None else [[int(i == j) for j in eye] for i in eye]
    ambient = [[dot(row, g) for row in P.chart.basis] for g in gens]
    carried = [_chart_coords_ref(Q, [a + b for a, b in zip(Q.chart_anchor, w)]) for w in ambient]
    out = []
    for p, mask in lattice_points_in(Q, Lattice.from_generators(carried, Q.dim)):
        if interior and mask:
            continue
        x = _chart_coords_ref(P, p)
        out.append((p, sum(1 << j for j, (h, c) in enumerate(P.facets) if dot(h, x) == c)))
    return tuple(out)


def ref_face_interior(A, face):
    """The earlier ``PointConfiguration.face_interior``: one scan of each face
    in its own face lattice, cut to the face's relative interior."""
    return tuple(p for p, _ in interior_points_in(A.newton, face_lattice(A, face), face))


def _solve_ref(rows, pivots, v):
    """The solve kernel's contract met by Gauss-Jordan, for swapping in."""
    x = _rational_coordinates_ref(Lattice(len(rows), tuple(map(tuple, rows))), v)
    if x is None:
        return None
    den = lcm(*(a.denominator for a in x))
    return [int(a * den) for a in x], den


def ref_check_homogeneous(columns):
    """Rational functional h with h . alpha = 1 for every column, or raise."""
    cols = [tuple(col) for col in columns]  # the rows of the system alpha_i . h = 1
    h = solve_rational(cols, [1] * len(cols))
    if h is None:
        raise InhomogeneousError("no functional takes the value 1 on every column")
    return h


def _homogeneity_inputs(rng):
    """Distinct integer column sets in ambient dimensions 1-4, and a column
    of length 0: fixed ones, then seeded random ones, sets on a hyperplane
    h = k that span it or lie flat in it, and such sets with one column
    doubled."""
    yield from [[()], [(0,)], [(3,)], [(-2,)], [(0, 0)], [(0, 1)], [(1, 0), (2, 0)],
                [(1, 0), (-1, 0)], [(1, 0), (0, 0)], [(1, 5), (1, 7)], [(2, 0), (0, 2)]]
    for _ in range(300):
        d = rng.randint(1, 4)
        n = rng.randint(1, 6)
        cols = {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)}
        yield sorted(cols)
        k = rng.randint(1, 3)
        lifted = {(k, *(rng.randint(-3, 3) for _ in range(d - 1))) for _ in range(n)}
        if d > 2 and rng.random() < 0.5:  # flat: the last entry a combination of the others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            lifted = {(*c[:-1], a * c[0] + b * c[1]) for c in lifted}
        lifted = sorted(lifted)
        yield lifted
        doubled = tuple(2 * a for a in rng.choice(lifted))
        if doubled not in lifted:
            yield [*lifted, doubled]


def test_homogeneity_off_the_chart_matches_the_fraction_solve():
    rng = random.Random(4301)
    seen = {"refused": 0, "accepted": 0, "with_point refused": 0, "with_point accepted": 0}
    for cols in _homogeneity_inputs(rng):
        try:
            ref_check_homogeneous(cols)
            refused = False
        except InhomogeneousError:
            refused = True
        try:
            A = PointConfiguration.from_columns(cols)
            assert not refused, cols
            assert A.group_lattice == Lattice.from_generators(cols)
        except InhomogeneousError:
            assert refused, cols
        seen["refused" if refused else "accepted"] += 1
        if len(cols) < 2:
            continue
        try:
            ref_check_homogeneous(cols[:-1])
        except InhomogeneousError:
            continue
        B = PointConfiguration.from_columns(cols[:-1])
        if refused:
            with pytest.raises(InhomogeneousError):
                B.with_point(cols[-1])
        else:
            assert B.with_point(cols[-1]) == PointConfiguration.from_columns(cols)
        seen[f"with_point {'refused' if refused else 'accepted'}"] += 1
    assert min(seen.values()) >= 100, seen


def _queries(rng, pts):
    """The points, rational affine combinations of them (on the hull's
    affine span) and random points (mostly off it, when the set is flat)."""
    n = len(pts[0])
    out = list(pts)
    for _ in range(4):
        w = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in pts]
        w[0] += 1 - sum(w)
        out.append(tuple(sum(c * p[i] for c, p in zip(w, pts)) for i in range(n)))
        out.append(tuple(random_coord(rng, rng.random() < 0.5) for _ in range(n)))
    return out


def test_chart_coords_and_ambient_functionals_match_gauss_jordan():
    nones = facets = 0
    for rng, pts in chart_point_sets(7, 400):
        P = convex_hull(pts)
        assert P.point_coords == tuple(_chart_coords_ref(P, p) for p in pts)
        for q in _queries(rng, pts):
            got = rational_coordinates(P.chart, vsub(q, P.chart_anchor))
            assert got == _chart_coords_ref(P, q)
            nones += got is None
        for h, _ in P.facets:
            assert ref_ambient_functional(P, h) == _ambient_functional_ref(P, h)
            facets += 1
    assert nones > 100 and facets > 1000


def test_lattice_coordinates_match_gauss_jordan():
    rng = random.Random(11)
    nones = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        if not any(any(g) for g in gens):
            continue
        L = Lattice.from_generators(gens, n)
        queries = []
        for _ in range(4):
            c = [rng.randint(-3, 3) for _ in gens]
            member = tuple(sum(a * g[i] for a, g in zip(c, gens)) for i in range(n))
            queries.append(member)
            # a half step along one generator: in the span, often not a member
            queries.append(tuple(m + Fraction(g, 2) for m, g in zip(member, gens[0])))
            queries.append(tuple(rng.randint(-5, 5) for _ in range(n)))
            queries.append(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)))
        for v in queries:
            got = L.coordinates(v)
            assert got == _coordinates_ref(L, v)
            assert rational_coordinates(L, v) == _rational_coordinates_ref(L, v)
            assert (v in L) == (got is not None)
            nones += got is None
    assert nones > 400


def test_face_interiors_from_one_scan_match_the_per_face_scans():
    faces = hits = coarse = 0
    for A in [*criterion_8_configs(30), *face_corpus()]:
        for order in (1, -1):  # smallest faces first, then the top first
            A = _fresh(A)
            for face in A.poset.faces[::order]:
                assert A.face_interior(face) == ref_face_interior(A, face), (A.points, face)
        faces += len(A.poset.faces)
        hits += sum(len(A.face_interior(f)) > (f.dim == 0) for f in A.poset.faces)
        full = tuple(p for p, _ in lattice_points_in(A.newton))
        assert A.face_lattice_points(A.poset.top) == full
        # points of N off the lattice of the face they are interior to
        coarse += len(set(full).difference(*(A.face_interior(f) for f in A.poset.faces)))
    assert faces > 1800 and hits > 200 and coarse > 100, (faces, hits, coarse)


def _fresh(A):
    return PointConfiguration.from_columns(A.points, A.labels)


def _saturations_and_chains(A, chain_modes):
    A = _fresh(A)
    sats = tuple(saturate(A, mode) for mode in ("s", "p", "full"))
    return sats, tuple(reduction_chain(A, mode) for mode in chain_modes)


@pytest.mark.parametrize("which", ["corpus", "obstructed"])
def test_saturations_and_chains_match_the_gauss_jordan_route(which, monkeypatch):
    # OBSTRUCTED is complete under "p"; its "s" chain is the stuck one
    configs, modes = (criterion_8_configs(30), ("p",)) if which == "corpus" else ([OBSTRUCTED], ("p", "s"))
    got = [_saturations_and_chains(A, modes) for A in configs]
    with monkeypatch.context() as m:
        m.setattr(lattice.Lattice, "coordinates", _coordinates_ref)
        m.setattr(configuration, "hnf_solve", _solve_ref)
        m.setattr(polytope, "hnf_solve", _solve_ref)
        m.setattr(configuration, "lattice_points_in", _lattice_points_in_ref)
        want = [_saturations_and_chains(A, modes) for A in configs]
    assert got == want
    if which == "obstructed":
        assert got[0][1][1].obstruction == ((1, 1, 1, 1),)


def test_face_saturation_hulls_only_the_newton_polytope(monkeypatch):
    calls = []

    def counting(points):
        calls.append(tuple(points))
        return convex_hull(points)

    monkeypatch.setattr(polytope, "convex_hull", counting)
    monkeypatch.setattr(configuration, "convex_hull", counting)
    for A in [*criterion_8_configs(30)[:10], OBSTRUCTED]:
        # from_columns builds the one hull, and the saturation reads its faces
        calls.clear()
        A = _fresh(A)
        saturate(A, "s")
        assert calls == [A.points]


def _maximal(faces):
    return sorted(f.indices for f in faces if not any(set(f.indices) < set(g.indices) for g in faces))


def test_face_interiors_are_computed_once_per_face(monkeypatch):
    calls = []

    def counting(P, L, face=None):
        calls.append(face.indices)
        return lattice_points_in(P, L, face)

    monkeypatch.setattr(configuration, "lattice_points_in", counting)
    below = 0
    for A in [*criterion_8_configs(30), OBSTRUCTED]:
        # "p" scans the maximal faces it needs, each once; then "s" scans
        # the top if "p" did not, and nothing more is scanned
        A = _fresh(A)
        calls.clear()
        saturate(A, "p")
        assert sorted(calls) == _maximal(A.face_int_semiideal())
        below += A.poset.top not in A.face_int_semiideal()
        calls.clear()
        saturate(A, "s")
        saturate(A, "p")
        saturate(A, "full")
        reduction_chain(A, "p")
        for face in A.poset.faces:
            A.face_interior(face)
        assert calls == ([] if A.poset.top in A.face_int_semiideal() else [A.poset.top.indices])
        # "s" and "full" each scan N's box once, and share it
        for first in ("s", "full"):
            A = _fresh(A)
            calls.clear()
            saturate(A, first)
            saturate(A, "full" if first == "s" else "s")
            assert calls == [A.poset.top.indices]
    assert below >= 8, below
