"""Differential tests: each column's minimal face, read off the hull's facet
incidences, against a solve in the chart per column; the planar interior
witness, whose candidates are looked up among the enumerated interior points,
against the same search testing each candidate by its slacks; and the two
face questions of ``check_aux_point``, read off the face poset, against the
scans they replace.

The references below are the earlier routes, kept verbatim up to access
paths: ``ref_slacks``, ``ref_contains`` and ``ref_contains_strict`` are the
earlier ``Polytope._slacks``, ``Polytope.contains`` and
``Polytope.contains_strict``, one ``hnf_solve`` in P's chart and one dot
product per facet; ``ref_minimal_face_containing`` is the earlier
``polytope.minimal_face_containing`` and ``ref_dim2_interior_witness`` the
earlier ``configuration.dim2_interior_witness``.  The library no longer calls
any of them; ``test_polytope.py``, ``test_configuration.py`` and
``test_lattice_point_routes.py`` test membership through them.
``ref_is_pyramid`` is the earlier ``configuration._is_pyramid``, one
``rational_rank`` per point, and ``ref_uncovering_face`` the earlier scan of
``check_aux_point`` for a face through the deleted column that misses the
auxiliary one.
"""

import random

import pytest

from _corpus import random_planar_config
from test_chart_routes import OBSTRUCTED, _configs
from test_subdiagram_routes import _collinear, _coplanar, _corpus
from gkzkit.configuration import (
    PlanarWitness,
    PointConfiguration,
    _is_pyramid,
    check_aux_point,
    dim2_interior_witness,
    face_lattice,
    is_lattice_redundant,
    saturate,
)
from gkzkit.intlinalg import dot, rational_rank, vsub
from gkzkit.lattice import hnf_solve
from gkzkit.polytope import lattice_points_in

# -- the per-point chart solve, the reference of minimal_faces ---------------------


def ref_slacks(P, point):
    """D * (c - h . x) for each facet (h, c) at the chart coordinates x of
    an ambient point, one D > 0 for all; None off the affine hull."""
    s = hnf_solve(P.chart.basis.entries, P.chart.pivots, vsub(point, P.chart_anchor))
    return None if s is None else [c * s[1] - dot(h, s[0]) for h, c in P.facets]


def ref_contains(P, point) -> bool:
    slacks = ref_slacks(P, point)
    return slacks is not None and all(a >= 0 for a in slacks)


def ref_contains_strict(P, point) -> bool:
    """Membership in the relative interior."""
    slacks = ref_slacks(P, point)
    return slacks is not None and all(a > 0 for a in slacks)


def ref_minimal_face_containing(poset, point):
    """The unique face whose relative interior holds the point."""
    P = poset.polytope
    slacks = ref_slacks(P, point)
    if slacks is None or any(a < 0 for a in slacks):
        raise ValueError(f"{tuple(point)} is not in the polytope")
    s = set(range(len(P.points)))
    for a, on in zip(slacks, P.facet_sets):
        if a == 0:
            s &= on
    return poset.face_with_indices(s)


def ref_dim2_interior_witness(A: PointConfiguration):
    """For a two-dimensional, partially face-saturated configuration, search
    the vertices of N for one whose two incident edge steps land inside N;
    returns None exactly when Z_A has no interior points at all (verified by
    enumeration)."""
    if A.newton.dim != 2:
        raise ValueError("construction requires a two-dimensional Newton polytope")
    if saturate(A, "p").added_points:
        raise ValueError("construction assumes a partially face-saturated configuration")
    interior = lattice_points_in(A.newton, A.affine_lattice, strict=True)
    for vi in A.newton.vertex_indices:
        v = A.points[vi]
        edges = [e for e in A.poset.of_dim(1) if vi in e.indices]
        if len(edges) != 2:
            continue
        steps = []
        lengths = []
        for e in edges:
            L = face_lattice(A, e)
            # the far vertex along the edge
            far = next(
                A.points[j]
                for j in e.indices
                if j != vi and j in A.newton.vertex_indices
            )
            diff = vsub(far, v)
            gen = L.delta.generators()[0]
            ell = next(abs(d // g) for d, g in zip(diff, gen) if g != 0)
            lengths.append(ell)
            steps.append(tuple(d // ell for d in diff))
        candidate = tuple(v[i] + steps[0][i] + steps[1][i] for i in range(len(v)))
        if ref_contains_strict(A.newton, candidate):
            witness = PlanarWitness(
                v, (edges[0].indices, edges[1].indices), tuple(lengths), candidate
            )
            enlarged = A if candidate in A.points else A.with_point(candidate)
            cert = check_aux_point(
                enlarged, enlarged.index_of(candidate), enlarged.index_of(v)
            )
            if cert:
                return witness
    if interior:
        raise AssertionError("interior lattice points exist but no vertex works")
    return None


# -- the face scans of check_aux_point -------------------------------------------------


def ref_is_pyramid(points) -> bool:
    """A configuration is a pyramid if deleting some point drops its affine dimension."""
    pts = [tuple(p) for p in points]
    if len(pts) < 2:
        return False
    full = rational_rank([vsub(p, pts[0]) for p in pts[1:]])
    for skip in range(len(pts)):
        rest = [p for j, p in enumerate(pts) if j != skip]
        r = rational_rank([vsub(p, rest[0]) for p in rest[1:]]) if len(rest) > 1 else 0
        if r < full:
            return True
    return False


def ref_uncovering_face(A, k, a):
    """The first face, by (dim, indices), that holds column k but not column
    a, or None when every face through k holds a."""
    for face in A.poset.faces:
        if k in face.indices and a not in face.indices:
            return face
    return None


# -- corpora -------------------------------------------------------------------------


def _incidence_configs(seed, count):
    """``count`` distinct seeded configurations of polytope dimension 0-4 with
    points in a small box, so that many lie on proper faces; about a third
    lie on an affine subspace of lower dimension than their ambient space."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        n = rng.randint(1, 4)
        k = rng.randint(1, 9)
        if rng.random() < 0.3:
            base = [rng.randint(-2, 2) for _ in range(n)]
            dirs = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
            pts = {
                (1, *(b + sum(rng.randint(-2, 2) * d[i] for d in dirs) for i, b in enumerate(base)))
                for _ in range(k)
            }
        else:
            pts = {(1, *(rng.randint(0, 2) for _ in range(n))) for _ in range(k)}
        pts = tuple(sorted(pts))
        if pts not in out:
            out[pts] = PointConfiguration.from_columns(pts)
    return list(out.values())


def _route_corpora():
    """The corpora of test_chart_routes.py and test_subdiagram_routes.py."""
    return [
        *_configs(),
        OBSTRUCTED,
        saturate(OBSTRUCTED, "s").result,
        *_corpus(),
        *(_collinear(n) for n in (1, 5, 16)),
        *(_coplanar(n) for n in (2, 4, 6)),
    ]


def _codimensions(configs):
    """Codimension -> the number of columns whose minimal face has it, after
    asserting that every column's face is the reference's."""
    codims = {}
    for A in configs:
        for i, p in enumerate(A.points):
            face = A.minimal_faces[i]
            assert face == ref_minimal_face_containing(A.poset, p), (A.points, i)
            assert A.minimal_face(i) is face
            codim = A.newton.dim - face.dim
            codims[codim] = codims.get(codim, 0) + 1
    return codims


# -- tests ---------------------------------------------------------------------------


def test_minimal_faces_match_the_chart_solve():
    # a route that always answers the top face fails every column of
    # codimension > 0, one that meets the facets missing the column fails
    # the interior columns (codimension 0) and most others
    codims = _codimensions(_incidence_configs(17, 1000))
    assert {0, 1, 2, 3} <= set(codims), codims
    assert min(codims[c] for c in (0, 1, 2, 3)) >= 200, codims


def test_minimal_faces_match_the_chart_solve_on_the_route_corpora():
    codims = _codimensions(_route_corpora())
    assert {0, 1, 2, 3} <= set(codims), codims


def test_faces_are_looked_up_by_their_point_sets():
    for A in [*_incidence_configs(3, 100), OBSTRUCTED]:
        for f in A.poset.faces:
            assert A.poset.face_with_indices(reversed(f.indices)) is f
        with pytest.raises(KeyError):
            A.poset.face_with_indices((A.size,))


def _outcome(f, A):
    try:
        return None, f(A)
    except (ValueError, AssertionError) as e:
        return type(e), str(e)


def test_planar_witnesses_match_the_slack_route():
    rng = random.Random(41)
    found = nones = 0
    for _ in range(60):
        A = saturate(random_planar_config(rng, max_coord=4), "p").result
        # about a fifth of these raise the AssertionError "no vertex works":
        # both routes must raise it on the same inputs
        got = _outcome(dim2_interior_witness, A)
        assert got == _outcome(ref_dim2_interior_witness, A), A.points
        if got[1] is None:
            nones += 1
        elif got[0] is None:
            found += 1
            assert ref_contains_strict(A.newton, got[1].point)
    assert found >= 30 and nones >= 1, (found, nones)


def test_pyramids_are_read_off_the_face_poset():
    counts = [0, 0]
    for A in [*_incidence_configs(23, 300), *_route_corpora()]:
        for face in A.poset.faces:
            expect = ref_is_pyramid(A.face_points(face))
            assert _is_pyramid(A, face) == expect, (A.points, face.indices)
            counts[expect] += 1
    assert min(counts) >= 500, counts


def test_aux_rejections_name_the_minimal_face():
    # every face through k holds a iff k's minimal face does, and the first
    # face by (dim, indices) that misses a is that minimal face; the library
    # states the rejection only for a lattice-redundant k
    configs = _incidence_configs(29, 200)
    rejected = stated = 0
    for A in [*configs, *(saturate(A, "s").result for A in configs[:100]), OBSTRUCTED]:
        for k in range(A.size):
            redundant = bool(is_lattice_redundant(A, k))
            for a in range(A.size):
                if a == k:
                    continue
                face = ref_uncovering_face(A, k, a)
                if face is None:
                    assert a in A.minimal_face(k).indices, (A.points, k, a)
                    continue
                assert face is A.minimal_face(k), (A.points, k, a)
                rejected += 1
                if redundant:
                    cert = check_aux_point(A, k, a)
                    text = f"face {face.indices} contains the deleted point but not the auxiliary"
                    assert not cert and cert.reasons == (text,), (A.points, k, a)
                    stated += 1
    assert rejected >= 5000 and stated >= 80, (rejected, stated)
