"""Differential tests: each column's minimal face, read off the hull's facet
incidences, against a solve in the chart per column; the planar interior
witness, whose candidates are looked up among the enumerated interior points,
against the same search testing each candidate by its slacks; the two
face questions of ``check_aux_point``, read off the face poset, against the
scans they replace; and its redundancy test, one chart span on the deleted
column's minimal face, against ``is_lattice_redundant``, one per face
through the column.

The references below are the earlier routes, kept verbatim up to access
paths: ``ref_slacks``, ``ref_contains`` and ``ref_contains_strict`` are the
earlier ``Polytope._slacks``, ``Polytope.contains`` and
``Polytope.contains_strict``, one ``hnf_solve`` in P's chart and one dot
product per facet; ``ref_minimal_face_containing`` is the earlier
``polytope.minimal_face_containing`` and ``ref_dim2_interior_witness`` the
earlier ``configuration.dim2_interior_witness``, whose edge lattices stay
ambient spans (the test's ``ambient_span``).  The library no longer calls
any of them; ``test_polytope.py``, ``test_configuration.py`` and
``test_lattice_point_routes.py`` test membership through them.
``ref_is_pyramid`` is the earlier ``configuration._is_pyramid``, one
``rational_rank`` per point, and ``ref_uncovering_face`` the earlier scan of
``check_aux_point`` for a face through the deleted column that misses the
auxiliary one.  ``ref_check_aux_point`` and ``ref_matching_face`` are the
earlier ``check_aux_point``, whose membership route built the group of the
face's remaining points in A - k, and the earlier ``_matching_face``, which
found that face of A - k by intersecting point sets.  The reference also
rebuilds A - k for its multiplicity route, which the library now reads off
A's own quotient of the face.

Each reference dates from the commit that replaced it in the library:
7677594 for the slack, membership, minimal-face and witness routes, bf3f700
for the pyramid test and the uncovering scan, and ad28d70 for the aux
certificate and its matching face.  Each stays as the route the library
replaced, and the oldest one left for its question.
"""

import itertools
import random

import pytest

from _corpus import (
    OBSTRUCTED,
    ambient_span,
    collinear,
    config,
    coplanar,
    criterion_8_configs,
    face_corpus,
    facet_indices,
    random_planar_config,
)
from test_subdiagram_routes import ref_face_group
from gkzkit import cli, configuration
from gkzkit.configuration import (
    AuxCertificate,
    FaceCheck,
    PlanarWitness,
    PointConfiguration,
    _aux_multiplicities,
    _is_pyramid,
    check_aux_point,
    dim2_interior_witness,
    face_lattice,
    is_lattice_redundant,
    multiplicity,
    saturate,
)
from gkzkit.intlinalg import dot, rational_rank, vsub
from gkzkit.lattice import hnf_solve
from gkzkit.polytope import lattice_points_in

# -- the per-point chart solve, the reference of minimal_faces ---------------------


def ref_slacks(P, point):
    """D * (c - h . x) for each facet (h, c) at the chart coordinates x of
    an ambient point, one D > 0 for all; None off the affine hull."""
    s = hnf_solve(P.chart.basis, P.chart.pivots, vsub(point, P.chart_anchor))
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
            s &= facet_indices(on)
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
    # points of the interior lie on no facet
    interior = [p for p, mask in lattice_points_in(A.newton) if not mask]
    for vi in A.newton.vertex_indices:
        v = A.points[vi]
        edges = [e for e in A.poset.of_dim(1) if vi in e.indices]
        if len(edges) != 2:
            continue
        steps = []
        lengths = []
        for e in edges:
            _, L = ambient_span(A.face_points(e))
            # the far vertex along the edge
            far = next(
                A.points[j]
                for j in e.indices
                if j != vi and j in A.newton.vertex_indices
            )
            diff = vsub(far, v)
            gen = L.generators()[0]
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


# -- the group route of check_aux_point -------------------------------------------------


def ref_check_aux_point(A: PointConfiguration, k: int, a: int) -> AuxCertificate:
    """Certify that column a can serve as the auxiliary point for deleting
    column k: k is lattice redundant, every face through k contains a, and for
    each face through a the multiplicity is unchanged by the deletion (shown
    by group membership of the deleted point, by exact multiplicity
    comparison, or by the pyramid sufficient condition for defectiveness).
    """
    if k == a or not (0 <= k < A.size and 0 <= a < A.size):
        raise IndexError("need two distinct valid column indices")
    red = is_lattice_redundant(A, k)
    if not red:
        return AuxCertificate(False, k, a, (f"column {k} is not lattice redundant: {red.reason}",))
    # the deletion argument needs every discriminant factor involving the
    # deleted coordinate to involve the auxiliary one: every face through k
    # must contain a, i.e. the minimal face of k must
    face = A.minimal_face(k)
    if a not in face.indices:
        return AuxCertificate(
            False, k, a,
            (f"face {face.indices} contains the deleted point but not the auxiliary",),
        )
    A_k = A.delete(k)
    checks = []
    # high-dimensional faces have low quotient rank and are cheap to settle;
    # evaluate those first and stop at the first failure
    faces = sorted(
        (f for f in A.poset.faces if a in f.indices), key=lambda f: (-f.dim, f.indices)
    )
    for pos, face in enumerate(faces):
        if face.supporting is None:
            checks.append(FaceCheck(face.indices, "top", "m(A, N) = 1 always"))
            continue
        group_without = ref_face_group(A_k, ref_matching_face(A_k, A, face))
        if A.points[k] in group_without:
            checks.append(
                FaceCheck(face.indices, "lattice-membership",
                          "deleted point lies in the group of the remaining face points")
            )
            continue
        m_with = multiplicity(A, face).mult_m
        m_without = multiplicity(A_k, ref_matching_face(A_k, A, face)).mult_m
        if m_with == m_without:
            checks.append(
                FaceCheck(face.indices, "multiplicity", f"m = {m_with} on both sides")
            )
            continue
        if _is_pyramid(A, face):
            checks.append(
                FaceCheck(face.indices, "pyramid", "face configuration is a pyramid, hence defective")
            )
            continue
        checks.append(
            FaceCheck(face.indices, "failed",
                      f"m changes {m_with} -> {m_without} and no defectiveness certificate")
        )
        checks.extend(
            FaceCheck(f.indices, "skipped", "not evaluated after first failure")
            for f in faces[pos + 1:]
        )
        return AuxCertificate(False, k, a, tuple(checks))
    return AuxCertificate(True, k, a, tuple(checks))


def ref_matching_face(B: PointConfiguration, A: PointConfiguration, face):
    """The face of B's poset carrying the same geometric face of A (B's points
    must be a subset of A's with the same Newton polytope)."""
    pts = set(B.points) & set(A.face_points(face))
    idx = tuple(sorted(B.index_of(p) for p in pts))
    return B.poset.face_with_indices(idx)


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
        *criterion_8_configs(30),
        OBSTRUCTED,
        saturate(OBSTRUCTED, "s").result,
        *face_corpus(),
        *(collinear(n) for n in (1, 5, 16)),
        *(coplanar(n) for n in (2, 4, 6)),
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
        # no face has a repeated, negative, fractional or missing index
        v = A.poset.faces[0].indices[0]
        for indices in [(A.size,), (v, v), (-1,), (0.5,), ()]:
            with pytest.raises(KeyError):
                A.poset.face_with_indices(indices)


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


def test_aux_certificates_match_the_group_route():
    # every ordered (k, a) pair of curves, planar sets, 3-polytopes,
    # OBSTRUCTED and its s-saturation; a membership route that misreads
    # incidence, or a face of A - k off by one column, changes some route
    routes = {}
    for A in face_corpus():
        for k in range(A.size):
            for a in range(A.size):
                if a == k:
                    continue
                cert = check_aux_point(A, k, a)
                ref = ref_check_aux_point(A, k, a)
                assert (cert.ok, cert.reasons) == (ref.ok, ref.reasons), (A.points, k, a)
                for r in cert.reasons:
                    if isinstance(r, FaceCheck):
                        key = r.route
                    else:
                        key = "not redundant" if "not lattice redundant" in r else "uncovered"
                    routes[key] = routes.get(key, 0) + 1
    expect = {"top", "lattice-membership", "multiplicity", "pyramid", "failed", "skipped",
              "not redundant", "uncovered"}
    assert set(routes) == expect, routes


def test_aux_multiplicities_match_the_rebuilt_deletion():
    # every proper face missing k, for every lattice-redundant k: both
    # multiplicities read off A's quotient of the face equal those of A and
    # of the rebuilt A - k; a certificate that drops no column, or the wrong
    # one, misreads the pairs whose multiplicity changes
    pairs = changed = 0
    for A in face_corpus():
        for k in range(A.size):
            if not is_lattice_redundant(A, k):
                continue
            A_k = A.delete(k)
            for face in A.poset.faces:
                if face.supporting is None or k in face.indices:
                    continue
                expect = (
                    multiplicity(A, face).mult_m,
                    multiplicity(A_k, ref_matching_face(A_k, A, face)).mult_m,
                )
                assert _aux_multiplicities(A, face, k) == expect, (A.points, k, face.indices)
                pairs += 1
                changed += expect[0] != expect[1]
    assert pairs >= 600 and 0 < changed < pairs, (pairs, changed)


def test_aux_multiplicities_reuse_v_when_the_images_stay(monkeypatch):
    # _seen_pyramids runs once on a face where dropping k leaves the images
    # G unchanged, that is, where k's image is another column's
    calls = []
    seen = configuration._seen_pyramids
    monkeypatch.setattr(configuration, "_seen_pyramids", lambda G: calls.append(G) or seen(G))
    # a 3 x 1 rectangle of points, k = (1, 1, 1) lattice redundant on its top edge
    A = PointConfiguration.from_columns([(1, x, y) for y in (0, 1) for x in range(4)])
    k, a = A.index_of((1, 1, 1)), A.index_of((1, 3, 1))
    # on the edge x = 3, k's image, its distance 2 from the edge, is (1, 1, 0)'s
    edge = A.poset.face_with_indices((A.index_of((1, 3, 0)), a))
    assert _aux_multiplicities(A, edge, k) == (1, 1) and len(calls) == 1
    # at the vertex a, k's image (-2, 0) is no other column's
    calls.clear()
    assert _aux_multiplicities(A, A.minimal_face(a), k) == (1, 1) and len(calls) == 2
    calls.clear()
    cert = check_aux_point(A, k, a)
    routes = [r.route for r in cert.reasons]
    assert routes == ["top", "multiplicity", "lattice-membership", "multiplicity"]
    assert len(calls) == 3
    ref = ref_check_aux_point(A, k, a)
    assert cert.ok and (cert.ok, cert.reasons) == (ref.ok, ref.reasons)
    # over the corpus: some faces reuse v, some do not
    counts = {1: 0, 2: 0}
    for A in face_corpus():
        for k in range(A.size):
            if not is_lattice_redundant(A, k):
                continue
            for face in A.poset.faces:
                if face.supporting is None or k in face.indices:
                    continue
                calls.clear()
                _aux_multiplicities(A, face, k)
                counts[len(calls)] += 1
    assert counts[1] >= 100 and counts[2] >= 100, counts


def test_aux_certificates_build_no_configuration(monkeypatch):
    # the certificate neither deletes k nor checks a new configuration, and
    # reads one face quotient for both multiplicities of each face that
    # reaches the multiplicity route (multiplicity, pyramid or failed)
    configs = [PointConfiguration.from_columns(A.points) for A in face_corpus()]
    calls = {"delete": 0, "_checked": 0, "_face_quotient": 0}
    delete, checked, face_quotient = (
        PointConfiguration.delete, PointConfiguration._checked, configuration._face_quotient
    )

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(PointConfiguration, "delete", counted("delete", delete))
    monkeypatch.setattr(
        PointConfiguration, "_checked", classmethod(counted("_checked", lambda cls, *a: checked(*a)))
    )
    monkeypatch.setattr(configuration, "_face_quotient", counted("_face_quotient", face_quotient))
    compared = 0
    for A in configs:
        for k in range(A.size):
            for a in range(A.size):
                if a == k:
                    continue
                calls["_face_quotient"] = 0
                cert = check_aux_point(A, k, a)
                reached = sum(
                    isinstance(r, FaceCheck) and r.route in ("multiplicity", "pyramid", "failed")
                    for r in cert.reasons
                )
                assert calls["_face_quotient"] == reached, (A.points, k, a)
                compared += reached
    assert calls["delete"] == calls["_checked"] == 0, calls
    assert compared >= 800, compared
    configs[0].delete(0)  # the counters see a deletion
    assert calls["delete"] == calls["_checked"] == 1, calls


def test_aux_certificates_span_no_lattice_beyond_the_redundancy_check(monkeypatch):
    # on every pair that reaches the face loop: redundancy is one chart span,
    # on k's minimal face without k, the membership route builds no group,
    # and the multiplicity route reads m(A - k, Γ) off A's quotient of the
    # face, so no other chart span runs
    calls = [0]
    span = configuration._chart_span

    def counted(*args):
        calls[0] += 1
        return span(*args)

    monkeypatch.setattr(configuration, "_chart_span", counted)
    looped = 0
    for A in face_corpus():
        for k in range(A.size):
            for a in range(A.size):
                if a == k or not isinstance(check_aux_point(A, k, a).reasons[0], FaceCheck):
                    continue
                calls[0] = 0
                check_aux_point(PointConfiguration.from_columns(A.points), k, a)
                assert calls[0] == 1, (A.points, k, a)
                looped += 1
    assert looped >= 400, looped


def _grid_4x3_subsets():
    """The subsets of 4 ... 7 points of the 4 x 3 grid."""
    grid = [(x, y) for x in range(4) for y in range(3)]
    return [config(pts) for n in range(4, 8) for pts in itertools.combinations(grid, n)]


def test_aux_redundancy_on_the_minimal_face_matches_every_face():
    # the verdict and the reason of the one test on k's minimal face equal
    # is_lattice_redundant's, a span per face through k, on every column
    verdicts = {}
    for A in [*face_corpus(), *_grid_4x3_subsets()]:
        for k in range(A.size):
            red = is_lattice_redundant(A, k)
            first = check_aux_point(A, k, (k + 1) % A.size).reasons[0]
            rejected = f"column {k} is not lattice redundant: {red.reason}"
            assert (first == rejected) == (not red), (A.points, k, first)
            verdicts[red.reason] = verdicts.get(red.reason, 0) + 1
    assert min(verdicts.values()) >= 1000 and len(verdicts) == 3, verdicts


def test_faces_report_lattice_rank_is_the_face_lattice_rank():
    for A in [*face_corpus(), *_incidence_configs(31, 100)]:
        report, _ = cli._run_faces({"matrix": [list(p) for p in A.points]}, None)
        ranks = [f["lattice_rank"] for f in report["faces"]]
        assert ranks == [face_lattice(A, f).rank for f in A.poset.faces], A.points
