"""Differential tests: the Newton hull that an enlarged or a smaller
configuration reads off its parent's (``polytope.extended_hull``, behind
``with_point`` and the saturation results, and ``polytope.deleted_hull``,
behind ``delete``) against a fresh ``convex_hull`` of its columns.

A point of N on Z_A's affine lattice keeps N, its facets, vertices, chart
lattice and chart anchor, and Z_A; only the facet sets gain it.  A point
outside N, off the lattice or off N's affine hull falls back to the fresh
hull, and ``replay_chain`` always builds one.  Deleting a column that is not
a vertex of N, without which the columns still generate Z_A, keeps the same
data, re-indexed; any other deletion falls back to the fresh configuration.

The reference is the fresh hull itself, the route the inheritance replaced
(commits f3fca80 and c3851d4): it stays because it is the library's own
hull, with no parent to read off.

The face poset of such a configuration is read off its parent's when that
was built (``polytope.extended_poset`` and ``polytope.deleted_poset``).  Its
reference is ``face_poset`` of the configuration's own hull, which in turn
is checked against the longest-chain grading of ``test_hull_routes``.

A point that a lattice-point scan found enters the enlarged hull and poset
with the placement the scan recorded: its chart coordinates and the mask of
the facets it is tight on.  The references of that are the routes it
replaced, kept verbatim but for the mask table that ``ref_extended_poset``
returns: ``ref_extended_hull`` solves each new point in the chart and dots
it with every facet, and ``ref_extended_poset`` dots each new point with
each face's supporting functional.  ``ref_chart_coordinates`` of
``test_hull_routes`` is the chart that ``convex_hull`` solved point by point.
"""

import gc
import importlib.util
import random
import weakref
from pathlib import Path

import pytest

from _corpus import (
    FAMILY,
    LARGE,
    chain_corpus,
    config,
    face_corpus,
    plane_grid_subsets,
)
from test_hull_routes import ref_chart_coordinates, ref_face_poset
from gkzkit import configuration
from gkzkit.configuration import (
    PointConfiguration,
    _keeps_z_a,
    is_lattice_redundant,
    reduction_chain,
    replay_chain,
    saturate,
)
from gkzkit.intlinalg import dot, vsub
from gkzkit.lattice import Lattice
from gkzkit.polytope import (
    Face,
    FacePoset,
    Polytope,
    _bits,
    _mask,
    _placement,
    convex_hull,
    extended_hull,
    extended_poset,
    face_poset,
    lattice_points_in,
)


def _fresh(A):
    return PointConfiguration.from_columns(A.points, A.labels)


def assert_rebuilt(B, parent, inherited):
    """B's Newton hull, hidden fields included, its face poset and Z_A equal
    those built from B's columns; ``inherited`` says whether B read its hull
    off its parent's, chart lattice and all.  Z_A is read off B's own hull
    when asked for, so no derivation sets it."""
    assert (B.newton.chart is parent.newton.chart) == inherited
    assert (vars(B.newton).get("placements") is parent.newton.placements) == inherited
    assert "group_lattice" not in vars(B)
    P = convex_hull(B.points)
    assert B.newton == P
    assert (B.newton.point_coords, B.newton.facet_sets) == (P.point_coords, P.facet_sets)
    assert B.poset == face_poset(P)
    assert B.group_lattice == Lattice.from_generators(B.points)
    assert B.volume == _fresh(B).volume


def test_a_point_of_n_on_the_lattice_keeps_the_hull():
    kinds = {"interior": 0, "facet": 0, "lower": 0}
    for A in chain_corpus():
        N = A.newton
        full = [p for p, _ in lattice_points_in(N)]
        # the least point of N is a vertex, so no added point moves the anchor
        assert min(full) == min(A.points) == N.chart_anchor
        for p in full:
            if p in A.points:
                continue
            B = A.with_point(p)
            assert_rebuilt(B, A, True)
            face = B.minimal_face(B.size - 1)
            kind = "interior" if face.dim == N.dim else "facet" if face.dim == N.dim - 1 else "lower"
            kinds[kind] += 1
            # and a second point on top of the first
            for q in full[:3]:
                if q not in B.points:
                    assert_rebuilt(B.with_point(q), B, True)
    assert min(kinds.values()) >= 15, kinds


@pytest.mark.parametrize("mode", ["s", "p", "full"])
def test_saturations_keep_the_hull(mode):
    added = 0
    for A in chain_corpus():
        F = _fresh(A)
        res = saturate(F, mode)
        assert_rebuilt(res.result, F, True)
        added += len(res.added_points) > 1
    assert added >= 15


def _outside(A):
    """2v - w for the first two vertices v, w of N: on Z_A's affine lattice,
    and outside N since v would be the midpoint of w and it."""
    v, w = A.newton.vertices[:2]
    return tuple(2 * a - b for a, b in zip(v, w))


def test_points_outside_n_or_off_the_lattice_fall_back_to_a_fresh_hull():
    outside = 0
    for A in chain_corpus():
        if A.newton.dim == 0:
            continue
        p = _outside(A)
        assert extended_hull(A.newton, [p]) is None
        assert_rebuilt(A.with_point(p), A, False)
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
        assert_rebuilt(A.with_point(p), A, False)
    # a batch with one point that does not fit falls back as a whole
    assert extended_hull(square.newton, [(1, 2, 0), (1, 1, 1)]) is None


def test_replay_builds_each_enlarged_configuration_from_its_columns(monkeypatch):
    chains = [reduction_chain(_fresh(A), "p") for A in chain_corpus()]
    assert sum(len(c.steps) for c in chains) >= 40

    def inherited(P, new):
        raise AssertionError("replay_chain must hull each configuration afresh")

    monkeypatch.setattr(configuration, "extended_hull", inherited)
    assert all(replay_chain(c) for c in chains if c.complete)


def _triangulations_inputs():
    """The first block of the benchmark's ``triangulations`` workload at seeds
    1-8, repetitions 0-2: the block each repetition times."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stream = workloads.WORKLOADS["triangulations"].blocks
    return [inp for seed in range(1, 9) for rep in range(3) for inp in next(stream(seed, rep))]


def assert_deleted(A, i, inherited):
    """A.delete(i) equals the configuration built from the same columns and
    labels, field by field; ``inherited`` says whether it read its hull off
    A's."""
    B = A.delete(i)
    F = PointConfiguration.from_columns(
        [p for j, p in enumerate(A.points) if j != i], [l for j, l in enumerate(A.labels) if j != i]
    )
    assert ("newton" in vars(B)) == inherited
    assert B == F
    P, Q = B.newton, F.newton
    assert (P.points, P.dim, P.chart_anchor, P.chart, P.facets) == (
        Q.points, Q.dim, Q.chart_anchor, Q.chart, Q.facets,
    )
    assert (P.vertex_indices, P.point_coords, P.facet_sets) == (
        Q.vertex_indices, Q.point_coords, Q.facet_sets,
    )
    assert B.poset == F.poset
    assert B.group_lattice == F.group_lattice
    assert B.volume == F.volume
    return B


def test_deleting_a_column_that_keeps_the_hull_and_z_a_inherits_them():
    inputs = _triangulations_inputs()
    assert len(inputs) == 24 * 5
    for inp in inputs:
        A = PointConfiguration.from_columns(inp["cols"])
        assert_deleted(A, inp["delete"], True)
    kinds = {"inherited": 0, "vertex": 0, "lattice": 0}
    for A in (*FAMILY, *(A for A, _ in LARGE)):
        for i in range(A.size):
            vertex = i in A.newton.vertex_indices
            keeps = Lattice.from_generators(A.points[:i] + A.points[i + 1:]) == A.group_lattice
            assert_deleted(A, i, not vertex and keeps)
            kinds["vertex" if vertex else "inherited" if keeps else "lattice"] += 1
    assert kinds["inherited"] >= 30 and kinds["vertex"] >= 30, kinds


def test_deletions_that_move_the_hull_or_z_a_build_afresh():
    segment = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2)])
    # a vertex, whose deletion shrinks N
    assert_deleted(segment, 2, False)
    # column 1, without which the columns generate an index-2 sublattice of Z_A
    B = assert_deleted(segment, 1, False)
    assert B.group_lattice != segment.group_lattice
    # a flat configuration, on whose columns more than one functional is 1
    flat = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0)])
    assert_deleted(flat, 1, True)
    assert_deleted(flat, 2, True)
    # the last column: the refusal of test_empty_configurations_are_refused
    with pytest.raises(ValueError, match="^a configuration needs at least one column$"):
        PointConfiguration.from_columns([(1, 0)]).delete(0)


# -- face posets read off the parent's ----------------------------------------------


def assert_read_off(B):
    """B's poset is pending a read off its parent's, and once read equals
    face_poset of B's hull: the faces in order, with their supporting
    functionals and dims, and the top.  The mask table it was given is the
    one its faces' indices give, and its facet signatures those of the
    facet masks."""
    assert "_poset_from" in vars(B)
    got, want = B.poset, face_poset(B.newton)
    assert "_poset_from" not in vars(B) and got.polytope is B.newton
    assert got.faces == want.faces and got.top == want.top
    built = FacePoset(got.polytope, got.faces, got.top)
    assert list(vars(got)["_by_mask"].items()) == list(built._by_mask.items())
    assert vars(got)["_signatures"] == built._signatures == vars(want)["_signatures"]


def _derivations(A):
    """(kind, B, moved): configurations B derived from A, each off a parent
    whose poset is built: one lattice point of N at a time, the three
    saturations, each step of the partial saturation's chain, and every
    deletion that inherits the hull, from A and from its s-saturation.
    ``moved`` says whether a deletion's re-indexed faces left graded order."""
    A = _fresh(A)
    A.poset
    for p, _ in lattice_points_in(A.newton):
        if p not in A.points:
            yield "point", A.with_point(p), False
    for mode in ("s", "p", "full"):
        yield "saturation", saturate(A, mode).result, False
    current = A
    for step in reduction_chain(A, "p").steps:
        current.poset
        current = current.with_point(step.added_point)
        yield "chain", current, False
    for C in (A, saturate(A, "s").result):
        for i in range(C.size):
            if i not in C.newton.vertex_indices and _keeps_z_a(C, i):
                shifted = [
                    (f.dim, tuple(j - (j > i) for j in f.indices if j != i)) for f in C.poset.faces
                ]
                yield "deletion", C.delete(i), shifted != sorted(shifted)


@pytest.mark.parametrize(
    "corpus, least",
    [
        # the grid's partial saturations add no point that a chain certifies
        ("chains", {"point": 100, "saturation": 180, "chain": 50, "deletion": 180, "moved": 3}),
        ("faces", {"point": 250, "saturation": 450, "chain": 100, "deletion": 450, "moved": 7}),
        ("grid", {"point": 250, "saturation": 1300, "chain": 0, "deletion": 600, "moved": 20}),
    ],
)
def test_derived_posets_match_face_poset_of_their_hulls(corpus, least):
    configs = {"chains": chain_corpus, "faces": face_corpus, "grid": plane_grid_subsets}[corpus]()
    kinds = dict.fromkeys(least, 0)
    for A in configs:
        for kind, B, moved in _derivations(A):
            assert_read_off(B)
            kinds[kind] += 1
            kinds["moved"] += moved
    assert all(kinds[k] >= least[k] for k in least), kinds


def ref_extended_hull(P: Polytope, new):
    """The earlier ``extended_hull``: each new point solved in the chart and
    dotted with every facet."""
    fresh = []
    for p in new:
        x = P.chart.coordinates(vsub(p, P.chart_anchor))
        if x is None or any(dot(h, x) > c for h, c in P.facets):
            return None
        fresh.append(x)
    n = len(P.points)
    sets = tuple(
        z | _mask(n + k for k, x in enumerate(fresh) if dot(h, x) == c)
        for (h, c), z in zip(P.facets, P.facet_sets)
    )
    return Polytope(
        (*P.points, *new), P.dim, P.chart_anchor, P.chart, P.facets, P.vertex_indices,
        (*P.point_coords, *fresh), sets,
    )


def ref_extended_poset(F: FacePoset, P: Polytope):
    """The earlier ``extended_poset``, as the mask table of its faces: a new
    point joins a face iff it has H . x = C on the face's supporting
    functional (H, C)."""
    n = len(F.polytope.points)
    new = tuple(enumerate(P.point_coords[n:], n))
    faces = {}
    for m, f in F._by_mask.items():
        if f.supporting is None:
            m = (1 << len(P.points)) - 1
        else:
            h, c = f.supporting
            m |= _mask(j for j, x in new if dot(h, x) == c)
        faces[m] = Face(_bits(m), f.supporting, f.dim)
    return faces


@pytest.mark.parametrize(
    "corpus, least",
    [
        ("chains", {"placed": 200, "solved": 200, "outside": 60, "configs": 61}),
        ("faces", {"placed": 500, "solved": 500, "outside": 150, "configs": 152}),
        ("grid", {"placed": 350, "solved": 350, "outside": 458, "configs": 458}),
    ],
)
def test_placements_match_the_solve_and_dot_routes(corpus, least):
    """On A's hull, whose scans placed the new points, and on a fresh hull of
    A's columns, which has placed none, the enlarged hull and poset equal the
    solve-and-dot routes' and a fresh hull's and poset's; every recorded
    placement is the one the solve gives; and a point outside N is refused."""
    configs = {"chains": chain_corpus, "faces": face_corpus, "grid": plane_grid_subsets}[corpus]()
    kinds = dict.fromkeys(least, 0)
    for A in configs:
        A = _fresh(A)
        N, unplaced = A.newton, convex_hull(A.points)
        assert (N.chart, N.point_coords) == ref_chart_coordinates(A.points)
        hits = [p for p in A.face_lattice_points(A.poset.top) if p not in A.points]
        batches = [[p] for p in hits] + [saturate(A, mode).added_points for mode in ("s", "p")]
        assert all(_placement(unplaced, p) == x for p, x in N.placements.items())
        assert set(hits) <= set(N.placements) and not unplaced.placements
        for parent, F in ((N, A.poset), (unplaced, face_poset(unplaced))):
            for new in filter(None, batches):
                hulls = [extended_hull(parent, new), ref_extended_hull(parent, new)]
                hulls.append(convex_hull(A.points + tuple(new)))
                P, R, W = hulls
                assert P == R == W, (A.points, new)
                assert len({(Q.point_coords, Q.facet_sets) for Q in hulls}) == 1
                G, V = extended_poset(F, P), face_poset(W)
                assert list(vars(G)["_by_mask"].items()) == list(ref_extended_poset(F, P).items())
                assert G.faces == V.faces and G.top == V.top
                assert vars(G)["_signatures"] == vars(V)["_signatures"]
                kinds["placed" if parent is N else "solved"] += len(new)
        if N.dim:
            p = _outside(A)
            assert extended_hull(N, [p]) is ref_extended_hull(N, [p]) is None
            kinds["outside"] += 1
        kinds["configs"] += 1
    assert all(kinds[k] >= least[k] for k in least), kinds


def _seeded_hulls():
    """Hulls of seeded point sets of dimension 3-5, up to 12 points each with
    entries in [-2, 2], some repeated."""
    rng = random.Random(46)
    out = []
    while len(out) < 90:
        dim = 3 + len(out) % 3
        count = rng.randint(dim + 1, 12)
        pts = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(count)]
        P = convex_hull(pts + pts[:rng.randint(0, 2)])
        if P.dim == dim:
            out.append(P)
    return out


def test_top_down_grading_matches_the_rank_grading():
    # test_hull_routes compares the two on its own corpus, of dimension <= 4
    faces = 0
    for P in _seeded_hulls():
        got = face_poset(P)
        assert got.faces == ref_face_poset(P).faces and got.top.dim == P.dim
        faces += len(got.faces)
    assert faces > 5000, faces


# -- the mechanism ----------------------------------------------------------------------


# planar inputs whose three saturations each add points, and whose partial
# saturation a chain of two to six steps reaches
PLANAR = [
    config([(0, 0), (3, 0), (0, 3), (1, 0), (0, 2)]),
    config([(0, 0), (2, 0), (4, 4), (1, 4), (1, 1)]),
    config([(0, 0), (4, 0), (0, 4), (1, 0), (0, 1)]),
    config([(0, 0), (4, 0), (4, 4), (0, 4), (2, 0), (1, 1)]),
]


def test_derived_configurations_build_no_poset(monkeypatch):
    built = []

    def counting(P):
        built.append(P)
        return face_poset(P)

    monkeypatch.setattr(configuration, "face_poset", counting)
    for A in PLANAR:
        del built[:]
        A = _fresh(A)
        enlarged = [saturate(A, mode).result for mode in ("s", "p", "full")]
        chain = reduction_chain(A, "p")
        enlarged.append(chain.end)
        for B in enlarged:
            for j in range(A.size, B.size):
                is_lattice_redundant(B, j)
        assert len(built) == 1 and built[0] is A.newton, A.points
        assert chain.complete and all(B.size > A.size for B in enlarged), A.points
    # a parent whose poset was not built passes none on
    A = _fresh(PLANAR[0])
    B = A.with_point((1, 1, 1))
    assert "_poset_from" not in vars(B)
    del built[:]
    assert B.poset == face_poset(B.newton) and built == [B.newton]


def test_placed_points_take_no_chart_solve(monkeypatch):
    """The saturations and the partial reduction chain add only points that
    A's scans placed, so they solve none in N's chart."""
    solved, coordinates = [], Lattice.coordinates

    def spy(L, v):
        solved.append(L)
        return coordinates(L, v)

    configs = [_fresh(A) for A in chain_corpus()]
    monkeypatch.setattr(Lattice, "coordinates", spy)
    added = steps = 0
    for A in configs:
        results = [saturate(A, mode).result for mode in ("s", "p", "full")]
        chain = reduction_chain(A, "p")
        for B in (*results, chain.end):
            assert B.newton.placements is A.newton.placements
            B.poset
        assert not any(L is A.newton.chart for L in solved), A.points
        added += sum(B.size - A.size for B in results)
        steps += len(chain.steps)
        del solved[:]
    assert added >= 200 and steps >= 40, (added, steps)


def test_a_pending_derivation_does_not_keep_its_parent_alive():
    grid = [(x, y) for x in range(3) for y in range(3)]
    rim = [p for p in grid if p != (1, 1)]
    # the 3 x 3 grid's centre added to its rim, and deleted from the grid
    for points, derive in (
        (rim, lambda A: A.with_point((1, 1, 1))),
        (grid, lambda A: A.delete(4)),
    ):
        A = config(points)
        A.poset
        B = derive(A)
        parent = weakref.ref(A)
        del A
        gc.collect()
        assert parent() is None
        assert_read_off(B)
