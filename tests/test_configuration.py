"""Saturations, redundancy, indices, subdiagram volumes, multiplicities,
auxiliary-point certificates and reduction chains."""

import random
import re
import time
from fractions import Fraction
from operator import mul

import pytest

from _corpus import (
    FAMILY,
    LARGE,
    criterion_8_configs,
    face_corpus,
    random_small_config,
    skewed_configs,
    solid_configs,
)
from test_incidence_routes import ref_contains_strict
from gkzkit import configuration, polytope
from gkzkit.configuration import (
    ChainStep,
    InhomogeneousError,
    PointConfiguration,
    ReductionChain,
    check_aux_point,
    dim2_interior_witness,
    face_lattice,
    index_i,
    is_lattice_redundant,
    multiplicity,
    multiplicity_table,
    reduction_chain,
    replay_chain,
    saturate,
    subdiagram_volume,
    subdiagram_volume_oracle,
)
from gkzkit.lattice import Lattice
from gkzkit.polytope import BudgetError, convex_hull

# two-dimensional configuration: triangle of side 3 with one marked point on
# each of two edges
TRI = PointConfiguration.from_columns(
    [(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 1, 0), (1, 0, 2)]
)

# three-dimensional configuration whose single saturation point admits no
# auxiliary point (columns of a 4 x 7 matrix)
OBSTRUCTED = PointConfiguration.from_columns(
    [
        (1, 0, 1, 0),
        (1, 1, 2, 0),
        (1, 2, 0, 0),
        (1, 1, 1, 0),
        (1, 2, 0, 2),
        (1, 1, 0, 3),
        (1, 0, 0, 4),
    ]
)

# monomial curve of toric degree 3 with sparse support {0, 1, 3}
CURVE013 = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 3)])


def face_by_points(A, pts):
    return A.poset.face_with_indices(tuple(A.index_of(p) for p in pts))


def test_homogeneity():
    # a functional is 1 on every column iff 0 is off the Newton hull's affine
    # hull: 1 on the chart anchor and 0 on the chart basis
    for cols, h in (([(1, 5), (1, 7)], (1, 0)), ([(2, 0), (0, 2)], (Fraction(1, 2),) * 2)):
        P = PointConfiguration.from_columns(cols).newton
        assert configuration._origin_coords(P) is None
        assert sum(map(mul, h, P.chart_anchor)) == 1
        assert all(sum(map(mul, h, b)) == 0 for b in P.chart.generators())
    # 0 = 2 (1, 0) - (2, 0): its chart coordinate is -1 in the basis (1, 0)
    P = convex_hull([(1, 0), (2, 0)])
    assert configuration._origin_coords(P) == ([-1], 1)
    with pytest.raises(InhomogeneousError):
        PointConfiguration.from_columns([(1, 0), (2, 0)])


def test_columns_of_unequal_length_are_rejected():
    cases = {
        ((1, 0), (1, 1), (1,)): "[1, 2]",
        ((1, 0, 0), (1, 1)): "[2, 3]",
        ((1,), (1, 1)): "[1, 2]",
    }
    for columns, lengths in cases.items():
        message = f"columns must have equal lengths, got {lengths}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PointConfiguration.from_columns(columns)
        with pytest.raises(ValueError, match="equal lengths"):
            PointConfiguration.from_columns(columns[:1]).with_point(columns[-1])


def test_empty_configurations_are_refused():
    message = "^a configuration needs at least one column$"
    with pytest.raises(ValueError, match=message):
        PointConfiguration.from_columns([])
    with pytest.raises(ValueError, match=message):
        PointConfiguration.from_columns([(1, 0)]).delete(0)
    # an empty column is ragged against the others
    with pytest.raises(ValueError, match=re.escape("equal lengths, got [0, 2]")):
        PointConfiguration.from_columns([(1, 0)]).with_point(())


def test_non_integral_entries_are_rejected():
    with pytest.raises(ValueError, match=r"^non-integral entry 0\.5$"):
        PointConfiguration.from_columns([(1, 0.5), (1, 1), (1, Fraction(7, 2))])
    with pytest.raises(ValueError, match=r"^non-integral entry Fraction\(7, 2\)$"):
        PointConfiguration.from_columns([(1, 0), (1, 1), (1, Fraction(7, 2))])
    C = PointConfiguration.from_columns([(1, 0), (1, 1)])
    with pytest.raises(ValueError, match=r"^non-integral entry 2\.5$"):
        C.with_point((1, 2.5))
    # integral values of any number type are accepted, as ints
    A = PointConfiguration.from_columns([(1, 0), (1, Fraction(2)), (1, 3.0)])
    assert A.points == ((1, 0), (1, 2), (1, 3))
    assert all(type(a) is int for p in A.points for a in p)
    assert C.with_point((Fraction(1), 2.0)).points == ((1, 0), (1, 1), (1, 2))


def test_columns_of_non_numbers_are_a_value_error():
    with pytest.raises(ValueError, match=r"^column \(\(1,\), 0\) is not a sequence of integers$"):
        PointConfiguration.from_columns([((1,), 0), (1, 1)])
    with pytest.raises(ValueError, match=r"^column None is not a sequence of integers$"):
        PointConfiguration.from_columns([None, (1, 1)])
    C = PointConfiguration.from_columns([(1, 0), (1, 1)])
    with pytest.raises(ValueError, match=r"^column \(1, \[2\]\) is not a sequence of integers$"):
        C.with_point((1, [2]))


def test_boolean_entries_are_rejected():
    # as in the CLI, which refuses `true`: a bool is not an integer here
    with pytest.raises(ValueError, match=r"^column \(True, 0\) is not a sequence of integers$"):
        PointConfiguration.from_columns([(True, 0), (1, 1)])
    C = PointConfiguration.from_columns([(1, 0), (1, 1)])
    with pytest.raises(ValueError, match=r"^column \(1, False\) is not a sequence of integers$"):
        C.with_point((1, False))


def test_delete_rejects_columns_out_of_range():
    A = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2), (1, 3)])
    for i in (-1, A.size):
        with pytest.raises(IndexError, match=f"^column {i} out of range$"):
            A.delete(i)
    assert A.delete(A.size - 1).points == ((1, 0), (1, 1), (1, 2))


def test_minimal_face_rejects_columns_out_of_range():
    # the faces-triangle input of the CLI corpus; -1 once read column 4's
    # face, and 5 raised a bare "tuple index out of range"
    for i in (-1, TRI.size):
        with pytest.raises(IndexError, match=f"^column {i} out of range$"):
            TRI.minimal_face(i)
        with pytest.raises(IndexError, match=f"^column {i} out of range$"):
            is_lattice_redundant(TRI, i)
    assert TRI.minimal_face(TRI.size - 1).indices == (0, 2, 4)


def test_face_lattices_of_triangle():
    bottom = face_by_points(TRI, [(1, 0, 0), (1, 3, 0), (1, 1, 0)])
    # lattices of chart differences; the chart basis is (0, 1, 0), (0, 0, 1)
    assert TRI.newton.chart.generators() == ((0, 1, 0), (0, 0, 1))
    L = face_lattice(TRI, bottom)
    assert L.generators() == ((1, 0),)
    diag = face_by_points(TRI, [(1, 3, 0), (1, 0, 3)])
    L3 = face_lattice(TRI, diag)
    assert L3.generators() in (((-3, 3),), ((3, -3),))
    top = TRI.poset.top
    Lt = face_lattice(TRI, top)
    assert Lt == Lattice.from_generators([(1, 0), (0, 1)])
    assert (1, 1) in Lt
    assert TRI.group_lattice.rank == 3  # Z_A = Z^3


def test_index_examples():
    assert index_i(TRI, TRI.poset.top) == 1
    diag = face_by_points(TRI, [(1, 3, 0), (1, 0, 3)])
    assert index_i(TRI, diag) == 3
    for v in [(1, 0), (1, 3)]:
        assert index_i(CURVE013, face_by_points(CURVE013, [v])) == 1


def test_subdiagram_volume_curve():
    top = CURVE013.poset.top
    assert subdiagram_volume(CURVE013, top) == 1
    v0 = face_by_points(CURVE013, [(1, 0)])
    v3 = face_by_points(CURVE013, [(1, 3)])
    # the quotient semigroups are <1,3> at the 0-vertex and <2,3> at the other
    assert subdiagram_volume(CURVE013, v0) == 1
    assert subdiagram_volume(CURVE013, v3) == 2
    assert subdiagram_volume_oracle(CURVE013, v0) == 1
    assert subdiagram_volume_oracle(CURVE013, v3) == 2


def test_multiplicity_curve():
    v3 = face_by_points(CURVE013, [(1, 3)])
    rec = multiplicity(CURVE013, v3)
    assert (rec.index_i, rec.subvol_v, rec.mult_m) == (1, 2, 2)
    top_rec = multiplicity(CURVE013, CURVE013.poset.top)
    assert (top_rec.index_i, top_rec.subvol_v, top_rec.mult_m) == (1, 1, 1)
    assert all(r.mult_m >= 1 for r in multiplicity_table(CURVE013))


def test_saturate_modes_triangle():
    p = saturate(TRI, "p")
    assert p.added_points == ((1, 0, 1), (1, 2, 0))
    s = saturate(TRI, "s")
    assert s.added_points == ((1, 0, 1), (1, 1, 1), (1, 2, 0))
    full = saturate(TRI, "full")
    assert full.result.size == 10
    # containment chain A <= A^p <= A^s <= N cap Z_A
    assert set(TRI.points) <= set(p.result.points) <= set(s.result.points)
    assert set(s.result.points) <= set(full.result.points)


def test_saturate_idempotent():
    for mode in ("p", "s", "full"):
        once = saturate(TRI, mode).result
        again = saturate(once, mode)
        assert again.added_points == ()


def test_saturate_matches_a_chain_of_with_point():
    rng = random.Random(31)
    configs = [OBSTRUCTED, TRI.delete(0)]
    for _ in range(12):
        A = random_small_config(rng)
        # deleting a column leaves the label a<size> taken, so labels must skip
        configs.append(A.delete(0) if rng.random() < 0.5 else A)
    for A in configs:
        for mode in ("p", "s", "full"):
            sat = saturate(A, mode)
            ref = A
            for p in sat.added_points:
                ref = ref.with_point(p)
            assert sat.result == ref


def test_with_point_matches_a_rebuild():
    # with_point checks no functional for a point of N on Z_A's affine
    # lattice; the result must be the configuration from_columns builds, and
    # a point off every functional must still be refused
    rng = random.Random(47)
    flat = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 3, 0)])
    configs = [OBSTRUCTED, TRI, flat] + [random_small_config(rng) for _ in range(16)]
    kept = 0
    for A in configs:
        chains = [saturate(A, mode).added_points for mode in ("p", "s", "full")]
        chains.append(tuple(reduction_chain(A, "s").end.points[A.size:]))
        chains.append(((1, 0, 1), (1, 2, 0)) if A is flat else ())
        for chain in chains:
            current = A
            for p in chain:
                got = current.with_point(p)
                ref = PointConfiguration.from_columns([*current.points, p], got.labels)
                assert got == ref
                kept += current.newton.dim + 1 == current.ambient_dim
                current = got
        off = tuple(2 * a for a in A.points[0])
        with pytest.raises(InhomogeneousError):
            A.with_point(off)
        with pytest.raises(ValueError, match="distinct"):
            A.with_point(A.points[-1])
    assert kept >= 50


def test_long_segment_saturates_in_one_build():
    A = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 1000)])
    t0 = time.perf_counter()
    full = saturate(A, "full").result
    assert time.perf_counter() - t0 < 2.0
    assert full.size == 1001 and full.labels[-1] == "a1001"


def test_face_int_semiideal_triangle():
    fint = TRI.face_int_semiideal()
    dims = sorted(f.dim for f in fint)
    # two marked edges and their three vertices; no diagonal edge, no top face
    assert dims == [0, 0, 0, 1, 1]
    for f in fint:
        for g in TRI.poset.subfaces(f):
            assert g in fint


def test_face_int_vertex_only_and_full_cases():
    simplex = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    fint = simplex.face_int_semiideal()
    assert sorted(f.dim for f in fint) == [0, 0, 0]  # every vertex is its own interior
    with_interior = saturate(TRI, "s").result
    assert with_interior.face_int_semiideal() == frozenset(with_interior.poset.faces)


def test_labels_stable_under_insertion_and_deletion():
    assert TRI.labels == ("a1", "a2", "a3", "a4", "a5")
    bigger = TRI.with_point((1, 2, 0))
    assert bigger.labels[:5] == TRI.labels and len(bigger.labels) == 6
    smaller = bigger.delete(1)
    assert smaller.labels == ("a1", "a3", "a4", "a5", bigger.labels[5])
    assert smaller.labels[smaller.index_of((1, 1, 0))] == "a4"


def test_newton_unchanged_by_saturation():
    s = saturate(TRI, "s").result
    assert set(s.newton.vertices) == set(TRI.newton.vertices)


def test_redundancy_triangle():
    # the marked edge point is not redundant: its edge lattice would coarsen
    i = TRI.index_of((1, 1, 0))
    rep = is_lattice_redundant(TRI, i)
    assert not rep
    # vertices are never redundant
    assert not is_lattice_redundant(TRI, TRI.index_of((1, 0, 0)))
    # the interior point of the saturated triangle is redundant
    s = saturate(TRI, "s").result
    assert is_lattice_redundant(s, s.index_of((1, 1, 1)))


def test_redundant_point_preserves_group_and_hull():
    s = saturate(TRI, "s").result
    i = s.index_of((1, 1, 1))
    assert is_lattice_redundant(s, i)
    deleted = s.delete(i)
    assert deleted.group_lattice == s.group_lattice
    assert set(deleted.newton.vertices) == set(s.newton.vertices)


def test_obstructed_config_geometry():
    assert OBSTRUCTED.group_lattice.rank == 4  # Z_A = Z^4
    assert OBSTRUCTED.newton.dim == 3
    euler = sum(
        (-1) ** f.dim for f in OBSTRUCTED.poset.faces if f.supporting is not None
    )
    assert euler == 1 - (-1) ** 3
    s = saturate(OBSTRUCTED, "s")
    assert s.added_points == ((1, 1, 1, 1),)
    # both distinguished faces: the triangle x4 = 0 and the edge x3 = 0 slice
    tri = face_by_points(OBSTRUCTED, [(1, 0, 1, 0), (1, 1, 2, 0), (1, 2, 0, 0), (1, 1, 1, 0)])
    assert tri.dim == 2
    edge = face_by_points(OBSTRUCTED, [(1, 2, 0, 2), (1, 1, 0, 3), (1, 0, 0, 4)])
    assert edge.dim == 1


def test_obstructed_added_point_is_redundant_but_rejected():
    s = saturate(OBSTRUCTED, "s").result
    k = s.index_of((1, 1, 1, 1))
    assert is_lattice_redundant(s, k)
    for a in range(s.size):
        if a == k:
            continue
        assert not check_aux_point(s, k, a)


def test_obstructed_subdiagram_volumes_drop_strictly():
    s = saturate(OBSTRUCTED, "s").result
    for pts in (
        [(1, 0, 1, 0), (1, 1, 2, 0), (1, 2, 0, 0), (1, 1, 1, 0)],
        [(1, 2, 0, 2), (1, 1, 0, 3), (1, 0, 0, 4)],
    ):
        before = subdiagram_volume(OBSTRUCTED, face_by_points(OBSTRUCTED, pts))
        after = subdiagram_volume(s, face_by_points(s, pts))
        assert before > after


def test_obstructed_projected_point_is_hull_vertex():
    from gkzkit.configuration import _face_hnf
    from gkzkit.intlinalg import dot, vsub
    from gkzkit.polytope import convex_hull

    s = saturate(OBSTRUCTED, "s").result
    new = (1, 1, 1, 1)
    for pts in (
        [(1, 0, 1, 0), (1, 1, 2, 0), (1, 2, 0, 0), (1, 1, 1, 0)],
        [(1, 2, 0, 2), (1, 1, 0, 3), (1, 0, 0, 4)],
    ):
        face = face_by_points(s, pts)
        # each column's image in the quotient by the face's saturated span,
        # from its chart difference to the face's first point
        tail = _face_hnf(s, face)[1]
        x = s.chart_points
        base = x[face.indices[0]]
        image = {p: tuple(dot(u, vsub(y, base)) for u in tail) for p, y in zip(s.points, x)}
        off = [p for p in s.points if p not in set(s.face_points(face))]
        hull = convex_hull([image[p] for p in off])
        assert image[new] in hull.vertices


def test_aux_point_certificate_on_edge_extension():
    enlarged = TRI.with_point((1, 0, 1))
    k = enlarged.index_of((1, 0, 1))
    a = enlarged.index_of((1, 0, 2))
    cert = check_aux_point(enlarged, k, a)
    assert cert
    routes = {c.route for c in cert.reasons}
    assert "lattice-membership" in routes
    # a vertex can never be the deleted point
    vert_cert = check_aux_point(enlarged, enlarged.index_of((1, 0, 0)), a)
    assert not vert_cert


def test_reduction_chain_triangle_partial():
    chain = reduction_chain(TRI, "p")
    assert chain.complete
    assert sorted(s.added_point for s in chain.steps) == [(1, 0, 1), (1, 2, 0)]
    assert replay_chain(chain)


def _tampered(step, start):
    """The step's three tamperings, by name; the enlarged configuration
    appends the added point as column start.size."""
    added, face, witness = step.added_point, step.face_indices, step.witness
    return {
        # h = 2 on it, so it is no column
        "witness off the columns": ChainStep(added, face, tuple(2 * a for a in added)),
        # the face's points without the added one, which the face's hull holds
        "indices of no face": ChainStep(added, tuple(j for j in face if j != start.size), witness),
        # the witness is a column of the configuration before the step
        "added point a column": ChainStep(witness, face, witness),
    }


@pytest.mark.parametrize("mutant", ["witness off the columns", "indices of no face", "added point a column"])
def test_replay_refuses_a_tampered_step(mutant):
    chain = next(c for c in (reduction_chain(A, "p") for A in face_corpus()) if c.complete and c.steps)
    assert replay_chain(chain)
    bad = _tampered(chain.steps[0], chain.start)[mutant]
    assert replay_chain(ReductionChain(chain.start, chain.end, (bad, *chain.steps[1:]), ())) is False


def test_replay_raises_a_hull_budget_error(monkeypatch):
    # each enlarged configuration builds its hull in from_columns: a budget
    # error there is no verdict on the step, so it is raised, not False.  The
    # first step's hull starts from the segment [0, 3]; inserting 5 tests a pair
    chain = reduction_chain(PointConfiguration.from_columns([(1, 0), (1, 3), (1, 5)]), "p")
    assert chain.steps[0].added_point == (1, 1) and replay_chain(chain)
    monkeypatch.setattr(polytope, "HULL_PAIR_CAP", 0)
    with pytest.raises(BudgetError, match="^hull limited to 0 candidate facet pairs"):
        replay_chain(chain)


def test_reduction_chain_idempotent_on_saturated():
    s = saturate(TRI, "s").result
    chain = reduction_chain(s, "s")
    assert chain.complete and chain.steps == ()


def test_reduction_chain_obstructed():
    chain = reduction_chain(OBSTRUCTED, "s")
    assert not chain.complete
    assert chain.obstruction == ((1, 1, 1, 1),)


def test_dim2_witness_triangle():
    # the construction assumes the input is already partially saturated
    trip = saturate(TRI, "p").result
    w = dim2_interior_witness(trip)
    assert w is not None
    assert ref_contains_strict(trip.newton, w.point)
    assert w.point == (1, 1, 1)
    with pytest.raises(ValueError):
        dim2_interior_witness(TRI)


def test_dim2_witness_none_for_unimodular():
    A = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    assert dim2_interior_witness(A) is None
    with pytest.raises(ValueError):
        dim2_interior_witness(CURVE013)


def test_diagonal_edge_multiplicity_by_hand():
    # the coarse edge: index 3 (group of the two endpoints inside the cut
    # lattice), quotient semigroup <1,2,3> so volume 1, multiplicity 3
    diag = face_by_points(TRI, [(1, 3, 0), (1, 0, 3)])
    rec = multiplicity(TRI, diag)
    assert (rec.index_i, rec.subvol_v, rec.mult_m) == (3, 1, 3)


def test_subdiagram_volume_rank3_by_hand():
    # vertex quotient with images (2,0,0), (3,0,0), (0,1,0), (0,0,1): the gap
    # region is the simplex under x/2 + y + z = 1, of normalized volume 2
    A = PointConfiguration.from_columns(
        [(1, 0, 0, 0), (1, 2, 0, 0), (1, 3, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]
    )
    vertex = A.poset.face_with_indices((0,))
    assert index_i(A, vertex) == 1
    assert subdiagram_volume(A, vertex) == 2
    assert multiplicity(A, vertex).mult_m == 2


def test_oracle_matches_main_on_obstructed_faces():
    s = saturate(OBSTRUCTED, "s").result
    edge = face_by_points(s, [(1, 2, 0, 2), (1, 1, 0, 3), (1, 0, 0, 4)])
    assert subdiagram_volume(s, edge) == subdiagram_volume_oracle(s, edge)
    tri = face_by_points(s, [(1, 0, 1, 0), (1, 1, 2, 0), (1, 2, 0, 0), (1, 1, 1, 0)])
    assert subdiagram_volume(s, tri) == subdiagram_volume_oracle(s, tri)


def test_multiplicity_builds_one_face_hnf_per_proper_face(monkeypatch):
    # one face HNF at most per proper face, and none where the Newton hull
    # holds the quotient: a vertex's is the chart, a facet's its primitive
    # normal, an edge's index a gcd and a larger facet's the row index of its
    # face lattice.  The triangle and a curve build none; a face of dimension
    # 1 ... d - 2, none of them a facet, builds one for its images and, past
    # an edge, its index
    calls = []
    face_hnf = configuration._face_hnf

    def counting(A, face):
        calls.append(face.indices)
        return face_hnf(A, face)

    monkeypatch.setattr(configuration, "_face_hnf", counting)
    four = [A for A in skewed_configs(37, 100) if A.newton.dim == 4][:2]
    built = {}
    for A in [TRI, CURVE013, OBSTRUCTED, *solid_configs(5, 2), *four]:
        A = PointConfiguration.from_columns(A.points)
        calls.clear()
        table = multiplicity_table(A)
        d = A.newton.dim
        proper = [f for f in A.poset.faces if f.supporting is not None]
        need = [f.indices for f in proper if 1 <= f.dim <= d - 2]
        assert sorted(calls) == sorted(need), A.points
        assert [(r.index_i, r.subvol_v) for r in table] == [
            (index_i(A, r.face), subdiagram_volume(A, r.face)) for r in table
        ]
        built[d] = built.get(d, 0) + len(calls)
    assert len(TRI.poset.faces) == 7 and built[1] == built[2] == 0, built
    assert built[3] >= 20 and built[4] >= 20, built


def test_derivations_inside_n_check_no_homogeneity(monkeypatch):
    # from_columns asks its hull once whether 0 is on its affine hull.  A saturation adds points of N on
    # A's affine lattice and a deletion keeps a subset of the columns: both
    # keep every functional that is 1 on A's columns, so neither checks, on
    # spanning and flat configurations alike.  A point outside N is checked
    # with the columns it joins.
    rng = random.Random(5)
    # a triangle whose columns do not span the ambient space
    flat = PointConfiguration.from_columns([(1, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0)])
    configs = [TRI, OBSTRUCTED, CURVE013, flat, *(random_small_config(rng) for _ in range(20))]
    derived = [
        *criterion_8_configs(40), OBSTRUCTED, *solid_configs(9, 10), *FAMILY,
        *(A for A, _ in LARGE),
    ]
    calls = []
    solve = configuration._origin_coords

    def counting(P):
        calls.append(len(P.points))
        return solve(P)

    monkeypatch.setattr(configuration, "_origin_coords", counting)
    flats = saturated = 0
    for A in configs:
        calls.clear()
        A = PointConfiguration.from_columns(A.points, A.labels)
        assert calls == [A.size]
        flats += A.newton.dim + 1 < A.ambient_dim
        for mode in ("s", "p", "full"):
            calls.clear()
            got = saturate(A, mode).result
            assert calls == [], (A.points, mode)
            assert got == PointConfiguration.from_columns(got.points, got.labels)
            assert calls == [got.size]
            saturated += got.size > A.size
        # the midpoint of the new point and another vertex is a vertex of N
        v, w = (A.points[i] for i in A.newton.vertex_indices[:2])
        calls.clear()
        A.with_point(tuple(2 * b - a for a, b in zip(v, w)))
        assert calls == [A.size + 1]
    assert flats == 1 and saturated >= 40, (flats, saturated)
    calls.clear()
    deleted = 0
    for A in configs + derived:
        for i in range(A.size):
            A.delete(i)
            deleted += 1
    assert calls == [] and deleted >= 500, (calls, deleted)
