"""Differential tests: the reduction chain read off A's facet masks
(``configuration.reduction_chain``) against the chain that built each
enlarged configuration and certified its step on it.

``ref_reduction_chain`` and ``_ref_certify_step`` are the earlier
``reduction_chain`` and ``_certify_step``, kept verbatim but for the
saturation points, taken from ``saturate``, and the faces through the new
point, ``FacePoset.faces_containing`` inlined: each candidate enlarges the
configuration so far with ``with_point``, is tested by
``is_lattice_redundant``, one chart span per face through it, and looks for
its witness in the enlarged poset.  The library now builds one
configuration per chain, its end, and tests one face lattice per step;
``replay_chain`` still rebuilds every step from its columns
(``test_derived_routes.py``).
"""

import pytest

from _corpus import OBSTRUCTED, chain_corpus, config, face_corpus, plane_grid_subsets
from gkzkit import cli, configuration
from gkzkit.configuration import (
    ChainStep,
    PointConfiguration,
    ReductionChain,
    is_lattice_redundant,
    reduction_chain,
    saturate,
)
from gkzkit.lattice import Lattice
from gkzkit.polytope import _mask


def _ref_certify_step(enlarged: PointConfiguration, new_index: int):
    """Find a face containing the new point with a distinct relative interior
    point of the enlarged configuration; None when no such face exists."""
    m = _mask(enlarged.minimal_face(new_index).indices)
    for face in (f for z, f in enlarged.poset._by_mask.items() if z & m == m):
        for j in range(enlarged.size):
            if j == new_index:
                continue
            if enlarged.minimal_face(j) == face:
                return face, enlarged.points[j]
    return None


def ref_reduction_chain(A: PointConfiguration, mode: str) -> ReductionChain:
    """Greedily add saturation points one at a time, certifying each addition
    by lattice redundancy plus a face witness; reports the stuck points if the
    target cannot be reached."""
    if mode not in ("s", "p"):
        raise ValueError("reduction chains target mode 's' or 'p'")
    target = {*A.points, *saturate(A, mode).added_points}
    current = A
    steps = []
    while True:
        remaining = sorted(target - set(current.points))
        if not remaining:
            break
        progress = False
        for alpha in remaining:
            enlarged = current.with_point(alpha)
            ni = enlarged.index_of(alpha)
            if not is_lattice_redundant(enlarged, ni):
                continue
            cert = _ref_certify_step(enlarged, ni)
            if cert is None:
                continue
            face, witness = cert
            steps.append(ChainStep(alpha, face.indices, witness))
            current = enlarged
            progress = True
            break
        if not progress:
            return ReductionChain(A, current, tuple(steps), tuple(remaining))
    return ReductionChain(A, current, tuple(steps), ())


def _fresh(A):
    return PointConfiguration.from_columns(A.points, A.labels)


# the triangles with legs 4 ... 8 and the tetrahedra with sides 2 ... 4, each
# with its unit points and their sum: chains of up to 32 steps
LONG = [
    config([(0, 0), (n, 0), (0, n), (1, 0), (0, 1), (1, 1)]) for n in range(4, 9)
] + [
    config([(0, 0, 0), (n, 0, 0), (0, n, 0), (0, 0, n), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    for n in range(2, 5)
]


CORPORA = {
    "chains": chain_corpus,
    "faces": face_corpus,
    "grid": plane_grid_subsets,
    "obstructed": lambda: [OBSTRUCTED],
    "long": lambda: LONG,
}


@pytest.mark.parametrize(
    "corpus, least",
    [
        ("chains", {"chains": 122, "incomplete": 12, "steps": 100, "past_a": 40}),
        ("faces", {"chains": 304, "incomplete": 20, "steps": 220, "past_a": 80}),
        # the grid's chains add no point: each is complete at once or stuck
        ("grid", {"chains": 916, "incomplete": 90, "steps": 0, "past_a": 0}),
        ("obstructed", {"chains": 2, "incomplete": 1, "steps": 0, "past_a": 0}),
        ("long", {"chains": 16, "incomplete": 1, "steps": 200, "past_a": 150}),
    ],
)
def test_chains_match_the_per_step_route(corpus, least):
    """Steps, obstruction and the end configuration, with its hull, facet
    masks and poset, equal the per-step route's in modes "s" and "p".
    ``past_a`` counts the steps whose face holds points added before."""
    kinds = dict.fromkeys(least, 0)
    for A in CORPORA[corpus]():
        for mode in ("s", "p"):
            got, want = reduction_chain(_fresh(A), mode), ref_reduction_chain(_fresh(A), mode)
            assert got == want, (A.points, mode)
            P, Q = got.end.newton, want.end.newton
            assert P == Q and (P.point_coords, P.facet_sets) == (Q.point_coords, Q.facet_sets)
            assert got.end.poset == want.end.poset, (A.points, mode)
            assert vars(got.end.poset)["_signatures"] == want.end.poset._signatures
            kinds["chains"] += 1
            kinds["incomplete"] += not got.complete
            kinds["steps"] += len(got.steps)
            kinds["past_a"] += sum(
                any(A.size <= j < A.size + k for j in s.face_indices)
                for k, s in enumerate(got.steps)
            )
    if corpus == "obstructed":
        assert reduction_chain(OBSTRUCTED, "s").obstruction == ((1, 1, 1, 1),)
    assert all(kinds[k] >= least[k] for k in least), kinds


def test_chains_build_no_configuration_per_step(monkeypatch):
    """A p chain builds no configuration and tests no redundancy per step: it
    derives one hull, its end's, and spans one lattice per distinct minimal
    face of its added points, once A's scans are made."""
    calls = {"with_point": 0, "is_lattice_redundant": 0, "extended_hull": 0, "_chart_span": 0}

    def counted(name, f):
        def g(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return g

    configs = [_fresh(A) for A in chain_corpus()]
    for A in configs:
        saturate(A, "p")
    with_point = counted("with_point", PointConfiguration.with_point)
    monkeypatch.setattr(PointConfiguration, "with_point", with_point)
    for name in ("is_lattice_redundant", "extended_hull", "_chart_span"):
        monkeypatch.setattr(configuration, name, counted(name, getattr(configuration, name)))
    steps = 0
    for A in configs:
        for name in calls:
            calls[name] = 0
        chain = reduction_chain(A, "p")
        end = chain.end
        faces = {end.minimal_face(end.index_of(s.added_point)).indices for s in chain.steps}
        assert calls["with_point"] == calls["is_lattice_redundant"] == 0, (A.points, calls)
        assert calls["extended_hull"] == bool(chain.steps), (A.points, calls)
        assert calls["_chart_span"] == len(faces), (A.points, calls)
        assert end.newton.placements is A.newton.placements
        steps += len(chain.steps)
    assert steps >= 40, steps


# the triangle (0, 0), (3, 0), (0, 3) with (1, 0) and (0, 2), whose p chain
# adds (0, 1) on the edge x = 0 and then (2, 0)
TRIANGLE = [(0, 0), (3, 0), (0, 3), (1, 0), (0, 2)]


def _doubled_after_the_scan(monkeypatch):
    """Let the saturation scans run on the true face lattices, then double
    every face lattice that the chain's membership test reads."""
    face_lattice, saturation_points = configuration.face_lattice, configuration._saturation_points

    def doubled(A, face):
        L = face_lattice(A, face)
        return Lattice.from_generators([[2 * a for a in g] for g in L.generators()], L.ambient_dim)

    def scanned(A, mode):
        points = saturation_points(A, mode)
        monkeypatch.setattr(configuration, "face_lattice", doubled)
        return points

    monkeypatch.setattr(configuration, "_saturation_points", scanned)


def test_a_step_off_its_face_lattice_is_an_internal_error(monkeypatch, tmp_path, capsys):
    A = config(TRIANGLE)
    assert [s.added_point for s in reduction_chain(A, "p").steps] == [(1, 0, 1), (1, 2, 0)]
    with monkeypatch.context() as m:
        _doubled_after_the_scan(m)
        with pytest.raises(AssertionError, match=r"^saturation point \(1, 0, 1\) is off"):
            reduction_chain(config(TRIANGLE), "p")
    path = tmp_path / "triangle.json"
    path.write_text('{"matrix": [[1, 0, 0], [1, 3, 0], [1, 0, 3], [1, 1, 0], [1, 0, 2]]}')
    _doubled_after_the_scan(monkeypatch)
    assert cli.main(["--input", str(path), "reduce", "--mode", "p"]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "internal error: AssertionError: saturation point (1, 0, 1) "
        "is off its minimal face's lattice\n"
    )

