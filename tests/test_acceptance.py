"""Acceptance suite: one test per criterion, each printing a PASS line and
holding its stated wall-clock budget."""

import random
import time
from fractions import Fraction

from _corpus import random_beta, random_small_config
from gkzkit.configuration import (
    PointConfiguration,
    check_aux_point,
    is_lattice_redundant,
    reduction_chain,
    replay_chain,
    saturate,
    subdiagram_volume,
    subdiagram_volume_oracle,
)
from gkzkit.continuation import charpoly, mat_mul, numeric_monodromy
from gkzkit.curves import (
    MonomialCurveConfig,
    beukers_generators,
    restriction_factors_divide,
    verify_factorization,
)
from gkzkit.hyper import (
    annihilation_check,
    extend_solution,
    gamma_series,
    is_nonresonant,
    resonance_box_oracle,
    restrict_to_zero,
)
from gkzkit.secondary import (
    DegenerateHeightsError,
    check_facet_restriction,
    config_volume,
    gkz_vector,
    regular_triangulation,
)

TRIANGLE = PointConfiguration.from_columns(
    [(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 1, 0), (1, 0, 2)]
)
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


class budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"budget {self.limit}s exceeded: {self.elapsed:.2f}s"
            )
        return False


def test_criterion_1_planar_saturations():
    with budget(1.0) as b:
        p = saturate(TRIANGLE, "p")
        assert set(p.added_points) == {(1, 2, 0), (1, 0, 1)}
        s = saturate(TRIANGLE, "s")
        assert set(s.added_points) == {(1, 2, 0), (1, 0, 1), (1, 1, 1)}
        assert set(s.result.points) == set(p.result.points) | {(1, 1, 1)}
        full = saturate(TRIANGLE, "full")
        assert full.result.size == 10
    print(f"\nCRITERION 1: PASS (planar saturations exact, {b.elapsed:.2f}s)")


def test_criterion_2_obstructed_configuration():
    with budget(5.0) as b:
        s = saturate(OBSTRUCTED, "s").result
        new = (1, 1, 1, 1)
        k = s.index_of(new)
        assert set(s.points) == set(OBSTRUCTED.points) | {new}
        assert is_lattice_redundant(s, k)
        for a in range(s.size):
            if a != k:
                assert not check_aux_point(s, k, a)
        from gkzkit.configuration import _face_hnf
        from gkzkit.intlinalg import dot, vsub
        from gkzkit.polytope import convex_hull

        for pts in (
            [(1, 0, 1, 0), (1, 1, 2, 0), (1, 2, 0, 0), (1, 1, 1, 0)],
            [(1, 2, 0, 2), (1, 1, 0, 3), (1, 0, 0, 4)],
        ):
            f_before = OBSTRUCTED.poset.face_with_indices(
                tuple(OBSTRUCTED.index_of(p) for p in pts)
            )
            f_after = s.poset.face_with_indices(tuple(s.index_of(p) for p in pts))
            assert subdiagram_volume(OBSTRUCTED, f_before) > subdiagram_volume(s, f_after)
            # each column's image in the quotient by the face's saturated span,
            # from its chart difference to the face's first point
            tail = _face_hnf(s, f_after)[1]
            x = s.chart_points
            base = x[f_after.indices[0]]
            image = {p: tuple(dot(u, vsub(y, base)) for u in tail) for p, y in zip(s.points, x)}
            off = [p for p in s.points if p not in set(s.face_points(f_after))]
            hull = convex_hull([image[p] for p in off])
            assert image[new] in hull.vertices
    print(f"\nCRITERION 2: PASS (obstructed configuration reproduced, {b.elapsed:.2f}s)")


def test_criterion_3_multiplicity_secondary_consistency():
    with budget(10.0) as b:
        for support in ((0, 1), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3)):
            rep = verify_factorization(MonomialCurveConfig(support))
            assert rep, (support, rep)
            assert rep.newton_matches_secondary
        sparse = verify_factorization(MonomialCurveConfig((0, 1, 3)))
        assert sparse.vertex_multiplicities == (1, 2)
        assert sparse.coordinate_exponents == (1, 0, 2)
    print(f"\nCRITERION 3: PASS (Newton(E) = secondary polytope, exponents = m, {b.elapsed:.2f}s)")


def test_criterion_4_restriction_divisibility():
    supports = [
        (0, 1, 2),
        (0, 1, 3), (0, 2, 3), (0, 1, 2, 3),
        (0, 1, 4), (0, 3, 4), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4),
        (0, 1, 2, 3, 4),
    ]
    with budget(30.0) as b:
        pairs = 0
        for support in supports:
            cfg = MonomialCurveConfig(support)
            for i in range(1, cfg.size - 1):
                assert restriction_factors_divide(cfg, i), (support, i)
                pairs += 1
        assert pairs >= 12
    print(f"\nCRITERION 4: PASS (restriction factors divide, {pairs} pairs, {b.elapsed:.2f}s)")


def test_criterion_5_secondary_facet_restriction():
    import pytest

    with budget(30.0) as b:
        checked = 0
        for delta in (2, 3, 4):
            A = PointConfiguration.from_columns([(1, a) for a in range(delta + 1)])
            for i in range(1, delta):
                A_i = A.delete(i)
                if A_i.group_lattice != A.group_lattice:
                    with pytest.raises(ValueError):
                        check_facet_restriction(A, i)
                    continue
                assert check_facet_restriction(A, i), (delta, i)
                checked += 1
        assert checked == 5  # two pairs at delta 3, three at delta 4
    print(f"\nCRITERION 5: PASS (secondary facet restriction, {checked} pairs, {b.elapsed:.2f}s)")


def test_criterion_6_extension_pipeline():
    with budget(10.0) as b:
        beta = (Fraction(0), Fraction(1, 2))
        A = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2), (1, 3)])
        A_k = A.delete(2)
        psi = gamma_series(A_k, beta, (0, 2), 6)
        F = extend_solution(psi, A, 2, beta, 6)
        report = annihilation_check(F)
        assert report, report.determined_nonzero
        assert report.determined_zero > 0
        back = restrict_to_zero(F, 2)
        assert back.terms == psi.terms
        assert back.base_exponent == psi.base_exponent
    print(f"\nCRITERION 6: PASS (extension + annihilation + restriction, {b.elapsed:.2f}s)")


def test_criterion_7_nonresonance_oracle():
    with budget(60.0) as b:
        rng = random.Random(77)
        total = 0
        for _ in range(10):
            A = random_small_config(rng)
            betas = [random_beta(rng, A, planted=(i % 2 == 0)) for i in range(200)]
            oracle = resonance_box_oracle(A, betas, radius=5)
            main = [bool(is_nonresonant(A, bb)) for bb in betas]
            assert oracle == main
            total += len(betas)
    print(f"\nCRITERION 7: PASS (nonresonance oracle agreement on {total} parameters, {b.elapsed:.2f}s)")


def test_criterion_8_subdiagram_volume_oracle():
    with budget(60.0) as b:
        rng = random.Random(88)
        faces_checked = 0
        for _ in range(100):
            A = random_small_config(rng)
            for f in A.poset.faces:
                if f.supporting is None:
                    continue
                rank = A.ambient_dim - (f.dim + 1)
                if rank in (1, 2):
                    assert subdiagram_volume(A, f) == subdiagram_volume_oracle(A, f)
                    faces_checked += 1
        assert faces_checked >= 100
    print(f"\nCRITERION 8: PASS (volume oracle agreement on {faces_checked} faces, {b.elapsed:.2f}s)")


def test_criterion_9_monodromy():
    with budget(120.0) as b:
        beta = (Fraction(1, 5), Fraction(1, 3))
        assert is_nonresonant(PointConfiguration.from_columns([(1, 0), (1, 1), (1, 3)]), beta)
        res = numeric_monodromy(3, beta)
        printed = beukers_generators(3, beta).matrices
        assert res.trivial_loop_error < 1e-9
        for got, want in zip(res.generators, printed):
            for x, y in zip(charpoly(got), charpoly(want)):
                assert abs(x - y) < 1e-6
        for i in range(3):
            for j in range(i + 1, 3):
                got = charpoly(mat_mul(res.generators[i], res.generators[j]))
                want = charpoly(mat_mul(printed[i], printed[j]))
                for x, y in zip(got, want):
                    assert abs(x - y) < 1e-6
    print(f"\nCRITERION 9: PASS (monodromy invariants within 1e-6, {b.elapsed:.2f}s)")


def test_criterion_10_invariant_suites():
    rng = random.Random(1010)
    corpus = [random_small_config(rng) for _ in range(105)]
    t0 = time.perf_counter()
    for A in corpus:
        for mode in ("s", "p"):
            once = saturate(A, mode).result
            assert saturate(once, mode).added_points == ()
    for A in corpus:
        chain = reduction_chain(A, "p")
        if chain.complete:
            assert replay_chain(chain)
    replayed = sum(1 for A in corpus if reduction_chain(A, "p").steps)
    for A in corpus:
        vol = config_volume(A)
        d = A.newton.dim
        heights = [Fraction(rng.randrange(-(10**6), 10**6), 997) for _ in range(A.size)]
        try:
            T = regular_triangulation(A, heights)
        except DegenerateHeightsError:
            continue
        assert sum(gkz_vector(A, T)) == (d + 1) * vol
    for A in corpus:
        vol = config_volume(A)
        assert vol == config_volume(saturate(A, "s").result)
        assert vol == config_volume(saturate(A, "p").result)
    elapsed = time.perf_counter() - t0
    print(
        f"\nCRITERION 10: PASS (idempotence, {replayed} nontrivial chains replayed, "
        f"GKZ sums, volume invariance over {len(corpus)} configurations, {elapsed:.2f}s)"
    )
