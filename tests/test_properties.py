"""Property suites over randomized configurations."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import random_curve_config, random_planar_config, random_small_config
from gkzkit.configuration import (
    face_lattice,
    is_lattice_redundant,
    multiplicity_table,
    saturate,
)
from gkzkit.hyper import gamma_coefficient, toric_kernel_basis
from gkzkit.intlinalg import dot
from gkzkit.lattice import Lattice
from gkzkit.secondary import config_volume
from test_subdiagram_routes import ref_lattice_index

seeds = st.integers(0, 10_000)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_saturation_chain_containments(seed):
    A = random_small_config(random.Random(seed))
    p = set(saturate(A, "p").result.points)
    s = set(saturate(A, "s").result.points)
    full = set(saturate(A, "full").result.points)
    assert set(A.points) <= p <= s <= full


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_face_saturation_preserves_face_lattices(seed):
    # faces of the (unchanged) polytope are identified by their vertex sets
    A = random_planar_config(random.Random(seed))
    s = saturate(A, "s").result

    def vertex_set(cfg, face):
        return {cfg.points[i] for i in face.indices if i in cfg.newton.vertex_indices}

    for face in A.poset.faces:
        vs = vertex_set(A, face)
        match = next(
            f for f in s.poset.faces if f.dim == face.dim and vertex_set(s, f) == vs
        )
        assert face_lattice(A, face) == face_lattice(s, match)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_multiplicities_positive_and_top_trivial(seed):
    A = random_small_config(random.Random(seed))
    table = multiplicity_table(A)
    for rec in table:
        assert rec.mult_m == rec.index_i * rec.subvol_v
        assert rec.mult_m >= 1
        if rec.face.supporting is None:
            assert (rec.index_i, rec.subvol_v, rec.mult_m) == (1, 1, 1)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_redundant_point_keeps_hull_and_group(seed):
    A = random_planar_config(random.Random(seed))
    s = saturate(A, "s").result
    for i in range(s.size):
        rep = is_lattice_redundant(s, i)
        if rep and i not in s.newton.vertex_indices:
            deleted = s.delete(i)
            assert set(deleted.newton.vertices) == set(s.newton.vertices)
            assert deleted.group_lattice == s.group_lattice
            break


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_face_int_downward_closed(seed):
    A = random_small_config(random.Random(seed))
    fint = A.face_int_semiideal()
    for f in fint:
        for g in A.poset.subfaces(f):
            assert g in fint


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_volume_invariant_under_saturation(seed):
    A = random_small_config(random.Random(seed))
    v = config_volume(A)
    assert v == config_volume(saturate(A, "s").result)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_index_multiplicativity_random(seed):
    rng = random.Random(seed)

    def unimodularish(lo=-3, hi=3):
        while True:
            rows = [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                return rows

    L = Lattice.from_generators([(1, 0), (0, 1)])
    B = unimodularish()
    M = Lattice.from_generators(B)
    C = unimodularish(1, 3)
    K = Lattice.from_generators([[dot(row, c) for row in M.basis] for c in C])
    assert ref_lattice_index(L, M) * ref_lattice_index(M, K) == ref_lattice_index(L, K)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_lower_hull_triangulations_carry_certificates(seed):
    from gkzkit.secondary import (
        DegenerateHeightsError,
        is_regular,
        regular_triangulation,
    )

    rng = random.Random(seed)
    A = random_small_config(rng)
    heights = [Fraction(rng.randrange(-(10**5), 10**5), 991) for _ in range(A.size)]
    try:
        T = regular_triangulation(A, heights)
    except DegenerateHeightsError:
        return
    ok, witness = is_regular(A, T)
    assert ok
    assert regular_triangulation(A, witness) == T


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_gamma_contiguity_identity(seed):
    # the closed-form coefficients satisfy the box contiguity on the nose
    rng = random.Random(seed)
    A = random_curve_config(rng)
    kb = toric_kernel_basis(A)
    if not kb:
        return

    def noninteger():
        q = rng.choice([2, 3, 5, 7])
        p = rng.choice([x for x in range(-7, 8) if x % q])
        return Fraction(p, q)

    v = tuple(noninteger() for _ in range(A.size))
    w = kb[0]
    for s in range(-2, 3):
        u = tuple(s * a for a in w)
        uw = tuple(a + b for a, b in zip(u, w))
        pp = Fraction(1)
        pm = Fraction(1)
        for j, wj in enumerate(w):
            x = v[j] + u[j]
            if wj > 0:
                for t in range(1, wj + 1):
                    pp *= x + t
            elif wj < 0:
                for t in range(-wj):
                    pm *= x - t
        assert gamma_coefficient(v, uw) * pp == gamma_coefficient(v, u) * pm
