"""ODE reduction certification and numeric monodromy versus the printed
degree-3 generators."""

from fractions import Fraction
from math import factorial, perm

import pytest

from gkzkit.continuation import (
    TAYLOR_ORDER,
    _poly_shift,
    charpoly,
    mat_mul,
    numeric_monodromy,
    taylor_step_matrix,
)
from gkzkit.curves import beukers_generators
from gkzkit.ode import certify_ode, ode_from_system, pulled_back_series
from gkzkit.hyper import ResonantParameterError

BETA = (Fraction(1, 5), Fraction(1, 3))


def test_ode_order_and_singularities():
    for delta in (2, 3, 4, 5):
        ode = ode_from_system(delta, (Fraction(1, 7), Fraction(2, 5)))
        assert ode.order == delta
        zero, star = ode.singular_points()
        assert zero == 0 and star != 0


def test_ode_certified_by_series():
    for delta, beta in ((2, (0, Fraction(1, 2))), (3, BETA)):
        ode = ode_from_system(delta, beta)
        assert certify_ode(ode, order=10) > 0


def test_ode_resonant_rejected():
    with pytest.raises(ResonantParameterError):
        ode_from_system(3, (0, 0))


def test_pulled_back_series_exponents():
    ode = ode_from_system(3, BETA)
    s = pulled_back_series(ode, 1, 12)
    exps = sorted(s)
    assert exps[0] == Fraction(1, 3)
    assert all((e - Fraction(1, 3)).denominator == 1 for e in exps)


def ref_taylor_step_matrix(ode, z0: complex, z1: complex):
    """The Taylor step with perm(m, j) and h ** k computed inside the loops:
    the reference that the step's tables must reproduce bit for bit."""
    d = ode.delta
    q = [_poly_shift(c, z0) for c in ode.coefficients]
    lead = q[d][0]
    if abs(lead) == 0:
        raise ZeroDivisionError("expansion point is singular")
    h = z1 - z0
    cols = []
    for init in range(d):
        a = [0j] * (TAYLOR_ORDER + d + 1)
        a[init] = 1.0 / factorial(init)
        for n in range(TAYLOR_ORDER + 1):
            s = 0j
            for j in range(d + 1):
                poly = q[j]
                for l, ql in enumerate(poly):
                    if ql == 0:
                        continue
                    m = n - l + j
                    if m < 0 or m > n + d or (j == d and l == 0):
                        continue
                    if m - j < 0:
                        continue
                    s += ql * a[m] * perm(m, j)
            denom = lead * perm(n + d, d)
            a[n + d] = -s / denom
        state = []
        for der in range(d):
            val = 0j
            for m in range(der, TAYLOR_ORDER + d + 1):
                val += a[m] * perm(m, der) * h ** (m - der)
            state.append(val)
        cols.append(state)
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


@pytest.mark.parametrize(
    "delta, beta",
    [
        (2, (0, Fraction(1, 2))),
        (3, BETA),
        (4, (Fraction(1, 7), Fraction(2, 5))),
        (5, (Fraction(-3, 4), Fraction(1, 9))),
    ],
)
def test_taylor_step_matches_the_reference_exactly(delta, beta):
    ode = ode_from_system(delta, beta)
    r = abs(float(ode.singular_points()[1]))
    steps = [  # each hop well inside the disc that misses 0 and the discriminant point
        (r / 2, r / 2 + 0.1j * r),
        (1j * r, (0.2 + 1.2j) * r),
        (-r / 3, (-0.4 + 0.05j) * r),
        (0.25 + 0.5j, 0.25 + 0.5j),
    ]
    for z0, z1 in steps:
        assert taylor_step_matrix(ode, z0, z1) == ref_taylor_step_matrix(ode, z0, z1)
    with pytest.raises(ZeroDivisionError):
        taylor_step_matrix(ode, 0j, 0.1)


def test_trivial_loop_identity():
    res = numeric_monodromy(3, BETA)
    assert res.trivial_loop_error < 1e-9


def test_origin_loop_determinant_modulus():
    res = numeric_monodromy(3, BETA)
    m0 = res.loop_matrices[0]
    det = dict(res.invariants)["loop0_det"]
    assert abs(abs(det) - 1) < 1e-9


def test_generators_match_printed_matrices():
    res = numeric_monodromy(3, BETA)
    printed = beukers_generators(3, BETA).matrices
    pairs = [(res.generators[i], printed[i]) for i in range(3)]
    for got, want in pairs:
        for a, b in zip(charpoly(got), charpoly(want)):
            assert abs(a - b) < 1e-6
    for i in range(3):
        for j in range(i + 1, 3):
            got = charpoly(mat_mul(res.generators[i], res.generators[j]))
            want = charpoly(mat_mul(printed[i], printed[j]))
            for a, b in zip(got, want):
                assert abs(a - b) < 1e-6


def test_triple_product_matches():
    res = numeric_monodromy(3, BETA)
    printed = beukers_generators(3, BETA).matrices
    got = charpoly(mat_mul(res.generators[0], mat_mul(res.generators[1], res.generators[2])))
    want = charpoly(mat_mul(printed[0], mat_mul(printed[1], printed[2])))
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-6


def test_invariants_base_point_independent():
    res1 = numeric_monodromy(3, BETA)
    res2 = numeric_monodromy(3, BETA, base_point=2.0 + 9.5j)
    # trace, det and charpoly of ten matrices, as sorted pairs: a result hashes
    names = [name for name, _ in res1.invariants]
    assert names == sorted(set(names)) and len(names) == 30
    assert hash(res1) == hash(numeric_monodromy(3, BETA)) and hash(res2) != hash(res1)
    for key in ("gen2_charpoly", "gen3_charpoly", "gen23_charpoly", "loopstar_trace"):
        a, b = dict(res1.invariants)[key], dict(res2.invariants)[key]
        if isinstance(a, tuple):
            assert all(abs(x - y) < 1e-8 for x, y in zip(a, b))
        else:
            assert abs(a - b) < 1e-8


def test_delta2_monodromy_runs():
    res = numeric_monodromy(2, (0, Fraction(1, 2)))
    assert res.trivial_loop_error < 1e-9
    # reflection at the discriminant point: eigenvalues 1 and -exp(2 pi i b1) = -1
    cp = dict(res.invariants)["loopstar_charpoly"]
    assert abs(cp[1] - 0) < 1e-8  # trace 1 + (-1) = 0
    assert abs(cp[2] - (-1)) < 1e-8


def test_unsupported_degree():
    with pytest.raises(ValueError):
        numeric_monodromy(4, BETA)
