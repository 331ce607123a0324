"""Differential tests: the series layer on the integer falling-factorial kernel
and the LP-free kernel ball, against the Fraction operators and the LP box
they replaced.

The references are the earlier routes, references since commit 20b41ca,
which replaced them, kept verbatim (``ref_apply_euler`` and ``ref_apply_box``
but for the plain operator tuples of commit 922b452): every
shifted-factorial product formed factor by factor in Fractions (the gamma
ratios, the box operator, derivatives, contiguity products,
antiderivatives), and the kernel ball's coefficient box from 2r exact LPs
(``ref_kernel_ball``).  They stay as the routes the integer kernel and the
LP-free ball replaced, and as the oldest ones.  The series pipeline runs
once with the references patched into ``gkzkit.hyper`` and once as it
stands; the series and the annihilation reports must be equal.

The last test keeps the certificate apart from the code it checks: with the
kernel made to raise, ``annihilation_check`` still gives the same report.
"""

import itertools
import random
from fractions import Fraction

import pytest

from _corpus import random_curve_config, random_planar_config
from gkzkit import hyper
from gkzkit.configuration import PointConfiguration
from gkzkit.hyper import (
    ResonantParameterError,
    TruncatedSeries,
    _l1,
    annihilation_check,
    antiderivative,
    apply_box,
    differentiate,
    extend_solution,
    gamma_series,
    kernel_ball,
    toric_kernel_basis,
)
from gkzkit.intlinalg import det_fraction, dot, rational_rank
from gkzkit.lp import OPTIMAL, lp_maximize

PLANAR = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1)])
PLANAR_BETA = (Fraction(0), Fraction(1, 3), Fraction(1, 5))


# -- the Fraction operators and the LP box, the references -----------------------


def ref_kernel_ball(basis, order: int):
    """All kernel lattice points with L1 norm at most order."""
    r = len(basis)
    if r == 0:
        raise ValueError("kernel ball needs a nonempty basis")
    k = len(basis[0])
    if r == 1:
        w = basis[0]
        step = _l1(w)
        m = order // step
        pts = [tuple(t * a for a in w) for t in range(-m, m + 1)]
        return tuple(p for p in pts if _l1(p) <= order)
    # bounding box for the coefficients via exact LP on |B m|_1 <= order
    lo, hi = [], []
    for i in range(r):
        bounds = []
        for sign in (1, -1):
            c = [0] * r + [0] * k
            c[i] = sign
            A_ub = []
            b_ub = []
            for j in range(k):
                row = [basis[l][j] for l in range(r)]
                A_ub.append(row + [-1 if t == j else 0 for t in range(k)])
                b_ub.append(0)
                A_ub.append([-a for a in row] + [-1 if t == j else 0 for t in range(k)])
                b_ub.append(0)
            A_ub.append([0] * r + [1] * k)
            b_ub.append(order)
            status, x, value = lp_maximize(c, A_ub, b_ub)
            if status != OPTIMAL:
                raise AssertionError("kernel ball must be bounded")
            bounds.append(value if sign == 1 else -value)
        hi.append(int(Fraction(bounds[0]).__floor__()))
        lo.append(int(Fraction(bounds[1]).__ceil__()))
    out = []
    for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        u = tuple(
            sum(m[l] * basis[l][j] for l in range(r))
            for j in range(len(basis[0]))
        )
        if _l1(u) <= order:
            out.append(u)
    return tuple(sorted(set(out)))


def ref_gamma_coefficient(v, u):
    """Gamma-ratio coefficient of y^(v+u) relative to c_0 = 1."""
    c = Fraction(1)
    for j, uj in enumerate(u):
        vj = Fraction(v[j])
        if uj > 0:
            for t in range(1, uj + 1):
                if vj + t == 0:
                    raise ResonantParameterError(
                        f"exponent {vj} at coordinate {j} meets the integer translate {-t}"
                    )
                c /= vj + t
        elif uj < 0:
            for s in range(-uj):
                c *= vj - s
    return c


def ref_falling(x, n: int) -> Fraction:
    out = Fraction(1)
    for t in range(n):
        out *= x - t
    return out


def ref_apply_euler(series: TruncatedSeries, i: int) -> TruncatedSeries:
    """Exact term-wise action of an Euler operator."""
    beta_i = series.beta[i]
    row = series.config.matrix[i]
    out = {}
    for u, c in series.term_items:
        mult = sum(r * (v + uu) for r, v, uu in zip(row, series.base_exponent, u)) - beta_i
        if mult != 0:
            out[u] = c * mult
    return TruncatedSeries.make(
        series.config, series.beta, series.base_exponent, out,
        series.region, series.truncation_order,
    )


def ref_apply_box(series: TruncatedSeries, w) -> TruncatedSeries:
    """Exact term-wise action of a box operator."""
    w = tuple(w)
    M = series.config.matrix
    if tuple(dot(row, w) for row in M) != (0,) * series.config.ambient_dim:
        raise ValueError("box exponent must lie in the kernel")
    wplus = tuple(max(a, 0) for a in w)
    base = tuple(v - p for v, p in zip(series.base_exponent, wplus))
    # the image is homogeneous for the shifted parameter beta - A w_+
    beta = tuple(b - dot(row, wplus) for b, row in zip(series.beta, M))
    out = {}
    for u, c in series.term_items:
        ff_plus = Fraction(1)
        ff_minus = Fraction(1)
        for j, wj in enumerate(w):
            x = series.base_exponent[j] + u[j]
            if wj > 0:
                ff_plus *= ref_falling(x, wj)
            elif wj < 0:
                ff_minus *= ref_falling(x, -wj)
        if ff_plus != 0:
            out[u] = out.get(u, Fraction(0)) + c * ff_plus
        shifted = tuple(a + b for a, b in zip(u, w))
        if ff_minus != 0:
            out[shifted] = out.get(shifted, Fraction(0)) - c * ff_minus
    region = frozenset(
        m for m in series.region
        if tuple(a - b for a, b in zip(m, w)) in series.region
    )
    out = {u: c for u, c in out.items() if u in region}
    return TruncatedSeries.make(
        series.config, beta, base, out, region, series.truncation_order,
    )


def ref_differentiate(series: TruncatedSeries, gamma) -> TruncatedSeries:
    """Apply del^gamma for gamma in N^k, term by term."""
    gamma = tuple(int(g) for g in gamma)
    if any(g < 0 for g in gamma):
        raise ValueError("gamma must be nonnegative")
    base = tuple(v - g for v, g in zip(series.base_exponent, gamma))
    beta = tuple(b - dot(row, gamma) for b, row in zip(series.beta, series.config.matrix))
    out = {}
    for u, c in series.term_items:
        f = Fraction(1)
        for j, g in enumerate(gamma):
            f *= ref_falling(series.base_exponent[j] + u[j], g)
        if f != 0:
            out[u] = c * f
    return TruncatedSeries(
        series.config, beta, base,
        tuple(sorted(out.items())), series.region, series.truncation_order,
    )


def ref_contiguity_products(base, u, w):
    """(P+, P-) with c_{u+w} P+ = c_u P- for any solution series with the
    given base exponent; the identity is the box operator del^{w+} - del^{w-}
    acting on exponents base + offset."""
    pp = Fraction(1)
    pm = Fraction(1)
    for j, wj in enumerate(w):
        x = Fraction(base[j]) + u[j]
        if wj > 0:
            for t in range(1, wj + 1):
                pp *= x + t
        elif wj < 0:
            for s in range(-wj):
                pm *= x - s
    return pp, pm


def ref_antiderivative(series: TruncatedSeries, gamma) -> TruncatedSeries:
    """Inverse of del^gamma on truncated solutions."""
    gamma = tuple(int(g) for g in gamma)
    if any(g < 0 for g in gamma):
        raise ValueError("gamma must be nonnegative")
    base = tuple(v + g for v, g in zip(series.base_exponent, gamma))
    beta = tuple(b + dot(row, gamma) for b, row in zip(series.beta, series.config.matrix))
    out = {}
    undetermined = set()
    for u in series.region:
        div = Fraction(1)
        for j, g in enumerate(gamma):
            for t in range(1, g + 1):
                div *= series.base_exponent[j] + u[j] + t
        if div == 0:
            undetermined.add(u)
            continue
        c = series.coefficient(u)
        if c:
            out[u] = c / div
    basis = toric_kernel_basis(series.config)
    moves = [w for w in basis] + [tuple(-a for a in w) for w in basis]
    progress = True
    while progress and undetermined:
        progress = False
        for m in sorted(undetermined):
            for w in moves:
                u = tuple(a - b for a, b in zip(m, w))
                if u in undetermined or u not in series.region:
                    continue
                pp, pm = ref_contiguity_products(base, u, w)
                if pp == 0:
                    continue
                # c_m * pp = c_u * pm with c_u already determined
                val = out.get(u, Fraction(0)) * pm / pp
                if val:
                    out[m] = val
                undetermined.discard(m)
                progress = True
                break
    region = frozenset(series.region - undetermined)
    out = {u: c for u, c in out.items() if u in region}
    return TruncatedSeries(
        series.config, beta, base,
        tuple(sorted(out.items())), region, series.truncation_order,
    )


REFERENCES = {
    "kernel_ball": ref_kernel_ball,
    "gamma_coefficient": ref_gamma_coefficient,
    "apply_euler": ref_apply_euler,
    "apply_box": ref_apply_box,
    "differentiate": ref_differentiate,
    "antiderivative": ref_antiderivative,
}


# -- kernel ball -------------------------------------------------------------------


def _random_basis(rng, r):
    """r linearly independent integer vectors of length r + 1 .. r + 3,
    entries in [-2, 2]."""
    k = r + rng.randint(1, 3)
    while True:
        vectors = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(r))
        if rational_rank(vectors) == r:
            return vectors


def test_kernel_ball_matches_the_lp_box():
    rng = random.Random(11)
    ranks = set()
    for _ in range(500):
        basis = _random_basis(rng, rng.randint(1, 4))
        order = rng.randint(0, 6)
        ball = kernel_ball(basis, order)
        assert ball == tuple(sorted(ball))
        assert set(ball) == set(ref_kernel_ball(basis, order))
        ranks.add(len(basis))
    assert ranks == {1, 2, 3, 4}
    for A in (PLANAR, PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2), (1, 3)])):
        basis = toric_kernel_basis(A)
        for order in (0, 1, 5, 12):
            assert set(kernel_ball(basis, order)) == set(ref_kernel_ball(basis, order))


# -- the series pipeline ---------------------------------------------------------------


def _extension_cases(rng, count):
    """(A, k, beta, cell of A minus k, order): k a non-vertex column whose
    deletion keeps the group lattice, beta with small denominators."""
    out = []
    while len(out) < count:
        A = random_curve_config(rng) if rng.random() < 0.5 else random_planar_config(rng)
        ks = [
            k for k in range(A.size)
            if k not in A.newton.vertex_indices and A.delete(k).group_lattice == A.group_lattice
        ]
        if not ks:
            continue
        k = rng.choice(ks)
        A_k = A.delete(k)
        cells = [
            c for c in itertools.combinations(range(A_k.size), A.ambient_dim)
            if det_fraction([A_k.points[j] for j in c]) != 0
        ]
        beta = tuple(
            Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7, 11, 13]))
            for _ in range(A.ambient_dim)
        )
        out.append((A, k, beta, rng.choice(cells), rng.randint(0, 10)))
    return out


def _run(A, k, beta, cell, order, psi_order):
    """psi, its extension F and F's annihilation report, or the error raised."""
    try:
        psi = gamma_series(A.delete(k), beta, cell, psi_order)
        F = extend_solution(psi, A, k, beta, order)
        return psi, F, annihilation_check(F)
    except (ResonantParameterError, ValueError) as exc:
        return type(exc), str(exc)


def _fields(s):
    return s.term_items, s.region, s.base_exponent, s.beta


def _assert_same(got, want):
    assert len(got) == len(want)
    if len(want) == 2:  # both raised, with the same message
        assert got == want
        return
    assert _fields(got[0]) == _fields(want[0])
    assert _fields(got[1]) == _fields(want[1])
    assert got[2] == want[2]


def _reference(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        for name, ref in REFERENCES.items():
            m.setattr(hyper, name, ref)
        return fn(*args)


def test_extension_matches_the_fraction_operators(monkeypatch):
    rng = random.Random(5)
    cases = _extension_cases(rng, 60)
    cases.append((PLANAR, 3, PLANAR_BETA, (0, 1, 2), 64))
    seen = 0
    for A, k, beta, cell, order in cases:
        args = (A, k, beta, cell, order, 2 * order + 2)
        want = _reference(monkeypatch, _run, *args)
        got = _run(*args)
        _assert_same(got, want)
        if len(got) == 3:
            seen += 1
            assert got[2], got[2].determined_nonzero
    assert seen >= 30


def test_operators_match_the_fraction_operators():
    rng = random.Random(17)
    checked = 0
    for A, k, beta, cell, order in _extension_cases(rng, 45):
        A_k = A.delete(k)
        try:
            psi = gamma_series(A_k, beta, cell, 2 * order + 2)
        except ResonantParameterError:
            continue
        kernel = toric_kernel_basis(A_k)
        for _ in range(3):
            gamma = tuple(rng.randint(0, 3) for _ in range(A_k.size))
            for fn in (differentiate, antiderivative):
                want = REFERENCES[fn.__name__](psi, gamma)
                assert _fields(fn(psi, gamma)) == _fields(want)
            if kernel:
                t, w1, w2 = rng.randint(-2, 2), rng.choice(kernel), rng.choice(kernel)
                w = tuple(t * a + b for a, b in zip(w1, w2))
                assert _fields(apply_box(psi, w)) == _fields(ref_apply_box(psi, w))
        checked += 1
    assert checked >= 15


def test_resonant_translate_message_is_kept(monkeypatch):
    # nonresonant beta whose cell exponent at column 2 is the integer -2
    A = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 3)])
    beta = (Fraction(13, 3), Fraction(1, 3))

    def message():
        with pytest.raises(ResonantParameterError) as info:
            gamma_series(A, beta, (1, 2), 12)
        return str(info.value)

    assert message() == _reference(monkeypatch, message)
    assert message() == "exponent -2 at coordinate 2 meets the integer translate -2"


# -- the certificate keeps its own arithmetic ----------------------------------------------


def test_annihilation_check_runs_without_the_kernel(monkeypatch):
    psi = gamma_series(PLANAR.delete(3), PLANAR_BETA, (0, 1, 2), 18)
    F = extend_solution(psi, PLANAR, 3, PLANAR_BETA, 8)
    report = annihilation_check(F)
    assert report and report.determined_zero > 0

    def kernel_called(*args):
        raise AssertionError("the certificate reached the _falling kernel")

    monkeypatch.setattr(hyper, "_falling", kernel_called)
    with pytest.raises(AssertionError):
        differentiate(psi, (1, 0, 0, 0))
    assert annihilation_check(F) == report
