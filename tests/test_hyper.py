"""Toric kernels, nonresonance, truncated series, operators, extension."""

import re
from fractions import Fraction
from math import gcd

import pytest

from gkzkit import hyper
from gkzkit.configuration import PointConfiguration
from gkzkit.hyper import (
    ResonantParameterError,
    TruncatedSeries,
    annihilation_check,
    antiderivative,
    apply_box,
    apply_euler,
    differentiate,
    extend_solution,
    gamma_coefficient,
    gamma_series,
    is_nonresonant,
    kernel_ball,
    kernel_slice_representative,
    resonance_box_oracle,
    restrict_to_zero,
    shift_inverse,
    toric_kernel_basis,
)
from gkzkit.intlinalg import dot, integer_kernel_basis

C013 = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 3)])
C0123 = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2), (1, 3)])
SIMPLEX = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
BETA = (Fraction(0), Fraction(1, 2))


def image(A, u):
    """The product of A's matrix with the vector u."""
    return tuple(dot(row, u) for row in A.matrix)


def test_kernel_basis():
    kb = toric_kernel_basis(C013)
    assert len(kb) == 1
    u = kb[0]
    assert image(C013, u) == (0, 0)
    assert toric_kernel_basis(SIMPLEX) == ()
    square = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    assert len(toric_kernel_basis(square)) == 1


def test_kernel_ball_rank2():
    kb = toric_kernel_basis(C0123)
    assert len(kb) == 2
    ball = kernel_ball(kb, 4)
    assert (0, 0, 0, 0) in ball
    assert all(sum(map(abs, u)) <= 4 for u in ball)
    assert all(image(C0123, u) == (0, 0) for u in ball)
    # no kernel point of small norm is missed: direct box scan oracle
    direct = {
        u
        for u in (
            (a, b, c, d)
            for a in range(-4, 5)
            for b in range(-4, 5)
            for c in range(-4, 5)
            for d in range(-4, 5)
        )
        if sum(map(abs, u)) <= 4 and image(C0123, u) == (0, 0)
    }
    assert set(ball) == direct


def test_nonresonant_examples():
    assert is_nonresonant(C013, (0, Fraction(1, 2)))
    assert not is_nonresonant(C013, (0, 0))
    rep = is_nonresonant(C013, (Fraction(1, 3), 1))
    assert not rep and rep.witness_face is not None


def test_resonance_oracle_agrees():
    betas = [
        (0, Fraction(1, 2)),
        (0, 0),
        (Fraction(1, 3), 1),
        (Fraction(2, 7), Fraction(3, 7)),
        (Fraction(-1, 2), Fraction(5, 3)),
    ]
    oracle = resonance_box_oracle(C013, betas)
    main = [bool(is_nonresonant(C013, b)) for b in betas]
    assert oracle == main


@pytest.mark.parametrize(
    "entry", [float("inf"), float("nan"), None, True], ids=["inf", "nan", "none", "bool"]
)
def test_parameters_refuse_non_rational_entries_by_name(entry):
    # inf raised OverflowError, None TypeError, NaN Fraction's message, and
    # True was taken as 1
    with pytest.raises(ValueError, match=rf"^non-rational entry {entry!r}$"):
        is_nonresonant(C013, (0, entry))


def test_parameters_of_every_rational_type_agree():
    verdicts = set()
    for beta in ((0, 1), (Fraction(1, 4), 1), (0, Fraction(1, 2)), (Fraction(-3, 2), Fraction(3, 4))):
        want = is_nonresonant(C013, beta)
        verdicts.add(bool(want))
        for same in ([float(b) for b in beta], [str(b) for b in beta]):
            assert is_nonresonant(C013, same) == want, same
    assert verdicts == {True, False}


def test_gamma_coefficient_binomial():
    # (y1 + y2)^beta expanded at v = (beta, 0): c_u = binom(beta, j)
    v = (Fraction(5, 2), Fraction(0))
    assert gamma_coefficient(v, (0, 0)) == 1
    assert gamma_coefficient(v, (-1, 1)) == Fraction(5, 2)
    assert gamma_coefficient(v, (-2, 2)) == Fraction(5, 2) * Fraction(3, 2) / 2
    # a divisor v_j + t, t = 1..u_j, vanishes: the resonant integer translate
    v = (Fraction(1, 2), Fraction(-2))
    assert gamma_coefficient(v, (-1, 1)) == Fraction(-1, 2)
    with pytest.raises(ResonantParameterError, match="coordinate 1 meets the integer translate -2"):
        gamma_coefficient(v, (-3, 3))
    assert gamma_coefficient((Fraction(1, 2), Fraction(-4)), (-3, 3)) == Fraction(-1, 16)


def test_gamma_series_curve():
    s = gamma_series(C013, BETA, (0, 2), 4)
    assert s.coefficient((0, 0, 0)) == 1
    # contiguity replay along the kernel generator
    w = toric_kernel_basis(C013)[0]
    box = apply_box(s, w)
    assert not box.term_items
    assert annihilation_check(s)
    # kernels of rank 2: the segment {0,1,2,3} and a planar set of five points
    planar = PointConfiguration.from_columns(
        [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1)]
    )
    cases = (
        (C0123, BETA, (0, 3), (22, 66, 148)),
        (planar, (0, Fraction(1, 3), Fraction(1, 5)), (0, 1, 2), (29, 85, 179)),
    )
    for A, beta, cell, zeros in cases:
        assert len(toric_kernel_basis(A)) == 2
        for order, zero in zip((4, 8, 12), zeros):
            report = annihilation_check(gamma_series(A, beta, cell, order))
            assert report, report.determined_nonzero
            assert report.determined_zero == zero


def test_gamma_series_simplex_single_term():
    s = gamma_series(SIMPLEX, (1, Fraction(1, 3), Fraction(1, 3)), (0, 1, 2), 3)
    assert len(s.term_items) == 1
    assert s.coefficient((0, 0, 0)) == 1


PLANAR = PointConfiguration.from_columns([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 1)])


@pytest.mark.parametrize(
    "A, beta, cell, name",
    [
        (C013, (Fraction(1, 5), Fraction(1, 3)), (0, 1, 2), "(0, 1, 2)"),
        (C013, (Fraction(1, 5), Fraction(1, 3)), (-1, 0), "(-1, 0)"),
        (C013, (Fraction(1, 5), Fraction(1, 3)), (5, 0), "(0, 5)"),
        (C013, (Fraction(1, 5), Fraction(1, 3)), (1, 1), "(1, 1)"),
        (PLANAR, (Fraction(1, 5), Fraction(1, 3), Fraction(1, 7)), (0, 1, 2), "(0, 1, 2)"),
        (C013, (Fraction(1, 5), Fraction(1, 3)), (0.0, 2), "(0.0, 2)"),
        (C013, (Fraction(1, 5), Fraction(1, 3)), (True, 2), "(True, 2)"),
    ],
    ids=["three-on-a-segment", "negative", "out-of-range", "repeated", "collinear-planar",
         "float", "bool"],
)
def test_gamma_series_refuses_malformed_cells_by_name(A, beta, cell, name):
    # the curve's cells are two distinct columns of the three and the planar
    # set's three with nonzero volume: a segment's three columns gave a
    # series, a negative index read the last column and 5 an IndexError;
    # 0.0 gave a TypeError and True the series of (1, 2)
    k = A.newton.dim + 1
    want = rf"^cell {re.escape(name)} is not {k} distinct columns of the {A.size} with nonzero volume$"
    with pytest.raises(ValueError, match=want):
        gamma_series(A, beta, cell, 2)
    with pytest.raises(ValueError, match=want):
        gamma_series(A, beta, cell, 2, base_exponent=(0,) * A.size)


def test_gamma_series_resonant_rejected():
    with pytest.raises(ResonantParameterError):
        gamma_series(C013, (0, 0), (0, 2), 3)


def test_euler_annihilates():
    s = gamma_series(C013, BETA, (0, 2), 4)
    for i in range(2):
        assert not apply_euler(s, i).term_items


def test_box_detects_perturbation():
    s = gamma_series(C013, BETA, (0, 2), 6)
    w = toric_kernel_basis(C013)[0]
    target = w if w in s.region else tuple(-a for a in w)
    terms = dict(s.term_items)
    terms[target] = terms.get(target, Fraction(0)) + 1
    bad = TruncatedSeries.make(s.config, s.beta, s.base_exponent, terms, s.region, s.truncation_order)
    report = annihilation_check(bad)
    assert not report
    assert report.determined_nonzero


def test_zero_series_passes():
    s = TruncatedSeries.make(C013, BETA, gamma_series(C013, BETA, (0, 2), 2).base_exponent,
                             {}, gamma_series(C013, BETA, (0, 2), 2).region, 2)
    assert annihilation_check(s)


def test_antiderivative_roundtrip():
    s = gamma_series(C013, BETA, (0, 2), 4)
    gamma = (1, 0, 2)
    assert differentiate(antiderivative(s, gamma), gamma).term_items == s.term_items
    anti = antiderivative(differentiate(s, gamma), gamma)
    # derivative first can only kill terms, never change surviving ones
    for u, c in anti.term_items:
        assert s.coefficient(u) == c


def test_single_term_antiderivative():
    s = gamma_series(SIMPLEX, (1, Fraction(1, 3), Fraction(1, 3)), (0, 1, 2), 2)
    a = antiderivative(s, (1, 0, 0))
    (u, c), = a.term_items
    assert c == 1 / (s.base_exponent[0] + 1)
    assert a.base_exponent[0] == s.base_exponent[0] + 1


def test_kernel_shift_acts_as_identity():
    s = gamma_series(C013, BETA, (0, 2), 6)
    w = toric_kernel_basis(C013)[0]
    moved = shift_inverse(s, w)
    assert moved.base_exponent == tuple(
        v + a for v, a in zip(s.base_exponent, w)
    )
    # del^{-w} with A w = 0 acts as the identity: same function, offsets
    # re-indexed by w (the exponent v + w + m equals v + (m + w))
    for m in moved.region:
        shifted = tuple(a + b for a, b in zip(m, w))
        if shifted in s.region:
            assert moved.coefficient(m) == s.coefficient(shifted)


def test_kernel_slice_representative():
    u0 = kernel_slice_representative(C0123, 2, 0)
    assert u0 == (0, 0, 0, 0)
    for ell in range(1, 5):
        u = kernel_slice_representative(C0123, 2, ell)
        assert u[2] == ell
        assert image(C0123, u) == (0, 0)
    # slices can be empty: the dense quadratic's kernel hits its middle
    # column only with even coefficients
    C012 = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2)])
    assert kernel_slice_representative(C012, 1, 1) is None
    assert kernel_slice_representative(C012, 1, 2) is not None
    assert kernel_slice_representative(SIMPLEX, 1, 3) is None


def test_kernel_slices_and_restrictions_need_an_existing_column():
    # -1 read column 3's slice, and restricted at column 3; 4 and 9 raised a
    # bare IndexError from inside
    F = extend_solution(gamma_series(C013, BETA, (0, 2), 4), C0123, 2, BETA, 2)
    for k in (-1, 4):
        with pytest.raises(IndexError, match=f"^column {k} out of range$"):
            kernel_slice_representative(C0123, k, 1)
    for k in (-1, 9):
        with pytest.raises(IndexError, match=f"^column {k} out of range$"):
            restrict_to_zero(F, k)


def test_extension_at_another_insert_position():
    # delete the second column of {0,1,2,3} and extend back
    A = C0123
    A_k = A.delete(1)  # support {0, 2, 3}
    beta = (Fraction(1, 5), Fraction(1, 2))
    psi = gamma_series(A_k, beta, (0, 2), 8)
    F = extend_solution(psi, A, 1, beta, 5)
    assert annihilation_check(F)
    back = restrict_to_zero(F, 1)
    assert back.terms == psi.terms


def test_extension_pipeline():
    psi = gamma_series(C013, BETA, (0, 2), 8)
    F = extend_solution(psi, C0123, 2, BETA, 6)
    back = restrict_to_zero(F, 2)
    assert back.base_exponent == psi.base_exponent
    assert back.terms == psi.terms
    report = annihilation_check(F)
    assert report, report.determined_nonzero
    assert report.determined_zero > 0


def test_toric_kernel_is_computed_once_per_configuration(monkeypatch):
    kernels, kernel = [], hyper.integer_kernel_basis

    def spy(rows, n):
        kernels.append(rows)
        return kernel(rows, n)

    monkeypatch.setattr(hyper, "integer_kernel_basis", spy)
    # labels of its own keep A and A - k out of the cache entries of other tests
    cols = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1)]
    A = PointConfiguration.from_columns(cols, [f"once{j}" for j in range(5)])
    A_k = A.delete(3)
    beta = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    psi = gamma_series(A_k, beta, (0, 1, 2), 10)
    F = extend_solution(psi, A, 3, beta, 4)
    assert annihilation_check(F)
    assert restrict_to_zero(F, 3).terms == psi.terms
    toric = [rows for rows in kernels if rows in (A.matrix, A_k.matrix)]
    assert sorted(toric) == sorted([A.matrix, A_k.matrix])


def ref_kernel_slice_representative(A, k, ell):
    """kernel_slice_representative with its slice data computed on every call."""
    basis = toric_kernel_basis(A)
    kcoords = [w[k] for w in basis]
    g = gcd(*kcoords)
    if g == 0:
        return None if ell else (0,) * A.size
    if ell % g:
        return None
    coeffs = hyper._bezout_combination(kcoords, g)
    u = tuple((ell // g) * sum(c * w[j] for c, w in zip(coeffs, basis)) for j in range(A.size))
    rel = integer_kernel_basis([kcoords], len(kcoords))
    for r in rel:
        z = tuple(sum(r[l] * basis[l][j] for l in range(len(basis))) for j in range(A.size))
        better = True
        while better:
            better = False
            for t in (1, -1):
                cand = tuple(a + t * b for a, b in zip(u, z))
                if sum(map(abs, cand)) < sum(map(abs, u)):
                    u, better = cand, True
    return u


def test_slice_data_is_computed_once_per_column(monkeypatch):
    calls, kernel = [], hyper.integer_kernel_basis

    def spy(rows, n):
        calls.append(rows)
        return kernel(rows, n)

    monkeypatch.setattr(hyper, "integer_kernel_basis", spy)
    # labels of its own keep A and A - k out of the cache entries of other tests
    A = PointConfiguration.from_columns([(1, a) for a in (0, 1, 2, 3)], ["slice0", "slice1", "slice2", "slice3"])
    beta = (Fraction(1, 3), Fraction(1, 5))
    psi = gamma_series(A.delete(2), beta, (0, 2), 6)
    extend_solution(psi, A, 2, beta, 8)
    kernel_slice_representative(A, 1, 3)
    kcoords = [[[w[k] for w in toric_kernel_basis(A)]] for k in (2, 1)]
    assert [rows for rows in calls if rows in kcoords] == kcoords
    monkeypatch.undo()
    for B in (A, C013, C0123, SIMPLEX, PointConfiguration.from_columns([(1, 0), (1, 2), (1, 4), (1, 6)])):
        for k in range(B.size):
            for ell in range(7):
                assert kernel_slice_representative(B, k, ell) == ref_kernel_slice_representative(B, k, ell)


def test_extension_zero_input():
    psi = gamma_series(C013, BETA, (0, 2), 4)
    zero = TruncatedSeries.make(C013, BETA, psi.base_exponent, {}, psi.region, 4)
    F = extend_solution(zero, C0123, 2, BETA, 4)
    assert not F.term_items


def test_extension_is_linear():
    psi = gamma_series(C013, BETA, (0, 2), 6)
    psi2 = psi.scaled(Fraction(3, 7))
    lhs = extend_solution(psi.plus(psi2), C0123, 2, BETA, 4)
    rhs = extend_solution(psi, C0123, 2, BETA, 4).plus(
        extend_solution(psi2, C0123, 2, BETA, 4)
    )
    assert lhs.term_items == rhs.term_items


def test_psi_ell_independent_of_representative():
    # the kernel of the enlarged curve has rank 2, so the slice at a given
    # ell has many representatives; the shifted series must agree
    from gkzkit.hyper import _drop
    from gkzkit.intlinalg import integer_kernel_basis

    psi = gamma_series(C013, BETA, (0, 2), 8)
    u = kernel_slice_representative(C0123, 2, 2)
    basis = toric_kernel_basis(C0123)
    rel = integer_kernel_basis([[w[2] for w in basis]], len(basis))[0]
    z = tuple(sum(rel[l] * basis[l][j] for l in range(len(basis))) for j in range(4))
    assert z[2] == 0 and any(z)
    alt = tuple(a + b for a, b in zip(u, z))
    assert alt[2] == 2
    s1 = shift_inverse(psi, _drop(u, 2))
    s2 = shift_inverse(psi, _drop(alt, 2))
    # same underlying function: compare at matching exponents v1 + m = v2 + m2
    shift = tuple(b - a for a, b in zip(s1.base_exponent, s2.base_exponent))
    assert all(x.denominator == 1 for x in shift)
    shift = tuple(int(x) for x in shift)
    matched = 0
    for m in s1.region:
        m2 = tuple(a - b for a, b in zip(m, shift))
        if m2 in s2.region:
            matched += 1
            assert s2.coefficient(m2) == s1.coefficient(m)
    assert matched > 0


def test_gamma_series_order_prefix_stability():
    small = gamma_series(C013, BETA, (0, 2), 6)
    large = gamma_series(C013, BETA, (0, 2), 18)
    for u, c in small.term_items:
        assert large.coefficient(u) == c
    assert small.region <= large.region


def test_rank_volume():
    # the generic holonomic rank is the normalized volume of the Newton polytope
    assert C013.volume == 3
    assert C0123.volume == 3
    assert SIMPLEX.volume == 1
    tri = PointConfiguration.from_columns(
        [(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 1, 0), (1, 0, 2)]
    )
    assert tri.volume == 9


@pytest.mark.parametrize("vector", [(1.5, 0, 0), (0, Fraction(1, 2), 0), (0, "x", 1)])
def test_non_integral_exponent_vectors_are_rejected(vector):
    # the vector was truncated by int(): (1.5, 0, 0) differentiated by (1, 0, 0)
    s = gamma_series(C013, BETA, (0, 2), 4)
    for op in (differentiate, antiderivative, shift_inverse):
        with pytest.raises(ValueError):
            op(s, vector)
    # integral values of other types still act as their integers
    assert differentiate(s, (1.0, Fraction(0), 0)) == differentiate(s, (1, 0, 0))


def test_extension_checks_its_inputs():
    psi = gamma_series(C013, BETA, (0, 2), 8)  # C0123 without column 2
    for k in (4, -1):
        with pytest.raises(IndexError, match=f"^column {k} out of range$"):
            extend_solution(psi, C0123, k, BETA, 2)
    with pytest.raises(ValueError, match="must live on the configuration minus column k"):
        extend_solution(psi, C0123, 1, BETA, 2)
    C012 = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2)])
    with pytest.raises(ValueError, match="must not be a vertex"):
        extend_solution(gamma_series(C012, BETA, (0, 2), 4), C0123, 3, BETA, 2)
    C02 = PointConfiguration.from_columns([(1, 0), (1, 2)])  # index 2 in Z^2
    C021 = PointConfiguration.from_columns([(1, 0), (1, 2), (1, 1)])
    with pytest.raises(ValueError, match="must not change the group lattice"):
        extend_solution(gamma_series(C02, BETA, (0, 1), 4), C021, 2, BETA, 2)


def test_negative_orders_are_rejected():
    with pytest.raises(ValueError, match="order must be nonnegative, got -3"):
        gamma_series(C013, BETA, (0, 2), -3)
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        kernel_ball(toric_kernel_basis(C013), -1)
    # a rank-0 kernel builds no ball; the order is checked all the same
    with pytest.raises(ValueError, match="order must be nonnegative"):
        gamma_series(SIMPLEX, (1, Fraction(1, 3), Fraction(1, 3)), (0, 1, 2), -1)
    # the extension gave a series with an empty region, which passed the
    # annihilation check
    psi = gamma_series(C013, BETA, (0, 2), 8)
    with pytest.raises(ValueError, match="order must be nonnegative, got -2"):
        extend_solution(psi, C0123, 2, BETA, -2)
    assert extend_solution(psi, C0123, 2, BETA, 0).region
    assert kernel_ball(toric_kernel_basis(C013), 0) == ((0, 0, 0),)
