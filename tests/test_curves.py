"""Principal determinants, discriminants, factorization, printed generators."""

import cmath
from fractions import Fraction

import pytest

from gkzkit import curves
from gkzkit.curves import (
    BudgetError,
    MonomialCurveConfig,
    beukers_generators,
    discriminant_curve,
    principal_determinant_curve,
    restriction_factors_divide,
    verify_factorization,
)
from gkzkit.polynomials import pmul


def P(dict_):  # exponent dict shorthand
    return {tuple(k): v for k, v in dict_.items()}


def test_delta1():
    E = principal_determinant_curve(MonomialCurveConfig((0, 1)))
    assert E in (P({(1, 1): 1}), P({(1, 1): -1}))


def test_delta2_dense():
    cfg = MonomialCurveConfig((0, 1, 2))
    E = principal_determinant_curve(cfg)
    # y0 y2 (y1^2 - 4 y0 y2) up to sign; leading-term normalization fixes it
    expect = {
        (1, 2, 1): 1,
        (2, 0, 2): -4,
    }
    assert E == expect
    D = discriminant_curve(cfg)
    assert D == {(0, 2, 0): 1, (1, 0, 1): -4}


def test_delta3_sparse():
    cfg = MonomialCurveConfig((0, 1, 3))
    E = principal_determinant_curve(cfg)
    expect = {
        (1, 3, 2): 4,
        (3, 0, 3): 27,
    }
    assert E == expect  # y0 y2^2 (4 y1^3 + 27 y0^2 y2)
    D = discriminant_curve(cfg)
    assert D == {(0, 3, 0): 4, (2, 0, 1): 27}


def test_delta3_dense_discriminant():
    cfg = MonomialCurveConfig((0, 1, 2, 3))
    D = discriminant_curve(cfg)
    # the classical cubic discriminant, degree 4 in the coefficients
    assert D == {
        (0, 2, 2, 0): 1,
        (0, 3, 0, 1): -4,
        (1, 0, 3, 0): -4,
        (1, 1, 1, 1): 18,
        (2, 0, 0, 2): -27,
    }


def test_verify_factorization_small_degrees():
    rep1 = verify_factorization(MonomialCurveConfig((0, 1)))
    assert rep1 and rep1.vertex_multiplicities == (1, 1)
    rep2 = verify_factorization(MonomialCurveConfig((0, 1, 2)))
    assert rep2 and rep2.vertex_multiplicities == (1, 1)
    rep3 = verify_factorization(MonomialCurveConfig((0, 1, 3)))
    assert rep3
    assert rep3.vertex_multiplicities == (1, 2)
    assert rep3.discriminant_power == 1
    assert rep3.newton_matches_secondary
    assert verify_factorization(MonomialCurveConfig((0, 1, 2, 3)))


def test_verify_factorization_expands_one_resultant(monkeypatch):
    # the discriminant is read off the principal determinant already expanded
    calls = []
    real = curves.determinant

    def counted(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(curves, "determinant", counted)
    for exps in ((0, 1, 3), (0, 1, 2, 3), (0, 1, 5, 6)):
        calls.clear()
        assert verify_factorization(MonomialCurveConfig(exps))
        assert calls == [exps[-1]]


def test_squarefree_certificate_sees_a_square():
    for exps in ((0, 1, 3), (0, 1, 2, 3), (0, 2, 3, 5)):
        D = discriminant_curve(MonomialCurveConfig(exps))
        assert curves._univariate_squarefree(D)
        assert not curves._univariate_squarefree(pmul(D, D))


def test_budget():
    with pytest.raises(BudgetError):
        principal_determinant_curve(MonomialCurveConfig((0, 1, 7)))


def test_restriction_divides():
    assert restriction_factors_divide(MonomialCurveConfig((0, 1, 2)), 1)
    assert restriction_factors_divide(MonomialCurveConfig((0, 1, 3)), 1)
    for i in (1, 2):
        assert restriction_factors_divide(MonomialCurveConfig((0, 1, 2, 3)), i)


@pytest.mark.parametrize("i", [-2, -1, 0, 2, 3])
def test_restriction_needs_a_non_vertex_column(i):
    # on three columns: the vertices 0 and size - 1 = 2, and indices off
    # the support, negative ones included
    with pytest.raises(ValueError, match="non-vertex column"):
        restriction_factors_divide(MonomialCurveConfig((0, 1, 3)), i)


def test_config_validation():
    with pytest.raises(ValueError):
        MonomialCurveConfig((0, 2, 4))
    with pytest.raises(ValueError):
        MonomialCurveConfig((1, 2))


def test_beukers_generators_structure():
    beta = (Fraction(1, 5), Fraction(1, 3))
    gens = beukers_generators(3, beta)
    g1, g2, g3 = gens.matrices
    p = cmath.exp(2j * cmath.pi / 5)
    for i in range(3):
        assert abs(g1[i][i] - p) < 1e-12
    # cube of the second generator is the scalar exp(2 pi i beta_2)
    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    g2cube = matmul(matmul(g2, g2), g2)
    scalar = cmath.exp(2j * cmath.pi / 3)
    for i in range(3):
        for j in range(3):
            target = scalar if i == j else 0
            assert abs(g2cube[i][j] - target) < 1e-12
    # the third generator is a reflection: rank(g3 - p) = 1
    assert abs(g3[1][1] - p) < 1e-12 and abs(g3[0][0] + 1) < 1e-12
    with pytest.raises(ValueError):
        beukers_generators(4, beta)


def test_verify_factorization_degree_four():
    assert verify_factorization(MonomialCurveConfig((0, 1, 4)))
    assert verify_factorization(MonomialCurveConfig((0, 1, 2, 3, 4)))


def test_reduction_to_three_point_support():
    from gkzkit.curves import reduces_to_three_point_support

    for support in ((0, 1, 3), (0, 2, 3), (0, 1, 2, 3), (0, 3, 4)):
        rep = reduces_to_three_point_support(MonomialCurveConfig(support))
        assert rep
        assert len(rep.shared_saturation) == rep.delta + 1


def test_beukers_beta_zero():
    gens = beukers_generators(3, (0, Fraction(1, 7)))
    g1, _, g3 = gens.matrices
    for i in range(3):
        for j in range(3):
            assert abs(g1[i][j] - (1 if i == j else 0)) < 1e-12
    assert abs(sum(g3[i][i] for i in range(3)) - 1) < 1e-12  # trace -1+1+1


@pytest.mark.parametrize(
    "exponents",
    [(0, 1.5, 3), (0, Fraction(5, 2), 5), (0, True, 3), (False, 1, 3), (0, "1", 3)],
)
def test_non_integer_exponents_are_rejected(exponents):
    # int() truncated these: (0, 1.5, 3) was read as (0, 1, 3)
    with pytest.raises(ValueError):
        MonomialCurveConfig(exponents)


def test_integral_exponents_of_other_types_are_integers():
    cfg = MonomialCurveConfig((0, 1.0, Fraction(3)))
    assert cfg.exponents == (0, 1, 3)
    assert all(type(a) is int for a in cfg.exponents)
