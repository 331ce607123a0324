"""Monomial-curve configurations: principal determinants, discriminants,
factorization checks, and the printed degree-3 monodromy generators.

The principal determinant of a one-variable support is the resultant of f
and z f' in the dehomogenized variable, expanded exactly over the
coefficient variables y_0 .. y_{m+1} as the determinant of their
delta x delta Bezout matrix, half the size of their Sylvester matrix.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from .configuration import PointConfiguration, multiplicity, saturate
from .intlinalg import _ints, det_fraction, record
from .polynomials import (
    bezout_matrix,
    determinant,
    normalize_sign,
    padd,
    pdivmod_exact,
    primitive_part,
    strip_monomial_content,
    substitute_zero,
    support,
)
from .polytope import BudgetError, convex_hull


# Largest toric degree whose principal determinant is expanded symbolically.
SYMBOLIC_DEGREE_CAP = 6


@record
class MonomialCurveConfig:
    exponents: tuple  # 0 = e_0 < e_1 < ... < e_last = delta

    def __post_init__(self):
        exps = tuple(self.exponents)
        if any(isinstance(a, bool) for a in exps):
            raise ValueError("exponents must be integers, not booleans")
        e = tuple(_ints(exps))
        if len(e) < 2 or e[0] != 0 or sorted(set(e)) != list(e):
            raise ValueError("need strictly increasing exponents starting at 0")
        if gcd(*e) != 1:
            raise ValueError("exponents must have gcd one")
        object.__setattr__(self, "exponents", e)

    @property
    def delta(self) -> int:
        return self.exponents[-1]

    @property
    def size(self) -> int:
        return len(self.exponents)

    def point_configuration(self) -> PointConfiguration:
        return PointConfiguration.from_columns([(1, a) for a in self.exponents])


def _principal_determinant_from_support(exps) -> dict:
    """The resultant of f and z f' for the support, content removed.

    f = sum_k y_k z^(a_k) and z f' = sum_k a_k y_k z^(a_k) both have degree
    delta, so the determinant of their Bezout matrix is their resultant up to
    sign, which ``normalize_sign`` fixes.  The pair of support points k < l
    contributes (a_l - a_k) y_k y_l to the matrix (see ``bezout_matrix``).
    """
    exps = tuple(exps)
    nvars = len(exps)
    pairs = []
    for k, l in combinations(range(nvars), 2):
        e = [0] * nvars
        e[k] = e[l] = 1
        pairs.append((exps[k], exps[l], {tuple(e): exps[l] - exps[k]}))
    return normalize_sign(primitive_part(determinant(bezout_matrix(exps[-1], pairs, padd))))


def principal_determinant_curve(cfg: MonomialCurveConfig) -> dict:
    if cfg.delta > SYMBOLIC_DEGREE_CAP:
        raise BudgetError(f"toric degree {cfg.delta} over the symbolic budget")
    return _principal_determinant_from_support(cfg.exponents)


def _univariate_squarefree(p) -> bool:
    """Is the squarefree-ness witnessed on a random line specialization?

    A square factor survives specialization to a generic line, so a
    squarefree specialization certifies the multivariate statement; a few
    retries guard against degenerate lines.  On a line where p keeps its
    degree, the integer Bezout matrix of p and p' has nullity
    deg gcd(p, p'), so p is squarefree iff that matrix is nonsingular.
    """
    if not p:
        return False
    nvars = len(next(iter(p)))
    deg = max(sum(e) for e in p)
    rng = random.Random(17)
    for _ in range(4):
        a = [rng.randrange(-9, 10) for _ in range(nvars)]
        b = [rng.randrange(-9, 10) for _ in range(nvars)]
        coeffs = [0] * (deg + 1)
        for e, c in p.items():
            # expand prod (a_i + b_i t)^{e_i} in integers
            term = [c]
            for ai, bi, ei in zip(a, b, e):
                for _ in range(ei):
                    nxt = [0] * (len(term) + 1)
                    for d, tc in enumerate(term):
                        nxt[d] += tc * ai
                        nxt[d + 1] += tc * bi
                    term = nxt
            for d, tc in enumerate(term):
                coeffs[d] += tc
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) - 1 != deg:
            continue  # degenerate direction, retry
        der = [d * c for d, c in enumerate(coeffs)][1:] + [0]
        pairs = [
            (a, b, coeffs[a] * der[b] - coeffs[b] * der[a])
            for a, b in combinations(range(deg + 1), 2)
        ]
        return det_fraction(bezout_matrix(deg, pairs)) != 0
    raise AssertionError("no generic specialization line found")


def discriminant_curve(cfg: MonomialCurveConfig) -> dict:
    """The coordinate-free factor of the principal determinant.

    For a one-dimensional configuration the only faces are the two vertices
    (coordinate factors) and the whole segment, whose discriminant enters
    with multiplicity one; squarefreeness is certified on specializations.
    """
    return _coordinate_free_factor(principal_determinant_curve(cfg))


def _coordinate_free_factor(E) -> dict:
    """E without its monomial and integer content, certified squarefree."""
    _, rest = strip_monomial_content(E)
    rest = normalize_sign(primitive_part(rest))
    if rest and max(sum(e) for e in rest) > 0:
        if not _univariate_squarefree(rest):
            raise AssertionError("coordinate-free factor is not squarefree")
    return rest


@record
class FactorizationReport:
    ok: bool
    vertex_multiplicities: tuple  # (m at vertex 0, m at vertex delta)
    coordinate_exponents: tuple  # per-variable monomial exponents of E
    discriminant_power: int
    newton_matches_secondary: bool

    def __bool__(self):
        return self.ok


def verify_factorization(cfg: MonomialCurveConfig) -> FactorizationReport:
    """Check the face factorization of the principal determinant against the
    independently computed multiplicities, and its Newton polytope against
    the secondary polytope."""
    from .secondary import secondary_polytope  # here, so edet and disc do not load it

    E = principal_determinant_curve(cfg)
    shifts, _ = strip_monomial_content(E)
    # The discriminant is read off the same E: one resultant expansion per
    # support.  D is E without its monomial and content, certified squarefree,
    # so it enters E exactly once unless it is constant.
    D = _coordinate_free_factor(E)
    trivial_discriminant = max((sum(e) for e in D), default=0) == 0
    power = 0 if trivial_discriminant else 1
    A = cfg.point_configuration()
    v0 = A.poset.face_with_indices((0,))
    vd = A.poset.face_with_indices((A.size - 1,))
    m0 = multiplicity(A, v0).mult_m
    md = multiplicity(A, vd).mult_m
    mtop = multiplicity(A, A.poset.top).mult_m
    interior_clean = all(shifts[i] == 0 for i in range(1, cfg.size - 1))
    sec = secondary_polytope(A)
    newton = convex_hull(support(E))
    newton_ok = set(newton.vertices) == set(sec.vertices)
    ok = (
        interior_clean
        and shifts[0] == m0
        and shifts[-1] == md
        and (power == mtop == 1 or trivial_discriminant)
        and newton_ok
    )
    return FactorizationReport(ok, (m0, md), tuple(shifts), power, newton_ok)


def restriction_factors_divide(cfg: MonomialCurveConfig, i: int) -> bool:
    """Restricting the principal determinant to y_i = 0 for a non-vertex
    column leaves a polynomial all of whose irreducible factors divide the
    principal determinant of the deleted support.

    The deleted discriminant is irreducible, so after stripping coordinate
    factors the restriction must be one of its powers (possibly the zeroth).
    """
    if not 0 < i < cfg.size - 1:
        raise ValueError("restriction checks need a non-vertex column")
    E = principal_determinant_curve(cfg)
    restricted = substitute_zero(E, i)
    if not restricted:
        raise AssertionError("restriction to a non-vertex hyperplane cannot vanish")
    _, rest = strip_monomial_content(restricted)
    rest = normalize_sign(primitive_part(rest))
    sub_support = tuple(a for j, a in enumerate(cfg.exponents) if j != i)
    E_sub = _principal_determinant_from_support(sub_support)
    # reinsert the deleted variable so the polynomials share an exponent space
    _, D_sub = strip_monomial_content(E_sub)
    D_sub = normalize_sign(primitive_part(D_sub))
    D_embedded = {
        tuple(e[:i]) + (0,) + tuple(e[i:]): c for e, c in D_sub.items()
    }
    work = dict(rest)
    if max((sum(e) for e in D_embedded), default=0) == 0:
        return max((sum(e) for e in work), default=0) == 0
    while max((sum(e) for e in work), default=0) > 0:
        q = pdivmod_exact(work, D_embedded)
        if q is None:
            return False
        work = q
    return True


@record
class ReductionToThreePoints:
    ok: bool
    delta: int
    shared_saturation: tuple

    def __bool__(self):
        return self.ok


def reduces_to_three_point_support(cfg: MonomialCurveConfig) -> ReductionToThreePoints:
    """Certify combinatorially that the curve shares its full saturation (and
    group lattice) with the three-point support {0, 1, delta}; monodromy for
    nonresonant parameters therefore only depends on the toric degree."""
    A = cfg.point_configuration()
    three = PointConfiguration.from_columns([(1, 0), (1, 1), (1, cfg.delta)])
    satA = set(saturate(A, "full").result.points)
    sat3 = set(saturate(three, "full").result.points)
    ok = satA == sat3 and A.group_lattice == three.group_lattice
    return ReductionToThreePoints(ok, cfg.delta, tuple(sorted(satA)))


@record
class MonodromyGenerators:
    beta: tuple
    matrices: tuple  # three square complex matrices of size delta


def beukers_generators(delta: int, beta) -> MonodromyGenerators:
    """The three printed generators for toric degree three.

    g1 is the scalar rotation of all coefficients, g2 has cube equal to the
    scalar exp(2 pi i beta_2), and g3 is a complex reflection.
    """
    if delta != 3:
        raise ValueError("generators are tabulated for toric degree 3 only")
    b1, b2 = (Fraction(b) for b in beta)
    p = cmath.exp(2j * cmath.pi * float(b1))
    q = cmath.exp(2j * cmath.pi * float(b2 - b1))
    g1 = ((p, 0, 0), (0, p, 0), (0, 0, p))
    g2 = ((0, 1, 0), (0, 0, q), (p, 0, 0))
    g3 = ((-1, 1, 1), (0, p, 0), (0, 0, p))
    return MonodromyGenerators((b1, b2), (g1, g2, g3))
