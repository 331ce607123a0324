"""Differential tests: the curves' principal determinants and squarefree
certificates from Bezout matrices, against the Sylvester matrices they
replaced.

The references are the earlier routes, references since commit c3851d4,
which replaced them, kept verbatim: the principal determinant E as the
symbolic 2 delta x 2 delta Sylvester resultant of f and z f'
(``ref_principal_determinant``), and the squarefree test as the
nonsingularity of the integer Sylvester matrix of p and p' on a line
specialization (``ref_sylvester_squarefree``).  The library now expands the
delta x delta Bezout matrix of f and z f', and decides squarefreeness on the
deg x deg integer Bezout matrix of p and p'.  They stay as the routes the
Bezout matrices replaced; the Fraction Euclid of
``test_elimination_routes.py`` is the older squarefree route.
"""

import random
from fractions import Fraction
from functools import lru_cache

from _corpus import curve_supports, outcome, random_poly
from test_elimination_routes import _ref_poly_gcd_univariate
from gkzkit import curves
from gkzkit.curves import (
    FactorizationReport,
    MonomialCurveConfig,
    _coordinate_free_factor,
    _principal_determinant_from_support,
    _univariate_squarefree,
    restriction_factors_divide,
    verify_factorization,
)
from gkzkit.intlinalg import det_fraction, rational_rank
from gkzkit.polynomials import (
    bezout_matrix,
    determinant,
    normalize_sign,
    pmul,
    primitive_part,
)

# Supports past the symbolic budget on which the Sylvester expansion still
# takes well under a second: a sparse one of each length 3, 4 and 4.
SPARSE = ((0, 1, 9), (0, 2, 5, 9), (0, 3, 7, 10))
SUPPORTS = (*curve_supports(6), *SPARSE)


# -- the earlier routes, the references -------------------------------------------


def ref_sylvester_matrix(p, q):
    """Sylvester matrix of two polynomials in z given as coefficient lists,
    p[j] the coefficient of z^j: deg q shifted rows of p's coefficients above
    deg p shifted rows of q's, highest power first, 0 elsewhere."""
    m, n = len(p) - 1, len(q) - 1
    rows = []
    for coeffs, copies in ((p, n), (q, m)):
        for shift in range(copies):
            row = [0] * (m + n)
            for j, c in enumerate(coeffs):
                row[shift + len(coeffs) - 1 - j] = c
            rows.append(row)
    return rows


def ref_sylvester_resultant(pdeg: int, qdeg: int, var_exps_p, var_exps_q):
    """Resultant in an eliminated variable z of two polynomials given as
    coefficient lists: var_exps_p[j] is the coefficient polynomial of z^j."""
    return determinant(ref_sylvester_matrix(var_exps_p[: pdeg + 1], var_exps_q[: qdeg + 1]))


@lru_cache(maxsize=None)
def _ref_principal_determinant(exps):
    exps = tuple(exps)
    delta = exps[-1]
    nvars = len(exps)
    f_coeffs = [{} for _ in range(delta + 1)]
    g_coeffs = [{} for _ in range(delta + 1)]
    for i, a in enumerate(exps):
        f_coeffs[a] = {tuple(1 if j == i else 0 for j in range(nvars)): 1}
        if a:
            g_coeffs[a] = {tuple(1 if j == i else 0 for j in range(nvars)): a}
    res = ref_sylvester_resultant(delta, delta, f_coeffs, g_coeffs)
    return normalize_sign(primitive_part(res))


def ref_principal_determinant(exps) -> dict:
    """Sylvester resultant of f and z f' for the support, content removed."""
    return dict(_ref_principal_determinant(tuple(exps)))


def ref_sylvester_squarefree(p) -> bool:
    """Is the squarefree-ness witnessed on a random line specialization?

    On a line where p keeps its degree, p and p' have leading coefficients
    that do not vanish, so they are coprime iff their integer Sylvester
    matrix is nonsingular.
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
        der = [d * c for d, c in enumerate(coeffs)][1:]
        return det_fraction(ref_sylvester_matrix(coeffs, der)) != 0
    raise AssertionError("no generic specialization line found")


def _pairs(p, q):
    """The (a, b, p_a q_b - p_b q_a) triples of ``bezout_matrix`` for integer
    coefficient lists, padded to equal length."""
    n = max(len(p), len(q))
    p, q = [*p, *[0] * (n - len(p))], [*q, *[0] * (n - len(q))]
    return [(a, b, p[a] * q[b] - p[b] * q[a]) for a in range(n) for b in range(a + 1, n)]


def _times(p, q):
    """The product of two integer coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _ref_gcd_degree(p, q):
    """deg gcd(p, q) by the Fraction Euclid of the squarefree reference."""
    return len(_ref_poly_gcd_univariate([Fraction(c) for c in p], [Fraction(c) for c in q])) - 1


# -- the tests ----------------------------------------------------------------------


def test_principal_determinants_match_the_sylvester_expansion():
    assert len(SUPPORTS) == 53 + len(SPARSE)
    sizes = set()
    for e in SUPPORTS:
        E = _principal_determinant_from_support(e)
        assert E == ref_principal_determinant(e), e
        sizes.add(len(E))
    assert len(sizes) > 10  # from the binomial discriminant up to dozens of terms


def test_bezout_determinant_is_the_resultant_up_to_sign():
    rng = random.Random(3401)
    signs = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        p, q = ([rng.randint(-4, 4) for _ in range(n)] + [rng.choice((-2, -1, 1, 3))] for _ in "pq")
        res = det_fraction(ref_sylvester_matrix(p, q))
        bez = det_fraction(bezout_matrix(n, _pairs(p, q)))
        assert abs(bez) == abs(res), (p, q)
        if res:
            signs.add(bez / res)
    assert signs == {1, -1}


def test_bezout_nullity_is_the_degree_of_the_gcd():
    rng = random.Random(3402)
    nullities = set()
    for _ in range(300):
        # p and q share a factor g of degree 0-3
        g = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice((-1, 1, 2))]
        f = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.choice((-1, 1, 2))]
        h = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        p, q = _times(g, f), _times(g, h) if h else []
        while q and not q[-1]:
            q.pop()
        n = max(len(p), len(q)) - 1
        if n < 1 or not q:
            continue
        nullity = n - rational_rank(bezout_matrix(n, _pairs(p, q)))
        assert nullity == _ref_gcd_degree(p, q), (p, q)
        nullities.add(nullity)
    assert {0, 1, 2, 3} <= nullities


def test_squarefree_matches_the_sylvester_route():
    rng = random.Random(1203)
    polys = [{(0, 0): 7}]
    for _ in range(120):
        nvars = rng.randint(2, 4)
        polys.append(random_poly(rng, nvars, rng.randint(1, 5), 3))
    for e in curve_supports(6):
        D = _coordinate_free_factor(ref_principal_determinant(e))
        polys += [D, pmul(D, D)]
    verdicts = []
    for p in polys:
        got = outcome(_univariate_squarefree, p)
        assert got == outcome(ref_sylvester_squarefree, p), p
        verdicts.append(got)
    assert verdicts.count(("value", True)) > 60 and verdicts.count(("value", False)) > 60


def test_factorization_and_restriction_match_the_sylvester_route(monkeypatch):
    got, ref = [], []
    for routes in (got, ref):
        if routes is ref:
            monkeypatch.setattr(curves, "_principal_determinant_from_support", ref_principal_determinant)
            monkeypatch.setattr(curves, "_univariate_squarefree", ref_sylvester_squarefree)
        for e in curve_supports(6):
            cfg = MonomialCurveConfig(e)
            routes.append(curves.discriminant_curve(cfg))
            routes.append(verify_factorization(cfg))
            routes.extend(restriction_factors_divide(cfg, i) for i in range(1, cfg.size - 1))
    assert got == ref
    reports = [r for r in got if isinstance(r, FactorizationReport)]
    assert len(reports) == 53 and all(reports)
