"""Differential tests: the hull's start simplex and its facets, the curve
squarefree test, the factorization check and the lattice-redundancy test,
against the routes they replaced.

The references are the earlier routes, kept verbatim, each the route the
library replaced and the oldest one left for its layer:

- ``ref_start``, a reference since commit 26f6854: the start as the
  simplex's pivot columns plus one integer kernel per facet.  The start
  under test goes through the one elimination kernel ``intlinalg._reduce``.
- ``ref_univariate_squarefree``, ``ref_verify_factorization`` and
  ``ref_is_lattice_redundant``, references since commit c581642: the
  squarefree test as a Fraction Euclid on a line specialization, the
  factorization check dividing the coordinate-free part by the discriminant
  until it stops, and the redundancy test comparing the spans of a face
  with and without the point.  The spans stay in ambient coordinates,
  through the test's ``ambient_span``, where the library compares lattices
  of chart differences.

(The chart's ambient functional is compared with Gauss-Jordan in
``tests/test_chart_routes.py``.)
"""

import random
from fractions import Fraction

import pytest

from _corpus import (
    OBSTRUCTED,
    ambient_span,
    curve_supports,
    hull_corpus,
    outcome,
    random_curve_config,
    random_planar_config,
    random_poly,
    skewed_configs,
)
from gkzkit import polytope
from gkzkit.configuration import (
    PointConfiguration,
    RedundancyReport,
    is_lattice_redundant,
    multiplicity,
)
from gkzkit.curves import (
    FactorizationReport,
    MonomialCurveConfig,
    _coordinate_free_factor,
    _univariate_squarefree,
    principal_determinant_curve,
    verify_factorization,
)
from gkzkit.intlinalg import _reduce, dot, integer_kernel_basis, rational_rank, vsub
from gkzkit.polynomials import (
    normalize_sign,
    pdivmod_exact,
    pmul,
    primitive_part,
    strip_monomial_content,
    support,
)
from gkzkit.polytope import BudgetError, _start, convex_hull
from gkzkit.secondary import secondary_polytope

# the cyclic 6-polytope on 24 points, whose hull exceeds the pair budget
CYCLIC = [tuple(t**k for k in range(7)) for t in range(24)]


# -- the earlier routes, the references -------------------------------------------


def ref_start(icoords, dim):
    """The earlier start of the double-description pass: ``_simplex`` and its
    loop of one integer kernel per facet."""
    base = icoords[0]
    rows = list(zip(*(vsub(x, base) for x in icoords)))
    start = [0, *_reduce(rows, len(icoords))[0]]
    rays = []
    for j in start:
        on = [i for i in start if i != j]
        base = icoords[on[0]]
        (h,) = integer_kernel_basis([vsub(icoords[i], base) for i in on[1:]], dim)
        c = dot(h, base)
        if dot(h, icoords[j]) > c:
            h, c = tuple(-a for a in h), -c
        rays.append((h, c, sum(1 << i for i in on)))
    return start, rays


def ref_univariate_squarefree(p) -> bool:
    """Is the squarefree-ness witnessed on a random line specialization?"""
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
            # expand prod (a_i + b_i t)^{e_i} in integers; only the gcd needs rationals
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
        coeffs = [Fraction(c) for c in coeffs]
        der = [d * c for d, c in enumerate(coeffs)][1:]
        g = _ref_poly_gcd_univariate(coeffs, der)
        return len(g) == 1
    raise AssertionError("no generic specialization line found")


def _ref_poly_gcd_univariate(p, q):
    p = list(p)
    q = list(q)
    while q and all(c == 0 for c in q):
        q = []
    while q:
        r = _ref_poly_mod(p, q)
        p, q = q, r
    lead = p[-1]
    return [c / lead for c in p]


def _ref_poly_mod(p, q):
    p = list(p)
    dq = len(q) - 1
    while len(p) - 1 >= dq and any(c != 0 for c in p):
        if p[-1] == 0:
            p.pop()
            continue
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p.pop()
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_coordinate_free_factor(E) -> dict:
    """E without its monomial and integer content, certified squarefree."""
    _, rest = strip_monomial_content(E)
    rest = normalize_sign(primitive_part(rest))
    if rest and max(sum(e) for e in rest) > 0:
        if not ref_univariate_squarefree(rest):
            raise AssertionError("coordinate-free factor is not squarefree")
    return rest


def ref_verify_factorization(cfg: MonomialCurveConfig) -> FactorizationReport:
    """Check the face factorization of the principal determinant against the
    independently computed multiplicities, and its Newton polytope against
    the secondary polytope."""
    E = principal_determinant_curve(cfg)
    shifts, rest = strip_monomial_content(E)
    rest = normalize_sign(primitive_part(rest))
    # The discriminant is read off the same E: one resultant expansion per support.
    D = ref_coordinate_free_factor(E)
    trivial_discriminant = max((sum(e) for e in D), default=0) == 0
    power = 0
    work = dict(rest)
    if not trivial_discriminant:
        while True:
            q = pdivmod_exact(work, D)
            if q is None:
                break
            work = q
            power += 1
    constant_left = max((sum(e) for e in work), default=0) == 0
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
        constant_left
        and interior_clean
        and shifts[0] == m0
        and shifts[-1] == md
        and (power == mtop == 1 or trivial_discriminant)
        and newton_ok
    )
    return FactorizationReport(ok, (m0, md), tuple(shifts), power, newton_ok)


def ref_is_lattice_redundant(A: PointConfiguration, i: int) -> RedundancyReport:
    """Does removing column i keep every face lattice of the configuration?"""
    if not 0 <= i < A.size:
        raise IndexError(f"column {i} out of range")
    if i in A.newton.vertex_indices:
        return RedundancyReport(False, "point is a vertex of the Newton polytope", ())
    per_face = []
    ok = True
    for face in A.poset.faces:
        if i not in face.indices:
            continue
        # both spans anchored at the same point of the face other than i
        others = [A.points[j] for j in face.indices if j != i]
        same = ambient_span([*others, A.points[i]]) == ambient_span(others)
        per_face.append((face.indices, same))
        ok = ok and same
    reason = "all face lattices agree" if ok else "some face lattice drops"
    return RedundancyReport(ok, reason, tuple(per_face))


# -- inputs -------------------------------------------------------------------------


def _full_dimensional_sets(rng, count):
    """Integer point sets spanning their space affinely, some opening with
    repeated or collinear points so that the first pivots skip columns."""
    out = []
    while len(out) < count:
        dim = rng.randint(1, 5)
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(dim + 1, 16))]
        if rng.random() < 0.5:
            step = tuple(rng.randint(-2, 2) for _ in range(dim))
            pts[1:1] = [tuple(a + t * s for a, s in zip(pts[0], step)) for t in range(3)]
        if rational_rank([vsub(p, pts[0]) for p in pts[1:]]) == dim:
            out.append(pts)
    return out


# -- the tests ----------------------------------------------------------------------


def test_start_simplex_keeps_the_cyclic_budget_message(monkeypatch):
    with pytest.raises(BudgetError) as new:
        convex_hull(CYCLIC)
    monkeypatch.setattr(polytope, "_start", ref_start)
    with pytest.raises(BudgetError) as ref:
        convex_hull(CYCLIC)
    assert str(new.value) == str(ref.value)
    assert "of 24 points inserted" in str(new.value)


def test_start_matches_the_kernel_per_facet(monkeypatch):
    # every input the hulls of the hull corpus start from, then seeded
    # full-dimensional sets and the cyclic 6-polytope
    inputs = []

    def spy(icoords, dim):
        inputs.append((icoords, dim))
        return ref_start(icoords, dim)

    monkeypatch.setattr(polytope, "_start", spy)
    for pts in hull_corpus():
        convex_hull(pts)
    monkeypatch.undo()
    hulls = len(inputs)
    dependent = _full_dimensional_sets(random.Random(1201), 400)
    inputs += [(pts, len(pts[0])) for pts in dependent]
    inputs += [(pts, len(pts[0])) for pts in _full_dimensional_sets(random.Random(1207), 400)]
    inputs.append(([p[1:] for p in CYCLIC], 6))
    flips = 0
    for icoords, dim in inputs:
        start, rays = _start(icoords, dim)
        assert (start, rays) == ref_start(icoords, dim), icoords
        flips += _reduce([[1] * len(icoords), *map(list, zip(*icoords))], len(icoords))[1] < 0
    assert hulls >= 2000 and {d for _, d in inputs} == {1, 2, 3, 4, 5, 6}
    assert flips > 100  # elimination ends on a negative pivot: the sign flip is needed
    # most of the seed-1201 sets have a dependent point before their last
    # direction, so the start skips columns
    skipped = sum(_start(pts, len(pts[0]))[0][-1] > len(pts[0]) for pts in dependent)
    assert skipped > len(dependent) // 2


def test_squarefree_matches_the_fraction_euclid():
    rng = random.Random(1203)
    polys = [{(0, 0): 7}]
    for _ in range(120):
        nvars = rng.randint(2, 4)
        polys.append(random_poly(rng, nvars, rng.randint(1, 5), 3))
    squares = []
    for p in polys[1:61]:
        q = random_poly(rng, len(next(iter(p))), rng.randint(1, 3), 2)
        squares.append(pmul(p, pmul(q, q)))
    verdicts = []
    for p in polys + squares:
        got = outcome(_univariate_squarefree, p)
        assert got == outcome(ref_univariate_squarefree, p), p
        verdicts.append(got)
    assert ("value", True) in verdicts and ("value", False) in verdicts


def test_squarefree_matches_on_curve_discriminants_and_their_squares():
    supports = list(curve_supports(6))
    assert len(supports) == 53
    nontrivial = 0
    for e in supports:
        D = _coordinate_free_factor(principal_determinant_curve(MonomialCurveConfig(e)))
        if max((sum(x) for x in D), default=0) == 0:
            continue
        nontrivial += 1
        assert _univariate_squarefree(D) is ref_univariate_squarefree(D) is True
        square = pmul(D, D)
        assert _univariate_squarefree(square) is ref_univariate_squarefree(square) is False
    assert nontrivial == 52


def test_factorization_reports_match():
    powers = set()
    for e in curve_supports(6):
        cfg = MonomialCurveConfig(e)
        got = verify_factorization(cfg)
        assert got == ref_verify_factorization(cfg), e
        assert got.ok
        powers.add(got.discriminant_power)
    assert powers == {0, 1}


def test_redundancy_reports_match():
    rng = random.Random(1204)
    configs = [random_planar_config(rng, max_pts=8) for _ in range(25)]
    configs += [random_curve_config(rng) for _ in range(15)]
    configs += [OBSTRUCTED, PointConfiguration.from_columns([(1, 0), (1, 1), (1, 3)])]
    # flat configurations whose chart is skewed against the ambient basis
    skewed = skewed_configs(41, 60)
    verdicts, skewed_verdicts = set(), set()
    for A in configs + skewed:
        for i in range(A.size):
            got = is_lattice_redundant(A, i)
            assert got == ref_is_lattice_redundant(A, i), (A.points, i)
            verdicts.update(same for _, same in got.per_face)
            if A in skewed:
                skewed_verdicts.update(same for _, same in got.per_face)
    assert verdicts == skewed_verdicts == {True, False}
