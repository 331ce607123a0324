"""Deterministic corpora shared by the test modules, and the small helpers
that build or read them.

Every input that more than one test module runs lives here, so that test
modules import nothing from each other but references (``ref_*``), which
``tests/test_imports.py`` checks.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from gkzkit.configuration import PointConfiguration, saturate
from gkzkit.intlinalg import _hnf, rational_rank, vsub
from gkzkit.lattice import Lattice, hnf_solve
from gkzkit.polytope import convex_hull, lattice_points_in

# The three planar sets of the benchmark catalog, and the "mother of all
# examples": a triangle with a homothetic inner triangle, whose two twisted
# triangulations are not regular.
CATALOG = (
    ((0, 0), (1, 0), (0, 1), (2, 2), (1, 1)),
    ((0, 0), (2, 0), (0, 1), (1, 1), (1, 0)),
    ((0, 0), (1, 0), (2, 1), (1, 2), (1, 1)),
)
MOTHER = ((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2))

# A 3-polytope whose "s" reduction chain is stuck, and whose s-saturation has
# a vertex with rank-3 quotient images.
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


def integral_multiple(points):
    """(D * points as int tuples, D), D the least common denominator of the
    entries: the integer points that ``convex_hull`` takes for a rational
    set, with the same combinatorics, and volumes scaled by D^dim."""
    D = lcm(*(Fraction(a).denominator for p in points for a in p))
    return [tuple(int(a * D) for a in p) for p in points], D


# -- configurations ------------------------------------------------------------------


def random_planar_config(rng: random.Random, max_coord=3, min_pts=4, max_pts=7):
    """A quasi-homogeneous configuration with a two-dimensional hull."""
    while True:
        n = rng.randint(min_pts, max_pts)
        pts = set()
        guard = 0
        while len(pts) < n and guard < 200:
            pts.add((1, rng.randint(0, max_coord), rng.randint(0, max_coord)))
            guard += 1
        pts = sorted(pts)
        if len(pts) < 3:
            continue
        diffs = [vsub(p, pts[0]) for p in pts[1:]]
        if rational_rank(diffs) == 2:
            return PointConfiguration.from_columns(pts)


def random_curve_config(rng: random.Random, max_delta=6, min_pts=3, max_pts=5):
    """A one-dimensional configuration 0 = a_0 < ... < a_last."""
    while True:
        delta = rng.randint(2, max_delta)
        n = rng.randint(min_pts, min(max_pts, delta + 1))
        inner = sorted(rng.sample(range(1, delta), n - 2)) if n > 2 else []
        support = [0, *inner, delta]
        return PointConfiguration.from_columns([(1, a) for a in support])


def random_small_config(rng: random.Random):
    if rng.random() < 0.5:
        return random_curve_config(rng)
    return random_planar_config(rng)


def criterion_8_configs(count):
    """The first ``count`` configurations of acceptance criterion 8's corpus."""
    rng = random.Random(88)
    return [random_small_config(rng) for _ in range(count)]


def solid_configs(seed, count):
    """Seeded 3-polytopes with vertices in [0, 2]^3, and their face saturations."""
    rng = random.Random(seed)
    out = []
    while len(out) < 2 * count:
        pts = sorted(
            {(1, *(rng.randint(0, 2) for _ in range(3))) for _ in range(rng.randint(5, 6))}
        )
        if len(pts) < 4 or rational_rank([vsub(p, pts[0]) for p in pts[1:]]) != 3:
            continue
        A = PointConfiguration.from_columns(pts)
        out += [A, saturate(A, "s").result]
    return out


def face_corpus():
    """The configurations of acceptance criterion 8, OBSTRUCTED and its
    s-saturation, and the seeded 3-polytopes."""
    return (
        criterion_8_configs(100)
        + [OBSTRUCTED, saturate(OBSTRUCTED, "s").result]
        + solid_configs(9, 25)
    )


def skewed_configs(seed, count):
    """Flat configurations of the columns (1, M y): chart points y in
    {-1, 0, 1}^k, k = 1..4, spanning their space affinely, embedded by a
    seeded integer matrix M of rank k with 2-4 rows and entries in -2..2, so
    the ambient dimension is 3-5 and the ambient HNF basis of a face's
    differences is skewed against the HNF basis of its chart differences."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(1, 4)
        n = rng.randint(max(2, k), 4)
        M = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        if rational_rank(M) < k:
            continue
        ys = {tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(rng.randint(k + 1, k + 5))}
        if convex_hull(sorted(ys)).dim < k:
            continue
        cols = [(1, *(sum(a * b for a, b in zip(row, y)) for row in M)) for y in sorted(ys)]
        out.append(PointConfiguration.from_columns(cols))
    return out


def ambient_span(points):
    """(anchor, difference lattice): the affine lattice of the points in
    ambient coordinates, anchored at the first one."""
    anchor = tuple(points[0])
    return anchor, Lattice.from_generators([vsub(p, anchor) for p in points[1:]], len(anchor))


def collinear(n):
    """The vertex (1, 0, 0) and n + 1 points whose images at it lie on a segment."""
    return PointConfiguration.from_columns([(1, 0, 0)] + [(1, k, n - k) for k in range(n + 1)])


def coplanar(n):
    """The vertex (1, 0, 0, 0) and the points whose images at it lie on a triangle."""
    pts = [(1, a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    return PointConfiguration.from_columns([(1, 0, 0, 0)] + pts)


def config(points, labels=None):
    """The homogenised configuration of the points (1, p)."""
    return PointConfiguration.from_columns([(1, *p) for p in points], labels)


def _family():
    """Segments of 3-7 points, planar sets of 4-6, the catalog and the mother
    of all examples."""
    rng = random.Random(7)
    out = [config([(a,) for a in sorted(rng.sample(range(10), n))]) for n in range(3, 8)]
    grid = [(x, y) for x in range(4) for y in range(4)]
    for n in (4, 5, 6):
        A = config(rng.sample(grid, n))
        while len(A.chart_points[0]) != 2:
            A = config(rng.sample(grid, n))
        out.append(A)
    return out + [config(points) for points in (*CATALOG, MOTHER)]


FAMILY = _family()


def cover_family():
    """Segments of 3-8 points, planar sets of 4-6, 3-dimensional sets of 5-6
    points and the catalog: small enough for the enumeration of every cover."""
    rng = random.Random(3)
    out = []
    for n in range(3, 9):
        out.append(config([(a,) for a in sorted(rng.sample(range(12), n))]))
    grid = [(x, y) for x in range(4) for y in range(4)]
    for n in (4, 5, 6):
        out.append(config(rng.sample(grid, n)))
    box = [(x, y, z) for x in range(2) for y in range(2) for z in range(3)]
    for n in (5, 6, 6):
        A = config(rng.sample(box, n))
        while len(A.chart_points[0]) != 3:
            A = config(rng.sample(box, n))
        out.append(A)
    return out + [config(pts) for pts in CATALOG]


# The 9-point segment, the 3x3 grid and the unit cube, with their numbers of
# regular triangulations (De Loera-Rambau-Santos, Triangulations, 2010).
LARGE = (
    (config([(a,) for a in range(9)]), 128),
    (config([(x, y) for x in range(3) for y in range(3)]), 387),
    (config([(x, y, z) for x in range(2) for y in range(2) for z in range(2)]), 74),
)


# the saturations benchmark draws its heights as integers in this range over
# this denominator
HEIGHT_RANGE = 10**6
HEIGHT_DENOMINATOR = 997


def random_heights(rng, A):
    """One height per column of A, drawn as the saturations benchmark draws them."""
    return [Fraction(rng.randrange(-HEIGHT_RANGE, HEIGHT_RANGE), HEIGHT_DENOMINATOR)
            for _ in range(A.size)]


def random_beta(rng: random.Random, A, planted: bool):
    """Rational parameters; with `planted`, force resonance with an integer
    translate inside the [-5, 5] box so the brute-force oracle can see it."""
    n = A.ambient_dim
    if planted:
        d = A.newton.dim
        faces = A.poset.of_dim(d - 1)
        face = faces[rng.randrange(len(faces))]
        gamma = [rng.randint(-2, 2) for _ in range(n)]
        pts = A.face_points(face)
        coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in pts]
        beta = [
            Fraction(g) + sum(c * p[i] for c, p in zip(coeffs, pts))
            for i, g in enumerate(gamma)
        ]
        return tuple(beta)
    return tuple(
        Fraction(rng.randint(-6, 6), rng.choice([2, 3, 4, 5, 6, 7]))
        for _ in range(n)
    )


# -- point sets ----------------------------------------------------------------------


def _hull_point_set(rng):
    """(points, D): up to ten points of a random lattice of rank 1-4,
    embedded in ambient dimension up to 6 and translated, some repeated.
    Some sets are rational; they are scaled to integers by their least
    common denominator D, so their charts are proper sublattices."""
    dim = rng.randint(1, 4)
    ambient = rng.randint(dim, min(6, dim + 2))
    denominators = (1, 2, 3) if rng.random() < 0.2 else (1,)
    basis = [
        [Fraction(rng.randint(-2, 2), rng.choice(denominators)) for _ in range(ambient)]
        for _ in range(dim)
    ]
    shift = [rng.randint(-3, 3) for _ in range(ambient)]
    pts = []
    for _ in range(rng.randint(1, 10 if dim < 4 else 9)):
        if pts and rng.random() < 0.15:
            pts.append(rng.choice(pts))
            continue
        m = [rng.randint(-2, 2) for _ in range(dim)]
        p = [a + sum(k * b[j] for k, b in zip(m, basis)) for j, a in enumerate(shift)]
        pts.append(tuple(p))
    return integral_multiple(pts)


def scaled_hull_corpus():
    """The seeded hull sets as (points, D), D > 1 for a scaled rational set,
    and the fixed sets with D = 1."""
    rng = random.Random(20261018)
    sets = [_hull_point_set(rng) for _ in range(2600)]
    fixed = [[(1, *p) for p in points] for points in (*CATALOG, MOTHER)]
    fixed.append([(t, t * t, t**3, t**4) for t in range(9)])  # a cyclic 4-polytope
    fixed.append([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)] * 2)
    return sets + [(pts, 1) for pts in fixed]


def hull_corpus():
    return [pts for pts, _ in scaled_hull_corpus()]


def random_coord(rng, rational):
    a = rng.randint(-3, 3)
    return Fraction(a, rng.randint(1, 4)) if rational else a


def chart_point_sets(seed, count):
    """(rng, points): seeded point sets, ambient dimension 1-5, some flat.
    Some are drawn rational and scaled to integers by their least common
    denominator."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        rational = rng.random() < 0.4
        k = rng.randint(1, 7)
        if rng.random() < 0.35:  # on an affine subspace of lower dimension
            base = [random_coord(rng, rational) for _ in range(n)]
            dirs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
            pts = {
                tuple(b + sum(rng.randint(-2, 2) * d[i] for d in dirs) for i, b in enumerate(base))
                for _ in range(k)
            }
        else:
            pts = {tuple(random_coord(rng, rational) for _ in range(n)) for _ in range(k)}
        yield rng, integral_multiple(sorted(pts))[0]


# -- matrices, polynomials and curve supports ----------------------------------------


def random_entry(rng, rational):
    a = rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -5, 7))
    if rational and rng.random() < 0.4:
        return Fraction(a, rng.choice((1, 2, 3, 4, 6)))
    return a


def random_rows(rng, m, n, rational):
    """Random rows; some repeat or combine earlier rows (rank deficiency)."""
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.choice((1, -1, 2, Fraction(1, 2)) if rational else (1, -1, 2))
            rows.append([x + k * y for x, y in zip(a, b)])
        else:
            rows.append([random_entry(rng, rational) for _ in range(n)])
    return rows


def random_poly(rng, nvars, terms, max_exp):
    p = {}
    while len(p) < terms:
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        p[e] = p.get(e, 0) + rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        p = {k: c for k, c in p.items() if c}
    return p


def curve_supports(max_delta):
    """Every gcd-one support 0 < ... < delta with delta <= max_delta."""
    for delta in range(1, max_delta + 1):
        for k in range(delta):
            for inner in itertools.combinations(range(1, delta), k):
                e = (0, *inner, delta)
                if gcd(*e) == 1:
                    yield e


# -- helpers -------------------------------------------------------------------------


def outcome(fn, *args):
    """("value", fn's value), or ("raises", the type, the message): the
    error and its message must match too."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("raises", type(exc), str(exc))


def from_columns(cols, m):
    """The matrix with the given columns of length m, as a tuple of rows."""
    return tuple(zip(*cols)) if cols else ((),) * m


def width(M):
    """The column count of a matrix given as a tuple of rows."""
    return len(M[0]) if M else 0


def hnf_with_transform(M):
    """(H, U) with H = M U, U unimodular: ``_hnf`` run on the columns of M
    with the identity block below them."""
    m, n = len(M), width(M)
    cols = [[*c, *(int(i == j) for i in range(n))] for j, c in enumerate(zip(*M))]
    _hnf(cols, m)
    H = from_columns([c[:m] for c in cols], m)
    return H, from_columns([c[m:] for c in cols], n)


def rational_coordinates(L, v):
    """Rational coordinates of v in the basis of the lattice L, or None off
    its span: the numerators of ``hnf_solve`` over its denominator.  The
    chart coordinates of a point p of a hull P are those of p - P.chart_anchor
    in P.chart."""
    solved = hnf_solve(L.basis, L.pivots, v)
    return None if solved is None else tuple(Fraction(n, solved[1]) for n in solved[0])


def facet_indices(mask):
    """The index set of a facet's bit mask in ``Polytope.facet_sets``: bit j
    for point j."""
    return frozenset(j for j in range(mask.bit_length()) if mask >> j & 1)


def interior_points_in(P, L=None, face=None):
    """The points of ``lattice_points_in`` in the relative interior of the face
    (of P by default), read off their masks: those on the facets through the
    face alone."""
    on = frozenset(face.indices if face is not None else range(len(P.points)))
    bits = sum(1 << j for j, s in enumerate(P.facet_sets) if on <= facet_indices(s))
    return tuple((p, mask) for p, mask in lattice_points_in(P, L, face) if mask == bits)
