"""Deterministic random corpora shared by the property and acceptance suites."""

import random
from fractions import Fraction
from math import lcm

from gkzkit.configuration import PointConfiguration
from gkzkit.intlinalg import rational_rank, vsub

# The three planar sets of the benchmark catalog, and the "mother of all
# examples": a triangle with a homothetic inner triangle, whose two twisted
# triangulations are not regular.
CATALOG = (
    ((0, 0), (1, 0), (0, 1), (2, 2), (1, 1)),
    ((0, 0), (2, 0), (0, 1), (1, 1), (1, 0)),
    ((0, 0), (1, 0), (2, 1), (1, 2), (1, 1)),
)
MOTHER = ((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2))


def integral_multiple(points):
    """(D * points as int tuples, D), D the least common denominator of the
    entries: the integer points that ``convex_hull`` takes for a rational
    set, with the same combinatorics, and volumes scaled by D^dim."""
    D = lcm(*(Fraction(a).denominator for p in points for a in p))
    return [tuple(int(a * D) for a in p) for p in points], D


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
