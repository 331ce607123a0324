"""Seeded inputs for the gkzkit benchmark workloads.

Generators emit plain integer columns and never call gkzkit: every
``PointConfiguration`` is built inside a timed op.  Inputs come in blocks with
a fixed size mix, and a run measures whole blocks, so two seeds see the same
mix and differ only in coordinates (or, for ``cli``, in invocation order).
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Configurations in the style of the acceptance corpus: curves 0 = a_0 < ...
# < a_last and planar point sets in the square [0, 3]^2.  The curve degree
# reaches past the corpus's 6 so that a repetition cannot run out of distinct
# curves.  Planar sets are drawn with a fixed number of hull vertices, the
# main driver of their cost, so seeds differ in coordinates but not in cost
# mix.  Three 5-point sets per block hold the median op and two 7-point sets
# the tail op, each well inside one class rather than on the gap between two.
MAX_COORD = 3
SMALL_MIX = (
    ("curve", 4, 10),
    ("planar", 4, 4),
    ("planar", 5, 4),
    ("planar", 5, 4),
    ("planar", 5, 4),
    ("planar", 6, 5),
    ("planar", 7, 5),
    ("planar", 7, 5),
)
# verify_factorization needs a support within the default symbolic budget
# (degree 6), and hulls the support of the principal determinant, which
# exceeds the hull point cap beyond five columns.
VERIFY_MAX_DELTA = 6
VERIFY_MAX_POINTS = 5
HEIGHT_DENOMINATOR = 997

# Planar sets with a column that is not a vertex and whose deletion keeps the
# group lattice, with their regular-triangulation count and normalized volume.
# Counts were derived by hand (flat and interior points of a quadrilateral).
PLANAR_CATALOG = (
    {"points": ((0, 0), (1, 0), (0, 1), (2, 2), (1, 1)), "delete": 4, "count": 4, "volume": 4},
    {"points": ((0, 0), (2, 0), (0, 1), (1, 1), (1, 0)), "delete": 4, "count": 5, "volume": 3},
    {"points": ((0, 0), (1, 0), (2, 1), (1, 2), (1, 1)), "delete": 4, "count": 4, "volume": 4},
)


class Workload:
    """A named input stream; ``why`` and ``inputs`` go into every run record."""

    def __init__(self, name, why, inputs, make_block, trace_blocks):
        self.name = name
        self.why = why
        self.inputs = inputs
        self.make_block = make_block
        self.trace_blocks = trace_blocks

    def blocks(self, seed: int, rep: int):
        """The endless block stream of repetition ``rep`` at ``seed``.

        Inputs are distinct within a repetition, which runs in one process, so
        no op can hit a cache filled by an earlier op on the same input.
        """
        rng = random.Random(f"gkzkit-bench/{self.name}/{seed}/{rep}")
        seen = set()
        while True:
            yield self.make_block(rng, seen)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _fresh(seen, make):
    """make() until it returns columns not in ``seen``."""
    for _ in range(10_000):
        out = make()
        key = tuple(out["cols"] if isinstance(out, dict) else out)
        if key not in seen:
            seen.add(key)
            return out
    raise RuntimeError("the workload ran out of distinct inputs for one repetition")


def hull_vertex_count(pts):
    """Vertices of the convex hull of distinct sorted 2-d points (monotone chain)."""

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return len(half(pts)) + len(half(pts[::-1])) - 2


def planar_columns(rng, n, vertices):
    """n distinct points (1, x, y) of [0, MAX_COORD]^2 whose hull is a polygon
    with the given number of vertices."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, MAX_COORD), rng.randint(0, MAX_COORD)))
        pts = sorted(pts)
        if hull_vertex_count(pts) == vertices:
            return [(1, x, y) for x, y in pts]


def curve_support(rng, n, lo, hi):
    delta = rng.randint(lo, hi)
    return [0, *sorted(rng.sample(range(1, delta), n - 2)), delta]


def small_columns(rng, seen):
    """One block of the curve and planar size mix, all distinct from ``seen``."""
    out = []
    for kind, n, k in SMALL_MIX:
        if kind == "curve":
            make = lambda: [(1, a) for a in curve_support(rng, n, n - 1, k)]
        else:
            make = lambda: planar_columns(rng, n, k)
        out.append(_fresh(seen, make))
    return out


# -- saturations ---------------------------------------------------------------


def _random_beta(rng, dim):
    return [(rng.randint(-6, 6), rng.choice((2, 3, 4, 5, 6, 7))) for _ in range(dim)]


def saturations_block(rng, seen):
    """Columns, three candidate height vectors (over HEIGHT_DENOMINATOR) and
    four parameters as (numerator, denominator) pairs.

    The last two parameters are resonant by construction: an integer vector,
    and an integer vector plus a rational multiple of the lexicographically
    smallest column, which is a vertex and so lies on a codimension-one face.
    """
    out = []
    for cols in small_columns(rng, seen):
        dim = len(cols[0])
        heights = [
            [rng.randrange(-(10**6), 10**6) for _ in cols] for _ in range(3)
        ]
        gamma = [rng.randint(-2, 2) for _ in range(dim)]
        num, den = rng.choice((-2, -1, 1, 2)), rng.randint(2, 3)
        vertex = min(cols)
        planted = [(g * den + num * v, den) for g, v in zip(gamma, vertex)]
        integer = [(rng.randint(-2, 2), 1) for _ in range(dim)]
        betas = [_random_beta(rng, dim), _random_beta(rng, dim), planted, integer]
        out.append({"cols": cols, "heights": heights, "betas": betas})
    return out


# -- triangulations --------------------------------------------------------------


def _segment(rng, n, lo, hi):
    """A curve support of n columns with gcd one and an interior column
    ``delete`` whose removal keeps the group lattice."""
    while True:
        support = curve_support(rng, n, lo, hi)
        inner = [
            i for i in range(1, n - 1)
            if gcd(*[a for j, a in enumerate(support) if j != i]) == 1
        ]
        if inner:
            verify = n <= VERIFY_MAX_POINTS and hi <= VERIFY_MAX_DELTA
            return {
                "cols": [(1, a) for a in support],
                "delete": rng.choice(inner),
                "count": 2 ** (n - 2),
                "volume": support[-1],
                "support": support if verify else None,
            }


def _square_symmetry(rng):
    """One of the eight lattice symmetries of the square, as a 2x2 matrix.

    Shears would also preserve counts and volumes, but they grow the
    coordinates and with them the cost of exact arithmetic, which would then
    vary with the seed.
    """
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    return [[sx, 0], [0, sy]] if rng.random() < 0.5 else [[0, sx], [sy, 0]]


def _planar_from_catalog(rng, entry):
    """A catalog set moved by a random symmetry, translation and column
    order; counts and volumes are invariant under all three."""
    m = _square_symmetry(rng)
    pts = [(m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y) for x, y in entry["points"]]
    shift = [min(p[i] for p in pts) - rng.randint(0, 2) for i in range(2)]
    pts = [(x - shift[0], y - shift[1]) for x, y in pts]
    order = list(range(len(pts)))
    rng.shuffle(order)
    return {
        "cols": [(1, *pts[i]) for i in order],
        "delete": order.index(entry["delete"]),
        "count": entry["count"],
        "volume": entry["volume"],
        "support": None,
    }


# (points, lowest and highest degree).  The 4-point segment also gets
# verify_factorization.  Seven points are left out: the secondary polytope of
# a 7-point segment hulls 32 GKZ vectors by scanning C(32, 5) subsets, over
# 90 s at the seed.
SEGMENTS = ((4, 3, 6), (6, 6, 8))


def triangulations_block(rng, seen):
    """Two segments and every catalog set; the planar sets, whose cost does
    not depend on the seed, are the majority and hold the median op."""
    segments = [_fresh(seen, lambda: _segment(rng, *size)) for size in SEGMENTS]
    planar = [
        _fresh(seen, lambda: _planar_from_catalog(rng, entry))
        for entry in rng.sample(PLANAR_CATALOG, len(PLANAR_CATALOG))
    ]
    return segments + planar


# -- cli -----------------------------------------------------------------------


def cli_corpus():
    with open(HERE / "cli_corpus.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_block(rng, seen):
    cycle = [c for c in cli_corpus()["cases"] if not c.get("known_defect")]
    rng.shuffle(cycle)
    return cycle


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "volumes",
            "face multiplicities m = i*v over every face: the LP-pruned Minkowski "
            "hull and exhaustive convex hulls dominate, so lp and polytope show",
            "blocks of 8 distinct configurations: a curve of 4 columns "
            "(a_last <= 10) and planar sets in [0,3]^2 of 4, 5, 5, 5, 6, 7, 7 "
            "points with 4 (up to 5 points) or 5 hull vertices",
            small_columns,
            3,
        ),
        Workload(
            "saturations",
            "saturate s/p/full, reduction chains, lower-hull triangulations and "
            "nonresonance: no LP at all, time goes to chart queries and lattice "
            "points, so it is the bypass workload for any lp change",
            "blocks of 8 distinct configurations as in volumes, each with 3 "
            "height vectors and 4 parameters (2 random, 2 resonant by construction)",
            saturations_block,
            6,
        ),
        Workload(
            "triangulations",
            "regular-triangulation enumeration, secondary polytopes and facet "
            "restriction: the lp layer serves strict-feasibility certificates",
            "blocks of 5: segments of 4 and 6 points (verify_factorization on "
            "the 4-point curve support) and three 5-point planar sets",
            triangulations_block,
            1,
        ),
        Workload(
            "cli",
            "one closed-loop client running python -m gkzkit per request, so "
            "interpreter start, import and the hyper, curves and continuation "
            "layers show",
            "one block is the whole fixed corpus of bench/cli_corpus.json in a "
            "seeded order; stdout bytes and exit codes are checked",
            cli_block,
            1,
        ),
    )
}
