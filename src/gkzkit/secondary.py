"""Regular triangulations, their characteristic vectors, and secondary polytopes.

Triangulations are stored as sorted tuples of maximal cells (column index
tuples) with lattice volumes normalized to the group generated by the
configuration.  Regularity is always certified by exact rational feasibility
of the height system, never assumed from the construction.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .configuration import PointConfiguration
from .intlinalg import det_fraction, rational_nullspace, solve_rational, vsub
from .lp import lp_feasible_strict
from .polytope import Polytope, convex_hull

DEFAULT_ENUMERATION_CAP = 12
# Configurations whose triangulations and secondary polytope stay cached.
SECONDARY_CACHE_SIZE = 64


class DegenerateHeightsError(ValueError):
    """The lifted lower hull has a non-simplicial cell; perturb the heights."""


class EnumerationCapError(ValueError):
    """The configuration exceeds the triangulation-enumeration budget."""


@dataclass(frozen=True)
class Triangulation:
    cells: tuple  # sorted tuples of column indices, each of size dim+1
    volumes: tuple  # lattice volume of each cell, normalized to Z_A

    @property
    def total_volume(self) -> int:
        return sum(self.volumes)


def _chart(A: PointConfiguration):
    return A.volume_chart[1]


def _cell_volume(coords, cell) -> int:
    base = coords[cell[0]]
    rows = [vsub(coords[j], base) for j in cell[1:]]
    return abs(int(det_fraction(rows)))


def config_volume(A: PointConfiguration) -> int:
    """Normalized volume of the Newton polytope with respect to Z_A."""
    return A.volume


def make_triangulation(A: PointConfiguration, cells) -> Triangulation:
    coords = _chart(A)
    cells = tuple(sorted(tuple(sorted(c)) for c in cells))
    vols = tuple(_cell_volume(coords, c) for c in cells)
    if any(v == 0 for v in vols):
        raise ValueError("degenerate cell")
    return Triangulation(cells, vols)


def regular_triangulation(A: PointConfiguration, heights) -> Triangulation:
    """Project the lower hull of the height-lifted configuration.

    Heights must be generic enough that every lower cell is a simplex;
    otherwise a DegenerateHeightsError suggests perturbing them.
    """
    coords = _chart(A)
    heights = [Fraction(h) for h in heights]
    if len(heights) != A.size:
        raise ValueError("need one height per column")
    d = len(coords[0])
    lifted = [(*coords[i], heights[i]) for i in range(A.size)]
    hull = convex_hull(lifted)
    if hull.dim <= d:
        # affine heights: the lower hull is the whole polytope
        cells = [tuple(range(A.size))]
    else:
        cells = [
            tuple(sorted(on))
            for (h, _), on in zip(hull.facets, hull.facet_sets)
            if hull.ambient_functional(h)[-1] < 0  # lower facets only
        ]
    for cell in cells:
        if len(cell) != d + 1:
            raise DegenerateHeightsError(
                f"lower cell {cell} is not a simplex; perturb the heights"
            )
    T = make_triangulation(A, cells)
    if T.total_volume != config_volume(A):
        raise AssertionError("lower hull cells must cover the polytope")
    return T


def gkz_vector(A: PointConfiguration, T: Triangulation):
    """Per-column sums of the volumes of the incident cells."""
    phi = [0] * A.size
    for cell, vol in zip(T.cells, T.volumes):
        for i in cell:
            phi[i] += vol
    return tuple(phi)


def is_regular(A: PointConfiguration, T: Triangulation):
    """Exact LP certificate: heights whose lower hull induces exactly T."""
    coords = _chart(A)
    rows = []
    rhs = []
    strict = set()
    for cell in T.cells:
        base = coords[cell[0]]
        mat = [[Fraction(coords[j][i] - base[i]) for j in cell[1:]] for i in range(len(base))]
        for p in range(A.size):
            if p in cell:
                continue
            lam_tail = solve_rational(mat, vsub(coords[p], base))
            if lam_tail is None:
                raise AssertionError("cell must span the chart")
            lam = [1 - sum(lam_tail), *lam_tail]
            # interpolated height at p must be strictly above the lift of p
            row = [Fraction(0)] * A.size
            for w, j in zip(lam, cell):
                row[j] += w
            row[p] -= 1
            rows.append(row)
            rhs.append(Fraction(0))
            strict.add(len(rows) - 1)
    if not rows:
        return True, (0,) * A.size
    ok, witness = lp_feasible_strict(rows, rhs, strict)
    if not ok:
        return False, None
    return True, tuple(witness)


def _circuits(coords):
    """Every circuit of the points as (Z+, Z-), in one orientation.

    A circuit is a minimal affinely dependent subset: its homogenised columns
    have a one-dimensional nullspace with full support, whose signs split it.
    Circuits have at most dim+2 points; two distinct points never do.
    """
    d = len(coords[0])
    out = []
    for k in range(3, d + 3):
        for Z in combinations(range(len(coords)), k):
            rows = [[1] * k] + [[coords[j][i] for j in Z] for i in range(d)]
            null = rational_nullspace(rows)
            if len(null) == 1 and all(null[0]):
                lam = null[0]
                plus = frozenset(z for z, a in zip(Z, lam) if a > 0)
                out.append((plus, frozenset(Z) - plus))
    return out


def _flips(cells, circuits):
    """Cell sets one bistellar flip away from the triangulation ``cells``.

    Circuit Z = (Z+, Z-) is flippable when every rho = Z - {z}, z in Z+, has
    the same nonempty link {sigma - rho : rho <= sigma}; the flip swaps the
    cells rho + l for (Z - {z}) + l, z in Z-, over the link cells l
    (De Loera-Rambau-Santos, Triangulations, 2010, sec. 4.4).
    """
    star = {}
    for s in cells:
        for r in range(2, len(s) + 1):
            for rho in combinations(s, r):
                rho = frozenset(rho)
                star.setdefault(rho, set()).add(s - rho)
    for plus, minus in circuits:
        Z = plus | minus
        for old, new in ((plus, minus), (minus, plus)):
            link = star.get(Z - {next(iter(old))})
            if not link or any(star.get(Z - {z}) != link for z in old):
                continue
            gone = {(Z - {z}) | l for z in old for l in link}
            yield (cells - gone) | {(Z - {z}) | l for z in new for l in link}


@lru_cache(maxsize=SECONDARY_CACHE_SIZE)
def enumerate_regular_triangulations(A: PointConfiguration, cap: int = DEFAULT_ENUMERATION_CAP):
    """All regular triangulations, certified one by one by the height LP.

    Regular triangulations are the vertices of the secondary polytope and its
    edges are flips, so a breadth-first search over flips from one lower-hull
    triangulation reaches all of them (Gelfand-Kapranov-Zelevinsky 1994,
    ch. 7).  Only certified triangulations are expanded; non-regular
    neighbours are dropped.  A random-height spot check asserts that
    lower-hull triangulations all appear in the enumerated set.
    """
    if A.size > cap:
        raise EnumerationCapError(f"enumeration capped at {cap} points, got {A.size}")
    rng = random.Random(20240 + A.size)
    spot = []
    for _ in range(20):
        heights = [Fraction(rng.randrange(-10**6, 10**6), 992) for _ in range(A.size)]
        try:
            spot.append(regular_triangulation(A, heights))
        except DegenerateHeightsError:
            continue
    if not spot:
        raise DegenerateHeightsError("no generic heights among 20 random draws")
    circuits = _circuits(_chart(A))
    seen = {spot[0].cells}
    queue = deque([spot[0]])
    out = []
    while queue:
        T = queue.popleft()
        if not is_regular(A, T)[0]:
            continue
        out.append(T)
        for cells in _flips(frozenset(map(frozenset, T.cells)), circuits):
            U = make_triangulation(A, cells)
            if U.total_volume != T.total_volume:
                raise AssertionError("a flip must keep the covered volume")
            if U.cells not in seen:
                seen.add(U.cells)
                queue.append(U)
    found = {T.cells for T in out}
    if any(T.cells not in found for T in spot):
        raise AssertionError("random lower-hull triangulation missing from enumeration")
    return tuple(sorted(out, key=lambda T: T.cells))


@lru_cache(maxsize=SECONDARY_CACHE_SIZE)
def secondary_polytope(A: PointConfiguration) -> Polytope:
    """Convex hull of the characteristic vectors of all regular triangulations."""
    vecs = [gkz_vector(A, T) for T in enumerate_regular_triangulations(A)]
    return convex_hull(sorted(set(vecs)))


@dataclass(frozen=True)
class FacetRestrictionReport:
    ok: bool
    detail: str
    facet_vertices: tuple
    embedded_vertices: tuple

    def __bool__(self):
        return self.ok


def check_facet_restriction(A: PointConfiguration, i: int) -> FacetRestrictionReport:
    """Does the secondary polytope of A minus column i coincide with the
    u_i = 0 facet of the secondary polytope of A?

    Requires column i not to be a vertex of N and the deletion to span the
    same group lattice; both are hard preconditions.
    """
    if i in A.newton.vertex_indices:
        raise ValueError("column is a vertex of the Newton polytope")
    A_i = A.delete(i)
    if A_i.group_lattice != A.group_lattice:
        raise ValueError("deletion changes the group lattice")
    big = secondary_polytope(A)
    small = secondary_polytope(A_i)
    big_zero = tuple(sorted(v for v in big.vertices if v[i] == 0))
    embedded = tuple(sorted(tuple(v[:i]) + (0,) + tuple(v[i:]) for v in small.vertices))
    ok = big_zero == embedded
    return FacetRestrictionReport(
        ok,
        "vertex sets agree" if ok else "vertex sets differ",
        big_zero,
        embedded,
    )
