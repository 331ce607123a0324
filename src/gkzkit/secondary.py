"""Regular triangulations, their characteristic vectors, and secondary polytopes.

Triangulations are stored as sorted tuples of maximal cells (column index
tuples) with lattice volumes normalized to the group generated by the
configuration.  Regularity is always certified by exact rational feasibility
of the height system, never assumed from the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .configuration import PointConfiguration
from .intlinalg import det_fraction, solve_rational, vsub
from .lp import lp_feasible_strict
from .polytope import Polytope, convex_hull, normalized_volume

DEFAULT_ENUMERATION_CAP = 12


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
    return int(normalized_volume(_chart(A)))


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
        cells = []
        for h, c in hull.facets:
            f = hull.ambient_functional(h)
            if f[-1] >= 0:  # not a lower facet
                continue
            members = tuple(
                i for i, p in enumerate(lifted)
                if _eval_facet(hull, h, c, p)
            )
            cells.append(members)
    for cell in cells:
        if len(cell) != d + 1:
            raise DegenerateHeightsError(
                f"lower cell {cell} is not a simplex; perturb the heights"
            )
    T = make_triangulation(A, cells)
    if T.total_volume != config_volume(A):
        raise AssertionError("lower hull cells must cover the polytope")
    return T


def _eval_facet(P: Polytope, h, c, point) -> bool:
    x = P.chart_coords(point)
    return sum(a * b for a, b in zip(h, x)) == c


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


def _interiors_disjoint(coords, c1, c2) -> bool:
    """Exact test that two simplices have disjoint interiors."""
    d = len(coords[0])
    n1, n2 = len(c1), len(c2)
    nv = n1 + n2
    A_ub = []
    b_ub = []
    for i in range(d):
        row = [Fraction(coords[j][i]) for j in c1] + [
            -Fraction(coords[j][i]) for j in c2
        ]
        A_ub.append(row)
        b_ub.append(Fraction(0))
        A_ub.append([-a for a in row])
        b_ub.append(Fraction(0))
    for vec, val in (([1] * n1 + [0] * n2, 1), ([0] * n1 + [1] * n2, 1)):
        A_ub.append([Fraction(a) for a in vec])
        b_ub.append(Fraction(val))
        A_ub.append([-Fraction(a) for a in vec])
        b_ub.append(Fraction(-val))
    strict = set()
    for j in range(nv):
        A_ub.append([Fraction(-1) if l == j else Fraction(0) for l in range(nv)])
        b_ub.append(Fraction(0))
        strict.add(len(A_ub) - 1)
    ok, _ = lp_feasible_strict(A_ub, b_ub, strict, cap=Fraction(1, 4))
    return not ok


def _all_covering_simplex_sets(A: PointConfiguration):
    """All ways to cover N by interior-disjoint maximal simplices on A.

    Non-face-to-face covers can appear here; the regularity filter removes
    them (a height certificate forces face-to-face lower hulls).
    """
    coords = _chart(A)
    d = len(coords[0])
    total = config_volume(A)
    if d == 1:
        order = sorted(range(A.size), key=lambda i: coords[i][0])
        inner = order[1:-1]
        out = []
        for mask in range(1 << len(inner)):
            chosen = [order[0]] + [p for b, p in enumerate(inner) if mask >> b & 1] + [order[-1]]
            chosen.sort(key=lambda i: coords[i][0])
            out.append([tuple(sorted((chosen[t], chosen[t + 1]))) for t in range(len(chosen) - 1)])
        return out
    from itertools import combinations

    candidates = []
    for c in combinations(range(A.size), d + 1):
        if _cell_volume(coords, c) > 0:
            candidates.append(c)
    disjoint = {}

    def compat(i, j):
        key = (min(i, j), max(i, j))
        if key not in disjoint:
            disjoint[key] = _interiors_disjoint(coords, candidates[key[0]], candidates[key[1]])
        return disjoint[key]

    results = []

    def extend(start, chosen, vol):
        if vol == total:
            results.append([candidates[i] for i in chosen])
            return
        for i in range(start, len(candidates)):
            v = _cell_volume(coords, candidates[i])
            if vol + v > total:
                continue
            if all(compat(i, j) for j in chosen):
                extend(i + 1, chosen + [i], vol + v)

    extend(0, [], 0)
    return results


def enumerate_regular_triangulations(A: PointConfiguration, cap: int = DEFAULT_ENUMERATION_CAP):
    """All regular triangulations, certified one by one by the height LP.

    Exhaustive search over simplex covers; a random-height spot check asserts
    that lower-hull triangulations all appear in the enumerated set.
    """
    if A.size > cap:
        raise EnumerationCapError(f"enumeration capped at {cap} points, got {A.size}")
    out = []
    for cells in _all_covering_simplex_sets(A):
        T = make_triangulation(A, cells)
        ok, _ = is_regular(A, T)
        if ok:
            out.append(T)
    out = sorted(set(out), key=lambda T: T.cells)
    rng = random.Random(20240 + A.size)
    for _ in range(20):
        heights = [Fraction(rng.randrange(-10**6, 10**6), 992) for _ in range(A.size)]
        try:
            T = regular_triangulation(A, heights)
        except DegenerateHeightsError:
            continue
        if T not in out:
            raise AssertionError("random lower-hull triangulation missing from enumeration")
    return tuple(out)


@lru_cache(maxsize=None)
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
