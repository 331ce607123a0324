"""Regular triangulations, their characteristic vectors, and secondary polytopes.

Triangulations are stored as sorted tuples of maximal cells (column index
tuples) with lattice volumes normalized to the group generated by the
configuration.  Regularity is always certified by integer heights whose
lower hull is exactly the triangulation, checked by exact dot products with
its folding rows and never assumed from the construction: the enumeration
finds them on the pulling heights of its start, on a ray through the heights
of a flip parent, or by an exact LP when every ray misses.  The supports of
the same folding rows are the circuits the walk flips along.  Each row is a
Cramer vector of the configuration's signed maximal minors and a cell's
volume is its own (De Loera-Rambau-Santos, Triangulations, 2010, ch. 2 and
4).  The Newton hull's one table, ``Polytope.minors``, which goes with the
hull, holds them for the walk, ``is_regular`` and ``make_triangulation``
alike, each eliminated once when first asked for; inside the walk a cell is
a bit mask of its columns.  The heights of each certificate also certify the
secondary polytope without a hull: they single out their triangulation's
GKZ vector as the unique minimiser of their functional, so it is a vertex.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .configuration import PointConfiguration, _keeps_z_a, _per_configuration
from .intlinalg import (
    _rationals,
    clear_denominators,
    dot,
    primitive,
    rational_rank,
    record,
    vsub,
)
from .lp import lp_feasible_strict
from .polytope import BudgetError, _facet_rays, _mask, pulling_cells

# Largest configuration whose regular triangulations are enumerated.
ENUMERATION_CAP = 12
# Base of the pulling heights that start the enumeration (see
# ``_pulling_heights``): the least base that lifts the pulling triangulation
# of every input measured.
_PULL_BASE = 3


class DegenerateHeightsError(ValueError):
    """The lifted lower hull has a non-simplicial cell; perturb the heights."""


@record(hidden=("heights",))
class Triangulation:
    cells: tuple  # sorted tuples of column indices, each of size dim+1
    volumes: tuple  # lattice volume of each cell, normalized to Z_A
    # integer heights whose lower hull is exactly these cells: the regularity
    # certificate kept by the enumeration (from a ray or the LP, see
    # ``_certify``), None elsewhere
    heights: tuple | None = None

    @property
    def total_volume(self) -> int:
        return sum(self.volumes)


def config_volume(A: PointConfiguration) -> int:
    """Normalized volume of the Newton polytope with respect to Z_A."""
    return A.volume


def _sorted_cells(cells) -> tuple:
    return tuple(sorted(tuple(sorted(c)) for c in cells))


def make_triangulation(A: PointConfiguration, cells) -> Triangulation:
    """The triangulation with these cells, each A.newton.dim + 1 distinct
    int (not bool) column indices of A, else ValueError naming the cell; a
    cell's volume is its minor's absolute value in ``A.newton.minors``."""
    cells = _sorted_cells(cells)
    k = A.newton.dim + 1
    for c in cells:
        if not (len(c) == len(set(c)) == k and all(type(j) is int and 0 <= j < A.size for j in c)):
            raise ValueError(f"cell {c} is not {k} distinct columns of the {A.size}")
    vols = tuple(abs(A.newton.minor(c)) for c in cells)
    if 0 in vols:
        raise ValueError("degenerate cell")
    return Triangulation(cells, vols)


def regular_triangulation(A: PointConfiguration, heights) -> Triangulation:
    """Project the lower hull of the height-lifted configuration, lifted by
    the least positive integer multiple of the heights, which has the same
    lower hull.  Heights must be generic enough that every lower cell is a
    simplex; otherwise a DegenerateHeightsError names the least lower cell
    that is not one and suggests perturbing the heights.  An entry that is
    not a finite rational number raises ValueError naming it.

    The lift of the integer chart points is hulled directly: a facet h . x <=
    c is lower iff its outer normal points down, h's last entry negative.
    When the lift is not full-dimensional the heights are affine, and the
    lower hull is the whole polytope.
    """
    heights = _rationals(heights)
    if len(heights) != A.size:
        raise ValueError("need one height per column")
    d = A.newton.dim
    lifted = [(*x, w) for x, w in zip(A.chart_points, clear_denominators(heights))]
    rays = _facet_rays(lifted, d + 1)
    if rays is None:
        cells = [tuple(range(A.size))]
    else:
        cells = sorted(
            tuple(i for i in range(A.size) if z >> i & 1) for h, _, z in rays if h[-1] < 0
        )
    for cell in cells:
        if len(cell) != d + 1:
            raise DegenerateHeightsError(
                f"lower cell {cell} is not a simplex; perturb the heights"
            )
    T = make_triangulation(A, cells)
    if T.total_volume != A.volume:
        raise AssertionError("lower hull cells must cover the polytope")
    return T


def gkz_vector(A: PointConfiguration, T: Triangulation):
    """Per-column sums of the volumes of the incident cells."""
    phi = [0] * A.size
    for cell, vol in zip(T.cells, T.volumes):
        for i in cell:
            phi[i] += vol
    return tuple(phi)


@lru_cache(maxsize=1 << ENUMERATION_CAP)
def _columns(mask) -> tuple:
    """The column indices of a mask, ascending."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _cell_rows(minors, n, cell):
    """(lattice volume, folding rows) of one cell, a mask of columns: for
    each column p outside it, ascending, the smallest positive integer
    multiple r of sum_j lam_j e_j - e_p, where lam are the affine weights of
    p on the cell.

    r . w < 0 says that p lifts strictly above the plane through the lifted
    cell.  By Cramer's rule D lam_j, D the cell's minor, is the minor of the
    cell with p in place of j: ``minors[cell ^ j | p]``, negated when an odd
    number of the cell's columns lie between j and p, since p moves past
    each of them to its ascending place.  |D| is the cell's lattice volume.
    ``minors`` is the Newton hull's one table, ``Polytope.minors``.
    """
    D = minors[cell]
    if not D:
        raise ValueError("degenerate cell")
    cols = _columns(cell)
    rows = []
    below = 0  # columns of the cell before p
    for p in range(n):
        if cell >> p & 1:
            below += 1
            continue
        row = [0] * n
        for t, j in enumerate(cols):
            between = below - t - 1 if j < p else t - below
            minor = minors[cell ^ 1 << j | 1 << p]
            row[j] = -minor if between & 1 else minor
        row[p] = -D
        rows.append(primitive([-a for a in row] if D < 0 else row))
    return abs(D), tuple(rows)


def _folding_rows(A: PointConfiguration, T: Triangulation):
    """The folding rows of T: those of each cell (see ``_cell_rows``), cells
    in order, read off ``A.newton.minors``, which fills only what T's rows
    ask for, so the work is bounded by T, past ``ENUMERATION_CAP`` too.
    Heights w have lower hull exactly T iff every row is negative on w."""
    minors = A.newton.minors
    return tuple(r for cell in T.cells for r in _cell_rows(minors, A.size, _mask(cell))[1])


def is_regular(A: PointConfiguration, T: Triangulation, rows=None):
    """Exact LP certificate: heights whose lower hull induces exactly T.
    ``rows`` are T's folding rows when the caller has them."""
    if rows is None:
        rows = _folding_rows(A, T)
    if not rows:
        return True, (0,) * A.size
    ok, witness = lp_feasible_strict(rows, [0] * len(rows), set(range(len(rows))))
    if not ok:
        return False, None
    return True, tuple(witness)


def _ray_heights(rows, w, lam):
    """Integer heights on the line w + t lam on which every row is negative,
    or None when the line misses that open cone.

    Row r is negative at w + t lam exactly when (r.w) + t (r.lam) < 0, an open
    half-line of t (everything or nothing when r.lam = 0), so the steps that
    pass every row form an open interval, computed exactly: its ends are
    kept as (numerator, positive denominator) pairs and compared by
    cross-multiplication.  The step taken is the integer of least absolute
    value in it, or its midpoint when it holds no integer; t = num/den gives
    the heights primitive(den w + num lam).
    """
    lo = hi = None
    for r in rows:
        a, b = sum(map(mul, r, w)), sum(map(mul, r, lam))
        if b > 0:
            # t < -a/b
            if hi is None or -a * hi[1] < hi[0] * b:
                hi = (-a, b)
        elif b < 0:
            # t > a/(-b)
            if lo is None or a * lo[1] > -b * lo[0]:
                lo = (a, -b)
        elif a >= 0:
            return None
    if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    if lo is not None and lo[0] >= 0:
        t = lo[0] // lo[1] + 1
    elif hi is not None and hi[0] <= 0:
        t = -(-hi[0] // hi[1]) - 1
    else:
        t = 0
    if (lo is not None and t * lo[1] <= lo[0]) or (hi is not None and t * hi[1] >= hi[0]):
        mid = Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
        num, den = mid.numerator, mid.denominator
    else:
        num, den = t, 1
    return primitive([den * x + num * y for x, y in zip(w, lam)])


def _certify(A: PointConfiguration, T: Triangulation, rows, rays=()):
    """(True, integer heights whose lower hull is exactly T), or (False, None)
    when T is not regular; ``rows`` are T's folding rows.

    Each ray (w, lam) of ``rays`` is tried in turn.  In the enumeration, w are
    the heights of a certified flip neighbour of T and lam the dependence of
    the circuit flipped.  The flip crosses the wall lam.w = 0 between the two
    secondary cones (Gelfand-Kapranov-Zelevinsky 1994, ch. 7), so the line
    w + t lam often passes through T's cone.  When every line misses the
    cone, the exact LP of ``is_regular`` decides, so a non-regular T is
    always rejected by it.  Heights from a ray or from the LP alike are
    checked against every folding row of T by integer dot products.
    """
    for w, lam in rays:
        heights = _ray_heights(rows, w, lam)
        if heights is not None:
            source = "ray"
            break
    else:
        ok, witness = is_regular(A, T, rows)
        if not ok:
            return False, None
        heights, source = clear_denominators(witness), "LP"
    if not all(sum(map(mul, r, heights)) < 0 for r in rows):
        raise AssertionError(f"{source} heights {heights} fail the folding rows of {T.cells}")
    return True, heights


def _pulling_heights(A: PointConfiguration):
    """Heights meant to lift the pulling triangulation of ``pulling_cells``:
    the k-th of the m vertices of the Newton polytope, in point order, gets
    -_PULL_BASE**(m-1-k), far below every later vertex, so each face is
    coned from its least vertex (De Loera-Rambau-Santos, Triangulations,
    2010, sec. 4.3); every other column gets 0, above the vertices' hull.
    The base may be too small for that; the enumeration checks the heights
    against the folding rows before it keeps them.
    """
    P = A.newton
    order = sorted(P.vertex_indices, key=P.points.__getitem__)
    heights = [0] * A.size
    for k, i in enumerate(order):
        heights[i] = -(_PULL_BASE ** (len(order) - 1 - k))
    return tuple(heights)


def _flips(cells, circuits):
    """(cell set, lam) for each triangulation one bistellar flip away from the
    triangulation ``cells``, a frozenset of column masks, lam the dependence
    of the circuit flipped.

    Circuit Z = (Z+, Z-) is flippable when every rho = Z - {z}, z in Z+, has
    the same nonempty link {sigma - rho : rho <= sigma}; the flip swaps the
    cells rho + l for (Z - {z}) + l, z in Z-, over the link cells l
    (De Loera-Rambau-Santos, Triangulations, 2010, sec. 4.4).  The star maps
    each face rho of at least two columns, a submask of a cell, to its link.

    ``circuits`` are (Z, Z+, lam) masks and rows, in the order they are
    tried: in the enumeration, the supports of the triangulation's folding
    rows, each once, by (size, indices).  If the cells hold (Z - {z}) + l for
    z in Z+, the row of that cell and z is the dependence of Z + l, whose one
    circuit is Z, so every flippable circuit is a support and its row is lam
    up to sign.  The sign does not matter: cells of a triangulation meet in
    common faces, so it holds the cells of at most one side of Z.
    """
    star = {}
    for s in cells:
        rho = s
        while rho:
            if rho & rho - 1:
                star.setdefault(rho, set()).add(s ^ rho)
            rho = rho - 1 & s
    for Z, plus, lam in circuits:
        minus = Z ^ plus
        for old, new in ((plus, minus), (minus, plus)):
            faces = [Z ^ 1 << z for z in _columns(old)]
            link = star.get(faces[0])
            if not link or any(star.get(rho) != link for rho in faces[1:]):
                continue
            gone = {rho | l for rho in faces for l in link}
            yield (cells - gone) | {Z ^ 1 << z | l for z in _columns(new) for l in link}, lam


def _lower_hull(A: PointConfiguration, certified, heights) -> Triangulation:
    """The lower hull of the integer heights, found among the ``certified``
    (GKZ vector, triangulation, folding rows) triples when their rows prove
    it, and otherwise by the lifted hull of the heights themselves.

    If every folding row of a certified T is negative on the heights, their
    lower hull is T: each lifted cell lies on a supporting hyperplane with
    every other lifted point strictly above it, so it is a lower facet with no
    other point on it, and the cells already cover ``A.volume``, which
    leaves no room for another lower facet.  Only one T can pass: the one
    whose GKZ vector minimises the heights' functional (Gelfand-Kapranov-
    Zelevinsky 1994, ch. 7), so that is the one tested.  Heights that no
    certified T passes take the lifted hull, which may raise
    DegenerateHeightsError.
    """
    _, T, rows = min(certified, key=lambda c: sum(map(mul, heights, c[0])))
    if all(sum(map(mul, r, heights)) < 0 for r in rows):
        return T
    return regular_triangulation(A, heights)


@_per_configuration
def enumerate_regular_triangulations(A: PointConfiguration):
    """All regular triangulations, each certified by its own integer heights.

    Regular triangulations are the vertices of the secondary polytope and its
    edges are flips, so a breadth-first search over flips from one regular
    triangulation reaches all of them (Gelfand-Kapranov-Zelevinsky 1994,
    ch. 7).  The search starts from the pulling triangulation of the Newton
    polytope, which is regular, with one ray: the line from 0 through its
    pulling heights (see ``_pulling_heights``).  Each flip from a certified
    triangulation adds a ray to the neighbour it reaches while that neighbour
    waits in the queue: the certified heights and the dependence of the
    circuit flipped, one of their triangulation's folding rows (see
    ``_flips``).  ``_certify`` tries the rays in arrival order and runs the
    LP only when every one misses, so non-regular neighbours are always
    rejected by the LP.  Only certified triangulations are expanded, and
    each returned one keeps its certificate's heights.

    Inside the search a cell is a bit mask of its columns, and a
    triangulation is the frozenset of its cells' masks until it is queued.
    Each distinct cell's volume, folding rows and their circuits are read
    once per search off ``A.newton.minors`` (see ``_cell_rows``); a triangulation's rows are its cells' rows in order, as
    ``_folding_rows`` gives them.  A flip's cells are checked against the
    triangulations already queued before any cell is looked up.

    A random-height spot check asserts that lower-hull triangulations all
    appear in the enumerated set: each of 20 seeded height draws, integers
    in [-2^20, 2^20) from 21 random bits each, is matched to a certified
    triangulation by that triangulation's folding rows, or hulled where no
    rows match (see ``_lower_hull``).  Degenerate draws are skipped, but at
    least one must be generic.
    """
    if A.size > ENUMERATION_CAP:
        raise BudgetError(f"enumeration capped at {ENUMERATION_CAP} points, got {A.size}")
    minors = A.newton.minors
    # cell mask -> (columns, lattice volume, folding rows, their circuits:
    # (size, columns) of each row's support -> (support, positive part, row))
    table = {}

    def entry(c):
        if c not in table:
            volume, rows = _cell_rows(minors, A.size, c)
            circuits = {}
            for r in rows:
                Z = plus = 0
                for j, a in enumerate(r):
                    if a:
                        Z |= 1 << j
                        if a > 0:
                            plus |= 1 << j
                circuits[Z.bit_count(), _columns(Z)] = (Z, plus, r)
            table[c] = (_columns(c), volume, rows, circuits)
        return table[c]

    def queued(cells):
        """(cells, triangulation, table entries in cell order)."""
        entries = sorted(map(entry, cells))
        T = Triangulation(tuple(e[0] for e in entries), tuple(e[1] for e in entries))
        return cells, T, entries

    first = frozenset(map(_mask, pulling_cells(A.poset)))
    seen = {first}
    # the rays of each queued triangulation, in arrival order
    rays = {first: [((0,) * A.size, _pulling_heights(A))]}
    queue = deque([queued(first)])
    start = queue[0][1]
    certified = []
    while queue:
        key, T, entries = queue.popleft()
        rows = tuple(r for e in entries for r in e[2])
        ok, heights = _certify(A, T, rows, rays.pop(key))
        if not ok:
            continue
        T = Triangulation(T.cells, T.volumes, heights)
        certified.append((gkz_vector(A, T), T, rows))
        # each support once, with the row of its first cell
        circuits = {}
        for e in reversed(entries):
            circuits.update(e[3])
        for cells, lam in _flips(key, [circuits[k] for k in sorted(circuits)]):
            if cells in rays:
                rays[cells].append((heights, lam))
                continue
            if cells in seen:
                continue
            seen.add(cells)
            rays[cells] = [(heights, lam)]
            U = queued(cells)
            if U[1].total_volume != T.total_volume:
                raise AssertionError("a flip must keep the covered volume")
            queue.append(U)
    found = {T.cells for _, T, _ in certified}
    if start.cells not in found:
        raise AssertionError("the pulling triangulation that starts the search is not regular")
    rng = random.Random(20240 + A.size)
    generic = False
    for _ in range(20):
        heights = [rng.getrandbits(21) - (1 << 20) for _ in range(A.size)]
        try:
            T = _lower_hull(A, certified, heights)
        except DegenerateHeightsError:
            continue
        generic = True
        if T.cells not in found:
            raise AssertionError("random lower-hull triangulation missing from enumeration")
    if not generic:
        raise DegenerateHeightsError("no generic heights among 20 random draws")
    return tuple(sorted((T for _, T, _ in certified), key=lambda T: T.cells))


@record
class SecondaryPolytope:
    """The secondary polytope by its vertices, each with its certificate:
    ``witnesses[k]`` is an integer functional minimised over the vertices at
    ``vertices[k]`` alone."""

    vertices: tuple  # sorted GKZ vectors
    dim: int
    witnesses: tuple


def _certified_vertices(vectors, witnesses) -> SecondaryPolytope:
    """Certify each vector a vertex of the hull of all of them by its witness.

    <w, v> < <w, u> for every other u makes v the unique minimiser of a linear
    functional over the hull, so a vertex (and distinct from the others).
    The affine dimension is the rank of the differences.
    """
    pairs = sorted(zip(vectors, witnesses))
    for k, (v, w) in enumerate(pairs):
        own = dot(w, v)
        if any(dot(w, u) <= own for j, (u, _) in enumerate(pairs) if j != k):
            raise AssertionError(f"heights {w} do not single out the GKZ vector {v}")
    vertices = tuple(v for v, _ in pairs)
    dim = rational_rank([vsub(v, vertices[0]) for v in vertices[1:]])
    return SecondaryPolytope(vertices, dim, tuple(w for _, w in pairs))


@_per_configuration
def secondary_polytope(A: PointConfiguration) -> SecondaryPolytope:
    """The characteristic vectors of all regular triangulations, each certified
    a vertex of their convex hull by its triangulation's regularity heights.

    Heights w whose lower hull is T make <w, phi_T> < <w, phi_U> for every
    other triangulation U (Gelfand-Kapranov-Zelevinsky 1994, ch. 7):
    the certificate must hold, and it is checked, not assumed.
    """
    tris = enumerate_regular_triangulations(A)
    return _certified_vertices([gkz_vector(A, T) for T in tris], [T.heights for T in tris])


@record
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
    same group lattice; both are hard preconditions, read off A's hull.
    """
    if i in A.newton.vertex_indices:
        raise ValueError("column is a vertex of the Newton polytope")
    if not _keeps_z_a(A, i):
        raise ValueError("deletion changes the group lattice")
    big = secondary_polytope(A)
    small = secondary_polytope(A._without(i, True))
    big_zero = tuple(sorted(v for v in big.vertices if v[i] == 0))
    embedded = tuple(sorted(tuple(v[:i]) + (0,) + tuple(v[i:]) for v in small.vertices))
    ok = big_zero == embedded
    return FacetRestrictionReport(
        ok,
        "vertex sets agree" if ok else "vertex sets differ",
        big_zero,
        embedded,
    )
