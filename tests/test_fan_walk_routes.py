"""Differential tests: the walk of the secondary fan, which certifies each flip
neighbour on the rays of the parents that reach it and runs the LP only when
every ray misses, against the walk that runs the LP on every candidate.

``enumerate_lp_ref`` is that earlier enumeration, a reference since commit
64400be, kept verbatim but for its docstring, and cached so that two tests
share its runs: every triangulation the search visits is certified by the
``is_regular`` LP, and every flip's volumes are computed before the search
asks whether it has seen the flip.  It stays as the route the walk
replaced; the cover enumeration of ``test_triangulation_routes.py`` is the
independent one.

``ref_circuits`` and ``ref_flips`` are the earlier ``_circuits`` and
``_flips``, references since commit 64400be, kept verbatim: their circuits
carry no dependence and their flips no circuit.  They are the flips of
``enumerate_lp_ref``, and the reference of the walk's flips, which take their
circuits from the supports of each triangulation's folding rows instead of
scanning every point subset; ``ref_dependence`` is the dependence the earlier
``_circuits`` attached to a circuit.

``ref_folding_rows`` and ``ref_ray_heights`` are the earlier ``_folding_rows``
(one elimination per cell of each triangulation, apart from the volumes) and
``_ray_heights`` (the interval kept in Fractions), references since commit
c3224ec, kept verbatim but for their docstrings: the routes the walk's table
of cells and its integer interval replaced.  The cells' rows are now Cramer
vectors of signed maximal minors, read off the Newton hull's one table,
``Polytope.minors``, which the walk, ``is_regular`` and ``make_triangulation``
all share and which fills each entry on demand by one elimination and keeps
only the entries asked for.  Every entry it fills is checked against sympy's
determinants, and past ``ENUMERATION_CAP`` every minor a triangulation's
rows ask for against ``ref_minor``, the per-minor elimination of the earlier
``_MinorMemo``, verbatim since commit 82755d4.  The walk hands ``_flips`` its cells and
circuits as bit masks of columns.

``lp_oracle`` is the walk's completeness check: it walks every
triangulation, regular or not, by the reference flips, and decides each by
the ``is_regular`` LP on its reference folding rows, so it shares only the
LP with the walk.
"""

import math
import random
import re
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
import sympy

from _corpus import FAMILY, LARGE, MOTHER, config, cover_family
from test_kernel_routes import ref_rational_nullspace as rational_nullspace
from test_minors_routes import ref_cell_volume
from gkzkit import secondary
from gkzkit.intlinalg import _reduce, clear_denominators, dot, primitive
from gkzkit.polytope import _Minors, pulling_cells
from gkzkit.secondary import (
    DegenerateHeightsError,
    ENUMERATION_CAP,
    Triangulation,
    _certified_vertices,
    _certify,
    _flips,
    _folding_rows,
    _lower_hull,
    _ray_heights,
    enumerate_regular_triangulations,
    gkz_vector,
    is_regular,
    make_triangulation,
    regular_triangulation,
    secondary_polytope,
)


def ref_circuits(coords):
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


def ref_dependence(coords, Z):
    """The primitive integer affine dependence of the points Z, over all the
    points, from the one-dimensional nullspace of their homogenised columns."""
    rows = [[1] * len(Z)] + [[coords[j][i] for j in Z] for i in range(len(coords[0]))]
    null = rational_nullspace(rows)
    assert len(null) == 1 and all(null[0]), Z
    weights = dict(zip(Z, primitive(clear_denominators(null[0]))))
    return tuple(weights.get(j, 0) for j in range(len(coords)))


def ref_flips(cells, circuits):
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


@cache
def enumerate_lp_ref(A):
    """The earlier enumeration: one exact LP per candidate."""
    start = make_triangulation(A, pulling_cells(A.poset))
    circuits = ref_circuits(A.chart_points)
    seen = {start.cells}
    queue = deque([start])
    certified = []
    while queue:
        T = queue.popleft()
        ok, witness = is_regular(A, T)
        if not ok:
            continue
        T = Triangulation(T.cells, T.volumes, clear_denominators(witness))
        certified.append((gkz_vector(A, T), T, _folding_rows(A, T)))
        for cells in ref_flips(frozenset(map(frozenset, T.cells)), circuits):
            U = make_triangulation(A, cells)
            if U.total_volume != T.total_volume:
                raise AssertionError("a flip must keep the covered volume")
            if U.cells not in seen:
                seen.add(U.cells)
                queue.append(U)
    found = {T.cells for _, T, _ in certified}
    if start.cells not in found:
        raise AssertionError("the pulling triangulation that starts the search is not regular")
    rng = random.Random(20240 + A.size)
    generic = False
    for _ in range(20):
        heights = [rng.randrange(-10**6, 10**6) for _ in range(A.size)]
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


def test_fan_walk_matches_the_lp_per_candidate_walk():
    for A in (*FAMILY, *cover_family(), *(A for A, _ in LARGE)):
        got = enumerate_regular_triangulations(A)
        expect = enumerate_lp_ref(A)
        assert [(T.cells, T.volumes) for T in got] == [
            (T.cells, T.volumes) for T in expect
        ], A.points
        ref = _certified_vertices([gkz_vector(A, T) for T in expect], [T.heights for T in expect])
        S = secondary_polytope(A)
        assert (S.vertices, S.dim) == (ref.vertices, ref.dim), A.points
        for T, R in zip(got, expect):
            assert all(dot(r, T.heights) < 0 for r in _folding_rows(A, R)), (A.points, T)
    for A, count in LARGE:
        assert len(enumerate_regular_triangulations(A)) == count


def test_witnesses_are_the_lifted_hulls_heights():
    # an oracle apart from the folding rows: the lower hull of each witness
    for A in (*FAMILY, *cover_family(), *(A for A, _ in LARGE)):
        for T in enumerate_regular_triangulations(A):
            assert regular_triangulation(A, T.heights) == T, (A.points, T)


def test_rays_certify_most_neighbours(monkeypatch):
    lp = []

    def counted(A, T, rows=None):
        result = is_regular(A, T, rows)
        lp.append(result[0])
        return result

    monkeypatch.setattr(secondary, "is_regular", counted)
    for (A, count), misses in zip(LARGE, (7, 11, 8)):
        lp.clear()
        assert len(enumerate_regular_triangulations.__wrapped__(A)) == count
        # the misses of every parent's ray: every one of these configurations
        # has only regular triangulations, so every LP certifies
        assert all(lp) and len(lp) == misses, (A.points, len(lp))


def _visits(monkeypatch, A):
    """The first LP's triangulation and every (triangulation, folding rows)
    pair that one uncached walk of A certifies, in order."""
    visits, lp = [], []

    def counted(A, T, rows, rays=()):
        visits.append((T, rows))
        return _certify(A, T, rows, rays)

    def counted_lp(A, T, rows=None):
        lp.append(T.cells)
        return is_regular(A, T, rows)

    monkeypatch.setattr(secondary, "_certify", counted)
    monkeypatch.setattr(secondary, "is_regular", counted_lp)
    tris = enumerate_regular_triangulations.__wrapped__(A)
    monkeypatch.undo()
    return tris, visits, lp


def test_no_start_goes_to_the_lp(monkeypatch):
    for A in (*FAMILY, *(A for A, _ in LARGE)):
        _, visits, lp = _visits(monkeypatch, A)
        start = visits[0][0]
        assert start.cells == make_triangulation(A, pulling_cells(A.poset)).cells
        assert start.cells not in lp, A.points


def test_unlifted_starts_go_to_the_lp(monkeypatch):
    # heights that lift nothing: the ray from 0 misses every start's cone
    for A in (*FAMILY, *(A for A, _ in LARGE)):
        monkeypatch.setattr(secondary, "_pulling_heights", lambda A: (0,) * A.size)
        got, visits, lp = _visits(monkeypatch, A)
        assert lp[0] == visits[0][0].cells, A.points
        assert got == enumerate_regular_triangulations(A), A.points


def ref_folding_rows(A, T):
    """The earlier ``_folding_rows``: one elimination per cell of T."""
    coords = A.chart_points
    rows = []
    for cell in T.cells:
        outside = [p for p in range(A.size) if p not in cell]
        # homogenised cell columns, then every outside column: reduced to
        # D * [I | lam], one weight column per outside point
        system = [
            [1] * A.size,
            *([coords[j][i] for j in (*cell, *outside)] for i in range(len(coords[0]))),
        ]
        pivots, D, _ = _reduce(system, len(cell))
        if len(pivots) != len(cell):
            raise AssertionError("cell must span the chart")
        for t, p in enumerate(outside, start=len(cell)):
            row = [0] * A.size
            for k, j in enumerate(cell):
                row[j] = system[k][t]
            row[p] = -D
            rows.append(primitive([-a for a in row] if D < 0 else row))
    return tuple(rows)


def test_cell_table_matches_a_fresh_elimination_per_triangulation(monkeypatch):
    visited = 0
    for A in (*FAMILY, *cover_family(), *(A for A, _ in LARGE)):
        _, visits, _ = _visits(monkeypatch, A)
        for T, rows in visits:
            assert rows == ref_folding_rows(A, T) == _folding_rows(A, T), (A.points, T)
            assert T.volumes == tuple(int(ref_cell_volume(A.chart_points, c)) for c in T.cells)
        visited += len(visits)
    assert visited > 700, visited


def _asked(n, cells):
    """The masks of each cell and one column p outside it: the (d + 2)-column
    sets whose (d + 1)-column submasks are the minors the cell's folding rows
    read."""
    return [c | 1 << p for c in map(_masks, cells) for p in range(n) if not c >> p & 1]


def test_is_regular_past_the_enumeration_cap_fills_only_the_minors_its_rows_ask_for():
    # 16 planar points: the LP certifies T on rows read off the one table of
    # minors, which then holds only maximal minors that T's rows asked for,
    # far fewer than the 560 of 3 of the 16 columns
    rng = random.Random(1616)
    A = config(rng.sample([(x, y) for x in range(6) for y in range(6)], 16))
    assert A.size > ENUMERATION_CAP and A.newton.dim == 2
    T = regular_triangulation(A, [rng.getrandbits(30) for _ in range(A.size)])
    vars(A.newton).pop("minors", None)
    ok, witness = is_regular(A, T)
    held = list(A.newton.minors)
    asked = _asked(A.size, T.cells)
    assert all(m.bit_count() == 3 and any(m & a == m for a in asked) for m in held)
    assert len(held) < 500, len(held)
    assert ok and regular_triangulation(A, witness) == T, T


def test_folding_rows_match_a_fresh_elimination():
    # every regular triangulation of the walk's corpora, and every
    # triangulation of the mother of all examples, regular or not
    tris = [
        (A, T)
        for A in (*FAMILY, *cover_family(), *(A for A, _ in LARGE))
        for T in enumerate_regular_triangulations(A)
    ]
    mother = config(MOTHER)
    every, regular = lp_oracle(mother)
    for A, T in tris:
        assert _folding_rows(A, T) == ref_folding_rows(A, T), (A.points, T)
    for cells in every:
        ok, witness = is_regular(mother, Triangulation(cells, ()))
        assert ok == (cells in regular), cells
        assert not ok or regular_triangulation(mother, witness).cells == cells
    assert len(tris) > 700 and len(every) - len(regular) == 2, len(tris)


def test_minors_match_sympy_determinants():
    # every maximal minor, zero ones included, of the homogenised chart
    # columns, d = 0 (one point) to d = 3 (the cube); the table holds those
    # and nothing else
    seen_dims, seen_signs, seen_levels = set(), set(), set()
    for A in (config([()]), *FAMILY, *(A for A, _ in LARGE), config(MOTHER)):
        d = A.newton.dim
        minors = _Minors(A.chart_points)
        for cols in combinations(range(A.size), d + 1):
            minors[_masks(cols)]
        assert len(minors) == math.comb(A.size, d + 1), A.points
        for mask, minor in minors.items():
            cols = sorted(_columns(mask))
            rows = ([A.chart_points[j][i] for j in cols] for i in range(len(cols) - 1))
            det = int(sympy.Matrix([[1] * len(cols), *rows]).det())
            assert minor == det, (A.points, cols)
            seen_signs.add((det > 0) - (det < 0))
            seen_levels.add((d, len(cols)))
        seen_dims.add(d)
    assert seen_dims == {0, 1, 2, 3} and seen_signs == {-1, 0, 1}
    assert seen_levels == {(d, d + 1) for d in seen_dims}


def ref_minor(coords, mask):
    """The earlier ``_MinorMemo`` entry, a reference since commit 82755d4:
    one signed determinant of the mask's columns (1, x_j), the last pivot of
    ``_reduce`` times the sign of its row swaps, 0 when a pivot is missing."""
    cols = tuple(j for j in range(mask.bit_length()) if mask >> j & 1)
    rows = [[1] * len(cols), *([coords[j][i] for j in cols] for i in range(len(cols) - 1))]
    pivots, d, sign = _reduce(rows, len(cols))
    return sign * d if len(pivots) == len(cols) else 0


def _past_the_cap(n, d):
    """n distinct seeded points of [-10, 10]^d and their triangulation by
    seeded heights."""
    rng = random.Random(1000 * n + d)
    points = set()
    while len(points) < n:
        points.add(tuple(rng.randint(-10, 10) for _ in range(d)))
    A = config(sorted(points))
    return A, regular_triangulation(A, [rng.getrandbits(30) for _ in range(n)])


def test_minors_past_the_cap_match_one_elimination_each():
    # every minor the folding rows of T ask for, in dimensions 3 to 5, from a
    # fresh table against the elimination route the table replaced; zero
    # minors occur among them
    signs = set()
    for n, d in ((60, 3), (32, 4), (24, 5)):
        A, T = _past_the_cap(n, d)
        assert A.size > ENUMERATION_CAP and A.newton.dim == d
        minors = _Minors(A.chart_points)
        asked = {a ^ 1 << j for a in _asked(A.size, T.cells) for j in _columns(a)}
        for mask in asked:
            minor = minors[mask]
            assert minor == ref_minor(A.chart_points, mask), (n, d, sorted(_columns(mask)))
            signs.add((d, (minor > 0) - (minor < 0)))
    assert {s for _, s in signs} == {-1, 0, 1} and {d for d, _ in signs} == {3, 4, 5}


def test_lp_heights_are_checked_against_every_folding_row(monkeypatch):
    # heights constant on the columns vanish on every affine dependence, so
    # they fail every folding row
    A = config(MOTHER)
    T = make_triangulation(A, pulling_cells(A.poset))
    monkeypatch.setattr(secondary, "lp_feasible_strict", lambda *args: (True, [1] * A.size))
    with pytest.raises(AssertionError, match=re.escape(f"fail the folding rows of {T.cells}")):
        _certify(A, T, _folding_rows(A, T))
    # the two non-regular triangulations of the walk go to the LP
    with pytest.raises(AssertionError, match="LP heights"):
        enumerate_regular_triangulations.__wrapped__(A)


def test_ray_steps_inside_the_open_interval():
    w, lam = (1, 0), (0, 1)
    # 1 - 3t < 0 and -2 + 3t < 0: t in (1/3, 2/3) holds no integer, so the
    # midpoint 1/2 gives 2w + lam
    assert _ray_heights([(1, -3), (-2, 3)], w, lam) == (2, 1)
    # 1 - 3t < 0 alone: the least integer past 1/3
    assert _ray_heights([(1, -3)], w, lam) == (1, 1)
    # 1 + 3t < 0: t < -1/3, on the other side of w
    assert _ray_heights([(1, 3)], w, lam) == (1, -1)
    # t in (1, 2) on one row pair, and the integer steps of the ends rejected
    assert _ray_heights([(1, -1), (-2, 1)], w, lam) == (2, 3)
    # empty intervals: t > 2/3 and t < 1/3, and a row that no step moves
    assert _ray_heights([(2, -3), (-1, 3)], w, lam) is None
    assert _ray_heights([(1, 0), (-2, 3)], w, lam) is None
    # every row negative at w: no step
    assert _ray_heights([(-1, 0), (-1, 1)], w, lam) == (1, 0)


def ref_ray_heights(rows, w, lam):
    """The earlier ``_ray_heights``: the interval's ends as Fractions."""
    lo = hi = None
    for r in rows:
        a, b = dot(r, w), dot(r, lam)
        if b > 0:
            if hi is None or Fraction(-a, b) < hi:
                hi = Fraction(-a, b)
        elif b < 0:
            if lo is None or Fraction(-a, b) > lo:
                lo = Fraction(-a, b)
        elif a >= 0:
            return None
    if lo is not None and hi is not None and lo >= hi:
        return None
    if lo is not None and lo >= 0:
        t = Fraction(math.floor(lo) + 1)
    elif hi is not None and hi <= 0:
        t = Fraction(math.ceil(hi) - 1)
    else:
        t = Fraction(0)
    if (lo is not None and t <= lo) or (hi is not None and t >= hi):
        t = (lo + hi) / 2
    num, den = t.numerator, t.denominator
    return primitive([den * x + num * y for x, y in zip(w, lam)])


def test_integer_ray_interval_matches_the_fraction_interval():
    rng = random.Random(30)
    seen = {"miss": 0, "integer": 0, "midpoint": 0, "flat": 0, "tie": 0}
    for _ in range(4000):
        n = rng.randint(1, 4)
        w = [rng.randint(-4, 4) for _ in range(n)]
        lam = [rng.randint(-9, 9) for _ in range(n)]
        # small entries, so that rows tie on an end, or have r.lam = 0
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        got = _ray_heights(rows, w, lam)
        assert got == ref_ray_heights(rows, w, lam), (rows, w, lam)
        ends = [Fraction(-dot(r, w), dot(r, lam)) for r in rows if dot(r, lam)]
        seen["flat"] += len(ends) < len(rows)
        seen["tie"] += len(set(ends)) < len(ends)
        if got is None:
            seen["miss"] += 1
            continue
        assert all(dot(r, got) < 0 for r in rows)
        steps = {primitive([x + k * y for x, y in zip(w, lam)]) for k in range(-40, 41)}
        seen["integer" if got in steps else "midpoint"] += 1
    assert min(seen.values()) > 100, seen


def _masks(cols):
    return sum(1 << j for j in cols)


def _columns(mask):
    return frozenset(j for j in range(mask.bit_length()) if mask >> j & 1)


def _row_circuits(rows):
    """The circuits the walk tries on these folding rows: each support once,
    with its first row, by (size, indices), as (Z, Z+, lam) masks."""
    supports = {}
    for r in rows:
        supports.setdefault(tuple(j for j, a in enumerate(r) if a), r)
    return [
        (_masks(Z), _masks(j for j in Z if lam[j] > 0), lam)
        for Z, lam in sorted(supports.items(), key=lambda c: (len(c[0]), c[0]))
    ]


def test_flips_read_off_the_folding_rows_match_the_circuit_scan():
    for A in (*FAMILY, *cover_family(), *(A for A, _ in LARGE), config(MOTHER)):
        coords = A.chart_points
        circuits = ref_circuits(coords)
        # the reference walk's triangulations, so that a flip the rows miss
        # fails here rather than in the walk's own checks
        for T in enumerate_lp_ref(A):
            cells = frozenset(map(frozenset, T.cells))
            got = list(_flips(frozenset(map(_masks, T.cells)), _row_circuits(_folding_rows(A, T))))
            # the circuit each reference flip swaps along
            expect = {}
            for plus, minus in circuits:
                for flip in ref_flips(cells, [(plus, minus)]):
                    assert flip not in expect, (A.points, T.cells)
                    expect[flip] = tuple(sorted(plus | minus))
            # the same flips in the same order, so the walk queues the same
            # neighbours as the scan of every point subset did
            got = [(frozenset(map(_columns, flip)), lam) for flip, lam in got]
            assert [flip for flip, _ in got] == list(ref_flips(cells, circuits)), T.cells
            for flip, lam in got:
                Z = expect[flip]
                ref = ref_dependence(coords, Z)
                assert lam in (ref, tuple(-a for a in ref)), (A.points, T.cells, Z)


def lp_oracle(A):
    """(every triangulation, the regular ones) by the reference flips from
    the lifted hull of seeded heights, where the walk starts from the pulling
    triangulation, each decided by the ``is_regular`` LP on its reference
    folding rows: the oracle shares only the LP with the walk."""
    circuits = ref_circuits(A.chart_points)
    rng = random.Random(16)
    start = regular_triangulation(A, [rng.getrandbits(30) for _ in range(A.size)]).cells
    seen, regular = {start}, set()
    queue = deque([start])
    while queue:
        cells = queue.popleft()
        T = Triangulation(cells, ())
        if is_regular(A, T, ref_folding_rows(A, T))[0]:
            regular.add(cells)
        for flip in ref_flips(frozenset(map(frozenset, cells)), circuits):
            flip = tuple(sorted(tuple(sorted(c)) for c in flip))
            if flip not in seen:
                seen.add(flip)
                queue.append(flip)
    return seen, regular


def test_the_walk_finds_every_regular_triangulation_of_the_flip_graph():
    # counts: the mother of all examples has two non-regular triangulations
    # (De Loera-Rambau-Santos, Triangulations, 2010); in the plane the flip
    # graph of all triangulations is connected, so the oracle is complete
    # there, and elsewhere a check
    cases = (
        (config(MOTHER), 18, 16),
        (LARGE[0][0], 128, 128),  # the 9-point segment
        (LARGE[2][0], 74, 74),  # the cube
        (config([(x, y) for x in range(4) for y in range(2)]), 106, 106),
    )
    for A, every, count in cases:
        tris, regular = lp_oracle(A)
        assert (len(tris), len(regular)) == (every, count), A.points
        assert regular == {T.cells for T in enumerate_regular_triangulations(A)}, A.points
