"""Differential tests: the Newton hull's one table of signed minors,
``Polytope.minors``, against one elimination per cell.

``ref_cell_volume`` is the earlier ``polytope.cell_volume``, kept verbatim:
|det| of a simplex's edge vectors, one ``_abs_det`` elimination per cell.
It was the second source of a simplex volume beside the table, read by
``A.volume`` and by ``gamma_series``'s cell check, and it stays as the
reference of every volume the table now gives.  ``test_hyper.py`` pins
``gamma_series``'s refusal of a cell of zero minor, and
``test_fan_walk_routes.py`` checks the table's entries against sympy.

The table lives as long as its hull: nothing else keeps it, so a
configuration past ``ENUMERATION_CAP`` drops the minors its LP filled with
its hull, and one under the cap drops them with the results kept with it.
"""

import gc
import random
import weakref
from itertools import combinations

from _corpus import CATALOG, FAMILY, LARGE, MOTHER, config
from gkzkit.hyper import kernel_slice_representative, toric_kernel_basis
from gkzkit.intlinalg import _abs_det, vsub
from gkzkit.polytope import _Minors, pulling_cells
from gkzkit.secondary import (
    ENUMERATION_CAP,
    check_facet_restriction,
    enumerate_regular_triangulations,
    is_regular,
    regular_triangulation,
    secondary_polytope,
)


def ref_cell_volume(coords, cell) -> int:
    """|det| of the edge vectors of the simplex on the integer points
    ``coords[i]``, i in cell: its normalized volume when the coordinates are
    lattice coordinates."""
    base = coords[cell[0]]
    return _abs_det([vsub(coords[j], base) for j in cell[1:]])


def test_every_maximal_minor_is_its_cells_volume():
    # every (d + 1)-subset, degenerate ones included, of the family, the
    # large configurations and the mother of all examples
    zeros = cells = 0
    for A in (*FAMILY, *(A for A, _ in LARGE), config(MOTHER)):
        for cell in combinations(range(A.size), A.newton.dim + 1):
            want = ref_cell_volume(A.chart_points, cell)
            assert abs(A.newton.minor(cell)) == want, (A.points, cell)
            zeros += want == 0
            cells += 1
    assert zeros > 20 and cells > 300, (zeros, cells)


def test_the_volume_is_the_sum_of_the_pulling_cells_minors():
    for A in (*FAMILY, *(A for A, _ in LARGE), config(MOTHER)):
        want = sum(ref_cell_volume(A.chart_points, c) for c in pulling_cells(A.poset))
        assert A.volume == want, A.points
    # the 3 x 3 grid and the cube: the volume is 8 and 6
    assert [A.volume for A, _ in LARGE] == [8, 8, 6]


def test_a_dense_cell_keeps_one_entry():
    # d + 1 seeded points of dense chart coordinates inside 120 times the
    # unit 12-simplex, whose vertices and unit points make the chart Z^12:
    # their cell's minor is one elimination, and the table keeps it alone,
    # where expanding it from the minors of its subsets kept 2^13 of them
    d, rng = 12, random.Random(12)
    corners = [(0,) * d, *(tuple(120 * (i == j) for j in range(d)) for i in range(d))]
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    A = config(corners + units + [tuple(rng.randint(1, 9) for _ in range(d)) for _ in range(d + 1)])
    cell = tuple(range(A.size - d - 1, A.size))
    assert abs(A.newton.minor(cell)) == ref_cell_volume(A.chart_points, cell) > 0
    assert len(A.newton.minors) == 1


def test_the_table_lives_as_long_as_its_hull():
    # past the cap no result cache holds the configuration: the table that
    # is_regular fills goes with A
    rng = random.Random(1616)
    A = config(rng.sample([(x, y) for x in range(6) for y in range(6)], 16))
    assert A.size > ENUMERATION_CAP
    T = regular_triangulation(A, [rng.getrandbits(30) for _ in range(A.size)])
    vars(A.newton).pop("minors", None)
    ok, _ = is_regular(A, T)
    table = A.newton.minors
    assert ok and isinstance(table, _Minors) and len(table) > A.size
    ref = weakref.ref(table)
    del A, table
    gc.collect()
    assert ref() is None


def test_results_kept_with_a_configuration_die_with_it():
    # labels of its own keep A from sharing the results of any configuration
    # the other tests keep alive; column 4 is the centre of a quadrilateral
    A = config(CATALOG[0], [f"dies{j}" for j in range(5)])
    assert check_facet_restriction(A, 4)
    assert len(enumerate_regular_triangulations(A)) == len(secondary_polytope(A).vertices) == 4
    assert toric_kernel_basis(A) and kernel_slice_representative(A, 4, 1)
    refs = weakref.ref(A), weakref.ref(A.newton.minors)
    del A
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
