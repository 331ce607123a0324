"""Hermite normal forms, spans, indices."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, zeros
from sympy.matrices.normalforms import hermite_normal_form

from gkzkit.configuration import PointConfiguration, face_lattice
from gkzkit.intlinalg import det_fraction, dot, integer_kernel_basis, vsub
from gkzkit.lattice import Lattice
from gkzkit.polytope import convex_hull, lattice_points_in
from _corpus import from_columns, hnf_with_transform
from test_hnf_routes import ref_intersect_subspace
from test_subdiagram_routes import ref_lattice_index

matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def test_hnf_identity():
    I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    H, U = hnf_with_transform(I3)
    assert H == I3 and U == I3


def test_hnf_small_diagonal_case():
    M = ((2, 4), (0, 6))
    H, U = hnf_with_transform(M)
    assert Matrix(M) * Matrix(U) == Matrix(H)
    assert abs(det_fraction(U)) == 1
    assert H[0][0] == 2 and H[1][1] == 6
    assert 0 <= H[1][0] < 6


def test_hnf_random_replay():
    rng = random.Random(7)
    M = tuple(tuple(rng.randint(-9, 9) for _ in range(6)) for _ in range(4))
    H, U = hnf_with_transform(M)
    assert Matrix(M) * Matrix(U) == Matrix(H)
    assert abs(det_fraction(U)) == 1


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_hnf_is_canonical_and_idempotent(rows):
    M = tuple(map(tuple, rows))
    H, U = hnf_with_transform(M)
    assert Matrix(M) * Matrix(U) == Matrix(H)
    assert abs(det_fraction(U)) == 1
    H2, _ = hnf_with_transform(H)
    assert H2 == H
    # shuffling generators of the same column span must not change the HNF
    cols = list(zip(*M))
    random.Random(0).shuffle(cols)
    cols.append(tuple(a + b for a, b in zip(cols[0], cols[-1])))
    H3, _ = hnf_with_transform(from_columns(cols, len(M)))
    nz = lambda mat: [c for c in zip(*mat) if any(c)]
    assert nz(H3) == nz(H)


@given(matrices)
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4, 6], [1, 2, 3], [0, 0, 0]])
@settings(max_examples=150, deadline=None)
def test_hnf_against_sympy(rows):
    # sympy's HNF has its own convention, so compare the lattices the two
    # forms span: sympy's canonical form of each generating set
    M = tuple(map(tuple, rows))
    H, U = hnf_with_transform(M)
    assert Matrix(M) * Matrix(U) == Matrix(H)
    assert abs(det_fraction(U)) == 1
    nonzero = [c for c in zip(*H) if any(c)]
    H_nz = Matrix.hstack(*(Matrix(c) for c in nonzero)) if nonzero else zeros(len(M), 0)
    assert hermite_normal_form(H_nz) == hermite_normal_form(Matrix(rows))


def test_kernel_basis():
    A = ((1, 1, 1), (0, 1, 3))
    ker = integer_kernel_basis(A, 3)
    assert len(ker) == 1
    u = ker[0]
    assert [dot(row, u) for row in A] == [0, 0]
    assert sorted(map(abs, u)) == [1, 2, 3]


def test_vector_kernels_match_the_generator_forms():
    rng = random.Random(5)
    for n in range(6):
        u = [rng.randint(-9, 9) for _ in range(n)]
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        assert dot(u, v) == sum(a * b for a, b in zip(u, v))
        assert vsub(u, v) == tuple(a - b for a, b in zip(u, v))
    for u, v in [((1, 2), (1, 2, 3)), ((1, 2, 3), [1, 2]), ((), (0,))]:
        with pytest.raises(ValueError):
            dot(u, v)
        with pytest.raises(ValueError):
            vsub(u, v)


def test_generators_of_the_wrong_length_are_rejected():
    # both once came back as lattices with a truncated basis
    with pytest.raises(ValueError, match="length 2"):
        Lattice.from_generators([(1, 2), (1,)])
    with pytest.raises(ValueError, match="length 2"):
        Lattice.from_generators([(1, 2, 3)], 2)


@pytest.mark.parametrize("v", [(1,), (1, 2, 3, 4)], ids=["short", "long"])
def test_coordinates_of_the_wrong_length_are_refused(v):
    # an IndexError and a bare zip() ValueError before
    L = Lattice.from_generators([(0, 0, 2), (0, 1, 0)])
    message = rf"^vector of length {len(v)} in a lattice of ambient dimension 3$"
    with pytest.raises(ValueError, match=message):
        L.coordinates(v)
    with pytest.raises(ValueError, match=message):
        v in L



@pytest.mark.parametrize("a", [4.0, 2**80 + 0.0, None, "4"], ids=["float", "big-float", "none", "string"])
def test_coordinates_of_inexact_entries_are_refused(a):
    # a float entry gave float coordinates, inexact for large magnitudes
    L = Lattice.from_generators([(0, 0, 2), (0, 1, 0)])
    message = rf"^entry {re.escape(repr(a))} is neither an int nor a Fraction$"
    with pytest.raises(ValueError, match=message):
        L.coordinates((0, 1, a))
    with pytest.raises(ValueError, match=message):
        (0, 1, a) in L
    assert L.coordinates((0, 1, Fraction(4))) == (1, 2)
    assert L.coordinates((0, 1, Fraction(3, 2))) is None


def test_affine_span_collinear_points():
    # the affine span of a face is its lattice of chart differences; the
    # chart basis carries it into ambient coordinates
    A = PointConfiguration.from_columns([(1, 0, 0), (1, 3, 0), (1, 1, 0)])
    L = face_lattice(A, A.poset.top)
    assert L.rank == 1 and L.generators() == ((1,),)
    assert A.newton.chart.generators() == ((0, 1, 0),)


def test_affine_span_single_point():
    A = PointConfiguration.from_columns([(2, 5)])
    L = face_lattice(A, A.poset.top)
    assert L.rank == 0 and L.ambient_dim == 0
    assert () in L
    assert lattice_points_in(A.newton, L) == (((2, 5), 0),)


def test_linear_span_single_vector():
    L = Lattice.from_generators([(1, 3)])
    assert L.generators() == ((1, 3),)
    assert (2, 6) in L and (1, 2) not in L


def test_non_integral_generators_are_rejected():
    with pytest.raises(ValueError, match=r"^non-integral entry Fraction\(1, 2\)$"):
        Lattice.from_generators([(Fraction(1, 2), 3)])
    # integral values of any number type are accepted
    assert Lattice.from_generators([(Fraction(2), 3.0)]).generators() == ((2, 3),)


def test_int_matrix_rejects_non_integral_entries():
    # a matrix enters as the columns of a configuration or the generators of
    # a lattice, and both refuse the first non-integral entry by name
    for build in (PointConfiguration.from_columns, Lattice.from_generators):
        with pytest.raises(ValueError, match=r"^non-integral entry 0\.5$"):
            build([(0.5, Fraction(7, 2)), (1, 2)])
        with pytest.raises(ValueError, match=r"^non-integral entry Fraction\(7, 2\)$"):
            build([(0, Fraction(7, 2)), (1, 2)])
        with pytest.raises(ValueError, match=r"^non-integral entry 2\.5$"):
            build([(1, 2.5), (0, 1)])
    # integral values of any number type are stored as ints
    A = PointConfiguration.from_columns([(Fraction(2), 0), (1.0, -3)])
    assert A.matrix == ((2, 1), (0, -3))
    assert all(type(a) is int for row in A.matrix for a in row)
    L = Lattice.from_generators([(Fraction(2), 0), (1.0, -3)])
    assert L == Lattice.from_generators([(2, 0), (1, -3)])
    assert all(type(a) is int for row in L.basis for a in row)


def test_ragged_and_empty_input_is_refused_by_message():
    with pytest.raises(ValueError, match="^empty generator list needs explicit ambient_dim$"):
        Lattice.from_generators([])
    L = Lattice.from_generators([], 2)
    assert L.rank == 0 and L.basis == ((), ()) and L.generators() == ()
    with pytest.raises(ValueError, match="^convex_hull needs at least one point$"):
        convex_hull([])
    with pytest.raises(ValueError, match="^vectors of lengths 2 and 1$"):
        convex_hull([(1, 2), (1,)])


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), None])
def test_non_finite_and_missing_entries_are_refused_by_name(bad):
    with pytest.raises(ValueError, match=rf"^non-integral entry {bad}$"):
        convex_hull([(bad, 0), (1, 1)])


def test_lattice_index_diagonal():
    sup = Lattice.from_generators([(1, 0), (0, 1)])
    sub = Lattice.from_generators([(2, 0), (0, 3)])
    assert ref_lattice_index(sup, sub) == 6


def test_lattice_index_step3_edge():
    # Z^3 cut to the span of (1,3,0),(1,0,3) versus the group they generate
    Z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    sup = ref_intersect_subspace(Z3, [(1, 3, 0), (1, 0, 3)])
    sub = Lattice.from_generators([(1, 3, 0), (1, 0, 3)])
    assert ref_lattice_index(sup, sub) == 3


def test_lattice_index_equal_and_errors():
    L = Lattice.from_generators([(1, 1), (0, 5)])
    assert ref_lattice_index(L, L) == 1
    Z2 = Lattice.from_generators([(1, 0), (0, 1)])
    assert ref_lattice_index(Z2, Lattice.from_generators([(1, 0)])) == math.inf
    with pytest.raises(ValueError, match="not contained"):
        ref_lattice_index(Lattice.from_generators([(2, 0), (0, 2)]), Z2)


def test_index_multiplicativity():
    L = Lattice.from_generators([(1, 0), (0, 1)])
    M = Lattice.from_generators([(1, 1), (0, 2)])
    K = Lattice.from_generators([(2, 2), (0, 6)])
    assert ref_lattice_index(L, M) * ref_lattice_index(M, K) == ref_lattice_index(L, K)

