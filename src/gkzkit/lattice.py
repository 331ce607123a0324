"""Integer lattices: spans and indices.

A :class:`Lattice` is a subgroup of Z^ambient stored through a canonical
column-HNF basis, so equality of lattices is structural equality.  Affine
lattices are (anchor, difference lattice) pairs; the two notions are kept
separate on purpose because face lattices of a point configuration are affine
objects while index computations happen on genuine subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .intlinalg import IntMatrix, _hnf, _ints, det_fraction, vsub

INFINITE = float("inf")


class ContainmentError(ValueError):
    """A claimed sublattice is not contained in the ambient one."""


def hnf_solve(rows, pivots, v):
    """Coordinates of v in the columns of a column-HNF matrix, as a pair
    (numerators, denominator > 0), or None when v is outside their span.

    Column j is zero above its pivot row ``pivots[j]`` and every later column
    is zero on that row, so forward substitution on the pivot rows solves the
    system; v is in the span iff the residual then vanishes on every row.
    Scaling by the lcm of v's denominators and the pivots keeps it integral.
    For integer v the denominator is the product of the pivots.
    """
    den = lcm(*(a.denominator for a in v))
    for j, p in enumerate(pivots):
        den *= rows[p][j]
    w = [a.numerator * (den // a.denominator) for a in v]
    num = []
    for j, p in enumerate(pivots):
        row = rows[p]
        t = w[p]
        for k in range(j):
            t -= row[k] * num[k]
        num.append(t // row[j])
    for row, t in zip(rows, w, strict=True):
        for a, n in zip(row, num):
            t -= a * n
        if t:
            return None
    return num, den


@dataclass(frozen=True)
class Lattice:
    ambient_dim: int
    basis: IntMatrix  # ambient_dim x rank, canonical column HNF, full column rank

    @classmethod
    def from_generators(cls, generators, ambient_dim: int | None = None) -> "Lattice":
        cols = [_ints(g) for g in generators]
        if ambient_dim is None:
            if not cols:
                raise ValueError("empty generator list needs explicit ambient_dim")
            ambient_dim = len(cols[0])
        if any(len(c) != ambient_dim for c in cols):
            raise ValueError(f"generators must have length {ambient_dim}")
        rank = _hnf(cols, ambient_dim)
        return cls(ambient_dim, IntMatrix.from_columns(cols[:rank], rows=ambient_dim))

    @property
    def rank(self) -> int:
        return self.basis.cols

    def generators(self):
        return tuple(self.basis.column(j) for j in range(self.basis.cols))

    @cached_property
    def pivots(self):
        """Pivot row of each basis column: its first nonzero entry."""
        rows = self.basis.entries
        return tuple(next(i for i, row in enumerate(rows) if row[j]) for j in range(self.rank))

    def coordinates(self, v):
        """Integer coordinates of v in this basis, or None if v is not a member."""
        solved = hnf_solve(self.basis.entries, self.pivots, v)
        if solved is None or any(n % solved[1] for n in solved[0]):
            return None
        return tuple(n // solved[1] for n in solved[0])

    def rational_coordinates(self, v):
        """Rational coordinates of v in the basis, or None if outside the span."""
        solved = hnf_solve(self.basis.entries, self.pivots, v)
        return None if solved is None else tuple(Fraction(n, solved[1]) for n in solved[0])

    def __contains__(self, v) -> bool:
        return self.coordinates(v) is not None


@dataclass(frozen=True)
class AffineLattice:
    """anchor + difference lattice; the model of a face lattice Z_{A∩Γ}."""

    anchor: tuple
    delta: Lattice

    def __contains__(self, point) -> bool:
        return vsub(point, self.anchor) in self.delta

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineLattice):
            return NotImplemented
        return self.delta == other.delta and vsub(other.anchor, self.anchor) in self.delta

    def canonical_anchor(self):
        """The unique anchor representative with pivot-row entries in [0, pivot).

        The HNF basis of ``delta`` is triangular on its pivot rows, so greedy
        reduction is canonical: equal affine lattices get equal anchors.
        """
        basis = self.delta.basis
        rep = list(self.anchor)
        for j, p in enumerate(self.delta.pivots):
            col = basis.column(j)
            q = rep[p] // col[p]
            if q:
                for i in range(len(rep)):
                    rep[i] -= q * col[i]
        return tuple(rep)

    def __hash__(self):
        return hash((self.canonical_anchor(), self.delta.basis.entries))

    @property
    def rank(self) -> int:
        return self.delta.rank


def lattice_span(points, mode: str):
    """Affine or linear integer span of a point list.

    mode "affine": lattice of pairwise differences, anchored at the first
    point.  mode "linear": group generated by the points themselves.
    """
    points = [tuple(_ints(p)) for p in points]
    if not points:
        raise ValueError("lattice_span needs at least one point")
    dim = len(points[0])
    if mode == "linear":
        return Lattice.from_generators(points, dim)
    if mode == "affine":
        anchor = points[0]
        diffs = [vsub(p, anchor) for p in points[1:]]
        return AffineLattice(anchor, Lattice.from_generators(diffs, dim))
    raise ValueError(f"unknown span mode {mode!r}")


def lattice_index(sup: Lattice, sub: Lattice):
    """[sup : sub], or INFINITE when the ranks differ.

    Raises ContainmentError when sub is not contained in sup.
    """
    coords = [sup.coordinates(g) for g in sub.generators()]
    if None in coords:
        raise ContainmentError("sub lattice not contained in sup lattice")
    if sub.rank < sup.rank:
        return INFINITE
    return abs(int(det_fraction(coords)))

