"""Integer lattices.

A :class:`Lattice` is a subgroup of Z^ambient stored through a canonical
column-HNF basis, so equality of lattices is structural equality.  The face
lattices of a point configuration are lattices of chart coordinates, each
anchored at a point of its face by the caller (see
:func:`gkzkit.configuration.face_lattice`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .intlinalg import _hnf, _ints, record


def _substitute(rows, pivots, ws):
    """Integer coordinates of each integer vector w of ``ws``, one entry per
    row, in the columns of a column-HNF matrix, as a list of lists, None for
    a w that is not an integer combination of them.

    Column j is zero above its pivot row ``pivots[j]`` and every later column
    is zero on that row, so forward substitution on the pivot rows solves
    each system, and the rows are read once for all of ``ws``: w is no member
    at the first pivot that does not divide, or else iff the residual is
    nonzero on some other row (the pivot rows hold by construction).
    """
    steps = [(p, rows[p], rows[p][j]) for j, p in enumerate(pivots)]
    rest = [(i, row) for i, row in enumerate(rows) if i not in pivots]

    def solve(w):
        x = []
        for p, row, d in steps:
            q, r = divmod(w[p] - sum(map(mul, row, x)), d)
            if r:
                return None
            x.append(q)
        return None if any(w[i] != sum(map(mul, row, x)) for i, row in rest) else x

    return [solve(w) for w in ws]


def hnf_solve(rows, pivots, v):
    """Coordinates of v in the columns of a column-HNF matrix, as a pair
    (numerators, denominator > 0), or None when v is outside their span.

    Scaled by the lcm of v's denominators and the pivots, v has integer
    coordinates when it is in the span, which :func:`_substitute` finds.
    For integer v the denominator is the product of the pivots.
    """
    den = lcm(*(a.denominator for a in v))
    for j, p in enumerate(pivots):
        den *= rows[p][j]
    [x] = _substitute(rows, pivots, [[a.numerator * (den // a.denominator) for a in v]])
    return None if x is None else (x, den)


# the entry types Lattice.coordinates reads exactly
_EXACT = frozenset((int, bool, Fraction))


@record
class Lattice:
    ambient_dim: int
    basis: tuple  # ambient_dim rows x rank columns, canonical column HNF, full column rank

    @classmethod
    def from_generators(cls, generators, ambient_dim: int | None = None) -> "Lattice":
        cols = [_ints(g) for g in generators]
        if ambient_dim is None:
            if not cols:
                raise ValueError("empty generator list needs explicit ambient_dim")
            ambient_dim = len(cols[0])
        if any(len(c) != ambient_dim for c in cols):
            raise ValueError(f"generators must have length {ambient_dim}")
        return cls._spanned(cols, ambient_dim)

    @classmethod
    def _spanned(cls, cols, ambient_dim: int) -> "Lattice":
        """The lattice of checked integer column lists, reduced in place."""
        rank = _hnf(cols, ambient_dim)
        basis = tuple(zip(*cols[:rank])) if rank else ((),) * ambient_dim
        return cls(ambient_dim, basis)

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    def generators(self):
        return tuple(zip(*self.basis))

    @cached_property
    def pivots(self):
        """Pivot row of each basis column: its first nonzero entry."""
        rows = self.basis
        return tuple(next(i for i, row in enumerate(rows) if row[j]) for j in range(self.rank))

    def coordinates(self, v):
        """Integer coordinates of v in this basis, or None if v is not a
        member, by :func:`_substitute`.  ValueError names both lengths when
        v's is not ambient_dim, and the first entry that is neither an int
        nor a Fraction.
        """
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector of length {len(v)} in a lattice of ambient dimension {self.ambient_dim}"
            )
        if not _EXACT.issuperset(map(type, v)):
            a = next(a for a in v if type(a) not in _EXACT)
            raise ValueError(f"entry {a!r} is neither an int nor a Fraction")
        [x] = _substitute(self.basis, self.pivots, [v])
        return None if x is None else tuple(x)

    def __contains__(self, v) -> bool:
        return self.coordinates(v) is not None
