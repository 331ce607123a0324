"""Exact linear algebra over Z and Q.

Everything in this module works on immutable nested tuples and never touches
floating point.  Matrices are tuples of row tuples; "columns" of a matrix M
are M's column vectors.  The column Hermite normal form, the only integer
normal form, is canonical so that equal lattices get structurally equal
representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

Vec = tuple
Mat = tuple


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = x*a + y*b."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def vec_gcd(v) -> int:
    return gcd(*v)


def primitive(v):
    """Scale an integer vector by 1/gcd so its entries are coprime."""
    g = vec_gcd(v)
    if g in (0, 1):
        return tuple(v)
    return tuple(a // g for a in v)


def _integral(v):
    """(w, D): the rationals v times the lcm D of their denominators."""
    D = lcm(*(a.denominator for a in v))
    return [a.numerator * (D // a.denominator) for a in v], D


def clear_denominators(v):
    """Smallest positive multiple of a rational vector that is integral."""
    return tuple(_integral(v)[0])


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


@dataclass(frozen=True)
class IntMatrix:
    """Rectangular matrix with exact integer entries, stored row-major."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(a) for a in row) for row in self.entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_columns(cls, columns, rows: int | None = None):
        columns = [tuple(c) for c in columns]
        if not columns:
            if rows is None:
                raise ValueError("empty matrix needs explicit row count")
            return cls(tuple(() for _ in range(rows)))
        return cls(tuple(zip(*columns)))

    @classmethod
    def identity(cls, n: int):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int):
        return tuple(row[j] for row in self.entries)

    def columns_list(self):
        return [self.column(j) for j in range(self.cols)]

    def mul_vec(self, v):
        return tuple(dot(row, v) for row in self.entries)


def _colop_sub(cols, j, src, q):
    cols[j] = tuple(a - q * b for a, b in zip(cols[j], cols[src]))


def column_hnf(M: IntMatrix):
    """Canonical column Hermite normal form.

    Returns (H, U) with H = M*U, U unimodular.  Convention: pivots are
    positive, each pivot is the first nonzero entry of its column (pivot rows
    strictly increasing left to right), entries to the left of a pivot in its
    row lie in [0, pivot), and zero columns are shifted to the right.
    """
    m, n = M.rows, M.cols
    cols = M.columns_list()
    ucols = IntMatrix.identity(n).columns_list()
    piv = 0
    for row in range(m):
        # sweep the row with extended-gcd column ops until one pivot survives
        j = piv
        while True:
            nz = [l for l in range(piv, n) if cols[l][row] != 0]
            if not nz:
                break
            j = nz[0]
            if len(nz) == 1:
                break
            l = nz[1]
            a, b = cols[j][row], cols[l][row]
            if a % b == 0:
                q = a // b
                _colop_sub(cols, j, l, q)
                _colop_sub(ucols, j, l, q)
            elif b % a == 0:
                q = b // a
                _colop_sub(cols, l, j, q)
                _colop_sub(ucols, l, j, q)
            else:
                g, x, y = xgcd(a, b)
                cj, cl = cols[j], cols[l]
                uj, ul = ucols[j], ucols[l]
                cols[j] = tuple(x * p + y * q_ for p, q_ in zip(cj, cl))
                ucols[j] = tuple(x * p + y * q_ for p, q_ in zip(uj, ul))
                cols[l] = tuple((-b // g) * p + (a // g) * q_ for p, q_ in zip(cj, cl))
                ucols[l] = tuple((-b // g) * p + (a // g) * q_ for p, q_ in zip(uj, ul))
        if not any(cols[l][row] != 0 for l in range(piv, n)):
            continue
        if j != piv:
            cols[j], cols[piv] = cols[piv], cols[j]
            ucols[j], ucols[piv] = ucols[piv], ucols[j]
        if cols[piv][row] < 0:
            cols[piv] = tuple(-a for a in cols[piv])
            ucols[piv] = tuple(-a for a in ucols[piv])
        p = cols[piv][row]
        for l in range(piv):
            q = cols[l][row] // p  # floor division puts remainder in [0, p)
            if q:
                _colop_sub(cols, l, piv, q)
                _colop_sub(ucols, l, piv, q)
        piv += 1
    H = IntMatrix.from_columns(cols, rows=m)
    U = IntMatrix.from_columns(ucols, rows=n)
    return H, U


def integer_kernel_basis(M: IntMatrix):
    """Basis of {u in Z^cols : M*u = 0}, as a tuple of integer vectors."""
    H, U = column_hnf(M)
    out = []
    for j in range(M.cols):
        if all(H.entries[i][j] == 0 for i in range(M.rows)):
            out.append(U.column(j))
    return tuple(out)


def _eliminate(rows, r, col, prev):
    """One fraction-free Gauss-Jordan step on integer rows, in place.

    Clears column ``col`` from every row but ``r`` through
    row <- (pv * row - row[col] * rows[r]) / prev, pv = rows[r][col], where
    prev is the pivot of the previous step (1 at the start).  Every entry then
    stays a minor of the starting matrix, so the division is exact (Bareiss,
    Math. Comp. 1968) and every pivot row carries pv on its pivot column.
    """
    pr = rows[r]
    pv = pr[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, pr)]


def _reduce(rows, ncols):
    """Fraction-free reduced echelon form of integer rows, in place.

    Pivots are the first nonzero entry at or below the current row, column by
    column.  Returns (pivot columns, d, sign): rows[k] has d on its pivot
    column and zeros on the other pivot columns, rows past the rank are zero
    on the first ``ncols`` columns, and sign is the parity of the row swaps.
    Dividing rows[k] by d gives the reduced row echelon form.
    """
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        _eliminate(rows, r, col, prev)
        prev = rows[r][col]
        pivots.append(col)
    return pivots, prev, sign


def _null_vectors(rows):
    """Integer right nullspace basis of rational rows, and the d of
    :func:`_reduce`: one vector per free column c, d on c and minus the
    reduced rows' entries in column c on the pivot columns."""
    work = [_integral(row)[0] for row in rows]
    n = len(work[0]) if work else 0
    pivots, d, _ = _reduce(work, n)
    out = []
    for fc in range(n):
        if fc not in pivots:
            v = [0] * n
            v[fc] = d
            for row, pc in zip(work, pivots):
                v[pc] = -row[fc]
            out.append(v)
    return out, d


def rational_rank(rows) -> int:
    """Rank over Q of a list of vectors."""
    work = [_integral(row)[0] for row in rows]
    return len(_reduce(work, len(work[0]) if work else 0)[0])


def solve_rational(A_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    A_rows is a sequence of matrix rows; free variables are set to zero.
    """
    n = len(A_rows[0]) if A_rows else 0
    aug = [_integral((*row, b[i]))[0] for i, row in enumerate(A_rows)]
    pivots, d, _ = _reduce(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        x[col] = Fraction(row[n], d)
    return tuple(x)


def rational_nullspace(A_rows):
    """Basis of the rational right nullspace of the row list A_rows."""
    vectors, d = _null_vectors(A_rows)
    return [tuple(Fraction(a, d) for a in v) for v in vectors]


def integer_orthogonal_complement(vectors, dim: int):
    """Integer vectors c with c . v = 0 for every given v.

    The returned rows span the rational orthogonal complement of ``vectors``,
    so {x : c . x = 0 for all returned c} is exactly the rational span.  Each
    is primitive and positive on its free column: the smallest integral
    multiple of the rational nullspace vector that is 1 there.
    """
    if not vectors:
        return tuple(IntMatrix.identity(dim).entries)
    null, d = _null_vectors(vectors)
    return tuple(primitive([-a for a in v] if d < 0 else v) for v in null)


def det_fraction(rows) -> Fraction:
    """Determinant of a square rational matrix, by fraction-free elimination."""
    scaled = [_integral(row) for row in rows]
    pivots, d, sign = _reduce([w for w, _ in scaled], len(rows))
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * d, prod(D for _, D in scaled))
