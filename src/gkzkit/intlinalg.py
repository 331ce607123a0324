"""Exact linear algebra over Z and Q.

Everything in this module works on immutable nested tuples and never touches
floating point.  Matrices are tuples of row tuples; "columns" of a matrix M
are M's column vectors.  The column Hermite normal form, the only integer
normal form, is canonical so that equal lattices get structurally equal
representations.  One in-place kernel, ``_hnf``, computes it on lists of
integer columns.  Only ``_hnf_kernel``, behind ``integer_kernel_basis`` and
the face HNF of ``configuration``, and the facet constraints there ask it
to carry the unimodular transform, and so every integer kernel is a
Z-basis; a lattice span keeps just the reduced columns.

The module also holds ``record``, the decorator of the library's value
classes: every command loads this module, so it costs no import of its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul, sub

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


def _ints(v):
    """The entries of v as a list of ints; ValueError names the first entry
    that is not an integer, None, inf and NaN too.  Integral values such as
    Fraction(2) and 2.0 pass."""
    v = list(v)
    try:
        out = list(map(int, v))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != v:
        raise ValueError(f"non-integral entry {next(a for a in v if not _is_integer(a))!r}")
    return out


def _is_integer(a):
    try:
        return int(a) == a
    except (TypeError, ValueError, OverflowError):
        return False


def _rationals(v):
    """The entries of v as a list of Fractions; ValueError names the first
    entry that is not a finite rational number, None, inf, NaN and booleans
    too.  Whatever ``Fraction`` reads, a numeric string too, passes, and a
    Fraction passes as it is."""
    out = []
    for a in v:
        try:
            if isinstance(a, bool):
                raise TypeError
            out.append(a if type(a) is Fraction else Fraction(a))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"non-rational entry {a!r}") from None
    return out


def _integral(v):
    """(w, D): the rationals v times the lcm D of their denominators."""
    D = lcm(*(a.denominator for a in v))
    return [a.numerator * (D // a.denominator) for a in v], D


def clear_denominators(v):
    """Smallest positive multiple of a rational vector that is integral."""
    return tuple(_integral(v)[0])


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def vsub(u, v):
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(sub, u, v))


def _record_repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown_fields)
    return f"{type(self).__qualname__}({shown})"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, /, *, hidden=()):
    """Class decorator for the library's immutable value classes, as
    ``dataclass(frozen=True)`` would make them without importing
    ``dataclasses`` (and its ``inspect``) at start-up.

    The annotated names of the class body are its fields, in order, with
    their class-level values as defaults.  One compiled source gives the
    class ``__init__`` (which ends with ``__post_init__`` when the class has
    one), ``__eq__`` (same class and equal field tuples) and ``__hash__``
    (of that tuple); the fields in ``hidden`` stay out of both and out of the
    shared ``__repr__``.  Assignment and deletion raise AttributeError;
    ``object.__setattr__`` in ``__post_init__`` and ``cached_property`` write
    past them.  Methods the class defines itself are kept, ``__hash__`` too.
    """
    if cls is None:
        return lambda cls: record(cls, hidden=hidden)
    names = list(cls.__dict__.get("__annotations__", {}))
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name not in cls.__dict__ for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with one")
    shown = tuple(name for name in names if name not in hidden)
    mine = "".join(f"self.{name}," for name in shown)
    theirs = "".join(f"other.{name}," for name in shown)
    source = "\n".join([
        f"def __init__(self, {', '.join(names)}):",
        *(f" _set(self, {name!r}, {name})" for name in names),
        *([" self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        "def __eq__(self, other):",
        " if other.__class__ is self.__class__:",
        f"  return ({mine}) == ({theirs})",
        " return NotImplemented",
        "def __hash__(self):",
        f" return hash(({mine}))",
    ])
    made = {"_set": object.__setattr__}
    exec(source, made)
    made["__init__"].__defaults__ = defaults
    cls._shown_fields = shown
    for name, fn in (
        ("__init__", made["__init__"]),
        ("__repr__", _record_repr),
        ("__eq__", made["__eq__"]),
        ("__setattr__", _record_setattr),
        ("__delattr__", _record_delattr),
    ):
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = made["__hash__"]
    return cls


def _subtract(c, d, q, lo):
    """c -= q * d in place, from entry lo on: d vanishes before it."""
    for i in range(lo, len(c)):
        c[i] -= q * d[i]


def _hnf(cols, m):
    """Column Hermite normal form of the first m rows of the integer column
    lists ``cols``, in place.  Entries past row m, such as a transform block
    below the matrix, undergo the same column operations.  Returns the rank:
    the columns past it vanish on the first m rows.

    Each row is swept with gcd column steps until one column in the pivot
    range is nonzero on it (Cohen, *A Course in Computational Algebraic
    Number Theory*, 1993, sec. 2.4.2); that column moves to the pivot slot,
    is made positive, and reduces the entries to its left into [0, pivot).
    Columns at or past the pivot slot vanish above the current row, so each
    step starts there.
    """
    n, piv = len(cols), 0
    for row in range(m):
        if piv == n:
            break
        while True:
            nz = [l for l in range(piv, n) if cols[l][row]]
            if len(nz) < 2:
                break
            c, d = cols[nz[0]], cols[nz[1]]
            a, b = c[row], d[row]
            if a % b == 0:
                _subtract(c, d, a // b, row)
            elif b % a == 0:
                _subtract(d, c, b // a, row)
            else:
                g, x, y = xgcd(a, b)
                a, b = a // g, b // g
                for i in range(row, len(c)):
                    c[i], d[i] = x * c[i] + y * d[i], a * d[i] - b * c[i]
        if not nz:
            continue
        cols[nz[0]], cols[piv] = cols[piv], cols[nz[0]]
        c = cols[piv]
        if c[row] < 0:
            c[row:] = [-a for a in c[row:]]
        for l in range(piv):
            q = cols[l][row] // c[row]  # floor division: remainder in [0, pivot)
            if q:
                _subtract(cols[l], c, q, row)
        piv += 1
    return piv


def _hnf_kernel(rows, n):
    """(L, K) for integer rows of length n: X U = [L | 0] is the column HNF
    of the matrix X of the rows, run with the n x n identity below X, so U
    is unimodular.  L lists the s nonzero columns of the HNF and K the last
    n - s columns of U, a basis of {u in Z^n : X u = 0}."""
    m = len(rows)
    cols = [[*(row[j] for row in rows), *(int(i == j) for i in range(n))] for j in range(n)]
    s = _hnf(cols, m)
    return [c[:m] for c in cols[:s]], [c[m:] for c in cols[s:]]


def integer_kernel_basis(rows, n: int):
    """Basis of {u in Z^n : r . u = 0 for every row r} over Z, as a tuple of
    integer vectors; no rows give the unit vectors.  A kernel of rank 1 is a
    primitive vector, unique up to sign."""
    return tuple(map(tuple, _hnf_kernel(rows, n)[1]))


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
    column, up to full rank, past which no column finds one.  Returns (pivot
    columns, d, sign): rows[k] has d on its pivot column and zeros on the
    other pivot columns, rows past the rank are zero on the first ``ncols``
    columns, and sign is the parity of the row swaps.  Dividing rows[k] by d
    gives the reduced row echelon form.
    """
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
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


def _abs_det(rows) -> int:
    """|det| of a square integer matrix, the last pivot of ``_reduce``."""
    work = [list(row) for row in rows]
    pivots, d, _ = _reduce(work, len(work))
    return abs(d) if len(pivots) == len(work) else 0


def det_fraction(rows) -> Fraction:
    """Determinant of a square rational matrix, by fraction-free elimination."""
    scaled = [_integral(row) for row in rows]
    pivots, d, sign = _reduce([w for w, _ in scaled], len(rows))
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * d, prod(D for _, D in scaled))
