"""Differential tests: the fraction-free elimination kernel against Fraction
Gauss-Jordan.

The references below are the earlier Fraction routines, references since
commit 3a9ee6e, which replaced them, kept verbatim but for the identity
matrix, which the library no longer builds: ``rational_rank``,
``solve_rational``, ``rational_nullspace``, ``det_fraction`` and
``integer_orthogonal_complement`` from ``intlinalg``, and the Fraction
tableau ``lp_maximize`` from ``lp`` (with its ``lp_feasible_strict``
wrapper).  Results must be identical, every ``None`` and the LP witness x
included.  They stay as the routes the elimination kernel replaced, and as
the most independent ones: they run no integer elimination.  sympy (a
test-only import) checks rank, determinant and the integer kernel
independently.

The library computes nullspaces and orthogonal complements by the HNF
kernel now, so ``ref_rational_nullspace`` and
``ref_integer_orthogonal_complement`` are the references of
``test_hnf_routes.py`` and tools of other reference routes.
"""

import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from _corpus import random_entry, random_rows
from gkzkit import intlinalg, lp
from gkzkit.intlinalg import clear_denominators
from gkzkit.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_feasible_strict, lp_maximize

# -- references: the Fraction Gauss-Jordan routines ------------------------------


def ref_rational_rank(rows) -> int:
    """Rank over Q of a list of vectors."""
    work = [[Fraction(a) for a in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [a / pv for a in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def ref_solve_rational(A_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    A_rows is a sequence of matrix rows; free variables are set to zero.
    """
    m = len(A_rows)
    n = len(A_rows[0]) if m else 0
    aug = [[Fraction(a) for a in row] + [Fraction(b[i])] for i, row in enumerate(A_rows)]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [a / pv for a in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b_ for a, b_ in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, m):
        if aug[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return tuple(x)


def ref_rational_nullspace(A_rows):
    """Basis of the rational right nullspace of the row list A_rows."""
    m = len(A_rows)
    n = len(A_rows[0]) if m else 0
    work = [[Fraction(a) for a in row] for row in A_rows]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [a / pv for a in work[rank]]
        for r in range(m):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(tuple(v))
    return basis


def ref_integer_orthogonal_complement(vectors, dim: int):
    """Integer vectors c with c . v = 0 for every given v.

    The returned rows span the rational orthogonal complement of ``vectors``,
    so {x : c . x = 0 for all returned c} is exactly the rational span.
    """
    if not vectors:
        return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    null = ref_rational_nullspace([tuple(v) for v in vectors])
    return tuple(clear_denominators(v) for v in null)


def ref_det_fraction(rows) -> Fraction:
    """Determinant of a square rational matrix, by fraction-free-ish elimination."""
    n = len(rows)
    work = [[Fraction(a) for a in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det *= pv
        work[col] = [a / pv for a in work[col]]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


# -- reference: the Fraction simplex tableau -------------------------------------


def _ref_pivot(T, basis, row, col):
    pv = T[row][col]
    T[row] = [a / pv for a in T[row]]
    for r in range(len(T)):
        if r != row and T[r][col] != 0:
            f = T[r][col]
            T[r] = [a - f * b for a, b in zip(T[r], T[row])]
    basis[row] = col


def _ref_simplex(T, basis, ncols):
    """Maximize with objective in last row of T; Bland's rule; returns status."""
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return OPTIMAL
        best_row, best_ratio = None, None
        for r in range(len(T) - 1):
            if T[r][col] > 0:
                ratio = T[r][-1] / T[r][col]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[best_row]
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return UNBOUNDED
        _ref_pivot(T, basis, best_row, col)


def ref_lp_maximize(c, A_ub, b_ub):
    """Maximize c.x over {x free : A_ub x <= b_ub}.

    Returns (status, x, value); x and value are None unless status is
    "optimal".
    """
    n = len(c)
    m = len(A_ub)
    c = [Fraction(a) for a in c]
    A = [[Fraction(a) for a in row] for row in A_ub]
    b = [Fraction(a) for a in b_ub]
    # free x -> x = xp - xm with xp, xm >= 0
    nv = 2 * n

    def split(row):
        return [row[j] for j in range(n)] + [-row[j] for j in range(n)]

    rows = []
    art_cols = []
    ncols = nv + m  # slacks
    for i in range(m):
        r = split(A[i]) + [Fraction(0)] * m + [b[i]]
        r[nv + i] = Fraction(1)
        if b[i] < 0:
            r = [-a for a in r]
        rows.append(r)
    # artificials for rows whose slack ended up with coefficient -1
    for i in range(m):
        if rows[i][nv + i] == -1:
            art_cols.append(i)
    total = ncols + len(art_cols)
    T = []
    basis = []
    art_index = {}
    for k, i in enumerate(art_cols):
        art_index[i] = ncols + k
    for i in range(m):
        r = rows[i][:-1] + [Fraction(0)] * len(art_cols) + [rows[i][-1]]
        if i in art_index:
            r[art_index[i]] = Fraction(1)
            basis.append(art_index[i])
        else:
            basis.append(nv + i)
        T.append(r)
    # phase I: maximize -(sum of artificials); tableau invariant is
    # last row = reduced costs, last cell = -(objective value)
    obj = [Fraction(0)] * (total + 1)
    for i in art_index:
        obj = [o + a for o, a in zip(obj, T[i])]
    for i in art_index:
        obj[art_index[i]] = Fraction(0)
    T.append(obj)
    if art_index:
        _ref_simplex(T, basis, total)
        if T[-1][-1] != 0:
            return INFEASIBLE, None, None
        # drive leftover artificials out of the basis if possible
        for r in range(m):
            if basis[r] >= ncols:
                col = next((j for j in range(ncols) if T[r][j] != 0), None)
                if col is not None:
                    _ref_pivot(T, basis, r, col)
    # phase II objective
    T[-1] = [Fraction(0)] * (total + 1)
    cc = split(c)
    for j in range(nv):
        T[-1][j] = cc[j]
    for r in range(m):
        j = basis[r]
        if j < nv and T[-1][j] != 0:
            f = T[-1][j]
            T[-1] = [a - f * b_ for a, b_ in zip(T[-1], T[r])]
    status = _ref_simplex(T, basis, ncols)  # artificials never re-enter
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    xs = [Fraction(0)] * nv
    for r in range(m):
        if basis[r] < nv:
            xs[basis[r]] = T[r][-1]
    x = tuple(xs[j] - xs[n + j] for j in range(n))
    value = sum(ci * xi for ci, xi in zip(c, x))
    return OPTIMAL, x, value


def ref_lp_feasible_strict(A_ub, b_ub, strict_rows, cap=Fraction(1)):
    """Is there x with A x <= b, strictly on the given rows?

    Maximizes a margin t added to every strict row (capped to stay bounded)
    and reports (feasible, witness).
    """
    n = len(A_ub[0]) if A_ub else 0
    A = [list(map(Fraction, row)) + [Fraction(1) if i in strict_rows else Fraction(0)]
         for i, row in enumerate(A_ub)]
    A.append([Fraction(0)] * n + [Fraction(1)])
    b = list(b_ub) + [cap]
    c = [Fraction(0)] * n + [Fraction(1)]
    status, x, value = ref_lp_maximize(c, A, b)
    if status != OPTIMAL:
        return False, None
    if value > 0:
        return True, x[:-1]
    return False, None


def test_kernel_matches_fraction_gauss_jordan_on_seeded_matrices():
    rng = random.Random(20240515)
    deficient = negative_pivot = inconsistent = 0
    for trial in range(2000):
        rational = trial % 2 == 1
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_rows(rng, m, n, rational)
        rank = ref_rational_rank(rows)
        deficient += rank < min(m, n)
        negative_pivot += next((row[0] for row in rows if row[0]), 0) < 0
        assert intlinalg.rational_rank(rows) == rank
        b = [random_entry(rng, rational) for _ in range(m)]
        if rng.random() < 0.5:  # a consistent right-hand side
            x = [random_entry(rng, rational) for _ in range(n)]
            b = [sum(a * y for a, y in zip(row, x)) for row in rows]
        sol = ref_solve_rational(rows, b)
        inconsistent += sol is None
        assert intlinalg.solve_rational(rows, b) == sol
        square = [row[:m] for row in rows] if m <= n else rows[:n]
        assert intlinalg.det_fraction(square) == ref_det_fraction(square)
    assert deficient > 500 and negative_pivot > 500 and inconsistent > 300
    assert intlinalg.det_fraction([]) == ref_det_fraction([]) == 1


def _lp(rng):
    n, m = rng.randint(1, 4), rng.randint(0, 7)
    rational = rng.random() < 0.4
    A = random_rows(rng, m, n, rational)
    b = [random_entry(rng, rational) if rng.random() < 0.6 else 0 for _ in range(m)]
    for _ in range(rng.randint(0, 2) if A else 0):
        k = rng.randrange(m)
        if rng.random() < 0.5:  # a repeated constraint: degenerate ties
            A.append(list(A[k]))
            b.append(b[k])
        else:  # an equality, whose artificial may stay basic after phase I
            A.append([-a for a in A[k]])
            b.append(-b[k])
    c = [random_entry(rng, rational) for _ in range(n)]
    return c, A, b


def test_integer_tableau_matches_fraction_tableau_on_seeded_lps(monkeypatch):
    pivot = lp._pivot
    negative = []

    def counting_pivot(T, basis, row, col, d):
        negative.append(T[row][col] < 0)  # only when driving out an artificial
        return pivot(T, basis, row, col, d)

    monkeypatch.setattr(lp, "_pivot", counting_pivot)
    rng = random.Random(77)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    degenerate = 0
    for _ in range(2000):
        c, A, b = _lp(rng)
        want = ref_lp_maximize(c, A, b)
        assert lp_maximize(c, A, b) == want  # status, witness x and value
        statuses[want[0]] += 1
        degenerate += want[0] == OPTIMAL and sum(
            sum(a * x for a, x in zip(row, want[1])) == bi for row, bi in zip(A, b)
        ) > len(c)
        if A:
            strict = {i for i in range(len(A)) if rng.random() < 0.5}
            cap = rng.choice((Fraction(1), Fraction(1, 4)))
            assert lp_feasible_strict(A, b, strict, cap) == ref_lp_feasible_strict(
                A, b, strict, cap
            )
    assert min(statuses.values()) > 300, statuses
    assert degenerate > 50 and sum(negative) > 50


_ENTRIES = st.integers(-6, 6) | st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=5)))
def test_kernel_against_sympy(rows):
    M = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row] for row in rows])
    assert intlinalg.rational_rank(rows) == M.rank()
    # scaling a row to integers keeps its kernel
    null = intlinalg.integer_kernel_basis([clear_denominators(row) for row in rows], M.cols)
    assert len(null) == len(M.nullspace())
    span = sympy.Matrix.hstack(*M.nullspace()) if null else None
    for v in null:
        col = sympy.Matrix(v)
        assert M * col == sympy.zeros(M.rows, 1)
        assert sympy.Matrix.hstack(span, col).rank() == span.rank()
    if null:  # a Z-basis of the kernel lattice, which is saturated
        snf = smith_normal_form(sympy.Matrix(null), domain=sympy.ZZ)
        assert [abs(snf[i, i]) for i in range(len(null))] == [1] * len(null)
    k = min(M.rows, M.cols)
    square = [row[:k] for row in rows[:k]]
    det = M[:k, :k].det()
    assert intlinalg.det_fraction(square) == Fraction(int(det.p), int(det.q))
