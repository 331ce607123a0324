"""A small exact-rational simplex solver.

Solves  maximize c.x  subject to  A x <= b  with *free* variables, exactly.
The dense two-phase tableau is kept integral and pivots through the
fraction-free elimination step of :mod:`gkzkit.intlinalg`; Bland's rule keeps
it cycle-free.  Problem sizes in this package are tiny (tens of rows).
"""

from __future__ import annotations

from fractions import Fraction

from .intlinalg import _eliminate, clear_denominators

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T, basis, row, col, d):
    """Pivot the integer tableau on (row, col) and return its new common
    denominator, the pivot entry made positive."""
    if T[row][col] < 0:
        T[row] = [-a for a in T[row]]
    _eliminate(T, row, col, d)
    basis[row] = col
    return T[row][col]


def _simplex(T, basis, ncols, d):
    """Maximize with objective in last row of T; Bland's rule.

    Returns (status, d) with d the tableau's common denominator on exit.
    """
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return OPTIMAL, d
        best = None
        for r in range(len(T) - 1):
            if T[r][col] > 0:
                if best is None:
                    best = r
                    continue
                # ratio T[r][-1] / T[r][col] against the best, cross-multiplied
                lhs, rhs = T[r][-1] * T[best][col], T[best][-1] * T[r][col]
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best = r
        if best is None:
            return UNBOUNDED, d
        d = _pivot(T, basis, best, col, d)


def lp_maximize(c, A_ub, b_ub):
    """Maximize c.x over {x free : A_ub x <= b_ub}.

    Returns (status, x, value); x and value are None unless status is
    "optimal".
    """
    n = len(c)
    m = len(A_ub)
    c = [Fraction(a) for a in c]
    # one D > 0 for all of A and b: the slack coefficients stay 1, which
    # rescales every slack by D, so Bland's rule pivots as on the rational
    # tableau.  Scaling rows apart would reweight the phase I objective.
    flat = clear_denominators([a for row in A_ub for a in row] + list(b_ub))
    A = [list(flat[i * n:(i + 1) * n]) for i in range(m)]
    b = flat[m * n:]
    # free x -> x = xp - xm with xp, xm >= 0
    nv = 2 * n
    ncols = nv + m  # slacks
    art_cols = [i for i in range(m) if b[i] < 0]  # rows negated to make b >= 0
    total = ncols + len(art_cols)
    art_index = {i: ncols + k for k, i in enumerate(art_cols)}
    T = []
    basis = []
    for i in range(m):
        r = A[i] + [-a for a in A[i]] + [0] * (m + len(art_cols)) + [b[i]]
        r[nv + i] = 1
        if i in art_index:
            r = [-a for a in r]
            r[art_index[i]] = 1
        basis.append(art_index.get(i, nv + i))
        T.append(r)
    # integer tableau: d * (B^-1 [A | b]) for the basis B, d > 0, with the
    # last row d * (reduced costs) and last cell -d * (objective value)
    d = 1
    obj = [0] * (total + 1)
    for i in art_index:
        obj = [o + a for o, a in zip(obj, T[i])]
    for i in art_index:
        obj[art_index[i]] = 0
    T.append(obj)
    if art_index:
        _, d = _simplex(T, basis, total, d)
        if T[-1][-1] != 0:
            return INFEASIBLE, None, None
        # drive leftover artificials out of the basis if possible
        for r in range(m):
            if basis[r] >= ncols:
                col = next((j for j in range(ncols) if T[r][j] != 0), None)
                if col is not None:
                    d = _pivot(T, basis, r, col, d)
    # phase II objective, priced out: d * c - sum over basic columns of c_B * T[r]
    cc = clear_denominators(c)
    cc += tuple(-a for a in cc)
    obj = [d * a for a in cc] + [0] * (total + 1 - nv)
    for r in range(m):
        j = basis[r]
        if j < nv and cc[j]:
            obj = [o - cc[j] * a for o, a in zip(obj, T[r])]
    T[-1] = obj
    status, d = _simplex(T, basis, ncols, d)  # artificials never re-enter
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    xs = [Fraction(0)] * nv
    for r in range(m):
        if basis[r] < nv:
            xs[basis[r]] = Fraction(T[r][-1], d)
    x = tuple(xs[j] - xs[n + j] for j in range(n))
    value = sum(ci * xi for ci, xi in zip(c, x))
    return OPTIMAL, x, value


def lp_feasible_strict(A_ub, b_ub, strict_rows, cap=1):
    """Is there x with A x <= b, strictly on the given rows?

    Maximizes a margin t added to every strict row (capped to stay bounded)
    and reports (feasible, witness).
    """
    n = len(A_ub[0]) if A_ub else 0
    A = [[*row, 1 if i in strict_rows else 0] for i, row in enumerate(A_ub)]
    A.append([0] * n + [1])
    b = [*b_ub, cap]
    c = [0] * n + [1]
    status, x, value = lp_maximize(c, A, b)
    if status != OPTIMAL:
        return False, None
    if value > 0:
        return True, x[:-1]
    return False, None
