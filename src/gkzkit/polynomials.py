"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial is a dict mapping exponent tuples to nonzero ints.  Enough
machinery for Sylvester resultants, exact division, squarefree checks and
Newton polytopes; nothing more.
"""

from __future__ import annotations

from math import gcd


def poly(d=None):
    return dict(d) if d else {}


def pconst(c: int, nvars: int):
    return {(0,) * nvars: c} if c else {}


def padd(p, q):
    out = dict(p)
    for e, c in q.items():
        c2 = out.get(e, 0) + c
        if c2:
            out[e] = c2
        else:
            out.pop(e, None)
    return out


def pneg(p):
    return {e: -c for e, c in p.items()}


def psub(p, q):
    return padd(p, pneg(q))


def pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def content(p) -> int:
    return gcd(*p.values())


def primitive_part(p):
    g = content(p)
    if g in (0, 1):
        return dict(p)
    return {e: c // g for e, c in p.items()}


def leading_key(p):
    """Lexicographically largest exponent (division anchor)."""
    return max(p) if p else None


def normalize_sign(p):
    """Make the coefficient of the lexicographically smallest exponent positive."""
    if not p:
        return {}
    k = min(p)
    if p[k] < 0:
        return pneg(p)
    return dict(p)


def monomial_multiplicity(p, i: int) -> int:
    """Largest m with y_i^m dividing p."""
    if not p:
        return 0
    return min(e[i] for e in p)


def strip_monomial_content(p):
    """Divide out the largest monomial factor; returns (monomial exps, rest)."""
    if not p:
        return None, {}
    n = len(next(iter(p)))
    shifts = tuple(monomial_multiplicity(p, i) for i in range(n))
    rest = {tuple(a - b for a, b in zip(e, shifts)): c for e, c in p.items()}
    return shifts, rest


def pdivmod_exact(p, d):
    """Quotient p / d when the division is exact, else None.

    Multivariate long division against the single divisor d in lex order.
    """
    if not d:
        raise ZeroDivisionError
    n = len(next(iter(d)))
    lead = leading_key(d)
    lc = d[lead]
    rem = dict(p)
    quo = {}
    while rem:
        e = leading_key(rem)
        c = rem[e]
        shift = tuple(a - b for a, b in zip(e, lead))
        if any(s < 0 for s in shift) or c % lc != 0:
            return None
        q = c // lc
        quo[shift] = quo.get(shift, 0) + q
        rem = psub(rem, pmul({shift: q}, d))
    return {e: c for e, c in quo.items() if c}


def substitute_zero(p, i: int):
    """Set variable i to zero."""
    return {e: c for e, c in p.items() if e[i] == 0}


def support(p):
    return sorted(p)


def determinant(matrix):
    """Determinant of a square matrix of polynomials, by minor expansion
    memoized on row masks (entries are sparse, sizes are tiny).  A zero
    entry may be given as the empty polynomial or as 0."""
    n = len(matrix)
    if n == 0:
        return {(): 1}
    nvars = None
    for row in matrix:
        for cell in row:
            if cell:
                nvars = len(next(iter(cell)))
                break
        if nvars is not None:
            break
    if nvars is None:
        return {}
    zero = {}
    one = pconst(1, nvars)
    cache = {}

    def minor(rows: int, col: int):
        # determinant of the submatrix of the given row bitmask, columns col..n-1
        if rows == 0:
            return one
        key = (rows, col)
        if key in cache:
            return cache[key]
        total = zero
        sign = 1
        for i in range(n):
            if not rows >> i & 1:
                continue
            cell = matrix[i][col]
            if cell:
                sub = minor(rows & ~(1 << i), col + 1)
                term = pmul(cell, sub)
                total = padd(total, term if sign > 0 else pneg(term))
            sign = -sign
        cache[key] = total
        return total

    return minor((1 << n) - 1, 0)


def sylvester_matrix(p, q):
    """Sylvester matrix of two polynomials in z given as coefficient lists,
    p[j] the coefficient of z^j: deg q shifted rows of p's coefficients above
    deg p shifted rows of q's, highest power first, 0 elsewhere."""
    m, n = len(p) - 1, len(q) - 1
    rows = []
    for coeffs, copies in ((p, n), (q, m)):
        for shift in range(copies):
            row = [0] * (m + n)
            for j, c in enumerate(coeffs):
                row[shift + len(coeffs) - 1 - j] = c
            rows.append(row)
    return rows


def sylvester_resultant(pdeg: int, qdeg: int, var_exps_p, var_exps_q):
    """Resultant in an eliminated variable z of two polynomials given as
    coefficient lists: var_exps_p[j] is the coefficient polynomial of z^j."""
    return determinant(sylvester_matrix(var_exps_p[: pdeg + 1], var_exps_q[: qdeg + 1]))
