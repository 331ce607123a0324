"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial is a dict mapping exponent tuples to nonzero ints.  Enough
machinery for resultants as determinants of Bezout matrices, exact
division, squarefree checks and Newton polytopes; nothing more.
"""

from __future__ import annotations

import operator
from math import gcd


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


def bezout_matrix(n: int, pairs, add=operator.add):
    """The n x n Bezout matrix of two polynomials p, q in z of degree at most
    n: entry (i, j) is the coefficient of z^i w^j in
    (p(z) q(w) - p(w) q(z)) / (w - z).

    ``pairs`` are the triples (a, b, c) with a < b and c = p_a q_b - p_b q_a,
    the coefficient of z^a w^b - z^b w^a in the numerator; zero ones may be
    left out.  Since (z^a w^b - z^b w^a) / (w - z) is the sum of
    z^(a+s) w^(b-1-s) over 0 <= s < b - a, each pair adds c to those
    entries, summed by ``add``: ints by default, polynomials with ``padd``.
    A zero entry is left as 0.  When max(deg p, deg q) = n, the matrix has
    nullity deg gcd(p, q), and for deg p = deg q = n its determinant is the
    resultant of p and q up to sign (Gelfand-Kapranov-Zelevinsky 1994,
    ch. 12).
    """
    rows = [[0] * n for _ in range(n)]
    for a, b, c in pairs:
        for s in range(b - a):
            row = rows[a + s]
            row[b - 1 - s] = add(row[b - 1 - s], c) if row[b - 1 - s] else c
    return rows
