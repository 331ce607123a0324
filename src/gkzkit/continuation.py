"""Numeric analytic continuation of the reduced curve ODE, and the monodromy
generators it ties back to.

Solutions are transported as state vectors (f, f', ..., f^(delta-1)) by
high-order Taylor steps; each step radius is half the distance to the nearest
singularity, so the series converge geometrically and a fixed expansion order
reaches the local error target.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import factorial, perm

from .intlinalg import record
from .ode import CurveODE, certify_ode, ode_from_system

TAYLOR_ORDER = 60
CIRCLE_NODES = 12
STEP_FACTOR = 0.5


def _poly_shift(coeffs, z0: complex):
    """Coefficients of p(z0 + t) as a polynomial in t, by binomial expansion."""
    n = len(coeffs)
    out = [0j] * n
    for k, c in enumerate(coeffs):
        c = complex(c)
        if c == 0:
            continue
        binom = 1
        for j in range(k + 1):
            out[j] += c * binom * z0 ** (k - j)
            binom = binom * (k - j) // (j + 1)
    return out


def taylor_step_matrix(ode: CurveODE, z0: complex, z1: complex):
    """Transfer matrix taking the state at z0 to the state at z1.

    Requires |z1 - z0| to be well inside the convergence disc around z0.
    """
    d = ode.delta
    q = [_poly_shift(c, z0) for c in ode.coefficients]
    lead = q[d][0]
    if abs(lead) == 0:
        raise ZeroDivisionError("expansion point is singular")
    h = z1 - z0
    top = TAYLOR_ORDER + d
    P = [[perm(m, j) for j in range(d + 1)] for m in range(top + 1)]
    # the recurrence's terms in summation order; the leading one is solved for
    terms = [
        (j, l, ql)
        for j, poly in enumerate(q)
        for l, ql in enumerate(poly)
        if ql != 0 and not (j == d and l == 0)
    ]
    H = [h ** k for k in range(top + 1)]
    cols = []
    for init in range(d):
        a = [0j] * (top + 1)
        a[init] = 1.0 / factorial(init)  # state vector carries derivatives
        # recurrence from sum_j q_j(t) f^(j) = 0
        for n in range(TAYLOR_ORDER + 1):
            s = 0j
            for j, l, ql in terms:
                if l <= n:
                    m = n - l + j
                    s += ql * a[m] * P[m][j]
            a[n + d] = -s / (lead * P[n + d][d])
        state = []
        for der in range(d):
            val = 0j
            for m in range(der, top + 1):
                val += a[m] * P[m][der] * H[m - der]
            state.append(val)
        cols.append(state)
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def identity(n):
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))


def mat_inv(a):
    n = len(a)
    work = [list(map(complex, row)) + [1.0 + 0j if i == j else 0j for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(work[r][col]))
        if abs(work[piv][col]) == 0:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def charpoly(a):
    """Characteristic polynomial by Faddeev-LeVerrier: returns
    (1, c_1, ..., c_n) with p(x) = x^n + c_1 x^(n-1) + ... + c_n."""
    n = len(a)
    c = [1.0 + 0j]
    prev = a
    for k in range(1, n + 1):
        ck = -sum(prev[i][i] for i in range(n)) / k
        c.append(ck)
        if k < n:
            shifted = tuple(
                tuple(prev[i][j] + (ck if i == j else 0) for j in range(n))
                for i in range(n)
            )
            prev = mat_mul(a, shifted)
    return tuple(c)


@record
class PathTransport:
    ode: CurveODE
    singular: tuple

    def transfer(self, nodes):
        """Transport along the polygonal path through the given nodes,
        subdividing every hop so each Taylor step stays well inside the
        nearest singular distance."""
        d = self.ode.delta
        M = identity(d)
        cur = complex(nodes[0])
        scale = max(abs(s) for s in self.singular) + abs(cur) + 1.0
        for target in nodes[1:]:
            target = complex(target)
            while cur != target:
                dist = min(abs(cur - s) for s in self.singular)
                if dist < 1e-13 * scale:
                    raise ZeroDivisionError(
                        "step size underflow: the path runs into a singular point"
                    )
                hop = target - cur
                if abs(hop) <= STEP_FACTOR * dist:
                    nxt = target
                else:
                    nxt = cur + hop / abs(hop) * (STEP_FACTOR * dist)
                M = mat_mul(taylor_step_matrix(self.ode, cur, nxt), M)
                cur = nxt
        return M


def circle_nodes(center: complex, radius: float, start_angle: float):
    """One counterclockwise turn around center, CIRCLE_NODES hops from
    start_angle back to it."""
    return [
        center + radius * cmath.exp(1j * (start_angle + 2 * cmath.pi * i / CIRCLE_NODES))
        for i in range(CIRCLE_NODES + 1)
    ]


def loop_around(transport: PathTransport, base: complex, center: complex):
    """Monodromy of the counterclockwise loop from base around one singular
    point."""
    others = [s for s in transport.singular if abs(s - center) > 1e-12]
    radius = 0.4 * min(abs(s - center) for s in others) if others else 0.5 * abs(base - center)
    radius = min(radius, 0.5 * abs(base - center))
    direction = (base - center) / abs(base - center)
    entry = center + radius * direction
    ang = cmath.phase(direction)
    to_entry = [base, entry]
    circle = circle_nodes(center, radius, ang)
    M_in = transport.transfer(to_entry)
    M_circ = transport.transfer(circle)
    M_out = transport.transfer([entry, base])
    return mat_mul(M_out, mat_mul(M_circ, M_in))


def big_circle(transport: PathTransport, base: complex):
    """Monodromy of the counterclockwise circle through base around all the
    finite singular points."""
    r = abs(base)
    ang = cmath.phase(base)
    for s in transport.singular:
        if abs(abs(s) - r) < 1e-9:
            raise ValueError("base circle passes through a singular point")
    return transport.transfer(circle_nodes(0, r, ang))


@record
class MonodromyResult:
    delta: int
    beta: tuple
    base_point: complex
    loop_matrices: tuple  # lifted loops around 0, the discriminant point, infinity
    generators: tuple  # the three generator-matched matrices
    invariants: tuple  # sorted (name, value) pairs
    trivial_loop_error: float


def _scal(c, M):
    return tuple(tuple(c * x for x in row) for row in M)


def _invariants(name, M):
    cp = charpoly(M)
    return {
        f"{name}_trace": -cp[1],
        f"{name}_det": cp[-1] * (-1) ** (len(cp) - 1),
        f"{name}_charpoly": cp,
    }


def numeric_monodromy(delta: int, beta, base_point: complex | None = None) -> MonodromyResult:
    """Monodromy data of the reduced curve system by Taylor continuation.

    Loops live in coefficient space through the closed section
    y = (1, 1, 1/x): a loop of winding w around x = 0 picks up the scalar
    exp(-2 pi i w beta_2 / delta) from y_2^(beta_2/delta) on top of the
    ODE transport of f.  The generator dictionary, fixed once and validated
    against the printed degree-3 matrices on several parameters:

      N1 = exp(2 pi i beta_1) I    the diagonal scaling loop y -> e^(2 pi i s) y,
      N2 = lifted clockwise loop around x = 0,
      N3 = N1 followed by the lifted clockwise loop around the discriminant
           point.
    """
    if not 2 <= delta <= 3:
        raise ValueError("numeric monodromy supports toric degree 2 and 3")
    b1, b2 = (Fraction(b) for b in beta)
    ode = ode_from_system(delta, (b1, b2))
    certify_ode(ode, order=6)
    sing = tuple(complex(s) for s in ode.singular_points())
    if base_point is None:
        base_point = 1.3j * max(1.0, abs(sing[1]))
    transport = PathTransport(ode, sing)
    d = delta
    trivial = transport.transfer(
        [base_point, base_point + 0.7, base_point + 0.7 + 0.9j, base_point + 0.9j, base_point]
    )
    trivial_err = max(
        abs(trivial[i][j] - (1 if i == j else 0)) for i in range(d) for j in range(d)
    )
    section0 = cmath.exp(-2j * cmath.pi * float(b2) / delta)
    m0 = _scal(section0, loop_around(transport, base_point, sing[0]))
    mstar = loop_around(transport, base_point, sing[1])
    mbig = _scal(section0, big_circle(transport, base_point))
    minf = mat_inv(mbig)
    p1 = cmath.exp(2j * cmath.pi * float(b1))
    n1 = _scal(p1, identity(d))
    n2 = mat_inv(m0)
    n3 = _scal(p1, mat_inv(mstar))
    inv = {}
    for name, M in (
        ("loop0", m0), ("loopstar", mstar), ("loopinf", minf),
        ("gen1", n1), ("gen2", n2), ("gen3", n3),
        ("gen12", mat_mul(n1, n2)), ("gen13", mat_mul(n1, n3)),
        ("gen23", mat_mul(n2, n3)),
        ("gen123", mat_mul(n1, mat_mul(n2, n3))),
    ):
        inv.update(_invariants(name, M))
    return MonodromyResult(
        delta, (b1, b2), base_point, (m0, mstar, minf), (n1, n2, n3),
        tuple(sorted(inv.items())), trivial_err,
    )
