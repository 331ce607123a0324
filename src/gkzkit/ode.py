"""Scalar ODE for the degree-delta monomial curve in the invariant coordinate.

The three-point system on supports {0, 1, delta} reduces along the torus
action to one variable x = y_1^delta / (y_0^(delta-1) y_2).  Writing theta =
x d/dx and v = (beta_1 - beta_2/delta, 0, beta_2/delta) for the base exponent
of solutions F = y^v f(x), the toric equation del_1^delta = del_0^(delta-1)
del_2 becomes

    prod_{t=0}^{delta-1} (delta theta - t) f
        = x (v_2 - theta) prod_{t=0}^{delta-2} (v_0 - (delta-1) theta - t) f.

The derivation is certified, not trusted: the delta local series pulled back
from the toric side must be annihilated to the working order.
"""

from __future__ import annotations

from fractions import Fraction

from .configuration import PointConfiguration
from .intlinalg import record
from .hyper import gamma_series, is_nonresonant, ResonantParameterError


def _theta_poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


@record
class CurveODE:
    delta: int
    beta: tuple
    base_exponent: tuple  # v with A' v = beta, middle coordinate zero
    coefficients: tuple  # coefficients[j] = poly in x (tuple of Fractions) of (d/dx)^j
    theta_form: tuple  # (q_0, q_1): L = q_0(theta) - x * q_1(theta)

    @property
    def order(self) -> int:
        return self.delta

    def singular_points(self):
        """x = 0 and the single nonzero root of the leading coefficient."""
        d = self.delta
        xstar = Fraction((-1) ** d * d**d, (d - 1) ** (d - 1)) if d > 1 else None
        return (Fraction(0), xstar)


def curve_config(delta: int) -> PointConfiguration:
    return PointConfiguration.from_columns([(1, 0), (1, 1), (1, delta)])


def ode_from_system(delta: int, beta) -> CurveODE:
    """Build the order-delta operator annihilating the reduced solutions."""
    if not 1 <= delta <= 5:
        raise ValueError("toric degree must be between 1 and 5")
    b1, b2 = (Fraction(b) for b in beta)
    A = curve_config(delta)
    if not is_nonresonant(A, (b1, b2)):
        raise ResonantParameterError("parameter is resonant for the curve")
    v2 = b2 / delta
    v0 = b1 - v2
    q0 = [Fraction(1)]
    for t in range(delta):
        q0 = _theta_poly_mul(q0, [Fraction(-t), Fraction(delta)])
    q1 = [v2, Fraction(-1)]
    for t in range(delta - 1):
        q1 = _theta_poly_mul(q1, [v0 - t, Fraction(-(delta - 1))])
    # convert sum_i x^i q_i(theta) to sum_j p_j(x) (d/dx)^j via
    # theta^k = sum_j S(k, j) x^j (d/dx)^j
    deg = delta + 2
    p = [[Fraction(0)] * deg for _ in range(delta + 1)]
    for i, q in ((0, q0), (1, [-c for c in q1])):
        for k, coeff in enumerate(q):
            if coeff == 0:
                continue
            for j in range(k + 1):
                s = _stirling2(k, j)
                if s:
                    p[j][i + j] += coeff * s
    coeffs = []
    for j in range(delta + 1):
        row = p[j]
        while row and row[-1] == 0:
            row = row[:-1]
        coeffs.append(tuple(row))
    return CurveODE(delta, (b1, b2), (v0, Fraction(0), v2), tuple(coeffs), (tuple(q0), tuple(q1)))


def pulled_back_series(ode: CurveODE, j: int, order: int):
    """The j-th local solution at x = 0 as {x-exponent: coefficient}.

    Built on the toric side: the series with base exponent v - (j/delta) w,
    w the kernel generator scaled so that y^w = 1/x; its terms at offsets s w
    land on x^(j/delta - s).
    """
    delta = ode.delta
    A = curve_config(delta)
    b1, b2 = ode.beta
    v2 = (b2 - j) / Fraction(delta)
    v = (b1 - j - v2, Fraction(j), v2)
    series = gamma_series(A, ode.beta, (0, 2), order, base_exponent=v)
    w = (delta - 1, -delta, 1)  # y^w = 1/x
    out = {}
    for u, c in series.term_items:
        s = u[2]  # u = s * w
        if tuple(s * a for a in w) != u:
            raise AssertionError("kernel offset must be a multiple of the generator")
        out[Fraction(j, delta) + (-s)] = c
    return out


def apply_ode_theta(ode: CurveODE, series: dict) -> dict:
    """L(sum c_r x^r) with L = q0(theta) - x q1(theta); theta x^r = r x^r."""
    q0, q1 = ode.theta_form
    out = {}
    for r, c in series.items():
        val0 = sum(q * r**k for k, q in enumerate(q0))
        if val0:
            out[r] = out.get(r, Fraction(0)) + c * val0
        val1 = sum(q * r**k for k, q in enumerate(q1))
        if val1:
            out[r + 1] = out.get(r + 1, Fraction(0)) - c * val1
    return {r: c for r, c in out.items() if c}


def certify_ode(ode: CurveODE, order: int = 10):
    """Substitute the delta pulled-back series; residuals must vanish on every
    fully determined exponent.  Returns the number of exponents checked."""
    checked = 0
    for j in range(ode.delta):
        series = pulled_back_series(ode, j, order * 2 * ode.delta)
        top = max(series)
        residual = apply_ode_theta(ode, series)
        bad = {r: c for r, c in residual.items() if r <= top}
        if bad:
            # contributions from r and r-1 both lie inside the ball, so any
            # survivor is a genuine failure of the derivation
            raise AssertionError(f"series {j} leaves residual {bad}")
        checked += len(series)
    return checked
