"""Truncated series solutions of toric hypergeometric systems.

A TruncatedSeries is a finite sum of terms c_u * y^(v+u) with exact rational
coefficients, the offsets u running over points of the integer kernel of the
configuration matrix.  Coefficients follow the classical gamma-ratio closed
form, so every contiguity relation imposed by the box operators
del^{u+} - del^{u-} holds identically on stored terms.

Every shifted-factorial product on the generating side (the gamma ratios,
their contiguity products, derivatives and antiderivatives) goes through one
kernel, _falling: the falling factorials of base + u per coordinate, formed
as one integer product over a power of each coordinate's denominator.  The
box operator apply_box, which annihilation_check runs as the certificate,
forms its products inline in Fractions instead, so that the check shares no
arithmetic with the operators it certifies.

Truncation honesty: each series carries the set of kernel offsets whose true
coefficient is known ("region").  An operator image coefficient is asserted
only when every preimage offset lies in the region.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd

from .configuration import PointConfiguration, _keeps_z_a, _per_configuration
from .intlinalg import (
    _integral,
    _ints,
    _rationals,
    dot,
    integer_kernel_basis,
    record,
    solve_rational,
    xgcd,
)


class ResonantParameterError(ValueError):
    """A coefficient recurrence met a vanishing exponent product."""


def _mul(rows, v):
    """The matrix of the integer rows times the vector v."""
    return tuple(dot(row, v) for row in rows)


@_per_configuration
def toric_kernel_basis(A: PointConfiguration) -> tuple:
    """Basis of {u in Z^k : A u = 0}, the exponents of the toric relations,
    as a tuple of vectors.

    Kept with A: the extension pipeline asks for the bases of A and of A - k
    in turn, once per derivative, contiguity step and operator.
    """
    return integer_kernel_basis(A.matrix, A.size)


# -- nonresonance ---------------------------------------------------------------


@record
class ResonanceReport:
    nonresonant: bool
    witness_face: tuple | None  # indices of an offending codimension-one face

    def __bool__(self):
        return self.nonresonant


def is_nonresonant(A: PointConfiguration, beta) -> ResonanceReport:
    """Is no integer translate of beta in the span of a codimension-one face?

    For each such face take integer constraint rows M cutting out its span,
    built once per configuration in ``A.facet_constraints``; beta - gamma
    lies in the span for an integer gamma iff M beta lies in M(Z^(1+n)),
    which is all of Z^k.  (For a full-dimensional Newton polytope M is one
    primitive row h, and the test is whether h(beta) is an integer.)  beta is
    scaled once by the lcm D of its denominators to integers b, and M beta is
    integral iff every entry of M b is divisible by D.  An entry of beta that
    is not a finite rational number raises ValueError naming it.
    """
    beta = _rationals(beta)
    if len(beta) != A.ambient_dim:
        raise ValueError("parameter length must match the ambient dimension")
    b, D = _integral(beta)
    for face, M in A.facet_constraints:
        if all(dot(m, b) % D == 0 for m in M):
            return ResonanceReport(False, face.indices)
    return ResonanceReport(True, None)


def resonance_box_oracle(A: PointConfiguration, betas, radius: int = 5):
    """Brute-force resonance verdicts: search gamma over a box, exactly.

    Returns one boolean (nonresonant?) per beta.  The per-face images C gamma
    are enumerated once and the betas tested by set membership, which is the
    same existential search with the loop order swapped.
    """
    d = A.newton.dim
    n = A.ambient_dim
    face_data = []
    for face in A.poset.of_dim(d - 1):
        M = integer_kernel_basis(A.face_points(face), n)
        hits = {_mul(M, g) for g in itertools.product(range(-radius, radius + 1), repeat=n)}
        face_data.append((M, hits))
    out = []
    for beta in betas:
        beta = tuple(Fraction(b) for b in beta)
        resonant = any(_mul(M, beta) in hits for M, hits in face_data)
        out.append(not resonant)
    return out


# -- series ----------------------------------------------------------------------


def _l1(u) -> int:
    return sum(abs(a) for a in u)


def kernel_ball(basis, order: int):
    """All kernel lattice points with L1 norm at most order, sorted, for the
    tuple of kernel basis vectors ``basis``.

    The points are B m for integer m in a box, B the matrix whose columns are
    the basis vectors.  On the polytope {m : |B m|_1 <= order} each |m_i| is
    largest at a vertex.  |B m|_1 is linear on each cone cut out by the
    hyperplanes (B m)_j = 0, so a vertex spans an extreme ray of such a cone:
    it lies on r - 1 linearly independent of them, which fix it up to scale.
    Hence |m_i| <= order * max |w_i| / |B w|_1 over the rays w orthogonal to
    the (r - 1)-row subsets J of B with a one-dimensional complement (J empty
    in rank 1): the same box as an LP maximising each |m_i| on the polytope.
    """
    r = len(basis)
    if r == 0:
        raise ValueError("kernel ball needs a nonempty basis")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    rows = tuple(zip(*basis))
    bound = [0] * r
    for J in itertools.combinations(rows, r - 1):
        ray = integer_kernel_basis(J, r)
        if len(ray) != 1:
            continue
        w = ray[0]
        norm = _l1(dot(row, w) for row in rows)
        bound = [max(b, order * abs(a) // norm) for b, a in zip(bound, w)]
    out = []
    for m in itertools.product(*(range(-b, b + 1) for b in bound)):
        u = tuple(
            sum(m[l] * basis[l][j] for l in range(r))
            for j in range(len(basis[0]))
        )
        if _l1(u) <= order:
            out.append(u)
    return tuple(sorted(set(out)))


def _falling(base, u, n) -> Fraction:
    """prod_j x_j (x_j - 1) ... (x_j - n_j + 1) at x = base + u.

    base is rational, u integer and n >= 0.  With x_j = p_j / q_j the product
    is one integer product over prod_j q_j^(n_j); coordinates with n_j = 0
    cost nothing.
    """
    num = den = 1
    for b, uj, nj in zip(base, u, n):
        if nj:
            q = b.denominator
            p = b.numerator + uj * q
            for t in range(nj):
                num *= p - t * q
            den *= q**nj
    return Fraction(num, den)


def _contiguity_products(base, u, w):
    """(P+, P-) with c_{u+w} P+ = c_u P- for any solution series with the
    given base exponent; the identity is the box operator del^{w+} - del^{w-}
    acting on exponents base + offset.  P+ is the rising product
    (x + 1) ... (x + w_j) at x = base + u, the falling one at x + w_j."""
    wplus = tuple(max(a, 0) for a in w)
    wminus = tuple(max(-a, 0) for a in w)
    return (
        _falling(base, tuple(a + b for a, b in zip(u, wplus)), wplus),
        _falling(base, u, wminus),
    )


def gamma_coefficient(v, u):
    """Gamma-ratio coefficient of y^(v+u) relative to c_0 = 1.

    c_u multiplies (v_j - s) over s = 0..-u_j-1 where u_j < 0 and divides by
    (v_j + t) over t = 1..u_j where u_j > 0: the contiguity ratio from offset
    0.  A vanishing divisor names a resonant integer translate.
    """
    v = tuple(Fraction(a) for a in v)
    pp, pm = _contiguity_products(v, (0,) * len(v), u)
    if pp == 0:
        j = next(j for j, x in enumerate(v) if x.denominator == 1 and 0 < -x <= u[j])
        raise ResonantParameterError(
            f"exponent {v[j]} at coordinate {j} meets the integer translate {v[j]}"
        )
    return pm / pp


@record
class TruncatedSeries:
    config: PointConfiguration
    beta: tuple
    base_exponent: tuple
    term_items: tuple  # sorted ((u, coeff), ...), zero coefficients dropped
    region: frozenset  # kernel offsets whose true coefficient is known
    truncation_order: int

    @cached_property
    def terms(self):
        return dict(self.term_items)

    @classmethod
    def make(cls, config, beta, base, terms, region, order):
        beta = tuple(Fraction(b) for b in beta)
        base = tuple(Fraction(b) for b in base)
        items = tuple(sorted((u, c) for u, c in terms.items() if c != 0))
        if _mul(config.matrix, base) != beta:
            raise ValueError("base exponent must solve A v = beta")
        return cls(config, beta, base, items, frozenset(region), order)

    def coefficient(self, u):
        return self.terms.get(tuple(u), Fraction(0))

    def scaled(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries.make(
            self.config, self.beta, self.base_exponent,
            {u: c * w for u, w in self.term_items}, self.region, self.truncation_order,
        )

    def plus(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.base_exponent != self.base_exponent or other.config != self.config:
            raise ValueError("series must share configuration and base exponent")
        out = dict(self.term_items)
        for u, c in other.term_items:
            out[u] = out.get(u, Fraction(0)) + c
        return TruncatedSeries.make(
            self.config, self.beta, self.base_exponent, out,
            self.region & other.region, min(self.truncation_order, other.truncation_order),
        )


def gamma_series(A: PointConfiguration, beta, cell, order: int, base_exponent=None) -> TruncatedSeries:
    """The canonical series attached to a maximal simplex: exponents v + u over
    the kernel ball, coefficients by gamma ratios, c_0 = 1.

    With base_exponent the caller may pick any other v with A v = beta (for
    example a kernel-rational translate selecting a different local solution).
    Any other cell than A.newton.dim + 1 distinct columns with nonzero
    volume, by int index (a bool is none), raises ValueError naming it.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    cell, k = tuple(sorted(cell)), A.newton.dim + 1
    ok = len(cell) == len(set(cell)) == k and all(type(j) is int and 0 <= j < A.size for j in cell)
    if not (ok and A.newton.minor(cell)):
        raise ValueError(f"cell {cell} is not {k} distinct columns of the {A.size} with nonzero volume")
    res = is_nonresonant(A, beta)
    if not res:
        raise ResonantParameterError(
            f"parameter is resonant at the face {res.witness_face}"
        )
    beta = tuple(Fraction(b) for b in beta)
    if base_exponent is None:
        cols = [A.points[j] for j in cell]
        rows = [[Fraction(cols[j][i]) for j in range(len(cell))] for i in range(A.ambient_dim)]
        sol = solve_rational(rows, beta)
        if sol is None:
            raise ValueError("cell does not span the parameter")
        v = [Fraction(0)] * A.size
        for val, j in zip(sol, cell):
            v[j] = val
    else:
        v = [Fraction(b) for b in base_exponent]
    basis = toric_kernel_basis(A)
    if not basis:
        ball = [(0,) * A.size]
    else:
        ball = kernel_ball(basis, order)
    terms = {u: gamma_coefficient(v, u) for u in ball}
    return TruncatedSeries.make(A, beta, v, terms, ball, order)


# -- operators --------------------------------------------------------------------


def apply_euler(series: TruncatedSeries, i: int) -> TruncatedSeries:
    """Exact term-wise action of the i-th Euler operator."""
    beta_i = series.beta[i]
    row = series.config.matrix[i]
    out = {
        u: c * (sum(r * (v + uu) for r, v, uu in zip(row, series.base_exponent, u)) - beta_i)
        for u, c in series.term_items
    }
    return TruncatedSeries.make(
        series.config, series.beta, series.base_exponent, out,
        series.region, series.truncation_order,
    )


def apply_box(series: TruncatedSeries, w) -> TruncatedSeries:
    """Exact term-wise action of the box operator del^{w+} - del^{w-}."""
    w = tuple(w)
    if _mul(series.config.matrix, w) != (0,) * series.config.ambient_dim:
        raise ValueError("box exponent must lie in the kernel")
    wplus = tuple(max(a, 0) for a in w)
    base = tuple(v - p for v, p in zip(series.base_exponent, wplus))
    # the image is homogeneous for the shifted parameter beta - A w_+
    beta = tuple(b - s for b, s in zip(series.beta, _mul(series.config.matrix, wplus)))
    out = {}
    for u, c in series.term_items:
        # the certificate's own products, not the _falling kernel
        ff_plus = Fraction(1)
        ff_minus = Fraction(1)
        for j, wj in enumerate(w):
            x = series.base_exponent[j] + u[j]
            for t in range(abs(wj)):
                if wj > 0:
                    ff_plus *= x - t
                else:
                    ff_minus *= x - t
        if ff_plus != 0:
            out[u] = out.get(u, Fraction(0)) + c * ff_plus
        shifted = tuple(a + b for a, b in zip(u, w))
        if ff_minus != 0:
            out[shifted] = out.get(shifted, Fraction(0)) - c * ff_minus
    region = frozenset(
        m for m in series.region
        if tuple(a - b for a, b in zip(m, w)) in series.region
    )
    out = {u: c for u, c in out.items() if u in region}
    return TruncatedSeries.make(
        series.config, beta, base, out, region, series.truncation_order,
    )


def differentiate(series: TruncatedSeries, gamma) -> TruncatedSeries:
    """Apply del^gamma for gamma in N^k, term by term."""
    gamma = tuple(_ints(gamma))
    if any(g < 0 for g in gamma):
        raise ValueError("gamma must be nonnegative")
    base = tuple(v - g for v, g in zip(series.base_exponent, gamma))
    beta = tuple(b - s for b, s in zip(series.beta, _mul(series.config.matrix, gamma)))
    out = {u: c * _falling(series.base_exponent, u, gamma) for u, c in series.term_items}
    return TruncatedSeries.make(
        series.config, beta, base, out, series.region, series.truncation_order,
    )


def antiderivative(series: TruncatedSeries, gamma) -> TruncatedSeries:
    """Inverse of del^gamma on truncated solutions.

    Division determines each coefficient except at exponents annihilated by
    the forward derivative (vanishing divisor product).  Those are pinned by
    the contiguity relations of the target series and recovered by
    propagation from determined neighbours; anything still undetermined is
    dropped from the region rather than guessed.
    """
    gamma = tuple(_ints(gamma))
    if any(g < 0 for g in gamma):
        raise ValueError("gamma must be nonnegative")
    base = tuple(v + g for v, g in zip(series.base_exponent, gamma))
    beta = tuple(b + s for b, s in zip(series.beta, _mul(series.config.matrix, gamma)))
    out = {}
    undetermined = set()
    for u in series.region:
        div = _falling(base, u, gamma)  # (x + 1) ... (x + gamma) at the old x
        if div == 0:
            undetermined.add(u)
            continue
        c = series.coefficient(u)
        if c:
            out[u] = c / div
    basis = toric_kernel_basis(series.config)
    moves = [w for w in basis] + [tuple(-a for a in w) for w in basis]
    progress = True
    while progress and undetermined:
        progress = False
        for m in sorted(undetermined):
            for w in moves:
                u = tuple(a - b for a, b in zip(m, w))
                if u in undetermined or u not in series.region:
                    continue
                pp, pm = _contiguity_products(base, u, w)
                if pp == 0:
                    continue
                # c_m * pp = c_u * pm with c_u already determined
                val = out.get(u, Fraction(0)) * pm / pp
                if val:
                    out[m] = val
                undetermined.discard(m)
                progress = True
                break
    region = series.region - undetermined  # holds every key of out
    return TruncatedSeries.make(series.config, beta, base, out, region, series.truncation_order)


def shift_inverse(series: TruncatedSeries, u) -> TruncatedSeries:
    """del^{-u} for a mixed-sign integer vector u: differentiate by the
    negative part first (killing factors act before any division), then
    antidifferentiate by the positive part."""
    u = tuple(_ints(u))
    uplus = tuple(max(a, 0) for a in u)
    uminus = tuple(max(-a, 0) for a in u)
    return antiderivative(differentiate(series, uminus), uplus)


# -- annihilation -------------------------------------------------------------------


@record
class AnnihilationReport:
    passed: bool
    determined_zero: int
    determined_nonzero: tuple  # offending (operator, offset, value) triples
    boundary_indeterminate: int

    def __bool__(self):
        return self.passed


def annihilation_check(series: TruncatedSeries) -> AnnihilationReport:
    """Apply every Euler operator and every kernel-basis box operator and
    assert vanishing of all fully determined image coefficients."""
    zero = 0
    bad = []
    boundary = 0
    for i in range(series.config.ambient_dim):
        img = apply_euler(series, i)
        for u, c in img.term_items:
            bad.append((f"euler_{i}", u, c))
        zero += len(img.region) - len(img.term_items)
    for w in toric_kernel_basis(series.config):
        img = apply_box(series, w)
        for u, c in img.term_items:
            if u in img.region:
                bad.append((f"box_{w}", u, c))
        zero += len(img.region) - sum(1 for u, _ in img.term_items if u in img.region)
        boundary += len(series.region) - len(img.region)
    return AnnihilationReport(not bad, zero, tuple(bad), boundary)


# -- the extension construction ------------------------------------------------------


def _insert(vec, k, value):
    return tuple(vec[:k]) + (value,) + tuple(vec[k:])


def _drop(vec, k):
    return tuple(vec[:k]) + tuple(vec[k + 1:])


def kernel_slice_representative(A: PointConfiguration, k: int, ell: int):
    """Some u with A u = 0 and u_k = ell, of small L1 norm, or None.

    The representative is reduced against the sublattice of kernel vectors
    vanishing at k; the construction downstream is representative-independent.
    """
    if not 0 <= k < A.size:
        raise IndexError(f"column {k} out of range")
    g, step, fixed = _kernel_slice(A, k)
    if g == 0:
        return None if ell else (0,) * A.size
    if ell % g != 0:
        return None
    u = tuple((ell // g) * a for a in step)
    for z in fixed:
        better = True
        while better:
            better = False
            for t in (1, -1):
                cand = tuple(a + t * b for a, b in zip(u, z))
                if _l1(cand) < _l1(u):
                    u = cand
                    better = True
    return u


@_per_configuration
def _kernel_slice(A: PointConfiguration, k: int):
    """(g, step, fixed) for the kernel slices of A at column k, shared by every
    ell: g >= 0 generates the k-coordinates of the toric kernel, step is a
    kernel vector with k-coordinate g (when g > 0), and fixed is a basis of
    the kernel vectors vanishing at k.  The extension asks for one slice per
    order in y_k, so each (A, k) is kept with A; the caller checks k."""
    basis = toric_kernel_basis(A)
    kcoords = [w[k] for w in basis]
    g = gcd(*kcoords)
    if g == 0:
        return 0, (), ()
    # combine basis vectors to reach k-coordinate g
    coeffs = _bezout_combination(kcoords, g)
    step = tuple(sum(c * w[j] for c, w in zip(coeffs, basis)) for j in range(A.size))
    rel = integer_kernel_basis([kcoords], len(kcoords))
    fixed = tuple(
        tuple(sum(r[l] * basis[l][j] for l in range(len(basis))) for j in range(A.size))
        for r in rel
    )
    return g, step, fixed


def _bezout_combination(values, g):
    """Integer coefficients c with sum c_i values_i = g = gcd(values)."""
    coeffs = [0] * len(values)
    cur_g = 0
    cur = [0] * len(values)
    for i, a in enumerate(values):
        if a == 0:
            continue
        if cur_g == 0:
            cur_g = abs(a)
            cur = [0] * len(values)
            cur[i] = 1 if a > 0 else -1
            continue
        new_g, x, y = xgcd(cur_g, a)
        cur = [x * c for c in cur]
        cur[i] += y
        cur_g = new_g
    if cur_g != g:
        raise AssertionError("gcd combination failed")
    return cur


def extend_solution(
    psi: TruncatedSeries, A: PointConfiguration, k: int, beta, order_in_yk: int
) -> TruncatedSeries:
    """Assemble the series sum_l y_k^l / l! psi_l over the deleted coordinate.

    psi is a truncated solution for the deletion A_k; psi_l is the inverse
    shift of psi along any kernel vector with k-coordinate l (zero when no
    such vector exists).  The result restricts to psi at y_k = 0.
    """
    if order_in_yk < 0:
        raise ValueError(f"order must be nonnegative, got {order_in_yk}")
    beta = tuple(Fraction(b) for b in beta)
    if not 0 <= k < A.size:
        raise IndexError(f"column {k} out of range")
    if psi.config.points != _drop(A.points, k):
        raise ValueError("input series must live on the configuration minus column k")
    if k in A.newton.vertex_indices:
        raise ValueError("the added column must not be a vertex")
    if not _keeps_z_a(A, k):
        raise ValueError("the added column must not change the group lattice")
    res = is_nonresonant(A, beta)
    if not res:
        raise ResonantParameterError(f"resonant at face {res.witness_face}")
    if tuple(psi.beta) != beta:
        raise ValueError("parameter mismatch")
    base = _insert(psi.base_exponent, k, Fraction(0))
    terms = {}
    region = set()
    for ell in range(order_in_yk + 1):
        u = kernel_slice_representative(A, k, ell)
        if u is None:
            continue
        ubar = _drop(u, k)
        psi_ell = shift_inverse(psi, ubar)
        fact = Fraction(1, factorial(ell))
        for mbar in psi_ell.region:
            offset = tuple(a + b for a, b in zip(u, _insert(mbar, k, 0)))
            region.add(offset)
            c = psi_ell.coefficient(mbar)
            if c:
                terms[offset] = terms.get(offset, Fraction(0)) + fact * c
    return TruncatedSeries.make(A, beta, base, terms, region, psi.truncation_order)


def restrict_to_zero(series: TruncatedSeries, k: int) -> TruncatedSeries:
    """Evaluate y_k -> 0: keep the terms with k-offset zero, drop the coordinate."""
    if not 0 <= k < series.config.size:
        raise IndexError(f"column {k} out of range")
    if series.base_exponent[k] != 0:
        raise ValueError("restriction needs base exponent zero at the coordinate")
    small = series.config.delete(k)
    terms = {}
    region = set()
    for u in series.region:
        if u[k] == 0:
            region.add(_drop(u, k))
    for u, c in series.term_items:
        if u[k] == 0:
            terms[_drop(u, k)] = c
    return TruncatedSeries.make(
        small, series.beta, _drop(series.base_exponent, k), terms, region,
        series.truncation_order,
    )
