"""Timed ops and their answer checks for the library workloads.

``OPS[name](inp)`` is the timed op: it builds the ``PointConfiguration`` and
runs the computation.  ``CHECKS[name](inp, out)`` runs untimed afterwards and
returns a failure message, or None when every answer holds.  Checks go
through independent routes (oracles, replays, exact counts known in advance)
and call no cached gkzkit function, so cache statistics see only the ops.
"""

from __future__ import annotations

from fractions import Fraction

from gkzkit.configuration import (
    PointConfiguration,
    multiplicity_table,
    reduction_chain,
    replay_chain,
    saturate,
    subdiagram_volume_oracle,
)
from gkzkit.curves import MonomialCurveConfig, verify_factorization
from gkzkit.hyper import is_nonresonant, resonance_box_oracle
from gkzkit.secondary import (
    DegenerateHeightsError,
    check_facet_restriction,
    config_volume,
    enumerate_regular_triangulations,
    gkz_vector,
    regular_triangulation,
    secondary_polytope,
)

from workloads import HEIGHT_DENOMINATOR

SATURATION_MODES = ("s", "p", "full")


def volumes_op(cols):
    A = PointConfiguration.from_columns(cols)
    return A, multiplicity_table(A)


def volumes_check(cols, out):
    A, table = out
    if len(table) != len(A.poset.faces):
        return "multiplicity table misses faces"
    for rec in table:
        face = rec.face
        if rec.mult_m != rec.index_i * rec.subvol_v:
            return f"m != i*v on face {face.indices}"
        if face.supporting is None:
            if (rec.index_i, rec.subvol_v) != (1, 1):
                return "top face must have i = v = 1"
        elif A.ambient_dim - (face.dim + 1) in (1, 2):
            want = subdiagram_volume_oracle(A, face)
            if rec.subvol_v != want:
                return f"v = {rec.subvol_v} but oracle says {want} on face {face.indices}"
    return None


def _fractions(pairs):
    return tuple(Fraction(n, d) for n, d in pairs)


def box_radius(cols):
    """A box radius at which the brute-force resonance search is complete.

    On a curve every parameter entry lies in [-3, 3].  For a curve 0 < ... < a, resonance at
    the vertex (1, a) has a witness gamma with |gamma_2| <= a/2 and
    |gamma_1| <= |beta_1| + |beta_2|/a + 1/2 < 7 (the vertex (1, 0) needs
    less), so max(7, a) suffices.  Planar sets in [0, 3]^2 use radius 5, as
    acceptance criterion 7 does on the same kind of configuration.
    """
    if len(cols[0]) == 2:
        return max(7, max(c[1] for c in cols))
    return 5


def saturations_op(inp):
    A = PointConfiguration.from_columns(inp["cols"])
    sats = {mode: saturate(A, mode) for mode in SATURATION_MODES}
    chain = reduction_chain(A, "p")
    T = None
    for h in inp["heights"]:
        try:
            T = regular_triangulation(A, [Fraction(x, HEIGHT_DENOMINATOR) for x in h])
            break
        except DegenerateHeightsError:
            continue
    gkz = gkz_vector(A, T) if T is not None else None
    verdicts = [bool(is_nonresonant(A, _fractions(b))) for b in inp["betas"]]
    return A, sats, chain, T, gkz, verdicts


def saturations_check(inp, out):
    A, sats, chain, T, gkz, verdicts = out
    for mode, res in sats.items():
        if saturate(res.result, mode).added_points:
            return f"saturate mode {mode} is not idempotent"
    if chain.complete and not (
        replay_chain(chain) and set(chain.end.points) == set(sats["p"].result.points)
    ):
        return "reduction chain does not replay to the partial saturation"
    vol = config_volume(A)
    for mode in ("s", "p"):
        if config_volume(sats[mode].result) != vol:
            return f"saturation mode {mode} changed the volume"
    if T is None:
        return "no generic heights among the three candidates"
    if T.total_volume != vol or sum(gkz) != (A.newton.dim + 1) * vol:
        return "GKZ vector sum != (d+1)*vol"
    betas = [_fractions(b) for b in inp["betas"]]
    if verdicts != resonance_box_oracle(A, betas, radius=box_radius(inp["cols"])):
        return "is_nonresonant disagrees with the box oracle"
    if verdicts[2] or verdicts[3]:
        return "a parameter resonant by construction was called nonresonant"
    return None


def triangulations_op(inp):
    A = PointConfiguration.from_columns(inp["cols"])
    tris = enumerate_regular_triangulations(A)
    S = secondary_polytope(A)
    facet = check_facet_restriction(A, inp["delete"])
    factor = None
    if inp["support"] is not None:
        factor = verify_factorization(MonomialCurveConfig(tuple(inp["support"])))
    return tris, S, facet, factor


def triangulations_check(inp, out):
    tris, S, facet, factor = out
    if len(tris) != inp["count"]:
        return f"{len(tris)} regular triangulations, expected {inp['count']}"
    gkz = set()
    for T in tris:
        if sum(T.volumes) != inp["volume"]:
            return f"triangulation {T.cells} does not cover volume {inp['volume']}"
        phi = [0] * len(inp["cols"])
        for cell, vol in zip(T.cells, T.volumes):
            for i in cell:
                phi[i] += vol
        gkz.add(tuple(phi))
    if len(gkz) != len(tris) or gkz != set(S.vertices):
        return "secondary polytope vertices != GKZ vectors of the triangulations"
    if not facet:
        return f"facet restriction fails when deleting column {inp['delete']}"
    if factor is not None and not factor:
        return "principal determinant does not factor as the multiplicities say"
    return None


OPS = {
    "volumes": volumes_op,
    "saturations": saturations_op,
    "triangulations": triangulations_op,
}
CHECKS = {
    "volumes": volumes_check,
    "saturations": saturations_check,
    "triangulations": triangulations_check,
}
