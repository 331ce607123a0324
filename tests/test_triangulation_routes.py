"""Differential tests: flip-graph enumeration against the cover enumerator.

The reference below, ``reference_triangulations``, is the earlier
enumerator, a reference since commit 98d90e4, which replaced it, kept
verbatim: every cover of the Newton polytope by maximal simplices with
pairwise disjoint interiors (one exact LP per candidate pair), filtered by
the ``is_regular`` LP.  It stays as the most independent enumeration: it
walks no flip and reads no circuit.
"""

from fractions import Fraction

from _corpus import CATALOG, MOTHER, config, cover_family
from test_minors_routes import ref_cell_volume
from gkzkit import secondary
from gkzkit.configuration import PointConfiguration
from gkzkit.lp import lp_feasible_strict
from gkzkit.secondary import (
    _certify,
    config_volume,
    enumerate_regular_triangulations,
    is_regular,
    make_triangulation,
    secondary_polytope,
)



def _interiors_disjoint(coords, c1, c2) -> bool:
    """Exact test that two simplices have disjoint interiors."""
    d = len(coords[0])
    n1, n2 = len(c1), len(c2)
    nv = n1 + n2
    A_ub = []
    b_ub = []
    for i in range(d):
        row = [Fraction(coords[j][i]) for j in c1] + [
            -Fraction(coords[j][i]) for j in c2
        ]
        A_ub.append(row)
        b_ub.append(Fraction(0))
        A_ub.append([-a for a in row])
        b_ub.append(Fraction(0))
    for vec, val in (([1] * n1 + [0] * n2, 1), ([0] * n1 + [1] * n2, 1)):
        A_ub.append([Fraction(a) for a in vec])
        b_ub.append(Fraction(val))
        A_ub.append([-Fraction(a) for a in vec])
        b_ub.append(Fraction(-val))
    strict = set()
    for j in range(nv):
        A_ub.append([Fraction(-1) if l == j else Fraction(0) for l in range(nv)])
        b_ub.append(Fraction(0))
        strict.add(len(A_ub) - 1)
    ok, _ = lp_feasible_strict(A_ub, b_ub, strict, cap=Fraction(1, 4))
    return not ok


def _all_covering_simplex_sets(A: PointConfiguration):
    """All ways to cover N by interior-disjoint maximal simplices on A.

    Non-face-to-face covers can appear here; the regularity filter removes
    them (a height certificate forces face-to-face lower hulls).
    """
    coords = A.chart_points
    d = len(coords[0])
    total = config_volume(A)
    if d == 1:
        order = sorted(range(A.size), key=lambda i: coords[i][0])
        inner = order[1:-1]
        out = []
        for mask in range(1 << len(inner)):
            chosen = [order[0]] + [p for b, p in enumerate(inner) if mask >> b & 1] + [order[-1]]
            chosen.sort(key=lambda i: coords[i][0])
            out.append([tuple(sorted((chosen[t], chosen[t + 1]))) for t in range(len(chosen) - 1)])
        return out
    from itertools import combinations

    candidates = []
    for c in combinations(range(A.size), d + 1):
        if ref_cell_volume(coords, c) > 0:
            candidates.append(c)
    disjoint = {}

    def compat(i, j):
        key = (min(i, j), max(i, j))
        if key not in disjoint:
            disjoint[key] = _interiors_disjoint(coords, candidates[key[0]], candidates[key[1]])
        return disjoint[key]

    results = []

    def extend(start, chosen, vol):
        if vol == total:
            results.append([candidates[i] for i in chosen])
            return
        for i in range(start, len(candidates)):
            v = ref_cell_volume(coords, candidates[i])
            if vol + v > total:
                continue
            if all(compat(i, j) for j in chosen):
                extend(i + 1, chosen + [i], vol + v)

    extend(0, [], 0)
    return results


def reference_triangulations(A: PointConfiguration):
    """The earlier enumerator: every simplex cover certified by the LP."""
    out = []
    for cells in _all_covering_simplex_sets(A):
        T = make_triangulation(A, cells)
        ok, _ = is_regular(A, T)
        if ok:
            out.append(T)
    return tuple(sorted(set(out), key=lambda T: T.cells))


def test_flips_match_cover_enumeration():
    for A in cover_family():
        assert enumerate_regular_triangulations(A) == reference_triangulations(A), A.points


def test_mother_of_all_examples(monkeypatch):
    A = config(MOTHER)
    verdicts = []
    lp_verdicts = []

    def counted(A, T, rows, rays=()):
        result = _certify(A, T, rows, rays)
        verdicts.append(result[0])
        return result

    def counted_lp(A, T, rows=None):
        result = is_regular(A, T, rows)
        lp_verdicts.append(result[0])
        return result

    monkeypatch.setattr(secondary, "_certify", counted)
    monkeypatch.setattr(secondary, "is_regular", counted_lp)
    tris = enumerate_regular_triangulations.__wrapped__(A)
    assert len(tris) == 16
    assert len(verdicts) == 18 and verdicts.count(False) == 2
    # the LP makes both rejections and nothing else: the pulling heights
    # certify the start and rays the other 15
    assert lp_verdicts == [False, False]
    monkeypatch.undo()
    for T in tris:
        assert is_regular(A, T)[0]
        assert T.total_volume == config_volume(A) == 16


def test_enumeration_runs_once_per_configuration(monkeypatch):
    # labels make this configuration distinct from any other test's
    A = config(CATALOG[1], [f"once{i}" for i in range(5)])
    calls = []

    def counted(A, T, rows, rays=()):
        calls.append(T)
        return _certify(A, T, rows, rays)

    monkeypatch.setattr(secondary, "_certify", counted)
    secondary_polytope(A)
    first = len(calls)
    assert first >= 5
    assert len(enumerate_regular_triangulations(A)) == 5
    assert len(calls) == first


def test_an_equal_configuration_alive_shares_the_results(monkeypatch):
    # the 4-point segment that verify_factorization rebuilds while the
    # caller still holds its own: built twice, both alive, walked once
    labels = [f"shared{i}" for i in range(4)]
    A, B = (config([(0,), (1,), (2,), (3,)], labels) for _ in range(2))
    assert A == B and A is not B
    calls = []

    def counted(A, T, rows, rays=()):
        calls.append(T)
        return _certify(A, T, rows, rays)

    monkeypatch.setattr(secondary, "_certify", counted)
    first = secondary_polytope(A)
    assert len(calls) >= 4
    del calls[:]
    assert secondary_polytope(B) is first
    assert calls == []
