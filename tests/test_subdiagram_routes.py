"""Differential tests: LP-free subdiagram volumes against the LP route, and
quotient images from the face's constraint rows against the Smith route.

The first reference is the earlier LP-based route, kept verbatim: one exact
LP per generator to keep only vertices of conv(G) + cone(G), and one exact
cone-membership LP per direction to find the extreme rays in rank >= 3.

The second is the earlier quotient route, kept verbatim: Z_A / (Z_A ∩ span Γ)
through a Smith normal form with transforms of the kernel's coordinates in
the basis of Z_A.
"""

import random

from sympy import Matrix

from _corpus import random_small_config
from gkzkit import configuration
from gkzkit.configuration import (
    PointConfiguration,
    _cone_facet_inner_normals,
    _extreme_rays,
    _face_quotient_images,
    _minkowski_generators,
    saturate,
    subdiagram_volume,
    subdiagram_volume_oracle,
)
from gkzkit.intlinalg import IntMatrix, primitive, rational_rank, vsub
from gkzkit.lattice import ContainmentError
from gkzkit.lp import OPTIMAL, lp_maximize

OBSTRUCTED = PointConfiguration.from_columns(
    [
        (1, 0, 1, 0),
        (1, 1, 2, 0),
        (1, 2, 0, 0),
        (1, 1, 1, 0),
        (1, 2, 0, 2),
        (1, 1, 0, 3),
        (1, 0, 0, 4),
    ]
)


def _in_cone(x, gens) -> bool:
    """Exact test x in cone(gens) via LP feasibility."""
    if not gens:
        return not any(x)
    n = len(gens)
    d = len(x)
    A_ub = []
    b_ub = []
    for i in range(d):  # sum lam_j g_j = x, split into <= pairs
        row = [gens[j][i] for j in range(n)]
        A_ub.append(row)
        b_ub.append(x[i])
        A_ub.append([-a for a in row])
        b_ub.append(-x[i])
    for j in range(n):
        A_ub.append([-1 if l == j else 0 for l in range(n)])
        b_ub.append(0)
    status, _, _ = lp_maximize([0] * n, A_ub, b_ub)
    return status == OPTIMAL


def _minkowski_hull_generators(G):
    """Generators that are vertices of conv(G) + cone(G).

    g is redundant iff g = sum mu_j h_j + c with the mu convex over G \\ {g}
    and c in cone(G) (the recession cone keeps all directions).
    """
    out = []
    for i, g in enumerate(G):
        others = [h for j, h in enumerate(G) if j != i]
        if not others:
            out.append(g)
            continue
        n = len(others)
        m = len(G)
        d = len(g)
        A_ub = []
        b_ub = []
        for idx in range(d):
            row = [others[j][idx] for j in range(n)] + [G[j][idx] for j in range(m)]
            A_ub.append(row)
            b_ub.append(g[idx])
            A_ub.append([-a for a in row])
            b_ub.append(-g[idx])
        A_ub.append([1] * n + [0] * m)
        b_ub.append(1)
        A_ub.append([-1] * n + [0] * m)
        b_ub.append(-1)
        for j in range(n + m):
            A_ub.append([-1 if l == j else 0 for l in range(n + m)])
            b_ub.append(0)
        status, _, _ = lp_maximize([0] * (n + m), A_ub, b_ub)
        if status != OPTIMAL:
            out.append(g)
    return out


def _extreme_rays_lp(G):
    """Extreme rays with the rank >= 3 branch deciding by cone membership LPs."""
    dirs = sorted({primitive(g) for g in G})
    if len(dirs[0]) <= 2 or len(dirs) == 1:
        return _extreme_rays(G)
    out = []
    for i, g in enumerate(dirs):
        others = [h for j, h in enumerate(dirs) if j != i]
        # g extreme iff g is NOT a nonnegative combination of the others
        if not _in_cone(g, others):
            out.append(g)
    return out


def _lp_volume(A, face, monkeypatch):
    """subdiagram_volume with the LP pruning and LP extreme rays swapped in."""
    with monkeypatch.context() as m:
        m.setattr(
            configuration, "_minkowski_generators", lambda G, normals: _minkowski_hull_generators(G)
        )
        m.setattr(configuration, "_extreme_rays", lambda G, normals=None: _extreme_rays_lp(G))
        return subdiagram_volume.__wrapped__(A, face)


def _solid_configs(seed, count):
    """Seeded 3-polytopes with vertices in [0, 2]^3, and their face saturations."""
    rng = random.Random(seed)
    out = []
    while len(out) < 2 * count:
        pts = sorted(
            {(1, *(rng.randint(0, 2) for _ in range(3))) for _ in range(rng.randint(5, 6))}
        )
        if len(pts) < 4 or rational_rank([vsub(p, pts[0]) for p in pts[1:]]) != 3:
            continue
        A = PointConfiguration.from_columns(pts)
        out += [A, saturate(A, "s").result]
    return out


def _assert_routes_agree(configs, monkeypatch):
    ranks = set()
    for A in configs:
        for face in A.poset.faces:
            if face.supporting is None:
                continue
            _, G = _face_quotient_images(A, face)
            ranks.add(len(G[0]))
            assert _extreme_rays(G, _cone_facet_inner_normals(G)) == _extreme_rays_lp(G)
            assert subdiagram_volume(A, face) == _lp_volume(A, face, monkeypatch)
    return ranks


def test_routes_agree_on_criterion_8_corpus(monkeypatch):
    rng = random.Random(88)  # the corpus of acceptance criterion 8, first configs
    configs = [random_small_config(rng) for _ in range(10)]
    assert _assert_routes_agree(configs, monkeypatch) == {1, 2}


def test_routes_agree_on_obstructed(monkeypatch):
    # the vertex a2 of the s-saturation has the largest shifted set met so
    # far: 30 points, where dominance alone would keep 35
    configs = [OBSTRUCTED, saturate(OBSTRUCTED, "s").result]
    assert 3 in _assert_routes_agree(configs, monkeypatch)


def test_routes_agree_on_solid_family(monkeypatch):
    # vertices of 3-polytopes give rank-3 quotients, out of the oracle's reach
    assert 3 in _assert_routes_agree(_solid_configs(5, 1), monkeypatch)


def _vertex_quotient(A, vertex):
    face = A.minimal_face(A.index_of(vertex))
    return face, _face_quotient_images(A, face)[1]


def test_collinear_generators_stay_under_the_hull_cap():
    # the vertex (1,0,0) sees 17 quotient images on one segment; none
    # dominates another, and kept whole they would shift to 51 hull points
    n = 16
    A = PointConfiguration.from_columns([(1, 0, 0)] + [(1, k, n - k) for k in range(n + 1)])
    face, G = _vertex_quotient(A, (1, 0, 0))
    assert len(G) == n + 1
    kept = _minkowski_generators(G, _cone_facet_inner_normals(G))
    assert kept == _minkowski_hull_generators(G) and len(kept) == 2
    # the gap is the triangle x, y >= 0, x + y <= n of area n^2, measured in
    # the quotient lattice x + y = 0 mod n of index n
    assert subdiagram_volume(A, face) == n == subdiagram_volume_oracle(A, face)


def test_coplanar_generators_stay_under_the_hull_cap():
    # rank-3 analogue, out of the oracle's reach: 15 images on a triangle
    n = 4
    pts = [(1, a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    A = PointConfiguration.from_columns([(1, 0, 0, 0)] + pts)
    face, G = _vertex_quotient(A, (1, 0, 0, 0))
    assert len(G) == 15
    normals = _cone_facet_inner_normals(G)
    kept = _minkowski_generators(G, normals)
    assert kept == _minkowski_hull_generators(G) and len(kept) == 3
    assert _extreme_rays(G, normals) == _extreme_rays_lp(G)
    # the gap is the simplex x >= 0, x1 + x2 + x3 <= n of volume n^3,
    # measured in the quotient lattice x1 + x2 + x3 = 0 mod n of index n
    assert subdiagram_volume(A, face) == n**2


def test_subdiagram_volume_solves_no_lp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("subdiagram_volume must not solve an LP")

    monkeypatch.setattr(configuration, "lp_maximize", forbidden)
    for A in _solid_configs(7, 1):
        for face in A.poset.faces:
            subdiagram_volume.__wrapped__(A, face)


# -- the Smith-normal-form quotient route, the reference of the tests below ----


def ref_smith_normal_form_transforms(M: IntMatrix):
    """Return (U, D, V) with D = U*M*V diagonal, d_1 | d_2 | ..., U, V unimodular."""
    m, n = M.rows, M.cols
    a = [list(row) for row in M.entries]
    U = [list(row) for row in IntMatrix.identity(m).entries]
    V = [list(row) for row in IntMatrix.identity(n).entries]

    def row_sub(i, src, q):
        a[i] = [p - q * r for p, r in zip(a[i], a[src])]
        U[i] = [p - q * r for p, r in zip(U[i], U[src])]

    def col_sub(j, src, q):
        for r in range(m):
            a[r][j] -= q * a[r][src]
        for r in range(n):
            V[r][j] -= q * V[r][src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    s = 0
    while True:
        pos = None
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pos = (i, j)
        if pos is None:
            break
        row_swap(s, pos[0])
        col_swap(s, pos[1])
        while True:
            dirty = False
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    row_sub(i, s, q)
                    if a[i][s]:  # remainder became the smaller pivot candidate
                        row_swap(s, i)
                        dirty = True
            for j in range(s + 1, n):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    col_sub(j, s, q)
                    if a[s][j]:
                        col_swap(s, j)
                        dirty = True
            if not dirty and all(a[i][s] == 0 for i in range(s + 1, m)) and all(
                a[s][j] == 0 for j in range(s + 1, n)
            ):
                break
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            U[s] = [-x for x in U[s]]
        # enforce divisibility d_s | a[i][j]
        fixed = False
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if a[i][j] % a[s][s] != 0:
                    row_sub(s, i, -1)  # add row i into the pivot row
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        s += 1
    return IntMatrix(tuple(map(tuple, U))), IntMatrix(tuple(map(tuple, a))), IntMatrix(
        tuple(map(tuple, V))
    )


def ref_quotient_project(source, kernel):
    """The projection of source onto Z^(rank source - rank kernel), and that
    rank; the quotient must be torsion-free."""
    coords = [source.coordinates(g) for g in kernel.generators()]
    if None in coords:
        raise ContainmentError("kernel not contained in source")
    r = source.rank
    K = IntMatrix.from_columns(coords, rows=r)
    U, D, _ = ref_smith_normal_form_transforms(K)
    k = kernel.rank
    torsion = tuple(D.entries[i][i] for i in range(k) if abs(D.entries[i][i]) != 1)
    if torsion:
        raise AssertionError(f"quotient has torsion {torsion}")
    # rows k..r-1 of U kill the kernel and surject onto Z^(r-k)
    proj = IntMatrix(tuple(U.entries[i] for i in range(k, r)))

    def project(v):
        coords = source.coordinates(v)
        if coords is None:
            raise ContainmentError(f"{v} is not in the source lattice")
        return proj.mul_vec(coords)

    return project, r - k


def ref_face_quotient_images(A, face):
    kernel = A.group_lattice.intersect_subspace(A.face_points(face))
    project, rank = ref_quotient_project(A.group_lattice, kernel)
    images = {project(p) for p in A.points}
    images.discard((0,) * rank)
    return project, sorted(images)


def _unimodular_image(R, N):
    """Is there an integer U with det U = ±1 and U r = n for each pair of
    columns?  The columns of R generate Z^rank, so U is unique if it exists."""
    R, N = Matrix(R).T, Matrix(N).T
    if R.shape != N.shape or R.rank() != R.rows:
        return False
    U = N * R.T * (R * R.T).inv()
    return U * R == N and all(a.is_integer for a in U) and abs(U.det()) == 1


def test_quotient_images_match_the_smith_route(monkeypatch):
    rng = random.Random(88)  # the corpus of acceptance criterion 8, first configs
    configs = [random_small_config(rng) for _ in range(30)]
    configs += [OBSTRUCTED, saturate(OBSTRUCTED, "s").result] + _solid_configs(5, 3)
    ranks = set()
    faces = 0
    for A in configs:
        for face in A.poset.faces:
            if face.supporting is None:
                continue
            project, G = _face_quotient_images(A, face)
            ref_project, ref_G = ref_face_quotient_images(A, face)
            ranks.add(len(G[0]))
            assert len(G) == len(ref_G)
            R = [ref_project(p) for p in A.points]
            assert _unimodular_image(R, [project(p) for p in A.points]), (A.points, face)
            with monkeypatch.context() as m:
                m.setattr(configuration, "_face_quotient_images", ref_face_quotient_images)
                ref_volume = subdiagram_volume.__wrapped__(A, face)
            assert subdiagram_volume.__wrapped__(A, face) == ref_volume
            faces += 1
    assert ranks == {1, 2, 3} and faces >= 300
