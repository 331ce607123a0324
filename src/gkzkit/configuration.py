"""Point configurations and their combinatorial invariants.

The objects here are quasi-homogeneous integer point configurations A: the
columns of an integer matrix, on an affine hyperplane that misses 0.  That,
and Z_A, are read off the Newton hull's chart.  The module computes, exactly:

* face lattices (the lattices of the chart differences of the points on each
  face of the hull, in the Newton polytope's chart),
* the index of the group generated by the points on a face inside the
  ambient group cut to the face span,
* subdiagram volumes of the quotient semigroups, by two independent routes,
* multiplicities m = index * subdiagram volume,
* face quotients read off the Newton hull where it has them: a vertex's is
  the chart, a facet's its primitive chart normal, an edge's index a gcd;
  a larger facet's index the row index of its face lattice's HNF basis;
  only a face of dimension 1 ... d - 2 takes a face HNF,
* face saturations and partial face saturations,
* lattice redundancy of single points,
* auxiliary-point certificates and greedy reduction chains, and
* the planar interior-point construction for two-dimensional configurations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, cmp_to_key, partial, wraps
from math import gcd, prod
from numbers import Number
from operator import mul
from weakref import WeakKeyDictionary

from .intlinalg import (
    _abs_det,
    _hnf,
    _hnf_kernel,
    _ints,
    clear_denominators,
    dot,
    record,
    primitive,
    vsub,
)
from .lattice import Lattice, _substitute, hnf_solve
from .lp import OPTIMAL, lp_maximize
from .polytope import (
    BudgetError,
    Face,
    FacePoset,
    _bits,
    _mask,
    _placement,
    convex_hull,
    deleted_hull,
    deleted_poset,
    extended_hull,
    extended_poset,
    face_poset,
    lattice_points_in,
    pulling_cells,
)


class InhomogeneousError(ValueError):
    """The columns admit no functional evaluating to 1 on every column."""


def _origin_coords(P):
    """0's chart coordinates in P, (numerators, denominator > 0), or None off
    P's affine hull: then, and only then, a functional is 1 on P's points."""
    return hnf_solve(P.chart.basis, P.chart.pivots, [-a for a in P.chart_anchor])


def _column(c) -> tuple:
    """A column as a tuple of ints.  ValueError when it is not a sequence of
    numbers (booleans are not numbers here, as in the CLI), or naming the
    entry when a number is not an integer.  Plain ints pass first."""
    try:
        col = tuple(c)
    except TypeError:
        col = None
    if col is not None and all(type(a) is int for a in col):
        return col
    if col is None or not all(isinstance(a, Number) and not isinstance(a, bool) for a in col):
        raise ValueError(f"column {c!r} is not a sequence of integers")
    return tuple(_ints(col))


def _free_label(labels) -> str:
    """The first label a{n} not in use with n past the column count."""
    n = len(labels) + 1
    while f"a{n}" in labels:
        n += 1
    return f"a{n}"


def _new_labels(A, n) -> list:
    """The labels that n :meth:`PointConfiguration.with_point` calls on A append."""
    labels = list(A.labels)
    for _ in range(n):
        labels.append(_free_label(labels))
    return labels[A.size:]


@record
class PointConfiguration:
    matrix: tuple  # (1+n) rows x k columns, the columns are the characters
    labels: tuple

    @classmethod
    def from_columns(cls, columns, labels=None) -> "PointConfiguration":
        """The configuration, with its Newton hull; InhomogeneousError when 0
        lies on the columns' affine hull (a column of length 0 is 0 itself)."""
        A = cls._checked([_column(c) for c in columns], labels)
        if not A.matrix or _origin_coords(A.newton) is not None:
            raise InhomogeneousError("no functional takes the value 1 on every column")
        return A

    @classmethod
    def _checked(cls, cols, labels):
        """The configuration of distinct integer columns of equal length and
        its labels, with no homogeneity check: a derivation that keeps a
        functional 1 on every column calls it, :meth:`from_columns` checks."""
        if not cols:
            raise ValueError("a configuration needs at least one column")
        lengths = sorted({len(c) for c in cols})
        if len(lengths) > 1:
            raise ValueError(f"columns must have equal lengths, got {lengths}")
        if len(set(cols)) != len(cols):
            raise ValueError("columns must be distinct")
        if labels is None:
            labels = tuple(f"a{i + 1}" for i in range(len(cols)))
        else:
            labels = tuple(labels)
            if len(labels) != len(cols) or len(set(labels)) != len(labels):
                raise ValueError("labels must be distinct and match the column count")
        return cls(tuple(zip(*cols)), labels)

    # -- basic views ---------------------------------------------------------

    @cached_property
    def points(self):
        return tuple(zip(*self.matrix))

    @property
    def size(self) -> int:
        return len(self.matrix[0])

    @property
    def ambient_dim(self) -> int:
        return len(self.matrix)

    def index_of(self, point) -> int:
        return self.points.index(tuple(point))

    @cached_property
    def newton(self):
        return convex_hull(self.points)

    @cached_property
    def poset(self) -> FacePoset:
        """N's face poset: read off the parent's when this configuration was
        derived from one whose poset was built (see :meth:`_derived`), and
        built from N otherwise."""
        derive = vars(self).pop("_poset_from", face_poset)
        return derive(self.newton)

    @cached_property
    def group_lattice(self) -> Lattice:
        """Z_A: spanned by the chart anchor, a column, and the chart basis."""
        P = self.newton
        return Lattice.from_generators([P.chart_anchor, *P.chart.generators()], self.ambient_dim)

    @cached_property
    def chart_points(self):
        """Integer coordinates of the columns in the Newton polytope's chart,
        in which normalized volumes are volumes with respect to Z_A: the chart
        lattice, of the columns' differences, is Z_A cut to N's direction
        space, where a functional 1 on every a_i makes sum k_i a_i have
        sum k_i = 0, so it is sum k_i (a_i - a_1)."""
        return self.newton.point_coords

    @cached_property
    def volume(self) -> int:
        """Normalized volume of N with respect to Z_A: its pulling cells' |minors|."""
        return sum(abs(self.newton.minor(c)) for c in pulling_cells(self.poset))

    def delete(self, i: int) -> "PointConfiguration":
        """The configuration without column i, unchecked: a functional that
        is 1 on every column is 1 on the others.

        If column i is not a vertex of N and the others keep Z_A (see
        :func:`_keeps_z_a`), N and its chart are kept too: the Newton hull
        is re-indexed, not hulled again (see :func:`deleted_hull`).  Any
        other deletion hulls afresh.
        """
        return self._without(i, i not in self.newton.vertex_indices and _keeps_z_a(self, i))

    def _without(self, i: int, keeps: bool) -> "PointConfiguration":
        """:meth:`delete`, told whether i is no vertex of N and the rest keep Z_A."""
        cols = [c for j, c in enumerate(self.points) if j != i]
        labels = [l for j, l in enumerate(self.labels) if j != i]
        B = PointConfiguration._checked(cols, labels)
        if keeps:
            self._derived(B, deleted_hull(self.newton, i), partial(deleted_poset, i=i))
        return B

    def with_point(self, point, label=None) -> "PointConfiguration":
        if label is None:
            label = _free_label(self.labels)
        return self._extended([_column(point)], [label])

    def _extended(self, cols, labels) -> "PointConfiguration":
        """The configuration with integer columns and their labels appended.
        Columns in N on A's affine lattice keep the Newton hull, and so Z_A
        and A's homogeneity (see :func:`extended_hull`); any others are
        checked with A's columns by :meth:`from_columns`."""
        fits = all(len(c) == self.ambient_dim for c in cols)
        P = extended_hull(self.newton, cols) if fits else None
        cols, labels = [*self.points, *cols], [*self.labels, *labels]
        if P is None:
            return PointConfiguration.from_columns(cols, labels)
        B = PointConfiguration._checked(cols, labels)
        self._derived(B, P, extended_poset)
        return B

    def _derived(self, B, P, derive):
        """Give B the Newton hull P read off N and, if this configuration's
        poset is built, the pending read ``derive(poset, P)`` of B's own,
        which :attr:`poset` makes and drops when first asked.  B keeps the
        poset, not this configuration."""
        object.__setattr__(B, "newton", P)
        parent = vars(self).get("poset")
        if parent is not None:
            object.__setattr__(B, "_poset_from", partial(derive, parent))

    # -- faces ---------------------------------------------------------------

    def face_points(self, face: Face):
        return tuple(self.points[i] for i in face.indices)

    @cached_property
    def minimal_faces(self):
        """The face whose relative interior holds each column, by index: the
        meet of the facet masks through the column, the top face if none is."""
        by_mask, out = self.poset._by_mask, []
        for i in range(self.size):
            meet = (1 << self.size) - 1
            for z in self.newton.facet_sets:
                if z >> i & 1:
                    meet &= z
            out.append(by_mask[meet])
        return tuple(out)

    def minimal_face(self, i: int) -> Face:
        """The face whose relative interior holds column i; IndexError when
        i is out of range."""
        if not 0 <= i < self.size:
            raise IndexError(f"column {i} out of range")
        return self.minimal_faces[i]

    @cached_property
    def _face_interiors(self):
        """Face indices -> the face's relative-interior lattice points, filled
        on demand by :meth:`face_lattice_points`."""
        return {}

    @cached_property
    def _saturations(self):
        """Saturation mode -> the points it adds, filled on demand by
        :func:`_saturation_points`."""
        return {}

    @cached_property
    def _face_scans(self):
        """Face indices -> the points of the face's own lattice in the face,
        for each face scanned so far."""
        return {}

    def face_interior(self, face: Face):
        """The points on face_lattice(A, face) in the face's relative interior
        (the vertex itself for 0-faces).  A face whose interior is not known
        yet is scanned, which fills the interiors of all its subfaces: to scan
        each face at most once, ask for larger faces first."""
        memo = self._face_interiors
        if face.indices not in memo:
            self.face_lattice_points(face)
        return memo[face.indices]

    def face_lattice_points(self, face: Face):
        """The points on face_lattice(A, face) in the face, by one scan of
        the face's box, made once per face.

        The scan also fills :meth:`face_interior` for every subface Γ' of
        the face.  A hit lies in the relative interior of the face where its
        tight facets meet, and each subface is tight on a distinct set of
        facets.  A hit in the relative interior of a proper subface Γ'
        belongs to Γ''s interior iff its chart difference from Γ''s first
        point lies in face_lattice(A, Γ'), a sublattice of the face's
        lattice; a column on Γ' always does.  The facets a subface is tight
        on are its facet signature in the poset, and a hit's chart
        coordinates are read off its placement in N.
        """
        scans = self._face_scans
        pts = scans.get(face.indices)
        if pts is not None:
            return pts
        P = self.newton
        L = None if face.supporting is None else face_lattice(self, face)
        hits = lattice_points_in(P, L, face=face)
        interiors, by_signature, g = {}, {}, _mask(face.indices)
        signatures = self.poset._signatures
        for m, f in self.poset._by_mask.items():
            if m & g == m:  # a subface: its hits are tight on the facets through it
                by_signature[signatures[m]] = f
                interiors[f.indices] = []
        columns, x = set(self.points), self.chart_points
        lattices = {}
        for p, mask in hits:
            f = by_signature[mask]
            if f.indices != face.indices and p not in columns:
                sub = lattices.get(f.indices)
                if sub is None:
                    sub = lattices[f.indices] = face_lattice(self, f)
                y = _placement(P, p)[0]
                if vsub(y, x[f.indices[0]]) not in sub:
                    continue
            interiors[f.indices].append(p)
        memo = self._face_interiors
        for key, inside in interiors.items():
            memo.setdefault(key, tuple(inside))
        pts = scans[face.indices] = tuple(p for p, _ in hits)
        return pts

    @cached_property
    def facet_constraints(self):
        """(face, M) for each codimension-one face: integer rows M cutting
        out the face's linear span, read off one column HNF X U = [L | 0] of
        the rows X of the chart anchor and the chart basis, run with the
        identity below X, so U is unimodular; A is homogeneous, so L is
        square and lower triangular.  u = U (y, z) vanishes on the facet
        h . x = c iff X u = L y is a multiple of (-c, h), so iff y is an
        integer multiple of y_F, the primitive integer vector on the line of
        L^-1 (-c, h).  M is U (y_F, 0) and U's last columns, the kernel of X:
        part of a unimodular basis, so M maps Z^(1+n) onto Z^k, k the number
        of rows."""
        P, n = self.newton, self.ambient_dim
        X = [P.chart_anchor, *P.chart.generators()]
        cols = [[*(row[j] for row in X), *(int(i == j) for i in range(n))] for j in range(n)]
        s = _hnf(cols, len(X))
        L = tuple(zip(*(c[:s] for c in cols[:s])))
        U1 = tuple(zip(*(c[s:] for c in cols[:s])))  # U's first s columns, as rows
        kernel = tuple(tuple(c[s:]) for c in cols[s:])
        faces = self.poset.of_dim(P.dim - 1)
        D = prod(L[j][j] for j in range(s))  # so L y = D (-c, h) has an integer solution
        rhs = [[-D * c, *(D * a for a in h)] for h, c in (f.supporting for f in faces)]
        return tuple(
            (face, (tuple([sum(map(mul, row, y)) for row in U1]), *kernel))
            for face, y in zip(faces, map(primitive, _substitute(L, range(s), rhs)))
        )

    def face_int_semiideal(self):
        """Downward closure of the faces carrying a relative interior point of A."""
        generators = {_mask(f.indices) for f in self.minimal_faces}
        return frozenset(
            f for m, f in self.poset._by_mask.items() if any(m & g == m for g in generators)
        )


_RESULTS = WeakKeyDictionary()


def _per_configuration(fn):
    """Keep fn(A, *args) with A in one weak-keyed table, looked up by
    equality: an equal configuration alive elsewhere shares the results, and
    they die with the one that stored them.  No result may refer to A."""
    @wraps(fn)
    def memo(A, *args):
        results = _RESULTS.setdefault(A, {})
        key = (fn, *args)
        if key not in results:
            results[key] = fn(A, *args)
        return results[key]
    return memo


def _keeps_z_a(A: PointConfiguration, i: int) -> bool:
    """Do A's columns but i, not a vertex of N, still generate Z_A?  Exactly
    when i's chart coordinates x_i lie in the lattice of the others': a_i =
    sum c_j a_j has sum c_j = 1, and the anchor, a vertex, has x = 0, so it
    says x_i = sum c_j x_j.  IndexError when i is out of range."""
    if not 0 <= i < A.size:
        raise IndexError(f"column {i} out of range")
    x = A.chart_points
    return x[i] in Lattice.from_generators(x[:i] + x[i + 1:], A.newton.dim)


# -- face lattices, indices, volumes ------------------------------------------


def face_lattice(A: PointConfiguration, face: Face) -> Lattice:
    """The lattice L of the face's chart differences x_j - x_v, x the chart
    points and v the face's first point, a sublattice of Z^dim N: the
    face's affine lattice is a_v + B L, B the chart basis (see
    :func:`_face_hnf`).  The top face's is Z^dim N."""
    return _chart_span(A, face.indices)


def _chart_span(A: PointConfiguration, indices):
    """The lattice of the chart differences x_j - x_v, j in indices, v the first."""
    x = A.chart_points
    return Lattice.from_generators(
        [vsub(x[j], x[indices[0]]) for j in indices[1:]], A.newton.dim
    )


def _face_hnf(A: PointConfiguration, face: Face):
    """(L, tail, y): y_j = x_j - x_v, x the chart points and v the face's
    first point, and :func:`_hnf_kernel` Y U = [L | 0] of the face's other
    y_j, d = dim N entries each: L the s nonzero HNF columns, tail U's last
    d - s.  h is 1 on a_v and 0 on the chart basis B (see
    :attr:`PointConfiguration.chart_points`), so (c, y) -> c a_v + B y is an
    isomorphism Z x Z^d -> Z_A taking a_j to (1, y_j), Z_A ∩ span Γ to
    Z x (Z^d ∩ span L_Γ) and Z_{A∩Γ} to Z x L_Γ, L_Γ spanned by the rows of Y.

    The library runs it only where the Newton hull has no answer (see
    :func:`_face_quotient`): on a face of dimension 1 ... d - 2, for its
    images and, past an edge, its index.  The sweep oracle's
    :func:`_face_quotient_images` runs it on every proper face.
    """
    x = A.chart_points
    y = [vsub(p, x[face.indices[0]]) for p in x]
    return (*_hnf_kernel([y[j] for j in face.indices[1:]], A.newton.dim), y)


def _face_quotient(A: PointConfiguration, face: Face):
    """(i, images) of a proper face Γ: i = :func:`index_i` and the image of
    each column in Z_A / (Z_A ∩ span Γ), a free group, in the coordinates
    of :func:`_face_hnf`'s isomorphism, up to an automorphism of the
    quotient.  The Newton hull has the answer on most faces:

    * a vertex v: L_Γ = 0, so the quotient is Z^d itself, a_j is taken to
      x_j - x_v, and i = 1;
    * a facet, with primitive chart normal h and offset c: h maps Z^d onto
      Z, and its kernel is Z^d ∩ span L_Γ, the hyperplane h . y = 0, so
      a_j is taken to c - h . x_j = -h . y_j >= 0;
    * an edge: L_Γ = g Z p for the primitive direction p, so i = g, the gcd
      of the entries of its chart differences y_j, and a larger facet's i is
      :func:`_row_index` of their HNF basis (see :func:`index_i`).

    Every other face, of dimension 1 ... d - 2, reads its images off the
    tail of :func:`_face_hnf`, and its index past an edge off L.
    """
    x = A.chart_points
    base = x[face.indices[0]]
    if face.dim == 0:
        return 1, [vsub(p, base) for p in x]
    facet = face.dim == A.newton.dim - 1
    if face.dim == 1:
        i = gcd(*(a for j in face.indices[1:] for a in vsub(x[j], base)))
    elif facet:  # the HNF of the chart differences, with no transform
        y = [list(vsub(x[j], base)) for j in face.indices[1:]]
        i = _row_index(y[:_hnf(y, len(base))])
    if facet:
        h, c = face.supporting
        return i, [(c - dot(h, p),) for p in x]
    L, tail, y = _face_hnf(A, face)
    return (i if face.dim == 1 else _row_index(L)), _tail_images(tail, y)


def index_i(A: PointConfiguration, face: Face) -> int:
    """[Z_A ∩ span Γ : Z_{A∩Γ}], the order of the torsion of Z_A / Z_{A∩Γ}.

    By :func:`_face_hnf`, i = [Z^d ∩ span L_Γ : L_Γ]: 1 on a vertex, and
    on an edge the gcd of the entries of its chart differences (see
    :func:`_face_quotient`).  On a larger face, with Y U = [L | 0], the
    automorphism y -> U^T y of Z^d maps Z^d ∩ span L_Γ onto Z^s x 0, the
    kernel of its last d - s entries (see :func:`_face_quotient_images`), and
    row k of Y to row k of L.  So i is the index in Z^s of the lattice of
    the m - 1 rows of L, the product of the pivots of their HNF.  The pivots
    of L itself are not the index: for Y = [[2], [1]] the pivot is 2, but
    the rows span Z.  A facet reads i off a basis B of L_Γ, with no U: for
    B = P [D; 0] Q in Smith form, [Z^d ∩ span L_Γ : L_Γ] and the index in
    Z^s of the rows of B are both det D.
    """
    if face.supporting is None:
        return 1
    return _face_quotient(A, face)[0]


def _row_index(L):
    """The index in Z^s of the lattice of the rows of L, s columns: the
    product of the pivots of their HNF, 1 when s = 0."""
    rows = [list(row) for row in zip(*L)]
    return prod(rows[j][j] for j in range(_hnf(rows, len(L))))


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _extreme_rays(G):
    """Primitive direction representatives of the extreme rays of the rank-2
    cone(G): two, or one when the images are collinear."""
    dirs = sorted({primitive(g) for g in G})
    out = []
    for g in dirs:
        if all(_cross(g, h) >= 0 for h in dirs):
            out.append(g)
            break
    for g in dirs:
        if all(_cross(g, h) <= 0 for h in dirs):
            out.append(g)
            break
    return sorted(set(out))


def _face_quotient_images(A: PointConfiguration, face: Face):
    """G: the sorted nonzero images of the columns in Z_A / (Z_A ∩ span Γ).

    By :func:`_face_hnf`, the quotient is Z^d / (Z^d ∩ span L_Γ), a_j taken
    to y_j.  With Y U = [L | 0], each of the last d - s columns u of U has
    Y u = 0, so y -> u . y vanishes on span L_Γ.  U^T is unimodular, so its
    last d - s rows map Z^d onto Z^(d - s), with a saturated kernel of rank s
    that holds the rows of Y, of rank s: Z^d ∩ span L_Γ.  A column's image is
    (u . y_j) over those u, and the quotient has no torsion.

    It is the quotient of the sweep oracle alone: the library reads the
    images of vertices and facets off the Newton hull (see
    :func:`_face_quotient`).
    """
    return _nonzero(_tail_images(*_face_hnf(A, face)[1:]))


def _tail_images(tail, coords):
    """(u . y) over the vectors u of ``tail``, for each chart difference y in ``coords``."""
    return [tuple(dot(u, y) for u in tail) for y in coords]


def _nonzero(images):
    """G: the sorted distinct nonzero images."""
    G = set(images)
    G.discard((0,) * len(images[0]))
    return sorted(G)


def subdiagram_volume(A: PointConfiguration, face: Face) -> int:
    """Lattice volume between the hulls of the quotient semigroup and its
    nonzero part: the sum of the pyramids from 0 over the facets of conv(G)
    that 0 sees.

    Writing S for the semigroup generated by the images G of the off-face
    points (in the quotient of the ambient group by the saturated span of the
    face), one has Q = conv(S \\ 0) = conv(G) + cone(G): every nonempty sum
    g_1 + ... + g_m lies in g_1 + cone(G), and conversely any
    g + sum lambda_j g_j with real lambda_j >= 0 is a convex combination of
    the semigroup points g + sum (integer roundings of lambda_j) g_j.  The
    subdiagram volume is that of cone(G) \\ Q, which equals
    conv({0} ∪ G) \\ conv(G) up to boundaries:

    * Take x in the interior of cone(G) but not in Q.  Some t x is in Q, so
      the ray from 0 enters Q at a point y = t x with t > 1.  A hyperplane
      separating Q from the segment [0, y) gives a functional l >= c on Q
      with l(y) = c and l(0) = 0 <= c, and c = 0 would make l vanish at the
      interior point x of cone(G) while l >= 0 on the cone.  Each extreme
      ray of cone(G) carries a generator, on which l >= c > 0, so l is
      positive on every extreme ray: the face l = c of Q is bounded, hence a
      face of conv(G), and x lies between 0 and y in conv({0} ∪ G).
    * Conversely, beneath-beyond (Edelsbrunner, *Algorithms in Combinatorial
      Geometry*, 1987, sec. 8.4) writes conv({0} ∪ G) as conv(G) plus the
      pyramids from 0 over the facets of conv(G) visible from 0 (over
      conv(G) itself when it is not full-dimensional).  Such a facet has a
      functional l >= c on G with l(0) = 0 < c, so l >= 0 on cone(G) and
      l >= c on Q, while the pyramid lies in l <= c.

    G spans the rank-r quotient, so conv(G) is full-dimensional or lies in
    an affine hyperplane missing 0, and then 0 sees all of it.  The pyramid
    from 0 over a simplex on r points G_σ has volume |det G_σ|, so a seen
    facet that is a simplex is one pyramid, and only the others need the
    face poset of conv(G) for their pulling triangulations.

    G comes from :func:`_face_quotient`, off the Newton hull on vertices and
    facets and off :func:`_face_hnf` on faces of dimension 1 ... d - 2.

    On a facet of A the quotient has rank 1 and G lies on one side of 0, so
    conv(G) is the segment [g_min, g_max], 0 sees only its near end, and v
    is the least lattice distance min |g| of an off-facet column from the
    facet.

    In rank 2, G lies in an open half-plane, and the seen facets of conv(G)
    are the edges of its chain from the first ray of cone(G) to the last
    that faces 0.  One angular scan of G finds that chain with no hull, and
    v is the sum of det(p, q) over its consecutive points p, q.  Only rank
    >= 3 builds the one hull of G above.
    """
    if face.supporting is None:
        return 1  # the trivial quotient semigroup by convention
    return _seen_pyramids(_nonzero(_face_quotient(A, face)[1]))


def _seen_pyramids(G):
    """The subdiagram volume of the nonzero images G, as in
    :func:`subdiagram_volume`: on a facet (rank 1) the least |g| and in
    rank 2 the chain of :func:`_seen_chain`, both with no hull; otherwise
    the pyramids over the seen faces of one hull P of G.  A
    seen facet is a simplex when it has P.dim vertices, and all of P, seen
    when 0 is off its affine hull, when it has P.dim + 1.  A simplex is its
    own pulling triangulation, so the face poset is built only when a seen
    face is not one.
    """
    if not G:
        raise AssertionError("a proper face must leave nonzero images")
    if len(G[0]) == 1:
        if G[0][0] < 0 < G[-1][0]:
            raise AssertionError("a facet's images must lie on one side of 0")
        return min(abs(g) for (g,) in G)
    if len(G[0]) == 2:
        return _seen_chain(G)
    P = convex_hull(G)
    x = _origin_coords(P)
    if x is None:
        seen, k = [(1 << len(G)) - 1], P.dim + 1
    else:
        num, den = x
        seen = [z for (h, c), z in zip(P.facets, P.facet_sets) if dot(h, num) > c * den]
        if not seen:
            raise AssertionError("a quotient's images must lie in an open half-space")
        k = P.dim
    vertices = _mask(P.vertex_indices)
    cells, poset = [], None
    for z in seen:
        verts = _bits(z & vertices)
        if len(verts) == k:
            cells.append(verts)
            continue
        if poset is None:
            poset = face_poset(P)
        cells += pulling_cells(poset, poset._by_mask[z])
    return sum(_abs_det([G[i] for i in cell]) for cell in cells)


def _ccw_first(a, b):
    """Negative when b lies counterclockwise of a, or on the same ray and
    farther: on an open half-plane, the angular order, nearest first."""
    return a[1] * b[0] - a[0] * b[1] or abs(a[0]) + abs(a[1]) - abs(b[0]) - abs(b[1])


_BY_ANGLE = cmp_to_key(_ccw_first)


def _seen_chain(G):
    """Rank 2: the sum of det(p, q) over consecutive points p, q of the
    chain of conv(G) that 0 sees, by one angular scan (Graham, *An efficient
    algorithm for determining the convex hull of a finite planar set*, 1972).

    In angular order the chain runs from the first ray of cone(G) to the
    last with conv(G) on its right, so a left turn a -> b -> g puts b beyond
    the segment [a, g] and b is popped.  Ties on a ray go nearest first: a
    point behind a nearer one is then popped at the next turn, or adds det 0
    on the last ray, while in mixed order the chain could restart from a
    farther point.  Collinear points add up to the pyramid over their
    segment, which also covers conv(G) on a line missing 0.  The comparison
    is an order only when G lies in an open half-plane: every g must lie in
    the cone of the first and last points, and that cone must be pointed.
    """
    order = sorted(G, key=_BY_ANGLE)
    (f0, f1), (l0, l1) = order[0], order[-1]
    if f0 * l1 <= f1 * l0 or any(f0 * g1 < f1 * g0 or g0 * l1 < g1 * l0 for g0, g1 in G):
        if all(f0 * g1 == f1 * g0 and f0 * g0 + f1 * g1 > 0 for g0, g1 in G):
            raise AssertionError("a rank-2 quotient's images must not lie on one ray")
        raise AssertionError("a rank-2 quotient's images must lie in an open half-plane")
    chain = []
    for g0, g1 in order:
        while len(chain) > 1:
            (a0, a1), (b0, b1) = chain[-2], chain[-1]
            if (b0 - a0) * (g1 - b1) <= (b1 - a1) * (g0 - b0):
                break
            chain.pop()
        chain.append((g0, g1))
    return sum(p0 * q1 - p1 * q0 for (p0, p1), (q0, q1) in zip(chain, chain[1:]))


def _hull2d(points):
    """Monotone-chain hull of exact 2-d points; vertices in ccw order."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(vsub(out[-1], out[-2]), vsub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 2 else pts[:1]


def _shoelace2(hull):
    """Twice the Euclidean area (= lattice-normalized area) of a ccw polygon."""
    s = 0
    for i in range(len(hull)):
        s += _cross(hull[i], hull[(i + 1) % len(hull)])
    return abs(s)


def _clip_halfplane(poly, hfun, c):
    """Clip a ccw polygon to {x : hfun.x <= c} (Sutherland-Hodgman, exact)."""
    if not poly:
        return []
    out = []
    n = len(poly)
    for i in range(n):
        p, q_ = poly[i], poly[(i + 1) % n]
        vp = sum(a * b for a, b in zip(hfun, p)) - c
        vq = sum(a * b for a, b in zip(hfun, q_)) - c
        if vp <= 0:
            out.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = Fraction(vp, vp - vq)
            out.append(tuple(Fraction(a) + t * (Fraction(b) - Fraction(a)) for a, b in zip(p, q_)))
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def subdiagram_volume_oracle(A: PointConfiguration, face: Face) -> int:
    """Independent sweep-based check of :func:`subdiagram_volume`.

    Rank 1: smallest nonzero element of the numerical semigroup of projected
    points, found by bounded enumeration.  Rank 2: enumerate semigroup points
    to twice the window depth, hull them with a monotone chain, clip at the
    window and compare swept areas.  Larger ranks are unsupported.
    """
    if face.supporting is None:
        return 1
    G = _face_quotient_images(A, face)
    if len(G[0]) == 1:
        gens = sorted({abs(g[0]) for g in G})
        signs = {1 if g[0] > 0 else -1 for g in G}
        if len(signs) != 1:
            raise AssertionError("face images must lie on one side")
        bound = max(gens)
        elements = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x + g
                if y <= bound and y not in elements:
                    elements.add(y)
                    frontier.append(y)
        nonzero = sorted(e for e in elements if e)
        return min(nonzero) if nonzero else bound
    if len(G[0]) != 2:
        raise ValueError("oracle supports quotient rank 1 and 2 only")
    # strictly positive integer functional on the cone, via LP
    n = len(G)
    A_ub = [[-g[0], -g[1]] for g in G]
    b_ub = [-1] * n
    A_ub += [[1, 0], [-1, 0], [0, 1], [0, -1]]
    bound_box = 10 * max(max(abs(g[0]), abs(g[1])) for g in G) + 10
    b_ub += [bound_box] * 4
    status, phi, _ = lp_maximize(
        [-sum(g[0] for g in G), -sum(g[1] for g in G)], A_ub, b_ub
    )
    if status != OPTIMAL:
        raise AssertionError("no positive functional: cone is not pointed")
    phi = clear_denominators(phi)
    phivals = [phi[0] * g[0] + phi[1] * g[1] for g in G]
    # the gap region lies under phi <= max phi(g); enumerate deep enough that
    # every point of conv(S \ 0) within the window is a convex combination of
    # enumerated semigroup points: a window point g + r needs ceiling bumps of
    # at most one extreme step per ray on top of phi(g) + phi(r)
    window = max(phivals) + 1
    depth = window + 3 * max(phivals)
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in G:
            y = (x[0] + g[0], x[1] + g[1])
            if phi[0] * y[0] + phi[1] * y[1] <= depth and y not in seen:
                seen.add(y)
                frontier.append(y)
    seen.discard((0, 0))
    hull = _hull2d(sorted(seen))
    clipped = _clip_halfplane([tuple(map(Fraction, p)) for p in hull], phi, window)
    area_semigroup = _shoelace2(clipped)
    extremes = _extreme_rays(G)
    corners = [
        tuple(Fraction(window, phi[0] * e[0] + phi[1] * e[1]) * x for x in e)
        for e in extremes
    ]
    area_cone = _shoelace2([(Fraction(0), Fraction(0))] + corners)
    v = area_cone - area_semigroup
    if v < 0 or (isinstance(v, Fraction) and v.denominator != 1):
        raise AssertionError(f"oracle area difference must be a nonnegative integer, got {v}")
    return int(v)


@record
class MultiplicityRecord:
    face: Face
    index_i: int
    subvol_v: int
    mult_m: int


def multiplicity(A: PointConfiguration, face: Face) -> MultiplicityRecord:
    """index_i(A, face) and subdiagram_volume(A, face), both read off one
    :func:`_face_quotient` of a proper face.  Vertices and facets read it off
    the Newton hull, so a planar set or a curve builds no face HNF; a face
    runs one :func:`_face_hnf` for its images when its dimension is 1 ... d - 2
    and for its index when it is >= 2."""
    if face.supporting is None:
        return MultiplicityRecord(face, 1, 1, 1)
    i, images = _face_quotient(A, face)
    v = _seen_pyramids(_nonzero(images))
    return MultiplicityRecord(face, i, v, i * v)


def multiplicity_table(A: PointConfiguration):
    return tuple(multiplicity(A, f) for f in A.poset.faces)


# -- redundancy ----------------------------------------------------------------


@record
class RedundancyReport:
    redundant: bool
    reason: str
    per_face: tuple  # (face indices, lattices equal?) for faces through the point

    def __bool__(self):
        return self.redundant


def is_lattice_redundant(A: PointConfiguration, i: int) -> RedundancyReport:
    """Does removing column i keep every face lattice of the configuration?"""
    if not 0 <= i < A.size:
        raise IndexError(f"column {i} out of range")
    if i in A.newton.vertex_indices:
        return RedundancyReport(False, "point is a vertex of the Newton polytope", ())
    per_face = []
    ok = True
    x = A.chart_points
    for face in A.poset.faces:
        if i not in face.indices:
            continue
        # the span grows by the point's direction, so it keeps its lattice
        # iff the point already lies in the span of the others
        others = [j for j in face.indices if j != i]
        same = vsub(x[i], x[others[0]]) in _chart_span(A, others)
        per_face.append((face.indices, same))
        ok = ok and same
    reason = "all face lattices agree" if ok else "some face lattice drops"
    return RedundancyReport(ok, reason, tuple(per_face))


def _is_pyramid(A: PointConfiguration, face: Face) -> bool:
    """A configuration is a pyramid if deleting some point drops its affine
    dimension.  The face's points are one exactly when a proper face of it
    holds all of them but one: the others then span a hyperplane of the
    face's hull that the last point is off, so they fill a facet of the face.
    """
    return any(len(f.indices) == len(face.indices) - 1 for f in A.poset.subfaces(face))


# -- saturation ----------------------------------------------------------------


@record
class SaturationResult:
    mode: str
    added_points: tuple
    result: PointConfiguration


def _saturation_points(A: PointConfiguration, mode: str) -> tuple:
    """The points saturation mode ``mode`` adds to A, sorted, found once per
    mode and kept with A."""
    if mode not in ("s", "p", "full"):
        raise ValueError(f"unknown saturation mode {mode!r}")
    memo = A._saturations
    if mode not in memo:
        if mode == "full":
            pts = set(A.face_lattice_points(A.poset.top))
        else:
            faces = A.poset.faces if mode == "s" else A.face_int_semiideal()
            pts = set()
            # largest first, so that only the maximal faces are scanned
            for face in sorted(faces, key=lambda f: (-f.dim, f.indices)):
                pts.update(A.face_interior(face))
        memo[mode] = tuple(sorted(pts - set(A.points)))
    return memo[mode]


def saturate(A: PointConfiguration, mode: str) -> SaturationResult:
    """Face saturation (mode "s"), partial face saturation (mode "p"), or the
    full lattice-point saturation of the Newton polytope (mode "full")."""
    added = _saturation_points(A, mode)
    return SaturationResult(mode, added, A._extended(added, _new_labels(A, len(added))))


# -- auxiliary-point certificates ----------------------------------------------


@record
class FaceCheck:
    face_indices: tuple
    route: str  # "top" | "lattice-membership" | "multiplicity" | "pyramid" | "failed" | "skipped"
    detail: str


@record
class AuxCertificate:
    ok: bool
    k: int
    a: int
    reasons: tuple  # FaceCheck per face through the auxiliary point, or rejection text

    def __bool__(self):
        return self.ok


def check_aux_point(A: PointConfiguration, k: int, a: int) -> AuxCertificate:
    """Certify that column a can serve as the auxiliary point for deleting
    column k: k is lattice redundant, every face through k contains a, and for
    each face through a the multiplicity is unchanged by the deletion (shown
    by group membership of the deleted point, by exact multiplicity
    comparison, or by the pyramid sufficient condition for defectiveness).
    Redundancy is :func:`is_lattice_redundant`'s test on k's minimal face F
    alone: every face through k contains F, so k lies in the group of each
    one's other points once it lies in that of F's.  Membership reads that
    check: k lies in the group of a face's other points iff on it (off it,
    h(k) = 1 keeps k off its span).  It also gives Z_{A-k} = Z_A, so A's
    chart describes Z_{A-k} too, and a face Γ missing k keeps its points, so
    :func:`_face_quotient`, i and the quotient map are A's: m(A - k, Γ) only
    leaves k's image out of G.
    """
    if k == a or not (0 <= k < A.size and 0 <= a < A.size):
        raise IndexError("need two distinct valid column indices")
    face, x = A.minimal_face(k), A.chart_points
    others = [j for j in face.indices if j != k]
    if k in A.newton.vertex_indices:
        reason = "point is a vertex of the Newton polytope"
    elif vsub(x[k], x[others[0]]) not in _chart_span(A, others):
        reason = "some face lattice drops"
    else:
        reason = None
    if reason:
        return AuxCertificate(False, k, a, (f"column {k} is not lattice redundant: {reason}",))
    # the deletion argument needs every discriminant factor involving the
    # deleted coordinate to involve the auxiliary one: every face through k
    # must contain a, i.e. the minimal face of k must
    if a not in face.indices:
        return AuxCertificate(
            False, k, a,
            (f"face {face.indices} contains the deleted point but not the auxiliary",),
        )
    checks = []
    # high-dimensional faces have low quotient rank and are cheap to settle;
    # evaluate those first and stop at the first failure
    faces = sorted(
        (f for f in A.poset.faces if a in f.indices), key=lambda f: (-f.dim, f.indices)
    )
    for pos, face in enumerate(faces):
        if face.supporting is None:
            checks.append(FaceCheck(face.indices, "top", "m(A, N) = 1 always"))
            continue
        if k in face.indices:
            checks.append(
                FaceCheck(face.indices, "lattice-membership",
                          "deleted point lies in the group of the remaining face points")
            )
            continue
        m_with, m_without = _aux_multiplicities(A, face, k)
        if m_with == m_without:
            checks.append(
                FaceCheck(face.indices, "multiplicity", f"m = {m_with} on both sides")
            )
            continue
        if _is_pyramid(A, face):
            checks.append(
                FaceCheck(face.indices, "pyramid", "face configuration is a pyramid, hence defective")
            )
            continue
        checks.append(
            FaceCheck(face.indices, "failed",
                      f"m changes {m_with} -> {m_without} and no defectiveness certificate")
        )
        checks.extend(
            FaceCheck(f.indices, "skipped", "not evaluated after first failure")
            for f in faces[pos + 1:]
        )
        return AuxCertificate(False, k, a, tuple(checks))
    return AuxCertificate(True, k, a, tuple(checks))


def _aux_multiplicities(A: PointConfiguration, face: Face, k: int):
    """(m(A, Γ), m(A - k, Γ)) from one :func:`_face_quotient`; see :func:`check_aux_point`.
    When k's image is zero or another column's, G(A - k) = G(A) and v is reused."""
    i, images = _face_quotient(A, face)
    G = _nonzero(images)
    G_without = _nonzero(images[:k] + images[k + 1:])
    v_with = _seen_pyramids(G)
    v_without = v_with if G_without == G else _seen_pyramids(G_without)
    return i * v_with, i * v_without


# -- reduction chains ------------------------------------------------------------


@record
class ChainStep:
    added_point: tuple
    face_indices: tuple  # certifying face, as indices in the *enlarged* config
    witness: tuple  # the distinct relative interior point


@record
class ReductionChain:
    start: PointConfiguration
    end: PointConfiguration
    steps: tuple
    obstruction: tuple  # points that could not be certified; empty on success

    @property
    def complete(self) -> bool:
        return not self.obstruction


def reduction_chain(A: PointConfiguration, mode: str) -> ReductionChain:
    """Greedily add saturation points one at a time, certifying each addition
    by lattice redundancy plus a face witness; reports the stuck points if the
    target cannot be reached.  Each round adds the first remaining point, in
    sorted order, that has a witness.

    The steps are read off A's facet masks, and only the end is built: the
    points lie in N on Z_A's affine lattice, so they keep N and its faces,
    and a point lies on a face iff its mask of tight facets holds the face's
    facet signature (see :func:`extended_poset`).  A point's minimal face F
    has its mask as signature and lies in every face through it, and the
    points added to F lie in face_lattice(A, F), so the point is lattice
    redundant (see :func:`is_lattice_redundant`) iff its chart difference is
    in that lattice, as the saturation scan found: else AssertionError.  The
    witness is the first column with the signature of the first face through
    the point, in the poset's order, as its mask.
    """
    if mode not in ("s", "p"):
        raise ValueError("reduction chains target mode 's' or 'p'")
    remaining = list(_saturation_points(A, mode))
    P, poset, x = A.newton, A.poset, A.chart_points
    signatures = poset._signatures
    # each face by its facet signature, in the poset's order
    by_signature = {signatures[m]: f for m, f in poset._by_mask.items()}
    tight = [signatures[_mask(f.indices)] for f in A.minimal_faces]  # each column's mask
    first = {}  # a mask -> the first column of the chain with it
    for i, t in enumerate(tight):
        first.setdefault(t, i)
    columns, lattices, steps = list(A.points), {}, []
    while remaining:
        for pos, alpha in enumerate(remaining):
            y, t = _placement(P, alpha)
            s = next((g for g in by_signature if g & t == g and g in first), None)
            if s is not None:
                break
        else:
            break
        del remaining[pos]
        base = by_signature[t]
        if t not in lattices:
            lattices[t] = face_lattice(A, base)
        if vsub(y, x[base.indices[0]]) not in lattices[t]:
            raise AssertionError(f"saturation point {alpha} is off its minimal face's lattice")
        first.setdefault(t, len(columns))
        columns.append(alpha)
        tight.append(t)
        on = [k for k in range(A.size, len(columns)) if tight[k] & s == s]
        steps.append(ChainStep(alpha, by_signature[s].indices + tuple(on), columns[first[s]]))
    order = columns[A.size:]
    end = A._extended(order, _new_labels(A, len(order))) if order else A
    return ReductionChain(A, end, tuple(steps), tuple(remaining))


def replay_chain(chain: ReductionChain) -> bool:
    """Re-verify every chain step certificate from scratch: each enlarged
    configuration is built from its columns, with a fresh hull and poset,
    and its redundancy checked by :func:`is_lattice_redundant` on every face
    through the added point, where :func:`reduction_chain` reads both off
    A's facet masks and tests one face lattice per step.
    A step whose added point is a column already, whose face indices are no
    face or whose witness is no column fails the check: False, not raised."""
    current = chain.start
    for step in chain.steps:
        try:  # an added point that is a column already, or off A's homogeneity
            enlarged = PointConfiguration.from_columns(
                [*current.points, step.added_point], [*current.labels, _free_label(current.labels)]
            )
        except BudgetError:  # a hull past its budget is no verdict on the step
            raise
        except ValueError:
            return False
        try:
            face = enlarged.poset.face_with_indices(step.face_indices)
        except KeyError:
            return False
        ni = enlarged.index_of(step.added_point)
        if not is_lattice_redundant(enlarged, ni) or ni not in face.indices:
            return False
        if step.witness == step.added_point or step.witness not in enlarged.points:
            return False
        if enlarged.minimal_face(enlarged.index_of(step.witness)) != face:
            return False
        current = enlarged
    return set(current.points) == set(chain.end.points)


# -- the planar interior-point construction --------------------------------------


@record
class PlanarWitness:
    vertex: tuple
    edges: tuple  # the two incident edges, as index tuples
    lengths: tuple  # lattice lengths of the edges
    point: tuple  # the constructed interior point


def dim2_interior_witness(A: PointConfiguration):
    """For a two-dimensional, partially face-saturated configuration, search
    the vertices of N for one whose two incident edge steps land inside N.
    The step along an edge e to its far vertex is (a_far - a_v) / l, with
    l = gcd(x_far - x_v) // index_i(A, e): e's lattice is i Z p, p primitive.

    Returns None when Z_A has no interior points at all (verified by
    enumeration).  When it has some but no vertex's candidate is an interior
    point with a certified auxiliary check, it raises AssertionError("...no
    vertex works").  That happens on p-saturated inputs whose edges carry no
    relative-interior column, so the edge steps stay coarse.  One is the
    quadrilateral (0,0), (2,0), (4,4), (1,4) with its seven interior points
    as columns: the step along (0,0)-(2,0) is (2,0), and every vertex's
    candidate lands outside N or on its boundary."""
    if A.newton.dim != 2:
        raise ValueError("construction requires a two-dimensional Newton polytope")
    if saturate(A, "p").added_points:
        raise ValueError("construction assumes a partially face-saturated configuration")
    interior = set(A.face_interior(A.poset.top))
    x = A.chart_points
    index = {e: index_i(A, e) for e in A.poset.of_dim(1)}
    for vi in A.newton.vertex_indices:
        v = A.points[vi]
        edges = [e for e in index if vi in e.indices]
        steps = []
        lengths = []
        for e in edges:
            far = next(j for j in e.indices if j != vi and j in A.newton.vertex_indices)
            ell = gcd(*vsub(x[far], x[vi])) // index[e]
            lengths.append(ell)
            steps.append(tuple(d // ell for d in vsub(A.points[far], v)))
        candidate = tuple(v[i] + steps[0][i] + steps[1][i] for i in range(len(v)))
        # v is a column and each step generates an edge's lattice, so the
        # candidate lies in Z_A's affine lattice and is interior iff it is
        # one of that lattice's interior points
        if candidate in interior:
            witness = PlanarWitness(
                v, (edges[0].indices, edges[1].indices), tuple(lengths), candidate
            )
            enlarged = A if candidate in A.points else A.with_point(candidate)
            cert = check_aux_point(
                enlarged, enlarged.index_of(candidate), enlarged.index_of(v)
            )
            if cert:
                return witness
    if interior:
        raise AssertionError("interior lattice points exist but no vertex works")
    return None
