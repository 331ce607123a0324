"""Exact combinatorial invariants of toric point configurations.

Hermite normal forms and lattices, exact polytopes and face posets, face
saturations and their multiplicities, regular triangulations and secondary
polytopes, truncated hypergeometric series with an extension operator, and
monomial curve discriminants with numeric monodromy cross-checks.
"""

__version__ = "0.1.0"

from .configuration import (
    PointConfiguration,
    check_aux_point,
    dim2_interior_witness,
    face_lattice,
    index_i,
    is_lattice_redundant,
    multiplicity,
    multiplicity_table,
    reduction_chain,
    saturate,
    subdiagram_volume,
    subdiagram_volume_oracle,
)
from .curves import (
    MonomialCurveConfig,
    beukers_generators,
    discriminant_curve,
    principal_determinant_curve,
    verify_factorization,
)
from .hyper import (
    TruncatedSeries,
    annihilation_check,
    extend_solution,
    gamma_series,
    is_nonresonant,
    toric_kernel_basis,
)
from .lattice import AffineLattice, Lattice, lattice_index, lattice_span
from .polytope import convex_hull, face_poset
from .secondary import (
    Triangulation,
    enumerate_regular_triangulations,
    gkz_vector,
    regular_triangulation,
    secondary_polytope,
)

__all__ = [name for name in dir() if not name.startswith("_")]
