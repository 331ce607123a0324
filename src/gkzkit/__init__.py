"""Exact combinatorial invariants of toric point configurations.

Hermite normal forms and lattices, exact polytopes and face posets, face
saturations and their multiplicities, regular triangulations and secondary
polytopes, truncated hypergeometric series with an extension operator, and
monomial curve discriminants with numeric monodromy cross-checks.

Public names load on first use, so ``import gkzkit`` imports no submodule and
a command of the CLI loads only the modules it runs.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it; a submodule maps to itself.
_EXPORTS = {
    "Lattice": "lattice",
    "MonomialCurveConfig": "curves",
    "PointConfiguration": "configuration",
    "Triangulation": "secondary",
    "TruncatedSeries": "hyper",
    "annihilation_check": "hyper",
    "beukers_generators": "curves",
    "check_aux_point": "configuration",
    "configuration": "configuration",
    "convex_hull": "polytope",
    "curves": "curves",
    "dim2_interior_witness": "configuration",
    "discriminant_curve": "curves",
    "enumerate_regular_triangulations": "secondary",
    "extend_solution": "hyper",
    "face_lattice": "configuration",
    "face_poset": "polytope",
    "gamma_series": "hyper",
    "gkz_vector": "secondary",
    "hyper": "hyper",
    "index_i": "configuration",
    "intlinalg": "intlinalg",
    "is_lattice_redundant": "configuration",
    "is_nonresonant": "hyper",
    "lattice": "lattice",
    "lp": "lp",
    "multiplicity": "configuration",
    "multiplicity_table": "configuration",
    "polynomials": "polynomials",
    "polytope": "polytope",
    "principal_determinant_curve": "curves",
    "reduction_chain": "configuration",
    "regular_triangulation": "secondary",
    "saturate": "configuration",
    "secondary": "secondary",
    "secondary_polytope": "secondary",
    "subdiagram_volume": "configuration",
    "subdiagram_volume_oracle": "configuration",
    "toric_kernel_basis": "hyper",
    "verify_factorization": "curves",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = _EXPORTS[name]
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
