"""The package loads its modules on first use: ``import gkzkit`` imports no
submodule, each command of ``python -m gkzkit`` loads only the modules it
runs and none of them ``dataclasses`` or ``inspect``, and the public names
resolve as plain re-exports would."""

import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import gkzkit

CLI_CORPUS = {
    case["id"]: case
    for case in json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "cli_corpus.json").read_text(encoding="utf-8")
    )["cases"]
}

# What every command loads: the package, the entry point, and the
# configuration with its hull, lattice and LP layers.
CORE = {"gkzkit", "cli", "configuration", "intlinalg", "lattice", "lp", "polytope"}
# One corpus case per command family -> the gkzkit modules it loads.
# ``curve verify`` alone needs ``secondary``.
LOADED = {
    "faces-triangle": CORE,
    "mults-triangle": CORE,
    "saturate-full-triangle": CORE,
    "redundant-triangle": CORE,
    "aux-check-obstructed": CORE,
    "reduce-s-obstructed": CORE,
    "malformed-json": {"gkzkit", "cli", "intlinalg", "lattice", "polytope"},
    "secondary-enumerate-triangle": CORE | {"secondary"},
    "nonresonant-curve013": CORE | {"hyper"},
    "series-curve0123": CORE | {"hyper", "secondary"},
    "curve-edet-curve013": CORE | {"curves", "polynomials"},
    "curve-verify-curve0123": CORE | {"curves", "polynomials", "secondary"},
    "curve-monodromy": CORE | {"continuation", "hyper", "ode"},
}

PUBLIC = [
    "Lattice", "MonomialCurveConfig", "PointConfiguration",
    "Triangulation", "TruncatedSeries", "annihilation_check", "beukers_generators",
    "check_aux_point", "configuration", "convex_hull", "curves",
    "dim2_interior_witness", "discriminant_curve", "enumerate_regular_triangulations",
    "extend_solution", "face_lattice", "face_poset", "gamma_series", "gkz_vector",
    "hyper", "index_i", "intlinalg", "is_lattice_redundant", "is_nonresonant",
    "lattice", "lp", "multiplicity",
    "multiplicity_table", "polynomials", "polytope", "principal_determinant_curve",
    "reduction_chain", "regular_triangulation", "saturate", "secondary",
    "secondary_polytope", "subdiagram_volume", "subdiagram_volume_oracle",
    "toric_kernel_basis", "verify_factorization",
]


def loaded_modules(args, stdin=""):
    """(exit code, stdout, every module that the process imported)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, {
        line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
    }


def gkzkit_modules(loaded):
    """The gkzkit modules among ``loaded``, submodules by their short names."""
    return {name.removeprefix("gkzkit.") for name in loaded if name.partition(".")[0] == "gkzkit"}


@pytest.mark.parametrize("case_id", sorted(LOADED))
def test_each_command_loads_only_what_it_runs(case_id):
    case = CLI_CORPUS[case_id]
    code, out, loaded = loaded_modules(["-m", "gkzkit", *case["args"]], case["stdin"])
    assert (code, out) == (case["exit"], case["stdout"])
    assert gkzkit_modules(loaded) == LOADED[case_id]
    assert not loaded & {"dataclasses", "inspect"}


def test_importing_the_package_loads_no_submodule():
    code, _, loaded = loaded_modules(["-c", "import gkzkit; gkzkit.__version__"])
    assert (code, gkzkit_modules(loaded)) == (0, {"gkzkit"})


def test_public_names_resolve_to_their_definitions():
    assert gkzkit.__all__ == PUBLIC
    for name in PUBLIC:
        obj = getattr(gkzkit, name)
        if isinstance(obj, ModuleType):
            assert obj is sys.modules[f"gkzkit.{name}"]
        else:
            assert obj.__module__.startswith("gkzkit.")
            assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gkzkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert all(namespace[name] is getattr(gkzkit, name) for name in PUBLIC)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        gkzkit.no_such_name
    with pytest.raises(ImportError):
        from gkzkit import no_such_name  # noqa: F401
