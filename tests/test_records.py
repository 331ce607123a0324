"""``intlinalg.record`` against the frozen dataclass that each of the 26
value classes was before it: the same signature, equality, hash and repr on
corpus instances, the same ``__post_init__`` errors, frozen fields, and
working ``cached_property``.

Each reference is built here with ``dataclasses.make_dataclass`` from the
class's annotations, defaults and own methods; the fields that the dataclass
declared ``field(compare=False, repr=False)`` are listed in HIDDEN.
"""

import dataclasses
import importlib
import inspect
import itertools
import pkgutil
from fractions import Fraction
from functools import cached_property

import pytest

import gkzkit
from gkzkit import continuation, hyper, intlinalg, ode, polytope, secondary
from gkzkit.configuration import (
    PointConfiguration,
    check_aux_point,
    dim2_interior_witness,
    is_lattice_redundant,
    multiplicity_table,
    reduction_chain,
    saturate,
)
from gkzkit.curves import (
    MonomialCurveConfig,
    beukers_generators,
    reduces_to_three_point_support,
    verify_factorization,
)
from gkzkit.hyper import (
    annihilation_check,
    apply_euler,
    extend_solution,
    gamma_series,
    is_nonresonant,
)
from gkzkit.secondary import check_facet_restriction, enumerate_regular_triangulations, secondary_polytope

MODULES = [
    importlib.import_module(f"gkzkit.{info.name}")
    for info in pkgutil.iter_modules(gkzkit.__path__)
    if not info.name.startswith("_")
]
RECORDS = sorted(
    (
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "__annotations__" in vars(obj)
    ),
    key=lambda cls: (cls.__module__, cls.__name__),
)
HIDDEN = {"Polytope": ("point_coords", "facet_sets"), "Triangulation": ("heights",)}
# What ``record`` adds to a class besides the methods it generates.
ADDED = {"_shown_fields", "__dict__", "__weakref__", "__annotations__", "__module__", "__doc__"}


def fields(cls):
    return list(vars(cls)["__annotations__"])


def _own(cls, name, value):
    """Whether the class body defined ``name``, not ``record``."""
    if name in ADDED or name in fields(cls):
        return False
    fn = getattr(value, "__func__", getattr(value, "fget", getattr(value, "func", value)))
    return getattr(fn, "__qualname__", f"{cls.__qualname__}.").startswith(f"{cls.__qualname__}.")


def reference(cls):
    """The frozen dataclass with the fields, defaults and own methods of cls."""
    spec = []
    for name in fields(cls):
        kwargs = {"default": vars(cls)[name]} if name in vars(cls) else {}
        if name in HIDDEN.get(cls.__name__, ()):
            kwargs.update(compare=False, repr=False)
        spec.append((name, vars(cls)["__annotations__"][name], dataclasses.field(**kwargs)))
    namespace = {name: value for name, value in vars(cls).items() if _own(cls, name, value)}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True)


REFERENCE = {cls: reference(cls) for cls in RECORDS}


def corpus():
    """Every record instance reachable from a run of each layer on small inputs."""
    tri = PointConfiguration.from_columns([(1, 0, 0), (1, 3, 0), (1, 0, 3), (1, 1, 0), (1, 0, 2)])
    curve013 = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 3)])
    curve0123 = PointConfiguration.from_columns([(1, 0), (1, 1), (1, 2), (1, 3)])
    beta = (Fraction(1, 3), Fraction(1, 5))
    enlarged = tri.with_point((1, 0, 1))
    psi = gamma_series(curve013, beta, (0, 2), 6)
    extended = extend_solution(psi, curve0123, 2, beta, 3)
    quintic = ode.ode_from_system(3, beta)
    roots = [
        tri,
        tri.poset,
        multiplicity_table(tri),
        is_lattice_redundant(tri, 3),
        saturate(tri, "p"),
        check_aux_point(enlarged, enlarged.index_of((1, 0, 1)), enlarged.index_of((1, 0, 2))),
        reduction_chain(tri, "p"),
        dim2_interior_witness(saturate(tri, "p").result),
        tri.group_lattice,
        is_nonresonant(curve013, beta),
        extended,
        annihilation_check(extended),
        apply_euler(extended, 1),
        MonomialCurveConfig((0, 1, 3)),
        verify_factorization(MonomialCurveConfig((0, 1, 3))),
        reduces_to_three_point_support(MonomialCurveConfig((0, 1, 2, 3))),
        beukers_generators(3, beta),
        enumerate_regular_triangulations(curve0123),
        secondary_polytope(curve0123),
        check_facet_restriction(curve0123, 1),
        quintic,
        continuation.PathTransport(quintic, tuple(complex(s) for s in quintic.singular_points())),
    ]
    found, seen = {}, set()

    def walk(x):
        if id(x) in seen:
            return
        seen.add(id(x))
        if type(x) in REFERENCE:
            found.setdefault(type(x), []).append(x)
            for name in fields(type(x)):
                walk(getattr(x, name))
        elif isinstance(x, (tuple, list, frozenset)):
            for y in x:
                walk(y)

    for root in roots:
        walk(root)
    return found


CORPUS = corpus()


def values(x):
    return {name: getattr(x, name) for name in fields(type(x))}


def as_reference(x):
    return REFERENCE[type(x)](**values(x))


def hashed(x):
    try:
        return hash(x)
    except TypeError as exc:
        return TypeError, str(exc)


def test_every_value_class_is_a_record_and_none_uses_dataclasses():
    assert len(RECORDS) == 26
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)
    assert all(cls.__setattr__ is intlinalg._record_setattr for cls in RECORDS)


def test_the_corpus_reaches_every_record_but_the_monodromy_result():
    # numeric_monodromy takes seconds; its record is built from fields below
    assert set(RECORDS) - set(CORPUS) == {continuation.MonodromyResult}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_signature_matches_the_dataclass(cls):
    def params(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(REFERENCE[cls])


@pytest.mark.parametrize("cls", sorted(CORPUS, key=lambda c: c.__name__), ids=lambda cls: cls.__name__)
def test_eq_hash_and_repr_match_the_dataclass(cls):
    instances = CORPUS[cls][:12]
    refs = [as_reference(x) for x in instances]
    for x, ref in zip(instances, refs):
        assert repr(x) == repr(ref)
        assert hashed(x) == hashed(ref)
        assert x == cls(**values(x)) == cls(*values(x).values())
    for (x, rx), (y, ry) in itertools.product(zip(instances, refs), repeat=2):
        assert (x == y) == (rx == ry)
        assert (x != y) == (rx != ry)
    assert all(x.__eq__(object()) is NotImplemented for x in instances)


def test_hidden_fields_stay_out_of_eq_hash_and_repr():
    (T, *_) = CORPUS[secondary.Triangulation]
    bare = secondary.Triangulation(T.cells, T.volumes)
    assert bare.heights is None and T.heights is not None
    assert bare == T and hash(bare) == hash(T) and repr(bare) == repr(T)
    assert "heights" not in repr(T)
    P = CORPUS[polytope.Polytope][0]
    other = polytope.Polytope(**{**values(P), "point_coords": (), "facet_sets": ()})
    assert other == P and hash(other) == hash(P) and repr(other) == repr(P)


def test_a_filled_table_of_minors_leaves_eq_hash_and_repr():
    for P in CORPUS[polytope.Polytope]:
        fresh = polytope.Polytope(**values(P))
        before = hash(fresh), repr(fresh)
        for cell in itertools.combinations(range(len(P.points)), P.dim + 1):
            fresh.minor(cell)
        assert "minors" in vars(fresh) and "minors" not in repr(fresh)
        assert fresh == P and (hash(fresh), repr(fresh)) == before


def test_a_class_keeps_its_own_eq_hash_and_bool():
    for cls in RECORDS:
        if "__bool__" in vars(cls):
            assert {bool(x) for x in CORPUS[cls]} == {bool(as_reference(x)) for x in CORPUS[cls]}


def test_defaults_and_keyword_construction():
    # Triangulation is the record with a default: heights, None
    cls = secondary.Triangulation
    cells, volumes, heights = ((0, 1), (1, 2)), (1, 2), (0, -1, 0)
    for args, kwargs in [
        ((cells, volumes), {}),
        ((cells,), {"volumes": volumes}),
        ((), {"cells": cells, "volumes": volumes, "heights": heights}),
        ((cells, volumes, heights), {}),
    ]:
        got, want = cls(*args, **kwargs), REFERENCE[cls](*args, **kwargs)
        assert repr(got) == repr(want) and hash(got) == hash(want)
        assert got.heights == want.heights
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(cells, volumes, nonsense=1)


@pytest.mark.parametrize(
    "cls, bad",
    [
        (MonomialCurveConfig, (0, 2, 1)),
        (MonomialCurveConfig, (0, 2, 4)),
        (MonomialCurveConfig, (0, True)),
    ],
    # the ids number the bad values from 2, as the suite's test list names them
    ids=[f"MonomialCurveConfig-bad{i}" for i in (2, 3, 4)],
)
def test_post_init_errors_match_the_dataclass(cls, bad):
    with pytest.raises(ValueError) as got:
        cls(bad)
    with pytest.raises(ValueError) as want:
        REFERENCE[cls](bad)
    assert str(got.value) == str(want.value)


def test_post_init_normalizes_like_the_dataclass():
    for arg in ([0, 1, 3], (0, 1.0, Fraction(3))):
        assert repr(MonomialCurveConfig(arg)) == repr(REFERENCE[MonomialCurveConfig](arg))


@pytest.mark.parametrize("cls", sorted(CORPUS, key=lambda c: c.__name__), ids=lambda cls: cls.__name__)
def test_fields_are_frozen(cls):
    x = CORPUS[cls][0]
    for name in [*fields(cls), "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert values(x) == values(CORPUS[cls][0])


def test_monodromy_result_matches_the_dataclass():
    cls = continuation.MonodromyResult
    invariants = (("gen1_det", 1j), ("gen1_trace", 3))
    args = (3, (Fraction(1, 3), Fraction(1, 5)), 1.3j, ((1,),), ((2,),), invariants, 1e-12)
    x, ref = cls(*args), REFERENCE[cls](*args)
    assert repr(x) == repr(ref) and x == cls(*args)
    # the invariants are a tuple of pairs, so a result is a hashable value
    assert hashed(x) == hashed(ref) == hash(cls(*args))
    with pytest.raises(AttributeError):
        x.delta = 2


@pytest.mark.parametrize(
    "cls, name",
    [
        (PointConfiguration, "poset"),
        (polytope.FacePoset, "_by_mask"),
        (hyper.TruncatedSeries, "terms"),
        (polytope.Polytope, "minors"),
    ],
)
def test_cached_property_works(cls, name):
    assert isinstance(vars(cls)[name], cached_property)
    x = cls(**values(CORPUS[cls][0]))
    assert name not in vars(x)
    first = getattr(x, name)
    assert vars(x)[name] is first and getattr(x, name) is first
    assert first == getattr(as_reference(x), name)
