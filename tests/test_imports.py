"""No gkzkit module imports ``dataclasses``, every name a gkzkit module, a
test module or a script imports is used in that module unless its import
line is marked ``# noqa: F401``, every module-level _private function or
class is named somewhere else in gkzkit,
every module-level public function or class, and every public method or
property of a gkzkit class, is named somewhere else in gkzkit, ``bench/`` or
``scripts/`` or is declared in ``TEST_ONLY``, every ``lru_cache`` of gkzkit
is declared in ``CACHES``, every function memoised with its
configuration in ``MEMOS`` and every ``cached_property`` table of
``Polytope`` and ``FacePoset`` in ``TABLES``, each with the traffic that
hits it, no ``lru_cache`` takes a ``PointConfiguration``, and every
module-level UPPER_CASE constant is read somewhere in gkzkit.

The package ``__init__`` re-exports its public API through the
``_EXPORTS = {name: module}`` table that its ``__getattr__`` resolves.  A
key of that table is no caller: a public name that only the table names has
no use outside the tests.

Under ``tests/``, every reference (a module-level ``ref_*`` or ``_ref_*``
function) is named by some other statement, and a module imports nothing
from a test module but references: corpora come from ``_corpus.py``.
"""

import ast
from pathlib import Path

import gkzkit

SOURCES = sorted(Path(gkzkit.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))
CALLERS = sorted([*(REPO / "bench").glob("*.py"), *SCRIPTS])
# Public library functions, classes and methods that only tests call, each
# with the reason it stays in the library.
TEST_ONLY = {
    "curves.restriction_factors_divide": "the paper's restriction check, run by the acceptance tests",
    "curves.reduces_to_three_point_support": "the paper's three-point check, run by the acceptance tests",
    "hyper.TruncatedSeries.scaled": "the linearity test of extend_solution in tests/test_hyper.py",
    "hyper.TruncatedSeries.plus": "the linearity test of extend_solution in tests/test_hyper.py",
}
# Every lru_cache-decorated library function, each with the traffic that hits
# it, as its cache_info() reads: the benchmark's library workloads at seed 7,
# 10 blocks, and the series case of bench/cli_corpus.json.
CACHES = {
    "secondary._columns": "triangulations: 9 805 hits / 45 misses",
}
# Every function whose results configuration._per_configuration keeps with
# its configuration, with its traffic on the same inputs: a hit finds the
# result kept with that configuration or with an equal one still alive.
MEMOS = {
    "secondary.enumerate_regular_triangulations": "triangulations: 50 hits / 100 misses",
    "secondary.secondary_polytope": "triangulations: 60 hits / 100 misses",
    "hyper.toric_kernel_basis": "gkzkit series --extend on the 4-point curve: 6 hits / 2 misses",
    "hyper._kernel_slice": "gkzkit series --extend on the 4-point curve: 4 hits / 1 miss",
}
# Every cached_property table of a Newton hull or its face poset, which
# lives as long as they do, with its traffic over the ops of 10 benchmark
# ``saturations`` blocks at seed 7 (80 ops): lookups that found an entry,
# lookups that did not, and the entries made.
TABLES = {
    "polytope.Polytope.minors": "46 hits / 363 misses, each of which fills its entry: 363 entries",
    "polytope.Polytope.placements": (
        "661 hits / 0 misses: every point added is a scan hit; 646 entries, one per "
        "scan hit, in 80 tables, each shared by the hulls derived from a fresh one"
    ),
    "polytope.FacePoset._by_mask": (
        "1 196 hits / 0 misses and 522 walks; seeded by each of the 186 posets built "
        "or derived: 1 608 entries"
    ),
    "polytope.FacePoset._signatures": (
        "1 608 hits / 0 misses; seeded by each of the 186 posets built or derived: 1 608 entries"
    ),
}


def unused_imports(source: str):
    """(line, name) of each imported name that ``source`` never reads; a
    line marked ``# noqa: F401`` imports on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_sees_unused_names():
    source = "from math import gcd, lcm\nimport os.path\nimport sys as system\nprint(lcm(2, 3))\n"
    assert unused_imports(source) == [(1, "gcd"), (2, "os"), (3, "system")]


def test_the_guard_exempts_marked_lines():
    source = (
        "import json  # noqa: F401\n"
        "from math import (\n"
        "    gcd,  # noqa: F401\n"
        "    lcm,\n"
        ")\n"
        "import os  # noqa: E501\n"
    )
    assert unused_imports(source) == [(4, "lcm"), (6, "os")]


def test_modules_use_every_import():
    assert len(SOURCES) > 10 and len(TESTS) > 30 and len(SCRIPTS) == 3
    found = {
        f"{path.parent.name}/{path.name}": unused_imports(path.read_text(encoding="utf-8"))
        for path in (*SOURCES, *TESTS, *SCRIPTS)
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def imported_modules(source: str):
    """The top-level names of the modules that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_guard_sees_imported_modules():
    source = "import os.path\nfrom dataclasses import field\nfrom . import lp\ndef f():\n    import json\n"
    assert imported_modules(source) == {"os", "dataclasses", "json"}


def test_no_module_imports_dataclasses():
    """Its import pulls in ``inspect`` and costs every command start-up
    several milliseconds; the value classes use ``intlinalg.record``."""
    found = {path.name for path in SOURCES if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))}
    assert found == set()


def _mentioned(node):
    """Every name, attribute and imported name that the AST node mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unnamed_definitions(sources, wanted):
    """(file, line, name) of each module-level function or class whose name
    ``wanted`` accepts and that no statement of ``sources`` names outside its
    own definition."""
    blocks = [  # (file, top-level statement, names it mentions)
        (path, node, _mentioned(node))
        for path, source in sources.items()
        for node in ast.parse(source).body
    ]
    return sorted(
        (path, node.lineno, node.name)
        for path, node, _ in blocks
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and wanted(node.name)
        and not any(node.name in names for _, other, names in blocks if other is not node)
    )


def unreferenced_privates(sources):
    """(file, line, name) of each module-level _private function or class
    that no statement of ``sources`` names outside its own definition."""
    return unnamed_definitions(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def test_the_guard_sees_unreferenced_privates():
    sources = {
        "a.py": (
            "def _called():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Dead:\n    pass\n"
            "def _imported():\n    pass\n"
            "def _attribute():\n    pass\n"
            "def public():\n    return _called()\n"
        ),
        "b.py": "from a import _imported\nimport a\na._attribute()\n",
    }
    assert unreferenced_privates(sources) == [("a.py", 3, "_recursive"), ("a.py", 5, "_Dead")]


def test_private_definitions_are_named_elsewhere():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_privates(sources) == []


def uncalled_publics(sources, callers):
    """(module, name) of each module-level public function or class of
    ``sources`` that no other top-level statement of ``sources`` and no
    module of ``callers`` names; the string keys of an ``_EXPORTS`` table
    name nothing."""
    blocks = [
        (path, node, _mentioned(node))
        for path, source in sources.items()
        for node in ast.parse(source).body
    ]
    outside = set().union(*(_mentioned(ast.parse(source)) for source in callers.values()))
    return sorted(
        (Path(path).stem, node.name)
        for path, node, _ in blocks
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in names for _, other, names in blocks if other is not node)
    )


def test_the_guard_sees_uncalled_publics():
    sources = {
        "a.py": (
            "def called():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Dead:\n    pass\n"
            "def exported():\n    pass\n"
            "def imported():\n    pass\n"
            "def keyed():\n    pass\n"
            "def scripted():\n    pass\n"
            "def _private():\n    return called()\n"
        ),
        "__init__.py": '_EXPORTS = {"exported": "a", "a": "a"}\n',
        "c.py": 'from .a import imported\nTABLE = {"keyed": 1}\n',
    }
    callers = {"run.py": "import a\na.scripted()\n"}
    assert uncalled_publics(sources, callers) == [
        ("a", "Dead"), ("a", "exported"), ("a", "keyed"), ("a", "recursive")
    ]


def _attributes(node):
    """Every attribute name that the AST node reads or writes."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def uncalled_methods(sources, callers):
    """(module, Class.name) of each public method or property of a
    module-level class of ``sources`` that no other statement of ``sources``
    (the other statements of its class included) and no module of
    ``callers`` names as an attribute: a local variable of the same name is
    no caller."""
    outside = set().union(*(_attributes(ast.parse(source)) for source in callers.values()))
    statements = [  # (file, class or None, statement, attributes it names)
        (path, cls, node, _attributes(node))
        for path, source in sources.items()
        for top in ast.parse(source).body
        for cls, node in (
            [(top, sub) for sub in top.body] if isinstance(top, ast.ClassDef) else [(None, top)]
        )
    ]
    return sorted(
        (Path(path).stem, f"{cls.name}.{node.name}")
        for path, cls, node, _ in statements
        if cls is not None
        and isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in names for _, _, other, names in statements if other is not node)
    )


def test_the_guard_sees_uncalled_methods():
    sources = {
        "a.py": (
            "class Point:\n"
            "    def used(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    @property\n    def dead(self):\n        return self.dead\n"
            "    @classmethod\n    def make(cls):\n        return cls()\n"
            "    def scripted(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
            "def used_outside(p):\n    make = p.used()\n    return make\n"
        ),
    }
    callers = {"run.py": "import a\na.Point().scripted()\n"}
    assert uncalled_methods(sources, callers) == [("a", "Point.dead"), ("a", "Point.make")]


def test_public_definitions_have_a_caller_outside_the_tests():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    callers = {str(path): path.read_text(encoding="utf-8") for path in CALLERS}
    assert len(callers) > 5
    found = {f"{module}.{name}" for module, name in uncalled_publics(sources, callers)}
    found |= {f"{module}.{name}" for module, name in uncalled_methods(sources, callers)}
    assert found == set(TEST_ONLY)


def decorated(sources, names):
    """(module, function) of each function of ``sources`` decorated with one
    of ``names``, bare, called or as an attribute."""
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in names:
                        yield Path(path).stem, node


def lru_cached(sources):
    """(module, name) of each function of ``sources`` decorated with
    ``lru_cache`` or ``cache``, bare, called or as an attribute."""
    return sorted((module, node.name) for module, node in decorated(sources, ("lru_cache", "cache")))


def test_the_guard_sees_lru_caches():
    sources = {
        "a.py": (
            "import functools\nfrom functools import cache, lru_cache, wraps\n"
            "@lru_cache\ndef bare():\n    pass\n"
            "@lru_cache(maxsize=8)\ndef called():\n    pass\n"
            "@functools.lru_cache(maxsize=None)\ndef dotted():\n    pass\n"
            "@cache\ndef unbounded():\n    pass\n"
            "@wraps(bare)\ndef wrapped():\n    pass\n"
            "def plain():\n    pass\n"
        ),
    }
    assert lru_cached(sources) == [("a", "bare"), ("a", "called"), ("a", "dotted"), ("a", "unbounded")]


def test_every_cache_is_declared_with_its_traffic():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert {f"{module}.{name}" for module, name in lru_cached(sources)} == set(CACHES)


def configuration_keyed(sources):
    """(module, name) of each ``lru_cache`` or ``cache`` function of
    ``sources`` with a parameter annotated ``PointConfiguration``: its cache
    would keep the configuration, and its Newton hull, after the caller
    dropped it.  ``_per_configuration`` keeps such results with A."""
    return sorted(
        (module, node.name)
        for module, node in decorated(sources, ("lru_cache", "cache"))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.annotation is not None and "PointConfiguration" in ast.unparse(arg.annotation)
    )


def test_the_guard_sees_configuration_keyed_caches():
    sources = {
        "a.py": (
            "from functools import cache, lru_cache\n"
            "@lru_cache\ndef keyed(A: PointConfiguration):\n    pass\n"
            "@cache\ndef quoted(n: int, /, B: 'PointConfiguration'):\n    pass\n"
            "@lru_cache(maxsize=4)\ndef keyword(*, C: PointConfiguration | None = None):\n    pass\n"
            "@lru_cache\ndef masked(mask: int):\n    pass\n"
            "@lru_cache\ndef bare(A):\n    pass\n"
            "@_per_configuration\ndef memoised(A: PointConfiguration):\n    pass\n"
        ),
    }
    assert configuration_keyed(sources) == [("a", "keyed"), ("a", "keyword"), ("a", "quoted")]


def test_no_cache_keeps_a_configuration():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert configuration_keyed(sources) == []


def test_every_memo_is_declared_with_its_traffic():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    found = {f"{module}.{node.name}" for module, node in decorated(sources, ("_per_configuration",))}
    assert found == set(MEMOS)


def cached_tables(sources, classes):
    """(module, Class.name) of each ``cached_property`` of the module-level
    classes of ``sources`` named in ``classes``, bare or as an attribute."""
    return sorted(
        (Path(path).stem, f"{top.name}.{node.name}")
        for path, source in sources.items()
        for top in ast.parse(source).body
        if isinstance(top, ast.ClassDef) and top.name in classes
        for node in top.body
        if isinstance(node, ast.FunctionDef)
        and any(
            (deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None))
            == "cached_property"
            for deco in node.decorator_list
        )
    )


def test_the_guard_sees_cached_tables():
    sources = {
        "a.py": (
            "import functools\nfrom functools import cached_property\n"
            "class Hull:\n"
            "    @cached_property\n    def table(self):\n        return {}\n"
            "    @functools.cached_property\n    def _dotted(self):\n        return {}\n"
            "    @property\n    def plain(self):\n        return 1\n"
            "class Other:\n"
            "    @cached_property\n    def elsewhere(self):\n        return {}\n"
        ),
    }
    assert cached_tables(sources, {"Hull"}) == [("a", "Hull._dotted"), ("a", "Hull.table")]


def test_every_hull_table_is_declared_with_its_traffic():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    found = cached_tables(sources, {"Polytope", "FacePoset"})
    assert {f"{module}.{name}" for module, name in found} == set(TABLES)


def unread_constants(sources):
    """(file, line, name) of each module-level UPPER_CASE assignment whose
    name no module of ``sources`` reads or imports."""
    assigned = []
    read = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned += [
                (path, node.lineno, t.id)
                for t in targets
                if isinstance(t, ast.Name) and t.id.isupper()
            ]
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
            elif isinstance(sub, ast.alias):
                read.add(sub.name)
    return sorted(hit for hit in assigned if hit[2] not in read)


def test_the_guard_sees_unread_constants():
    sources = {
        "a.py": (
            "READ = 1\nIMPORTED = 2\nATTRIBUTE = 3\nDEAD = 4\nTYPED: int = 5\n"
            "REBOUND = 6\nREBOUND = 7\nlower = 8\n"
            "def f():\n    LOCAL = 9\n    return READ\n"
        ),
        "b.py": "from a import IMPORTED\nimport a\nprint(a.ATTRIBUTE)\n",
    }
    assert unread_constants(sources) == [
        ("a.py", 4, "DEAD"), ("a.py", 5, "TYPED"), ("a.py", 6, "REBOUND"), ("a.py", 7, "REBOUND")
    ]


def test_constants_are_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_constants(sources) == []


def _is_reference(name):
    return name.startswith(("ref_", "_ref_"))


def orphaned_references(sources):
    """(file, line, name) of each module-level ``ref_*`` or ``_ref_*``
    function or class that no statement of ``sources`` names outside its own
    definition."""
    return unnamed_definitions(sources, _is_reference)


def test_the_guard_sees_orphaned_references():
    sources = {
        "test_a.py": (
            "def ref_used():\n    return _ref_helper()\n"
            "def _ref_helper():\n    return 1\n"
            "def ref_orphan():\n    return 2\n"
            "def ref_recursive(n):\n    return ref_recursive(n - 1)\n"
            "def ref_imported():\n    return 3\n"
            "def test_a():\n    assert ref_used()\n"
        ),
        "test_b.py": "from test_a import ref_imported as route\n",
    }
    assert orphaned_references(sources) == [("test_a.py", 5, "ref_orphan"), ("test_a.py", 7, "ref_recursive")]


def test_every_reference_is_named_elsewhere():
    sources = {path.name: path.read_text(encoding="utf-8") for path in TESTS}
    assert len(sources) > 30
    assert orphaned_references(sources) == []


def imports_between_tests(sources):
    """(file, line, what) of each import, at any depth, of a test module, or
    of a name other than a reference from one; ``what`` is the module, or
    module.name."""
    found = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found += [
                    (path, node.lineno, alias.name)
                    for alias in node.names
                    if alias.name.startswith("test_")
                ]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
                found += [
                    (path, node.lineno, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if not _is_reference(alias.name)
                ]
    return sorted(found)


def test_the_guard_sees_imports_between_tests():
    sources = {
        "test_a.py": (
            "from _corpus import FAMILY\n"
            "from test_b import ref_route, _ref_helper as helper, CORPUS\n"
        ),
        "test_c.py": "import test_b\ndef test_c():\n    from test_b import _configs as configs\n",
    }
    assert imports_between_tests(sources) == [
        ("test_a.py", 2, "test_b.CORPUS"), ("test_c.py", 1, "test_b"), ("test_c.py", 3, "test_b._configs")
    ]


def test_tests_share_only_references():
    sources = {path.name: path.read_text(encoding="utf-8") for path in TESTS}
    assert imports_between_tests(sources) == []
