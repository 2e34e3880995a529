"""The README's library tour and the package's docstrings name only what exists.

Each ``steermap.<module>`` row of the tour is checked: every backticked
Python name in it (``snake_case``, ``CamelCase`` or ``UPPER_CASE``, an
optional ``()`` after it) must resolve in that module.  A dotted name
resolves attribute by attribute, from the module or, when its first part
is not there, from the package (``states.validate_states``).  Skipped:
tokens that are not a bare name (shapes, formulas, command lines), names
ending in ``_`` (a prefix such as ``bob_``), one-letter names and the
math symbols in ``MATH``.

Every ``:func:``, ``:class:``, ``:meth:`` and ``:mod:`` role in the
docstrings of ``src/steermap`` must resolve the same way in its module; a
target that starts with ``steermap.`` (after an optional ``~``) resolves
from the package.

Every top-level function, class and assigned name of ``src/steermap``
(dunders excepted) must be used: referenced by another top-level
statement in ``src/``, or named in ``tests/test_acceptance.py``.  A
name used only inside its own definition counts as unused.

No function of ``src/steermap`` converts numbers itself but the number
rule, ``linalg._real_array``, and the JSON loader,
``states.state_from_json``: an ``ast`` walk refuses every
``np.asarray(..., dtype=...)``, ``np.array(<non-literal>, dtype=...)``
and ``.astype(...)`` anywhere else, and finds both of those.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "steermap").glob("*.py"))
ROLE = re.compile(r":(?:func|class|meth|mod):`~?([\w.]+?)(?:\(\))?`")
ROW = re.compile(r"^\| `steermap\.(\w+)` \|(.*)\|$", re.MULTILINE)
NAME = re.compile(r"`([A-Za-z_][\w.]*)(?:\(\))?`")
MATH = {"mu"}
MODULES = ["linalg", "states", "measurements", "models", "mapping", "constructions",
           "witnesses", "cli"]


def tour():
    """{module: row text} for every library-tour row of the README."""
    return dict(ROW.findall(README.read_text(encoding="utf-8")))


def checked_names(row: str) -> list[str]:
    names = NAME.findall(row)
    return [n for n in names if not (n.endswith("_") or len(n) == 1 or n in MATH)]


def resolves(module, name: str) -> bool:
    head, *rest = name.split(".")
    if hasattr(module, head):
        obj = getattr(module, head)
    else:
        try:
            obj = importlib.import_module(f"steermap.{head}")
        except ImportError:
            return False
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_tour_has_one_row_per_module():
    assert list(tour()) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_tour_names_exist(name):
    module = importlib.import_module(f"steermap.{name}")
    row = tour()[name]
    assert checked_names(row)
    assert [n for n in checked_names(row) if not resolves(module, n)] == []


def docstring_targets(path: Path) -> list[str]:
    """The target of every role in the docstrings of one source file, in order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [tree, *(n for n in ast.walk(tree) if isinstance(n, kinds))]
    return [t for n in nodes for t in ROLE.findall(ast.get_docstring(n) or "")]


def resolves_target(module, target: str) -> bool:
    if target.startswith("steermap."):
        module, target = importlib.import_module("steermap"), target[len("steermap."):]
    return resolves(module, target)


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_docstring_references_resolve(path):
    name = "steermap" if path.stem == "__init__" else f"steermap.{path.stem}"
    module = importlib.import_module(name)
    targets = docstring_targets(path)
    assert [t for t in targets if not resolves_target(module, t)] == []


def test_a_deleted_docstring_reference_is_caught():
    module = importlib.import_module("steermap.measurements")
    text = (":func:`random_bases`, :func:`basis_draws`, :class:`~steermap.models.FiniteModel`, "
            ":mod:`steermap.nowhere`, :func:`steermap.states.gone()`, :func:`states.werner`")
    assert [t for t in ROLE.findall(text) if not resolves_target(module, t)] == [
        "basis_draws", "steermap.nowhere", "steermap.states.gone"
    ]


def test_a_misspelt_method_reference_is_caught():
    module = importlib.import_module("steermap.models")
    text = (":meth:`FiniteModel.is_quantum`, :meth:`FiniteModel.is_quantm`, "
            ":meth:`~steermap.models.FiniteModel.n_hidden`, "
            ":meth:`~steermap.models.Finite.is_quantum`")
    assert [t for t in ROLE.findall(text) if not resolves_target(module, t)] == [
        "FiniteModel.is_quantm", "steermap.models.Finite.is_quantum"
    ]


def test_the_method_references_are_checked():
    targets = [t for path in SOURCES for t in docstring_targets(path)]
    assert "FiniteModel.is_quantum" in targets
    assert "steermap.models.FiniteModel.is_quantum" in targets


def test_a_deleted_name_is_caught():
    module = importlib.import_module("steermap.constructions")
    row = "`hidden_bloch`, `deleted_kernel`, `DeletedClass()`, `states.nowhere`, `bob_`, `mu`"
    assert [n for n in checked_names(row) if not resolves(module, n)] == [
        "deleted_kernel", "DeletedClass", "states.nowhere"
    ]


def used_names(tree: ast.AST) -> set[str]:
    """Identifiers that ``tree`` reads: names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines, dunders excepted."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def orphans(sources: dict[str, str], pinned: set[str]) -> list[str]:
    """``module.name`` of every top-level name no other top-level statement uses or pins."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    reads = [used_names(stmt) for _, stmt in statements]
    found = []
    for i, (module, stmt) in enumerate(statements):
        for name in defined_names(stmt):
            if name in pinned:
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                found.append(f"{module}.{name}")
    return found


def source_texts() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}


def acceptance_names() -> set[str]:
    return used_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text("utf-8")))


def test_every_top_level_name_is_used():
    assert orphans(source_texts(), acceptance_names()) == []


def test_a_deliberately_orphaned_name_is_caught():
    sources = {**source_texts(), "extra": "def orphan(n):\n    return orphan(n - 1)\n"}
    pinned = acceptance_names() - {"region_scan"}
    assert orphans(sources, pinned) == ["mapping.region_scan", "extra.orphan"]


# The one number rule and the JSON loader, whose leaf checks are contract records,
# are the only functions of src/steermap that convert numbers themselves.
CONVERTERS = {"linalg._real_array", "states.state_from_json"}


def is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def converts(call: ast.Call) -> bool:
    """Whether ``call`` is ``.astype(...)``, ``np.asarray(..., dtype=...)`` or
    ``np.array(<non-literal>, dtype=...)``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "astype":
        return True
    if not (isinstance(func.value, ast.Name) and func.value.id == "np"):
        return False
    dtype = len(call.args) > 1 or any(k.arg == "dtype" for k in call.keywords)
    if func.attr == "asarray":
        return dtype
    return func.attr == "array" and dtype and not is_literal(call.args[0])


def conversions(sources: dict[str, str]) -> list[str]:
    """``module.function`` (or ``module.Class.method``) of each converting call, in order."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Call) and converts(child):
                found.append(where)
            visit(child, inner)

    for module, text in sources.items():
        visit(ast.parse(text), module)
    return found


def test_only_the_number_rule_and_the_json_loader_convert():
    found = conversions(source_texts())
    assert [where for where in found if where not in CONVERTERS] == []
    assert set(found) == CONVERTERS  # neither exception outlives its conversion


def test_a_conversion_outside_the_rule_is_caught():
    extra = (
        "SIGMA = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)\n"
        "def f(x, n):\n"
        "    y = np.asarray(x, dtype=float) + np.asarray(x) + np.array(x)\n"
        "    return np.array(x, complex), np.array([1, -2], dtype=int), y.astype(n)\n"
        "class K:\n"
        "    def g(self, x):\n"
        "        return np.asarray(x, float)\n"
    )
    assert conversions({"extra": extra}) == ["extra.f", "extra.f", "extra.f", "extra.K.g"]
