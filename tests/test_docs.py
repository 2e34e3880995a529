"""The README's library tour names only what its modules define.

Each ``steermap.<module>`` row of the tour is checked: every backticked
Python name in it (``snake_case``, ``CamelCase`` or ``UPPER_CASE``, an
optional ``()`` after it) must resolve in that module.  A dotted name
resolves attribute by attribute, from the module or, when its first part
is not there, from the package (``states.validate_states``).  Skipped:
tokens that are not a bare name (shapes, formulas, command lines), names
ending in ``_`` (a prefix such as ``bob_``), one-letter names and the
math symbols in ``MATH``.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_a_deleted_name_is_caught():
    module = importlib.import_module("steermap.constructions")
    row = "`hidden_bloch`, `deleted_kernel`, `DeletedClass()`, `states.nowhere`, `bob_`, `mu`"
    assert [n for n in checked_names(row) if not resolves(module, n)] == [
        "deleted_kernel", "DeletedClass", "states.nowhere"
    ]
