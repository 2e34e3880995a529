"""The value classes: immutable, arrays kept out of their reprs, no generated code.

``DensityMatrix`` and ``FiniteModel`` are ``__slots__`` classes over
read-only arrays; ``BlochVector`` and ``WitnessReport`` are named
tuples.  None is a dataclass, so importing steermap generates no methods.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import steermap
from steermap import states, witnesses
from steermap.models import FiniteModel, finite_model
from steermap.states import BlochVector, DensityMatrix, make_density
from steermap.witnesses import WitnessReport

MARKER = 0.123456789


def marked_state():
    """A 2x2 state whose matrix holds an entry that no repr may print."""
    mat = np.diag([0.25 + MARKER, 0.25, 0.25, 0.25 - MARKER])
    return make_density(mat, 2, 2)


def marked_model():
    return finite_model([1.0], np.full((1, 3), MARKER), np.full((1, 3), 0.5))


def instances():
    return [
        (marked_state(), "mat"),
        (marked_model(), "weights"),
        (BlochVector(0.1, 0.2, 0.3), "rx"),
        (WitnessReport(0.5, None, 2.0), "negativity"),
    ]


def steermap_modules():
    names = [info.name for info in pkgutil.iter_modules(steermap.__path__)]
    assert {"states", "models", "witnesses", "cli"} <= set(names)
    return [steermap] + [importlib.import_module(f"steermap.{name}") for name in names]


class TestImmutable:
    @pytest.mark.parametrize("obj, name", instances())
    def test_assigning_a_field_raises(self, obj, name):
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before

    @pytest.mark.parametrize("obj, name", instances()[:2])
    def test_slots_classes_take_no_new_attributes(self, obj, name):
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert not hasattr(obj, "__dict__")

    @pytest.mark.parametrize("obj, name", instances()[:2])
    def test_copy_and_pickle_rebuild_the_fields(self, obj, name):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            for field in type(obj).__slots__:
                a, b = getattr(obj, field), getattr(twin, field)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestRepr:
    def test_density_matrix_repr_has_no_entries(self):
        rho = marked_state()
        assert repr(rho) == "DensityMatrix(d_a=2, d_b=2)"
        stack = states.werner(np.array([0.1, 0.9]))
        assert repr(stack) == "DensityMatrix(d_a=2, d_b=2)"

    def test_finite_model_repr_has_no_entries(self):
        text = repr(marked_model())
        assert text == "FiniteModel(n_hidden=1)"
        assert "0.123" not in text and "0.5" not in text

    def test_named_tuple_reprs_and_equality(self):
        assert repr(BlochVector(0.1, 0.2, 0.3)) == "BlochVector(rx=0.1, ry=0.2, rz=0.3)"
        report = WitnessReport(0.5, None, 2.0)
        assert repr(report) == "WitnessReport(negativity=0.5, chsh=None, f3=2.0)"
        assert report == WitnessReport(negativity=0.5, chsh=None, f3=2.0)
        assert report != WitnessReport(0.5, 2.0, None)


class TestFields:
    def test_witness_report_field_order(self):
        assert WitnessReport._fields == ("negativity", "chsh", "f3")
        report = witnesses.witness_report(states.werner(1.0))
        assert list(report._asdict()) == ["negativity", "chsh", "f3"]

    def test_bloch_vector_field_order(self):
        assert BlochVector._fields == ("rx", "ry", "rz")
        assert BlochVector(1.0, 2.0, 3.0).norm_sq() == 14.0

    def test_slots_fields(self):
        assert DensityMatrix.__slots__ == ("d_a", "d_b", "mat")
        assert FiniteModel.__slots__ == ("weights", "alice", "bob")


class TestNoDataclasses:
    def test_no_steermap_class_is_a_dataclass(self):
        classes = [
            cls
            for module in steermap_modules()
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        ]
        assert DensityMatrix in classes and WitnessReport in classes
        assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == []
