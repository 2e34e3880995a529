"""The one number rule, ``linalg._real_array``, at every public entry point.

Each function that takes numbers from its caller reads them through the
rule or through ``states.check_unit_interval``, which applies it.  A
numeric string is refused by name, not parsed; a ragged value is refused
by name, not with numpy's text; and a caller's own array is converted
without a copy, so the functions that freeze what they keep copy it first
and leave the caller's array writable.
"""

import numpy as np
import pytest

from steermap import constructions, linalg, mapping, measurements, models, states, witnesses

HALF = np.eye(2, dtype=complex) / 2
Z_PROJECTORS = np.array([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]])


def text(value) -> np.ndarray:
    """``value`` as an array of the numeric strings that spell its entries."""
    return np.array(value, dtype=str)


# (id, argument name, "real" or "complex", the numeric-string argument, the call)
CASES = [
    ("kron a", "a", "complex", text(np.eye(2)), lambda v: linalg.kron(v, np.eye(2))),
    ("kron b", "b", "complex", text(np.eye(2)), lambda v: linalg.kron(np.eye(2), v)),
    ("partial_trace", "m", "complex", text(np.eye(4) / 4),
     lambda v: linalg.partial_trace(v, 2, 2)),
    ("partial_transpose", "m", "complex", text(np.eye(4) / 4),
     lambda v: linalg.partial_transpose(v, 2, 2)),
    ("hermitian_eigen", "m", "complex", text(np.eye(2)), linalg.hermitian_eigen),
    ("trace_norm", "m", "complex", text(np.eye(2)), linalg.trace_norm),
    ("pure_state", "vec", "complex", text([1.0, 0.0]), states.pure_state),
    ("hidden_qubits", "bloch", "real", text([[0.0, 0.0, 1.0]]), states.hidden_qubits),
    ("conditional_states", "projectors", "complex", text(np.eye(2)[None]),
     lambda v: states.conditional_states(states.werner(0.5), v)),
    ("werner", "visibility", "real", text([0.5]), states.werner),
    ("validate_projectors", "projector stack", "complex", text(Z_PROJECTORS),
     measurements.validate_projectors),
    ("qubit_projectors", "directions", "real", text([[0.0, 0.0, 1.0]]),
     measurements.qubit_projectors),
    ("qudit_projectors", "bases", "complex", text(np.eye(2)[None]),
     measurements.qudit_projectors),
    ("qudit_measurement", "basis vector 0", "complex", text([1.0, 0.0]),
     lambda v: measurements.qudit_measurement([v, [0.0, 1.0]])),
    ("born_probs projectors", "projectors", "complex", text(Z_PROJECTORS),
     lambda v: models.born_probs(v, HALF[None])),
    ("born_probs states", "states", "complex", text(HALF[None]),
     lambda v: models.born_probs(Z_PROJECTORS, v)),
    ("finite_model party", "alice table", "real", text([[0.5, 0.5, 0.5]]),
     lambda v: models.finite_model([1.0], v, HALF[None])),
    ("mix", "mu", "real", text([0.5]),
     lambda v: mapping.mix(states.werner(0.5), states.werner(0.5), v)),
    ("biased_partner", "c", "real", text([0.5]),
     lambda v: mapping.biased_partner(states.werner(0.5), v, "B")),
    ("biased_probs", "c", "real", text([0.5]), mapping.biased_probs),
    ("c_max_numeric", "mu", "real", text([0.3]), mapping.c_max_numeric),
    ("region_to_csv", "points", "real", text([[0.0, 1.0, 1.0]]), mapping.region_to_csv),
    ("hidden_bloch", "mu", "real", text([0.5]),
     lambda v: constructions.hidden_bloch(v, np.full((1, 3), 0.5), np.full((1, 3), 0.5))),
    ("werner_steerable_oracle", "visibility", "real", text([0.7]),
     witnesses.werner_steerable_oracle),
]


@pytest.mark.parametrize("name, kind, value, call", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_numeric_strings_are_refused_by_name(name, kind, value, call):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a {kind} number or array, got {value!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: models.finite_model([0.5, 0.5], [HALF, np.eye(3) / 3], np.full((2, 3), 0.5)),
     "alice is ragged: its entries differ in shape"),
    (lambda: models.finite_model([0.5, 0.5], HALF[None].repeat(2, 0), [[0.5] * 3, [0.5] * 2]),
     "bob is ragged: its entries differ in shape"),
    (lambda: models.finite_model([[0.5], 0.5], HALF[None], HALF[None]),
     "weights is ragged: its entries differ in shape"),
    (lambda: measurements.qudit_projectors([np.eye(2), np.eye(3)]),
     "bases is ragged: its entries differ in shape"),
    (lambda: measurements.validate_projectors([Z_PROJECTORS[0], np.eye(3)[:, None]]),
     "projector stack is ragged: its entries differ in shape"),
], ids=["alice", "bob", "weights", "qudit_projectors", "validate_projectors"])
def test_ragged_values_are_refused_by_name(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_the_rule_converts_without_copying():
    for value, kinds in ((np.eye(2), "biuf"), (np.eye(2, dtype=complex), "biufc")):
        assert linalg._real_array("value", value, kinds) is value
    assert linalg._real_array("value", np.eye(2), "biufc").dtype == np.complex128


@pytest.mark.parametrize("value", [0.5, 1, True, np.float64(0.25)])
def test_unit_interval_returns_a_number_as_float64(value):
    got = states.check_unit_interval("mu", value)
    assert type(got) is np.float64 and got == value


def test_unit_interval_returns_the_rules_array():
    mu = np.array([0.0, 0.5, 1.0])
    assert states.check_unit_interval("mu", mu) is mu
    assert states.check_unit_interval("mu", [0, 1]).dtype == np.float64


def writable_copies(*arrays):
    """Each array, writable, beside a snapshot of its entries."""
    return [(a, a.copy()) for a in arrays]


def assert_untouched(pairs):
    for array, before in pairs:
        assert array.flags.writeable
        assert np.array_equal(array, before)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_make_density_leaves_the_callers_array_writable(dtype):
    pairs = writable_copies(np.eye(4, dtype=dtype) / 4, np.stack([np.eye(4, dtype=dtype) / 4] * 2))
    for mat, _ in pairs:
        rho = states.make_density(mat, 2, 2)
        assert not rho.mat.flags.writeable and not np.shares_memory(rho.mat, mat)
        assert not states.validate_states(mat).flags.writeable
    assert_untouched(pairs)


def test_finite_model_leaves_the_callers_arrays_writable():
    weights, alice, bob = np.array([0.25, 0.75]), HALF[None].repeat(2, 0), np.full((2, 3), 0.5)
    pairs = writable_copies(weights, alice, bob)
    model = models.finite_model(weights, alice, bob)
    for kept, given in ((model.weights, weights), (model.alice, alice), (model.bob, bob)):
        assert not kept.flags.writeable and not np.shares_memory(kept, given)
    assert_untouched(pairs)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_validate_projectors_leaves_the_callers_array_writable(dtype):
    pairs = writable_copies(Z_PROJECTORS.astype(dtype))
    checked = measurements.validate_projectors(pairs[0][0])
    assert not checked.flags.writeable and not np.shares_memory(checked, pairs[0][0])
    assert_untouched(pairs)
