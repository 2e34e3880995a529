import re

import numpy as np
import pytest

from steermap import linalg, states
from steermap.linalg import StateValidationError
from steermap.states import SIGMA_X, SIGMA_Y, SIGMA_Z, singlet

I2 = np.eye(2, dtype=np.complex128)
NOT_HERMITIAN = r"^invariant violated: hermitian within 1e-10"
NOT_FINITE = r"^invariant violated: finite entries"


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(I2, I2), np.eye(4))

    def test_sigma_z_left(self):
        assert np.array_equal(linalg.kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]))

    def test_flips_both_qubits(self):
        # sigma_x x sigma_x sends |00> to |11>; frozen from hand expansion
        # of the 4x4 matrix-vector product.
        ket00 = np.array([1, 0, 0, 0], dtype=np.complex128)
        out = linalg.kron(SIGMA_X, SIGMA_X) @ ket00
        assert np.array_equal(out, np.array([0, 0, 0, 1], dtype=np.complex128))

    def test_associative_on_integer_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
            left = linalg.kron(linalg.kron(a, b), c)
            right = linalg.kron(a, linalg.kron(b, c))
            assert np.array_equal(left, right)

    def test_refuses_vectors_and_4d_stacks(self):
        with pytest.raises(ValueError) as info:
            linalg.kron(np.ones(2), np.ones((1, 1, 2, 2)))
        assert str(info.value) == "expected matrices or (T, p, q) stacks, got ndim=1, 4"


class TestPartialTrace:
    def test_product_factorizes_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(-4, 5, size=(3, 3)).astype(complex)
            b = rng.integers(-4, 5, size=(2, 2)).astype(complex)
            m = linalg.kron(a, b)
            assert np.array_equal(linalg.partial_trace(m, 3, 2, "B"), np.trace(a) * b)
            assert np.array_equal(linalg.partial_trace(m, 3, 2, "A"), np.trace(b) * a)

    def test_bell_reduces_to_maximally_mixed(self):
        # Hand computation: each Bell marginal is I/2.
        phi = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(linalg.partial_trace(rho, 2, 2, "B"), I2 / 2, atol=1e-15)

    def test_maximally_mixed_6(self):
        out = linalg.partial_trace(np.eye(6, dtype=complex) / 6, 3, 2, "A")
        assert np.allclose(out, np.eye(3) / 3, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(6, rng)
        for keep in ("A", "B"):
            out = linalg.partial_trace(m, 3, 2, keep)
            assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match dims"):
            linalg.partial_trace(np.eye(5, dtype=complex), 2, 2, "B")

    @pytest.mark.parametrize("d_a, d_b, name", [(2.0, 2, "d_a"), (2.5, 2, "d_a"), (True, 2, "d_a"),
                                                (2, 2.0, "d_b"), (2, np.True_, "d_b")])
    def test_non_integer_dims_are_refused_by_name(self, d_a, d_b, name):
        bad = d_a if name == "d_a" else d_b
        message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        for function in (linalg.partial_trace, linalg.partial_transpose):
            with pytest.raises(ValueError, match=message):
                function(np.eye(4, dtype=complex) / 4, d_a, d_b)

    @pytest.mark.parametrize("m, d_a, d_b, message", [
        (np.eye(4) / 4, -2, -2, "d_a must be >= 1, got -2"),
        (np.eye(4) / 4, -1, -4, "d_a must be >= 1, got -1"),
        (np.eye(4) / 4, 4, -1, "d_b must be >= 1, got -1"),
        (np.zeros((0, 0)), 0, 3, "d_a must be >= 1, got 0"),
        (np.zeros((0, 0)), 3, 0, "d_b must be >= 1, got 0"),
    ])
    def test_dims_below_one_are_refused_by_name(self, m, d_a, d_b, message):
        # numpy would reshape by a negative dim's product, or trace a 0-dim factor to zeros.
        for function in (linalg.partial_trace, linalg.partial_transpose):
            with pytest.raises(ValueError) as info:
                function(m, d_a, d_b)
            assert str(info.value) == message

    def test_refuses_an_unknown_keep(self):
        with pytest.raises(ValueError) as info:
            linalg.partial_trace(np.eye(4, dtype=complex) / 4, 2, 2, "C")
        assert str(info.value) == "keep must be 'A' or 'B', got 'C'"


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        m = linalg.kron(a, b)
        assert np.allclose(linalg.partial_transpose(m, 3, 2), linalg.kron(a, b.T))

    def test_involution(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        back = linalg.partial_transpose(linalg.partial_transpose(m, 3, 2), 3, 2)
        assert np.array_equal(back, m)

    def test_bell_min_eigenvalue(self):
        # Oracle: numpy eigvalsh on the partially transposed Bell projector.
        phi = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
        pt = linalg.partial_transpose(np.outer(phi, phi.conj()), 2, 2)
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12
        assert abs(linalg.hermitian_eigen(pt)[0] + 0.5) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        m = random_hermitian(6, rng)
        pt = linalg.partial_transpose(m, 2, 3)
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12


def assert_eigenvalues(m, w):
    """``w`` is numpy's ``eigvalsh`` of the Hermitian part of ``m`` bit for bit,
    ascends, and lies within 1e-12 * max(1, |w|) of ``eigh``'s values."""
    herm = (m + m.conj().swapaxes(-1, -2)) / 2.0
    assert np.array_equal(w, np.linalg.eigvalsh(herm))
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    ref = np.linalg.eigh(herm)[0]  # eigh is the test-side reference only
    assert np.all(np.abs(w - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestHermitianEigen:
    @pytest.mark.parametrize("pauli", [SIGMA_X, SIGMA_Y, SIGMA_Z])
    def test_pauli_spectrum(self, pauli):
        w = linalg.hermitian_eigen(pauli)
        assert w.shape == (2,)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
        assert_eigenvalues(pauli, w)

    def test_werner_partial_transpose_spectrum(self):
        # PT of the maximally entangled Werner state: one -1/2 and three
        # +1/2 eigenvalues (computed by hand from the singlet projector,
        # cross-checked against numpy below).
        pt = linalg.partial_transpose(singlet().mat, 2, 2)
        w = linalg.hermitian_eigen(pt)
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(pt), w, atol=1e-12)

    def test_ascending_and_residual(self):
        # Each eigenvalue w_i makes m - w_i I singular: its least singular
        # value, from an SVD rather than an eigensolver, vanishes.
        rng = np.random.default_rng(21)
        for n in (2, 3, 4, 6):
            for _ in range(25):
                m = random_hermitian(n, rng)
                w = linalg.hermitian_eigen(m)
                assert_eigenvalues(m, w)
                shifted = m - w[:, None, None] * np.eye(n)
                assert np.max(np.linalg.svd(shifted, compute_uv=False)[:, -1]) < 1e-10

    def test_reconstruction(self):
        # The power sums tr(m^k), k = 1..n, determine the spectrum.
        rng = np.random.default_rng(22)
        for n in (2, 3, 4, 6):
            for _ in range(25):
                m = random_hermitian(n, rng)
                w = linalg.hermitian_eigen(m)
                power = np.eye(n, dtype=complex)
                for k in range(1, n + 1):
                    power = power @ m
                    moment = np.sum(w**k)
                    assert abs(np.trace(power) - moment) < 1e-10 * max(1.0, abs(moment))

    def test_matches_numpy(self):
        rng = np.random.default_rng(23)
        for n in range(2, 17):
            m = random_hermitian(n, rng)
            assert np.allclose(linalg.hermitian_eigen(m), np.linalg.eigvalsh(m), atol=1e-11)

    def test_matches_numpy_degenerate(self):
        pt = linalg.partial_transpose(singlet().mat, 2, 2)
        cases = (
            (np.eye(4, dtype=complex), [1.0] * 4),
            (np.eye(9, dtype=complex) / 9, [1 / 9] * 9),
            (pt, [-0.5, 0.5, 0.5, 0.5]),
        )
        for m, exact in cases:
            w = linalg.hermitian_eigen(m)
            assert np.allclose(w, exact, atol=1e-14)
            assert_eigenvalues(m, w)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError, match=NOT_HERMITIAN + r" \(") as info:
            linalg.hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))
        assert isinstance(info.value, ValueError)
        assert info.value.state is None and info.value.deviation == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.hermitian_eigen(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = bad
        with pytest.raises(StateValidationError, match=NOT_FINITE + r" \(") as info:
            linalg.hermitian_eigen(m)
        assert isinstance(info.value, ValueError)
        assert info.value.state is None and info.value.deviation == 1.0


    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(31)
        stack = np.stack([random_hermitian(3, rng) for _ in range(5)])
        w = linalg.hermitian_eigen(stack)
        assert w.shape == (5, 3)
        assert_eigenvalues(stack, w)
        for i in range(5):
            assert np.array_equal(w[i], linalg.hermitian_eigen(stack[i]))
        deep = np.stack([stack, stack[::-1]])
        assert np.array_equal(linalg.hermitian_eigen(deep), np.stack([w, w[::-1]]))

    def test_stack_errors_name_first_member(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 4)
        stack[3, 0, 1] = 1.0
        stack[2, 0, 1] = 1.0
        with pytest.raises(StateValidationError, match=NOT_HERMITIAN + " in state 2 ") as info:
            linalg.hermitian_eigen(stack)
        assert info.value.state == 2 and info.value.deviation == 1.0
        stack[3, 1, 1] = np.nan
        with pytest.raises(StateValidationError, match=NOT_FINITE + " in state 3 ") as info:
            linalg.hermitian_eigen(stack)
        assert info.value.state == 3 and info.value.deviation == 1.0

    def test_is_the_one_judge_of_finite_entries_and_hermiticity(self):
        # NaN in state 1, a hermiticity defect in state 2: validate_states
        # reports what hermitian_eigen reports, first the NaN, then the defect.
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        stack[1, 0, 0] = np.nan
        stack[2, 0, 1] = 1e-3
        for invariant, deviation, state in (
            ("finite entries", 1.0, 1),
            ("hermitian within 1e-10", 1e-3, 2),
        ):
            got = []
            for judge in (states.validate_states, linalg.hermitian_eigen):
                with pytest.raises(StateValidationError) as info:
                    judge(stack)
                got.append((info.value.invariant, info.value.deviation, info.value.state))
            assert got == [(invariant, deviation, state)] * 2
            stack[1, 0, 0] = 0.5
        assert states.StateValidationError is linalg.StateValidationError


class TestTraceNorm:
    def test_pauli(self):
        assert abs(linalg.trace_norm(SIGMA_Z) - 2.0) < 1e-14

    def test_identity3(self):
        assert abs(linalg.trace_norm(np.eye(3, dtype=complex)) - 3.0) < 1e-14

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.77, 1.0])
    def test_scaled_pauli(self, p):
        # Eigenvalues +-p/2, so the trace norm is p for every Pauli.
        for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert abs(linalg.trace_norm(-(p / 2.0) * sigma) - p) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError, match=NOT_HERMITIAN + r" \(") as info:
            linalg.trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))
        assert info.value.state is None and info.value.deviation == 1.0


class TestStacks:
    def test_kron_pairs_stacks_matrix_by_matrix(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        b = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        out = linalg.kron(a, b)
        assert out.shape == (4, 6, 6)
        for t in range(4):
            assert np.array_equal(out[t], np.kron(a[t], b[t]))
        assert np.array_equal(linalg.kron(a[0], b[0]), np.kron(a[0], b[0]))
        assert np.array_equal(linalg.kron(a, b[0])[2], np.kron(a[2], b[0]))

    def test_partial_trace_of_a_stack(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        for keep in ("A", "B"):
            out = linalg.partial_trace(m, 3, 2, keep)
            for t in range(3):
                assert np.array_equal(out[t], linalg.partial_trace(m[t], 3, 2, keep))
        with pytest.raises(ValueError, match="ndim=4"):
            linalg.partial_trace(m[None], 3, 2)
