import numpy as np
import pytest

from steermap import models
from steermap.measurements import (
    pauli_setting,
    qubit_measurement,
    qudit_measurement,
    qudit_projectors,
    random_bases,
    random_direction,
    random_qudit_measurement,
)
from steermap.states import make_density, random_separable, singlet


def deterministic_table(bit):
    row = (1.0, 0.0) if bit == 0 else (0.0, 1.0)
    return models.table_response({"x": row, "y": row, "z": row})


class TestBornJoint:
    def test_maximally_mixed(self):
        rho = make_density(np.eye(4, dtype=complex) / 4, 2, 2)
        z = pauli_setting("z")
        assert models.born_joint(rho, z, z, 0, 0) == pytest.approx(0.25, abs=1e-14)

    def test_singlet_anticorrelation(self):
        z = pauli_setting("z")
        assert models.born_joint(singlet(), z, z, 0, 0) == pytest.approx(0.0, abs=1e-14)
        assert models.born_joint(singlet(), z, z, 0, 1) == pytest.approx(0.5, abs=1e-14)

    def test_normalization(self):
        rho, _ = random_separable(2, 2, 3, seed=2)
        x, z = pauli_setting("x"), pauli_setting("z")
        total = sum(models.born_joint(rho, x, z, a, b) for a in range(2) for b in range(2))
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_outcome_out_of_range(self):
        z = pauli_setting("z")
        with pytest.raises(IndexError):
            models.born_joint(singlet(), z, z, 2, 0)

    def test_batch_matches_kron_reference(self):
        # Reference: the per-pair Kronecker-product trace the batched
        # contraction replaces.
        rng = np.random.default_rng(5)
        for d_a, d_b in ((2, 2), (3, 2), (2, 4)):
            rho, _ = random_separable(d_a, d_b, 3, seed=50 + d_a + d_b)
            pa = np.stack([random_qudit_measurement(d_a, rng).projectors for _ in range(4)])
            pb = np.stack([random_qudit_measurement(d_b, rng).projectors for _ in range(4)])
            joints = models.born_joints(rho, pa, pb)
            for n in range(4):
                for a in range(d_a):
                    for b in range(d_b):
                        ref = np.trace(np.kron(pa[n, a], pb[n, b]) @ rho.mat).real
                        assert abs(joints[n, a, b] - ref) <= 1e-15

    def test_born_probs_names_first_out_of_range_entry(self):
        bogus = np.stack([np.diag([0.5, 0.5]), np.diag([1.5, -0.5])]).astype(complex)
        z = pauli_setting("z").projectors[None]
        with pytest.raises(ValueError, match=r"ctx: probability 1\.5 exceeds"):
            models.born_probs(z, bogus, "ctx")

    def test_dim_mismatch(self):
        rho, _ = random_separable(3, 2, 2, seed=4)
        z = pauli_setting("z")
        with pytest.raises(ValueError, match="dims"):
            models.born_joint(rho, z, z, 0, 0)


class TestModelJoint:
    def test_deterministic_single_member(self):
        m = models.finite_model([1.0], (deterministic_table(0),), (deterministic_table(1),))
        assert models.model_joint(m, "x", "x", 0, 1) == 1.0
        assert models.model_joint(m, "x", "x", 0, 0) == 0.0
        assert m.kind == "LHV"

    def test_uniform_half_weights(self):
        flat = models.table_response({"x": (0.5, 0.5)})
        m = models.finite_model([0.5, 0.5], (flat, flat), (flat, flat))
        assert models.model_joint(m, "x", "x", 0, 0) == pytest.approx(0.25, abs=1e-15)

    def test_undeclared_setting(self):
        m = models.finite_model([1.0], (deterministic_table(0),), (deterministic_table(0),))
        with pytest.raises(models.SettingError, match="declared"):
            models.model_joint(m, "w", "x", 0, 0)

    def test_non_signaling_exact(self):
        # Dyadic tables sum exactly, so the marginal telescopes exactly.
        alice = models.table_response({"A0": (0.25, 0.75), "A1": (1.0, 0.0)})
        bob0 = models.table_response({"x": (0.5, 0.5), "y": (0.75, 0.25)})
        bob1 = models.table_response({"x": (1.0, 0.0), "y": (0.25, 0.75)})
        m = models.finite_model([0.5, 0.5], (alice, alice), (bob0, bob1))
        for a in range(2):
            for setting_a in ("A0", "A1"):
                marg_x = sum(models.model_joint(m, setting_a, "x", a, b) for b in range(2))
                marg_y = sum(models.model_joint(m, setting_a, "y", a, b) for b in range(2))
                assert marg_x == marg_y


class TestModelFromSeparable:
    def test_single_member(self):
        _, ensemble = random_separable(2, 2, 1, seed=10)
        m = models.model_from_separable(ensemble)
        assert m.n_hidden == 1
        assert m.kind == "SPM"

    def test_reproduces_born_statistics(self):
        rho, ensemble = random_separable(3, 2, 4, seed=12)
        m = models.model_from_separable(ensemble)
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            m_a = random_qudit_measurement(3, rng)
            m_b = qubit_measurement(random_direction(rng))
            for a in range(3):
                for b in range(2):
                    lhs = models.born_joint(rho, m_a, m_b, a, b)
                    rhs = models.model_joint(m, m_a, m_b, a, b)
                    worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_bob_marginal_matches_reduced_state(self):
        rho, ensemble = random_separable(3, 2, 5, seed=14)
        m = models.model_from_separable(ensemble)
        assert np.max(np.abs(models.bob_marginal(m, 2) - rho.reduced_b())) <= 1e-12

    def test_empty_ensemble(self):
        with pytest.raises(ValueError, match="empty"):
            models.model_from_separable([])


class TestResponses:
    def test_quantum_label_resolution(self):
        resp = models.quantum_response(np.diag([1.0, 0.0]).astype(complex))
        assert models.response_prob(resp, "z", 0) == pytest.approx(1.0)
        assert models.response_prob(resp, "x", 0) == pytest.approx(0.5)

    def test_label_rejected_on_qudit(self):
        resp = models.quantum_response(np.eye(3, dtype=complex) / 3)
        with pytest.raises(models.SettingError):
            models.response_prob(resp, "z", 0)
        assert models.response_prob(resp, qudit_measurement(np.eye(3)), 1) == pytest.approx(1 / 3)

    def test_table_validation(self):
        with pytest.raises(ValueError, match="sum"):
            models.table_response({"x": (0.5, 0.4)})
        with pytest.raises(ValueError, match="out of"):
            models.table_response({"x": (1.5, -0.5)})

    def test_weight_validation(self):
        flat = models.table_response({"x": (0.5, 0.5)})
        with pytest.raises(ValueError, match="sum"):
            models.finite_model([0.5, 0.4], (flat, flat), (flat, flat))
        with pytest.raises(ValueError, match="one response per"):
            models.finite_model([1.0], (flat, flat), (flat,))

    def test_kind_detection(self):
        q = models.quantum_response(np.eye(2, dtype=complex) / 2)
        t = models.table_response({"x": (0.5, 0.5)})
        assert models.finite_model([1.0], (q,), (q,)).kind == "SPM"
        assert models.finite_model([1.0], (t,), (q,)).kind == "LHS"
        assert models.finite_model([1.0], (q,), (t,)).kind == "LHV"

    @pytest.mark.parametrize(
        "mat, match",
        [
            (np.full((2, 2), np.nan), "non-finite"),
            (np.array([[np.inf, 0.0], [0.0, 0.0]]), "non-finite"),
            (np.diag([1.5, -0.5]), "not PSD"),
            (np.array([[0.5, 0.9], [0.9, 0.5]]), "not PSD"),
        ],
    )
    def test_quantum_response_rejects_nan_and_non_psd(self, mat, match):
        with pytest.raises(ValueError, match=match):
            models.quantum_response(mat.astype(complex))

    def test_quantum_response_accepts_rounding_level_negativity(self):
        resp = models.quantum_response(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        assert resp.dim == 2

    @pytest.mark.parametrize(
        "mat, match",
        [
            (np.diag([np.nan, 0.0]), r"matrix 3 has non-finite entries"),
            (np.diag([np.inf, 0.0]), r"matrix 3 has non-finite entries"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), r"matrix 3 is not Hermitian"),
            (np.diag([0.6, 0.6]), r"response state 3 trace \(1\.2\+0j\) != 1"),
            (np.diag([1.5, -0.5]), r"response state 3 is not PSD"),
        ],
    )
    def test_quantum_responses_name_the_bad_member(self, mat, match):
        stack = [np.eye(2, dtype=complex) / 2] * 3 + [mat.astype(complex)]
        with pytest.raises(ValueError, match=match):
            models.quantum_responses(stack)

    def test_quantum_responses_are_read_only_copies(self):
        stack = np.stack([np.diag([1.0, 0.0]), np.eye(2) / 2]).astype(complex)
        responses = models.quantum_responses(stack)
        stack[0, 0, 0] = 0.0
        assert [r.rho[0, 0] for r in responses] == [1.0, 0.5]
        assert not responses[0].rho.flags.writeable

    @pytest.mark.parametrize("side", [1, 2])
    def test_model_from_separable_rejects_one_bad_member(self, side):
        _, ensemble = random_separable(3, 2, 4, seed=15)
        members = [list(m) for m in ensemble]
        members[2][side] = members[2][side] * 1.5  # trace 1.5
        with pytest.raises(ValueError, match="response state 2 trace"):
            models.model_from_separable([tuple(m) for m in members])

    def test_out_of_tolerance_probability_raises(self):
        # A unit-trace Hermitian matrix that is not PSD, built without
        # the response constructor, must not be clamped silently.
        bogus = models.QuantumResponse(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="exceeds tolerance"):
            models.response_prob(bogus, "z", 0)


class TestStackedValidation:
    def test_validate_responses_names_trial_and_member(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 6).reshape(2, 3, 2, 2)
        stack[1, 2] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match=r"response state 1,2 is not PSD"):
            models.validate_responses(stack)
        stack[1, 2] = np.diag([0.6, 0.6])
        with pytest.raises(ValueError, match=r"response state 1,2 trace"):
            models.validate_responses(stack)

    def test_validate_responses_returns_read_only_copy(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 4).reshape(2, 2, 2, 2)
        out = models.validate_responses(stack)
        assert np.array_equal(out, stack) and out is not stack
        assert not out.flags.writeable

    def test_check_weights_rows(self):
        w = models.check_weights([[0.25, 0.75], [0.5, 0.5]])
        assert w.shape == (2, 2) and not w.flags.writeable
        with pytest.raises(ValueError, match="sum to 0.9 != 1"):
            models.check_weights([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(ValueError, match="negative weight -0.5"):
            models.check_weights([[0.5, 0.5], [1.5, -0.5]])
        with pytest.raises(ValueError, match="sum to nan"):
            models.check_weights([[0.5, 0.5], [np.nan, 0.5]])

    def test_born_probs_with_a_stack_axis(self):
        rng = np.random.default_rng(2)
        projectors = np.stack([qudit_projectors(random_bases(5, 3, rng)) for _ in range(2)])
        rhos = np.stack([
            np.stack([e for _, e, _ in random_separable(3, 2, 4, seed=s)[1]]) for s in (1, 2)
        ])
        out = models.born_probs(projectors, rhos)
        assert out.shape == (2, 5, 3, 4)
        for t in range(2):
            assert np.array_equal(out[t], models.born_probs(projectors[t], rhos[t]))
