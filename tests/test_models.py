import numpy as np
import pytest

from steermap import constructions, models
from steermap.measurements import (
    _orthonormal_rows,
    basis_draws,
    pauli_projectors,
    qubit_projectors,
    qudit_measurement,
    qudit_projectors,
    random_basis,
)
from steermap.states import (
    StateValidationError,
    make_density,
    random_separable,
    singlet,
    validate_states,
)

X, Y, Z = pauli_projectors()
HALF = np.eye(2, dtype=complex) / 2


def pair(m):
    """One measurement as the n = 1 stack born_joints takes."""
    return np.asarray(m)[None]


class TestBornJoint:
    def test_maximally_mixed(self):
        rho = make_density(np.eye(4, dtype=complex) / 4, 2, 2)
        assert models.born_joints(rho, pair(Z), pair(Z))[0, 0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_singlet_anticorrelation(self):
        joints = models.born_joints(singlet(), pair(Z), pair(Z))[0]
        assert joints[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert joints[0, 1] == pytest.approx(0.5, abs=1e-14)

    def test_normalization(self):
        rho, _ = random_separable(2, 2, 3, seed=2)
        assert models.born_joints(rho, pair(X), pair(Z)).sum() == pytest.approx(1.0, abs=1e-13)

    def test_outcome_out_of_range(self):
        # Outcomes are the table's axes: a qubit pair has outcomes 0 and 1.
        joints = models.born_joints(singlet(), pair(Z), pair(Z))
        assert joints.shape == (1, 2, 2)
        with pytest.raises(IndexError):
            joints[0, 2, 0]

    def test_dim_mismatch(self):
        # Qubit projectors on a 3x2 state are refused, not contracted.
        rho, _ = random_separable(3, 2, 2, seed=4)
        with pytest.raises(ValueError, match=r"^projector dims 2x2 != state dims 3x2$"):
            models.born_joints(rho, pair(Z), pair(Z))
        qutrit = pair(qudit_measurement(np.eye(3)))
        with pytest.raises(ValueError, match=r"^projector dims 3x3 != state dims 3x2$"):
            models.born_joints(rho, qutrit, qutrit)
        assert models.born_joints(rho, qutrit, pair(Z)).shape == (1, 3, 2)

    def test_batch_matches_kron_reference(self):
        # Reference: the per-pair Kronecker-product trace the batched
        # contraction replaces.
        rng = np.random.default_rng(5)
        for d_a, d_b in ((2, 2), (3, 2), (2, 4)):
            rho, _ = random_separable(d_a, d_b, 3, seed=50 + d_a + d_b)
            pa = np.stack([qudit_measurement(random_basis(d_a, rng)) for _ in range(4)])
            pb = np.stack([qudit_measurement(random_basis(d_b, rng)) for _ in range(4)])
            joints = models.born_joints(rho, pa, pb)
            for n in range(4):
                for a in range(d_a):
                    for b in range(d_b):
                        ref = np.trace(np.kron(pa[n, a], pb[n, b]) @ rho.mat).real
                        assert abs(joints[n, a, b] - ref) <= 1e-15

    def test_born_probs_names_first_out_of_range_entry(self):
        bogus = np.stack([np.diag([0.5, 0.5]), np.diag([1.5, -0.5])]).astype(complex)
        with pytest.raises(ValueError, match=r"ctx: probability 1\.5 exceeds"):
            models.born_probs(pair(Z), bogus, "ctx")


class TestModelFromSeparable:
    def test_single_member(self):
        _, ensemble = random_separable(2, 2, 1, seed=10)
        m = models.model_from_separable(ensemble)
        assert m.n_hidden == 1
        assert (m.alice.shape, m.bob.shape) == ((1, 2, 2), (1, 2, 2))

    def test_reproduces_born_statistics(self):
        # sum_xi w_xi P(a|A, alpha_xi) P(b|B, beta_xi) against tr[(A_a x B_b) rho],
        # one explicit Kronecker trace per entry.
        rho, ensemble = random_separable(3, 2, 4, seed=12)
        m = models.model_from_separable(ensemble)
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            m_a = qudit_measurement(random_basis(3, rng))
            v = rng.standard_normal(3)
            m_b = qubit_projectors((v / np.linalg.norm(v))[None])[0]
            pa = models.born_probs(pair(m_a), m.alice)[0]
            pb = models.born_probs(pair(m_b), m.bob)[0]
            for a in range(3):
                for b in range(2):
                    lhs = np.trace(np.kron(m_a[a], m_b[b]) @ rho.mat).real
                    rhs = float(np.sum(m.weights * pa[a] * pb[b]))
                    worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_bob_marginal_matches_reduced_state(self):
        rho, ensemble = random_separable(3, 2, 5, seed=14)
        m = models.model_from_separable(ensemble)
        marginal = np.einsum("x,xij->ij", m.weights, m.bob)
        assert np.max(np.abs(marginal - rho.reduced_b())) <= 1e-12

    def test_empty_ensemble(self):
        with pytest.raises(ValueError, match="empty"):
            models.model_from_separable([])


class TestResponses:
    """Model parties: (Xi, d, d) response-state stacks or (Xi, 3) Pauli tables."""

    def test_quantum_label_resolution(self):
        # A qubit response state answers the x, y, z settings through one
        # Born-rule contraction.
        probs = constructions.pauli_probs(np.diag([1.0, 0.0]).astype(complex)[None])
        assert probs.shape == (1, 3)
        assert probs[0] == pytest.approx([0.5, 0.5, 1.0])

    def test_label_rejected_on_qudit(self):
        qutrit = np.eye(3, dtype=complex)[None] / 3
        model = models.finite_model([1.0], qutrit, HALF[None])
        with pytest.raises(ValueError, match="Pauli settings need qubit responses, got dim 3"):
            constructions.spm_certificate(model, model, 0.5)
        probs = models.born_probs(pair(qudit_measurement(np.eye(3))), qutrit)
        assert probs[0, 1, 0] == pytest.approx(1 / 3)

    def test_table_validation(self):
        cases = [
            ([[0.5, 1.5, 0.5]], r"^alice table entry must be in \[0, 1\], got 1\.5$"),
            ([[0.5, np.nan, 0.5]], r"^alice table entry must be in \[0, 1\], got nan$"),
            ([[0.5, 0.5]], r"Pauli table, got shape \(1, 2\)"),
        ]
        for table, match in cases:
            with pytest.raises(ValueError, match=match):
                models.finite_model([1.0], table, HALF[None])

    def test_weight_validation(self):
        flat = np.full((2, 3), 0.5)
        with pytest.raises(ValueError, match="sum"):
            models.finite_model([0.5, 0.4], flat, flat)
        with pytest.raises(ValueError, match="one response per hidden value: 1 weights, 2 alice, 1 bob"):
            models.finite_model([1.0], flat, flat[:1])
        with pytest.raises(ValueError, match="1 weights, 1 alice, 2 bob"):
            models.finite_model([1.0], HALF[None], np.stack([HALF, HALF]))

    @pytest.mark.parametrize(
        "weights, message",
        [([0.4, 0.5], "weights sum to 0.9 != 1"),
         ([1.5, -0.5], "negative weight -0.5"),
         ([np.nan, 0.5], "weights sum to nan != 1"),
         ([], "weights must be a non-empty 1-D sequence"),
         ([[0.5, 0.5]], "weights must be a non-empty 1-D sequence")],
    )
    def test_weight_messages(self, weights, message):
        flat = np.full((2, 3), 0.5)
        with pytest.raises(ValueError) as info:
            models.finite_model(weights, flat, flat)
        assert str(info.value) == message

    def test_weights_are_read_only_floats(self):
        model = models.finite_model([1, 0], np.full((2, 3), 0.5), np.full((2, 3), 0.5))
        assert model.weights.dtype == float and not model.weights.flags.writeable

    def test_kind_detection(self):
        # A party's kind is its array rank: 3 for states, 2 for a table.
        q, t = HALF[None], np.full((1, 3), 0.5)
        spm = models.finite_model([1.0], q, q)
        lhs = models.finite_model([1.0], t, q)
        lhv = models.finite_model([1.0], q, t)
        assert (spm.alice.ndim, spm.bob.ndim) == (3, 3)
        assert (lhs.alice.ndim, lhs.bob.ndim) == (2, 3)
        assert (lhv.alice.ndim, lhv.bob.ndim) == (3, 2)

    @pytest.mark.parametrize(
        "mat, invariant",
        [
            (np.full((2, 2), np.nan), "finite entries"),
            (np.array([[np.inf, 0.0], [0.0, 0.0]]), "finite entries"),
            (np.diag([1.5, -0.5]), "min eigenvalue >= -1e-10"),
            (np.array([[0.5, 0.9], [0.9, 0.5]]), "min eigenvalue >= -1e-10"),
        ],
        ids=["mat0-non-finite", "mat1-non-finite", "mat2-not PSD", "mat3-not PSD"],
    )
    def test_quantum_response_rejects_nan_and_non_psd(self, mat, invariant):
        for alice, bob in ((mat[None], HALF[None]), (HALF[None], mat[None])):
            with pytest.raises(StateValidationError, match=f"{invariant} in state 0 "):
                models.finite_model([1.0], alice.astype(complex), bob.astype(complex))

    def test_quantum_response_accepts_rounding_level_negativity(self):
        m = models.finite_model(
            [1.0], np.diag([1.0 + 5e-11, -5e-11]).astype(complex)[None], HALF[None]
        )
        assert m.alice.shape == (1, 2, 2)

    @pytest.mark.parametrize(
        "mat, invariant",
        [
            (np.diag([np.nan, 0.0]), "finite entries"),
            (np.diag([np.inf, 0.0]), "finite entries"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "hermitian within 1e-10"),
            (np.diag([0.6, 0.6]), "trace = 1 within 1e-10"),
            (np.diag([1.5, -0.5]), "min eigenvalue >= -1e-10"),
        ],
        ids=[
            "mat0-matrix 3 has non-finite entries",
            "mat1-matrix 3 has non-finite entries",
            "mat2-matrix 3 is not Hermitian",
            r"mat3-response state 3 trace \(1\.2\+0j\) != 1",
            "mat4-response state 3 is not PSD",
        ],
    )
    def test_quantum_responses_name_the_bad_member(self, mat, invariant):
        stack = np.stack([HALF] * 3 + [mat.astype(complex)])
        with pytest.raises(StateValidationError, match=f"{invariant} in state 3 ") as info:
            models.finite_model([0.25] * 4, stack, np.stack([HALF] * 4))
        assert info.value.state == 3

    def test_quantum_responses_are_read_only_copies(self):
        stack = np.stack([np.diag([1.0, 0.0]), np.eye(2) / 2]).astype(complex)
        table = np.full((2, 3), 0.5)
        m = models.finite_model([0.5, 0.5], stack, table)
        stack[0, 0, 0] = 0.0
        table[0, 0] = 1.0
        assert list(m.alice[:, 0, 0]) == [1.0, 0.5]
        assert m.bob[0, 0] == 0.5
        assert not m.alice.flags.writeable and not m.bob.flags.writeable

    @pytest.mark.parametrize("side", [1, 2])
    def test_model_from_separable_rejects_one_bad_member(self, side):
        _, ensemble = random_separable(3, 2, 4, seed=15)
        members = [list(m) for m in ensemble]
        members[2][side] = members[2][side] * 1.5  # trace 1.5
        with pytest.raises(StateValidationError, match="trace = 1 within 1e-10 in state 2 "):
            models.model_from_separable([tuple(m) for m in members])

    def test_out_of_tolerance_probability_raises(self):
        # A unit-trace Hermitian matrix that is not PSD, passed without
        # the model's validation, must not be clamped silently.
        bogus = np.diag([1.5, -0.5]).astype(complex)[None]
        with pytest.raises(ValueError, match="exceeds tolerance"):
            constructions.pauli_probs(bogus)

    @pytest.mark.parametrize("bad", [np.full(3, 0.5), np.zeros((1, 1, 2, 2)), 0.5])
    def test_party_of_another_rank_is_rejected(self, bad):
        with pytest.raises(ValueError, match=r"alice must be an \(Xi, d, d\) state stack"):
            models.finite_model([1.0], bad, HALF[None])


class TestStackedValidation:
    def test_validate_responses_names_trial_and_member(self):
        # Response stacks of T ensembles go through the one state validator.
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 6).reshape(2, 3, 2, 2)
        member = r"in state \(1, 2\) "
        stack[1, 2] = np.diag([1.5, -0.5])
        with pytest.raises(StateValidationError, match=f"eigenvalue >= -1e-10 {member}") as info:
            validate_states(stack)
        assert info.value.state == (1, 2)
        stack[1, 2] = np.diag([0.6, 0.6])
        with pytest.raises(StateValidationError, match=f"trace = 1 within 1e-10 {member}"):
            validate_states(stack)

    def test_validate_responses_returns_read_only_copy(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 4).reshape(2, 2, 2, 2)
        out = validate_states(stack)
        assert np.array_equal(out, stack) and out is not stack
        assert not out.flags.writeable

    def test_born_probs_with_a_stack_axis(self):
        rng = np.random.default_rng(2)
        projectors = qudit_projectors(_orthonormal_rows(basis_draws(10, 3, rng)).reshape(2, 5, 3, 3))
        rhos = np.stack([
            np.stack([e for _, e, _ in random_separable(3, 2, 4, seed=s)[1]]) for s in (1, 2)
        ])
        out = models.born_probs(projectors, rhos)
        assert out.shape == (2, 5, 3, 4)
        for t in range(2):
            assert np.array_equal(out[t], models.born_probs(projectors[t], rhos[t]))
