import numpy as np
import pytest

from steermap import linalg, states
from steermap.measurements import _orthonormal_rows, basis_draws
from steermap.states import (
    PAULI_STACK,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateValidationError,
    bell_phi_plus,
    DensityMatrix,
    conditional_states,
    hidden_qubits,
    make_density,
    random_separable,
    singlet,
    state_from_json,
    state_to_json,
    werner,
)


class TestMakeDensity:
    def test_maximally_mixed(self):
        rho = make_density(np.eye(4, dtype=complex) / 4, 2, 2)
        assert rho.d_a == rho.d_b == 2

    def test_rejects_wrong_trace(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[:2, :2] = SIGMA_X  # traceless corner block
        with pytest.raises(StateValidationError, match="trace"):
            make_density(bad, 2, 2)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(StateValidationError, match="hermitian"):
            make_density(bad, 2, 2)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(StateValidationError, match="eigenvalue") as info:
            make_density(bad, 2, 2)
        assert info.value.deviation == pytest.approx(0.1, abs=1e-12)

    def test_small_antihermitian_defect_validates(self):
        # A defect inside the 1e-10 state tolerance is accepted, and the
        # spectrum is that of the Hermitian part.
        rng = np.random.default_rng(4)
        herm, _ = random_separable(2, 2, 4, seed=4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        skew = g - g.conj().T
        skew *= 5e-11 / np.max(np.abs(skew))
        mat = herm.mat + skew / 2.0
        assert np.max(np.abs(mat - mat.conj().T)) == pytest.approx(5e-11, rel=1e-6)
        w, _ = linalg.hermitian_eigen(mat)
        assert np.max(np.abs(w - np.linalg.eigvalsh(herm.mat))) < 1e-14
        rho = make_density(mat, 2, 2)
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) == 0.0
        assert np.max(np.abs(rho.mat - herm.mat)) < 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_first(self, bad):
        # Wrong shape and trace as well: finiteness is checked before both.
        mat = np.eye(6, dtype=complex)
        mat[0, 0] = bad
        with pytest.raises(StateValidationError, match="finite entries") as info:
            make_density(mat, 2, 2)
        assert info.value.deviation == 1.0

    def test_bell_projector_is_pure(self):
        rho = bell_phi_plus()
        w, _ = linalg.hermitian_eigen(rho.mat)
        assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("dims", [(2.0, 2), (2, 2.5), ("2", 2)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(ValueError, match=r"^subsystem dims must be integers, got "):
            make_density(np.eye(4) / 4, *dims)

    def test_accepts_numpy_integer_dims(self):
        rho = make_density(np.eye(4) / 4, np.int64(2), np.int32(2))
        assert type(rho.d_a) is int and type(rho.d_b) is int
        assert np.array_equal(rho.reduced_a(), np.eye(2) / 2)

    def test_matrix_read_only(self):
        rho = make_density(np.eye(4, dtype=complex) / 4, 2, 2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0


class TestMakeDensityStack:
    """A (T, n, n) stack: the same checks in the same order, naming the first bad state."""

    @staticmethod
    def stack(bad=None, at=2):
        mats = np.stack([random_separable(2, 2, 3, seed=s)[0].mat for s in range(4)])
        if bad is not None:
            mats[at] = bad
        return mats

    def test_valid_stack(self):
        mats = self.stack()
        rho = make_density(mats, 2, 2)
        assert rho.mat.shape == (4, 4, 4) and not rho.mat.flags.writeable
        for t in range(4):
            assert np.array_equal(rho.mat[t], make_density(mats[t], 2, 2).mat)

    @pytest.mark.parametrize(
        "entry, invariant",
        [
            ((0, 0, np.nan), "finite entries"),
            ((0, 1, 0.1), "hermitian within 1e-10"),
            ((0, 0, 0.5), "trace = 1 within 1e-10"),
        ],
    )
    def test_names_first_bad_state(self, entry, invariant):
        i, j, value = entry
        bad = np.eye(4, dtype=complex) / 4
        bad[i, j] += value
        mats = self.stack(bad, at=2)
        mats[3] = bad
        with pytest.raises(StateValidationError) as info:
            make_density(mats, 2, 2)
        assert info.value.invariant == invariant
        assert info.value.state == 2
        assert f"{invariant} in state 2 (deviation" in str(info.value)

    def test_names_first_non_psd_state(self):
        mats = self.stack(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex), at=1)
        with pytest.raises(StateValidationError, match="eigenvalue >= -1e-10 in state 1") as info:
            make_density(mats, 2, 2)
        assert info.value.deviation == pytest.approx(0.1, abs=1e-12)

    def test_single_matrix_messages_name_no_state(self):
        with pytest.raises(StateValidationError) as info:
            make_density(np.diag([0.6, 0.5, -0.1, 0.0]), 2, 2)
        assert info.value.state is None
        assert str(info.value) == (
            "invariant violated: min eigenvalue >= -1e-10 (deviation 1.000e-01)"
        )

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="ndim=4"):
            make_density(np.zeros((1, 1, 4, 4)), 2, 2)

    def test_huge_dims_fail_the_shape_check(self):
        # The shape deviation is an int too large for a float.
        with pytest.raises(StateValidationError, match="shape") as info:
            make_density(np.eye(4) / 4, 10**400, 2)
        assert info.value.deviation == np.inf


class TestValidateStates:
    """The one state validator, on stacks of any rank."""

    def test_shape_and_rank(self):
        with pytest.raises(StateValidationError, match=r"shape \(3, 2, 2\) != \(4, 4\)"):
            states.validate_states(np.stack([np.eye(2) / 2] * 3), 4)
        with pytest.raises(StateValidationError, match=r"shape \(2, 3\) != \(3, 3\)"):
            states.validate_states(np.ones((2, 3)))
        with pytest.raises(ValueError, match="ndim=1"):
            states.validate_states(np.ones(4))


class TestRandomSeparables:
    @pytest.mark.parametrize("dims", [(2, 2), (4, 2), (2, 3), (2, 4)])
    def test_each_seed_matches_random_separable(self, dims):
        d_a, d_b = dims
        seeds = [5, 17, 3]
        rho, weights, alphas, betas = states.random_separables(d_a, d_b, 4, seeds)
        assert rho.mat.shape == (3, d_a * d_b, d_a * d_b)
        for t, seed in enumerate(seeds):
            single, ensemble = random_separable(d_a, d_b, 4, seed)
            assert np.array_equal(rho.mat[t], single.mat)
            for xi, (w, alpha, beta) in enumerate(ensemble):
                assert w == weights[t, xi]
                assert np.array_equal(alpha, alphas[t, xi])
                assert np.array_equal(beta, betas[t, xi])

    def test_output_passes_make_density(self):
        # The mixtures skip validation; every one of them must still pass it.
        for d_a in (2, 3, 4):
            for d_b in (2, 3, 4):
                for k in range(1, 7):
                    seeds = range(100 * k, 100 * k + 50)
                    rho, _, alphas, betas = states.random_separables(d_a, d_b, k, seeds)
                    assert np.array_equal(make_density(rho.mat, d_a, d_b).mat, rho.mat)
                    assert not alphas.flags.writeable and not betas.flags.writeable

    def test_members_and_weights_meet_the_state_invariants(self):
        # random_separables validates none of its outputs: each member is
        # v v^dagger of a unit vector, each weight row a Dirichlet draw.
        for d_a in (2, 3, 4):
            for d_b in (2, 3, 4):
                rho, weights, alphas, betas = states.random_separables(d_a, d_b, 4, range(2000))
                for members in (alphas, betas):
                    herm = np.abs(members - members.conj().swapaxes(-1, -2)).max()
                    trace = np.abs(np.trace(members, axis1=-2, axis2=-1) - 1.0).max()
                    least = np.linalg.eigvalsh(members)[..., 0].min()
                    assert max(herm, trace, -least) <= 1e-14, (d_a, d_b, herm, trace, least)
                assert weights.min() >= 0.0
                assert np.abs(weights.sum(axis=-1) - 1.0).max() <= 1e-14
                for out in (rho.mat, weights, alphas, betas):
                    assert not out.flags.writeable

    def test_needs_a_seed(self):
        with pytest.raises(ValueError, match="^need at least one seed$"):
            states.random_separables(2, 2, 4, [])


class TestWerner:
    def test_zero_visibility(self):
        assert np.allclose(werner(0.0).mat, np.eye(4) / 4, atol=1e-15)

    def test_full_visibility_is_singlet(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.allclose(werner(1.0).mat, expected, atol=1e-15)
        assert np.allclose(singlet().mat, expected, atol=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_pauli_correlations(self, p):
        # <sigma_k x sigma_k> = -p, by direct trace.
        rho = werner(p)
        for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            val = np.trace(linalg.kron(sigma, sigma) @ rho.mat).real
            assert val == pytest.approx(-p, abs=1e-13)

    def test_range(self):
        with pytest.raises(ValueError):
            werner(1.2)


def bloch_of(m):
    """Bloch vector r_k = tr[sigma_k m] of a unit-trace qubit matrix m."""
    return np.einsum("kij,ji->k", PAULI_STACK, m).real


class TestBloch:
    """hidden_qubits builds (1 + r.sigma)/2; tr[sigma_k .] reads r back."""

    def test_maximally_mixed(self):
        m = hidden_qubits(np.zeros(3))
        assert np.array_equal(m, np.eye(2) / 2)
        assert np.array_equal(bloch_of(m), np.zeros(3))

    def test_z_eigenstate(self):
        assert np.array_equal(hidden_qubits([0.0, 0.0, 1.0]), (np.eye(2) + SIGMA_Z) / 2)

    def test_off_diagonal_signs(self):
        m = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        r = bloch_of(m)
        assert r == pytest.approx([0.2, -0.4, 0.4])
        assert np.max(np.abs(hidden_qubits(r) - m)) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = (g + g.conj().T) / 2
            m /= np.trace(m).real
            assert np.max(np.abs(hidden_qubits(bloch_of(m)) - m)) < 1e-14 * np.abs(m).max()


class TestConditionalState:
    def test_product_state(self):
        rng = np.random.default_rng(19)
        alpha = states.random_pure(3, rng)
        beta = states.random_pure(2, rng)
        rho = make_density(linalg.kron(alpha, beta), 3, 2)
        pi = np.diag([1, 0, 0]).astype(complex)
        out = conditional_states(rho, pi)
        assert np.allclose(out, np.trace(pi @ alpha) * beta, atol=1e-13)

    def test_bell_collapse(self):
        # Hand computation: projecting Alice of |phi+> on |0> leaves |0><0|/2.
        out = conditional_states(bell_phi_plus(), np.diag([1, 0]).astype(complex))
        assert np.allclose(out, np.diag([0.5, 0]), atol=1e-14)

    def test_completeness(self):
        rho, _ = random_separable(3, 2, 4, seed=23)
        basis = np.eye(3, dtype=complex)
        total = conditional_states(rho, np.einsum("ix,iy->ixy", basis, basis.conj())).sum(axis=0)
        assert np.max(np.abs(total - rho.reduced_b())) < 1e-12

    def test_batch_matches_kron_reference(self):
        # Reference: tr_A[(pi x 1) rho] through an explicit Kronecker product.
        rng = np.random.default_rng(24)
        rho, _ = random_separable(3, 2, 4, seed=25)
        pis = np.stack([
            np.einsum("ix,iy->ixy", b, b.conj()) for b in _orthonormal_rows(basis_draws(5, 3, rng))
        ])
        out = conditional_states(rho, pis)
        assert out.shape == (5, 3, 2, 2)
        for s in range(5):
            for a in range(3):
                big = np.kron(pis[s, a], np.eye(2)) @ rho.mat
                ref = linalg.partial_trace(big, 3, 2, keep="B")
                assert np.max(np.abs(out[s, a] - ref)) <= 1e-15


class TestRandomSeparable:
    def test_single_member_is_product(self):
        rho, ensemble = random_separable(2, 2, 1, seed=3)
        assert len(ensemble) == 1
        pt = linalg.partial_transpose(rho.mat, 2, 2, "B")
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_ppt(self, seed):
        rho, _ = random_separable(3, 2, 4, seed=seed)
        pt = linalg.partial_transpose(rho.mat, 3, 2, "B")
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_deterministic(self):
        a, ens_a = random_separable(2, 3, 4, seed=99)
        b, ens_b = random_separable(2, 3, 4, seed=99)
        assert np.array_equal(a.mat, b.mat)
        for (wa, aa, ba), (wb, ab, bb) in zip(ens_a, ens_b):
            assert wa == wb
            assert np.array_equal(aa, ab)
            assert np.array_equal(ba, bb)

    def test_ensemble_assembles_to_state(self):
        rho, ensemble = random_separable(3, 2, 5, seed=41)
        mat = sum(w * linalg.kron(a, b) for w, a, b in ensemble)
        assert np.max(np.abs(mat - rho.mat)) < 1e-15
        assert sum(w for w, _, _ in ensemble) == pytest.approx(1.0, abs=1e-14)


    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 2), (2, 3), (2, 4)])
    def test_matches_per_member_reference_loop(self, dims):
        # Reference: one random_pure draw per factor and one kron per
        # member, which the one-draw construction replaces.
        d_a, d_b = dims
        for seed in range(6):
            rng = np.random.default_rng(seed)
            weights = rng.dirichlet(np.ones(4))
            mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
            reference = []
            for w in weights:
                alpha = states.random_pure(d_a, rng)
                beta = states.random_pure(d_b, rng)
                reference.append((float(w), alpha, beta))
                mat += w * np.kron(alpha, beta)
            rho, ensemble = random_separable(d_a, d_b, 4, seed)
            assert np.max(np.abs(rho.mat - mat)) <= 1e-15
            assert len(ensemble) == 4
            for (w, alpha, beta), (w_ref, alpha_ref, beta_ref) in zip(ensemble, reference):
                assert w == w_ref
                assert np.max(np.abs(alpha - alpha_ref)) <= 1e-15
                assert np.max(np.abs(beta - beta_ref)) <= 1e-15


class TestJson:
    def test_round_trip(self):
        rho, _ = random_separable(2, 3, 3, seed=7)
        again = state_from_json(state_to_json(rho))
        assert (again.d_a, again.d_b) == (2, 3)
        assert np.max(np.abs(again.mat - rho.mat)) < 1e-15

    def test_round_trip_via_file(self, tmp_path):
        rho = werner(0.8)
        path = tmp_path / "state.json"
        path.write_text(state_to_json(rho))
        again = states.load_state(path)
        assert np.max(np.abs(again.mat - rho.mat)) < 1e-15

    def test_rejects_invalid_state(self):
        import json

        payload = json.loads(state_to_json(werner(0.5)))
        payload["re"][0][0] += 0.1  # breaks the unit-trace invariant
        with pytest.raises(StateValidationError, match="trace"):
            state_from_json(json.dumps(payload))

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            state_from_json('{"dims": [2, 2], "re": [[1]]}')

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            state_from_json('{"dims": [2], "re": [[1]], "im": [[0]]}')

    def test_non_finite_state_is_not_serialized(self):
        # DensityMatrix bypasses make_density here on purpose: whatever
        # slips past validation must not come out as non-standard JSON.
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 0] = np.nan
        with pytest.raises(ValueError, match="JSON compliant"):
            state_to_json(DensityMatrix(2, 2, mat))
