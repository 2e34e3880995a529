import re

import numpy as np
import pytest

from steermap import constructions, linalg, models, states
from steermap.measurements import random_bases
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
        w = linalg.hermitian_eigen(mat)
        assert np.max(np.abs(w - np.linalg.eigvalsh(herm.mat))) < 1e-14
        rho = make_density(mat, 2, 2)
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) == 0.0
        assert np.max(np.abs(rho.mat - herm.mat)) < 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_first(self, bad):
        # Not Hermitian and of the wrong trace as well: finiteness is
        # checked before both.
        mat = np.eye(4, dtype=complex)
        mat[0, 1] = 0.1
        mat[0, 0] = bad
        with pytest.raises(StateValidationError, match="finite entries") as info:
            make_density(mat, 2, 2)
        assert info.value.deviation == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_the_wrong_shape_before_non_finite_entries(self, bad):
        mat = np.eye(6, dtype=complex)
        mat[0, 0] = bad
        shape = r"^invariant violated: shape \(6, 6\) != \(4, 4\) "
        with pytest.raises(StateValidationError, match=shape) as info:
            make_density(mat, 2, 2)
        assert info.value.deviation == 2.0

    def test_bell_projector_is_pure(self):
        rho = bell_phi_plus()
        w = linalg.hermitian_eigen(rho.mat)
        assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)

    # A bool is an int to Python; read as one, True would be the dim 1.
    @pytest.mark.parametrize("dims", [(2.0, 2), (2, 2.5), ("2", 2), (True, 2), (2, np.True_)])
    def test_rejects_non_integer_dims(self, dims):
        bad = next(d for d in dims if type(d) is not int)
        message = rf"^subsystem dim must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
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
    """The one state validator, on a matrix or a (T, n, n) stack."""

    def test_shape_and_rank(self):
        with pytest.raises(StateValidationError, match=r"shape \(3, 2, 2\) != \(4, 4\)"):
            states.validate_states(np.stack([np.eye(2) / 2] * 3), 4)
        with pytest.raises(StateValidationError, match=r"shape \(2, 3\) != \(3, 3\)"):
            states.validate_states(np.ones((2, 3)))
        with pytest.raises(ValueError, match="ndim=1"):
            states.validate_states(np.ones(4))

    def test_refuses_a_stack_of_stacks(self):
        # Response stacks of several models are no longer validated as one.
        stacks = np.stack([np.eye(2, dtype=complex) / 2] * 6).reshape(2, 3, 2, 2)
        message = r"^expected a matrix or a \(T, n, n\) stack, got ndim=4$"
        with pytest.raises(ValueError, match=message) as info:
            states.validate_states(stacks)
        assert not isinstance(info.value, StateValidationError)

    def test_empty_stack(self):
        # Zero states pass every check and come back read-only, as zero
        # Werner visibilities or qubit directions do.
        for mat, shape in (
            (make_density(np.zeros((0, 4, 4)), 2, 2).mat, (0, 4, 4)),
            (states.validate_states(np.zeros((0, 4, 4))), (0, 4, 4)),
        ):
            assert mat.shape == shape and mat.dtype == np.complex128
            assert not mat.flags.writeable

    def test_nan_stack_fails_finite_entries_first(self):
        # Not Hermitian and not of unit trace as well.
        mats = np.full((2, 4, 4), np.nan, dtype=complex)
        for n in (None, 4):
            with pytest.raises(StateValidationError) as info:
                states.validate_states(mats, n)
            assert info.value.invariant == "finite entries" and info.value.state == 0

    def test_nan_stack_of_the_wrong_shape_fails_shape_first(self):
        mats = np.full((2, 4, 4), np.nan, dtype=complex)
        with pytest.raises(StateValidationError) as info:
            states.validate_states(mats, 3)
        assert info.value.invariant == "shape (2, 4, 4) != (3, 3)"
        assert info.value.state is None and info.value.deviation == 1.0

    @pytest.mark.parametrize(
        "shape, n, deviation",
        [((4, 5), 4, 1.0), ((5, 4), 4, 1.0), ((2, 4, 7), 4, 3.0), ((4, 4), 6, 2.0),
         ((3, 7), None, 4.0)],
    )
    def test_shape_deviation_is_the_larger_gap(self, shape, n, deviation):
        with pytest.raises(StateValidationError) as info:
            states.validate_states(np.zeros(shape), n)
        assert info.value.invariant.startswith(f"shape {shape} != ")
        assert info.value.deviation == deviation

    @pytest.mark.parametrize("kind", ["U", "S", "O"])
    def test_strings_bytes_and_objects_are_refused(self, kind):
        # numpy would parse each string as the number it spells.
        mat = (np.eye(4) / 4).astype(kind)
        message = f"^state must be a complex number or array, got {re.escape(repr(mat))}$"
        with pytest.raises(ValueError, match=message):
            states.validate_states(mat)
        with pytest.raises(ValueError, match="^state must be a complex number or array"):
            make_density(mat, 2, 2)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.float32, np.complex64])
    def test_every_numeric_kind_is_read_as_complex(self, dtype):
        mat = np.diag([1, 0]).astype(dtype)
        out = states.validate_states(mat)
        assert out.dtype == np.complex128 and np.array_equal(out, np.diag([1, 0]))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 0, 0), (3, 0, 0)])
    def test_empty_matrices_fail_the_shape_check(self, shape):
        with pytest.raises(StateValidationError) as info:
            states.validate_states(np.zeros(shape))
        assert info.value.invariant == f"shape {shape} != (n, n), n >= 1"
        assert info.value.state is None and info.value.deviation == 1.0


def split_and_norm_separables(d_a, d_b, k, seeds):
    """random_separables' mixtures, weights and members, built with np.split and np.linalg.norm."""
    weights, draws = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        weights.append(rng.dirichlet(np.ones(k)))
        draws.append(rng.standard_normal((k, 2 * d_a + 2 * d_b)))
    weights = np.array(weights)
    re_a, im_a, re_b, im_b = np.split(np.array(draws), np.cumsum([d_a, d_a, d_b]), axis=-1)
    va, vb = re_a + 1j * im_a, re_b + 1j * im_b
    va /= np.linalg.norm(va, axis=-1, keepdims=True)
    vb /= np.linalg.norm(vb, axis=-1, keepdims=True)
    alphas = va[..., :, None] * va.conj()[..., None, :]
    betas = vb[..., :, None] * vb.conj()[..., None, :]
    product = (va[..., :, None] * vb[..., None, :]).reshape(len(weights), k, d_a * d_b)
    mat = (weights[..., None] * product).swapaxes(-1, -2) @ product.conj()
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0, weights, alphas, betas


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

    @pytest.mark.parametrize("k", range(1, 10))
    def test_draws_match_a_split_and_norm_reference(self, k):
        # Vectors sliced from each seed's draws and normalised with
        # np.linalg.norm's own formula: bit-equal to calling it.
        for d_a in (2, 3, 4):
            for d_b in (2, 3, 4):
                for seeds in ([0], [5, 17, 3], range(40, 49)):
                    got = states.random_separables(d_a, d_b, k, seeds)
                    want = split_and_norm_separables(d_a, d_b, k, seeds)
                    for a, b in zip((got[0].mat, *got[1:]), want):
                        assert np.array_equal(a, b), (d_a, d_b, k, list(seeds))

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

    @pytest.mark.parametrize("seed", [3.7, np.float32(1.0), True, np.False_])
    def test_refuses_float_and_bool_seeds(self, seed):
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            states.random_separable(2, 3, 4, seed=seed)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            states.random_separables(2, 3, 4, [5, seed])

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_refuses_negative_seeds_by_name(self, seed):
        message = f"^seed must be >= 0, got {seed}$"
        with pytest.raises(ValueError, match=message):
            states.random_separable(2, 2, 2, seed)
        with pytest.raises(ValueError, match=message):
            states.random_separables(2, 2, 2, [3, seed])
        rho, ensemble = random_separable(2, 2, 2, 3)
        cert = models.model_from_separable(ensemble)
        with pytest.raises(ValueError, match=message):
            constructions.verify_spm_identity(rho, cert, 4, seed=seed)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.True_, "2", None])
    def test_refuses_non_integer_ensemble_size(self, k):
        message = f"^ensemble size k must be an integer, got {re.escape(repr(k))}$"
        with pytest.raises(ValueError, match=message):
            states.random_separables(2, 2, k, [1])
        with pytest.raises(ValueError, match=message):
            random_separable(2, 2, k, 1)

    @pytest.mark.parametrize("k", [0, -3, np.int64(0)])
    def test_refuses_ensemble_size_below_one(self, k):
        with pytest.raises(ValueError, match=f"^ensemble size must be >= 1, got {k}$"):
            states.random_separables(2, 2, k, [1])

    def test_numpy_integer_ensemble_size(self):
        rho, weights, *_ = states.random_separables(2, 2, np.int64(3), [1])
        assert np.array_equal(rho.mat, states.random_separables(2, 2, 3, [1])[0].mat)
        assert weights.shape == (1, 3)

    def test_numpy_and_large_integer_seeds(self):
        rho, *_ = states.random_separables(2, 3, 4, [np.int64(5), np.uint16(6), 10**40])
        ref, *_ = states.random_separables(2, 3, 4, [5, 6, 10**40])
        assert np.array_equal(rho.mat, ref.mat)

    def test_needs_a_seed(self):
        with pytest.raises(ValueError, match="^need at least one seed$"):
            states.random_separables(2, 2, 4, [])

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (0, 3), (-2, 2), (2.0, 2), (2, "3")])
    def test_refuses_dims_as_make_density_does(self, dims):
        with pytest.raises(ValueError) as expected:
            make_density(np.eye(4) / 4, *dims)
        for build in (
            lambda: states.random_separables(*dims, 2, [1]),
            lambda: random_separable(*dims, 2, 1),
        ):
            with pytest.raises(ValueError) as got:
                build()
            assert str(got.value) == str(expected.value)


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
            np.einsum("ix,iy->ixy", b, b.conj()) for b in random_bases(5, 3, rng)
        ])
        out = conditional_states(rho, pis)
        assert out.shape == (5, 3, 2, 2)
        for s in range(5):
            for a in range(3):
                big = np.kron(pis[s, a], np.eye(2)) @ rho.mat
                ref = linalg.partial_trace(big, 3, 2, keep="B")
                assert np.max(np.abs(out[s, a] - ref)) <= 1e-15

    def test_refuses_a_state_stack_by_name(self):
        rho = werner(np.array([0.2, 0.5, 0.9]))
        with pytest.raises(ValueError, match=r"^need one state, got a stack of shape \(3,\)$"):
            conditional_states(rho, np.diag([1, 0]).astype(complex))

    def test_refuses_projectors_of_another_dim(self):
        with pytest.raises(ValueError) as info:
            conditional_states(werner(0.5), np.eye(3, dtype=complex))
        assert str(info.value) == "projector shape (3, 3) does not match d_a=2"


class TestRandomSeparable:
    @pytest.mark.parametrize("dim", [2.5, 3.0, True])
    def test_random_pure_refuses_a_non_integer_dim_by_name(self, dim):
        with pytest.raises(ValueError, match=f"^dim must be an integer, got {dim!r}$"):
            states.random_pure(dim, np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [0, -2])
    def test_random_pure_refuses_a_dim_below_one_before_any_draw(self, dim):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^dim must be >= 1, got {dim}$"):
            states.random_pure(dim, rng)
        assert rng.bit_generator.state == before

    def test_single_member_is_product(self):
        rho, ensemble = random_separable(2, 2, 1, seed=3)
        assert len(ensemble) == 1
        pt = linalg.partial_transpose(rho.mat, 2, 2)
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_ppt(self, seed):
        rho, _ = random_separable(3, 2, 4, seed=seed)
        pt = linalg.partial_transpose(rho.mat, 3, 2)
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

    def test_rejects_re_and_im_of_other_shapes(self):
        with pytest.raises(ValueError) as info:
            state_from_json('{"dims": [2, 2], "re": [0.25, 0, 0, 0], "im": [0, 0, 0, 0]}')
        assert str(info.value) == "'re'/'im' must be equal-shape 2-D arrays, got (4,) and (4,)"

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            state_from_json('{"dims": [2], "re": [[1]], "im": [[0]]}')

    @pytest.mark.parametrize("case", ["ragged", "65-deep"])
    def test_rejects_ragged_and_deep_arrays_in_its_own_words(self, case):
        # numpy refuses both with its own wording, which differs between
        # numpy versions; the loader must name the fields instead.
        import json

        entries = [[1, 0], [0]]
        if case == "65-deep":
            entries = 0.0
            for _ in range(65):
                entries = [entries]
        payload = json.dumps({"dims": [2, 2], "re": entries, "im": entries})
        with pytest.raises(ValueError) as info:
            state_from_json(payload)
        assert str(info.value) == "'re'/'im' must be 2-D arrays of numbers"

    def test_non_finite_state_is_not_serialized(self):
        # DensityMatrix bypasses make_density here on purpose: whatever
        # slips past validation must not come out as non-standard JSON.
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 0] = np.nan
        with pytest.raises(ValueError, match="JSON compliant"):
            state_to_json(DensityMatrix(2, 2, mat))
