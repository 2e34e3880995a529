import math

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from steermap import constructions as cons
from steermap import mapping, states
from steermap.states import DensityMatrix
from steermap.mapping import INV_SQRT3
from steermap.measurements import (
    qubit_projectors,
    qudit_measurement,
    qudit_projectors,
    random_bases,
    random_basis,
    validate_projectors,
)
from steermap.models import (
    FiniteModel,
    born_probs,
    finite_model,
    model_from_separable,
    pauli_table,
)
from steermap.states import (
    PAULI_STACK,
    hidden_qubits,
    make_density,
    random_pure,
    random_separable,
)

HALF = np.eye(2, dtype=complex) / 2


def bloch_of(qubits):
    """Bloch vectors tr[sigma_k q] of an (..., 2, 2) qubit stack."""
    return np.einsum("kij,...ji->...k", PAULI_STACK, qubits).real


def separable_pair(d_a, d_b, k, seed, c, prime_side="bob"):
    """Random separable state, its model, and the biased prime model."""
    state, ensemble = random_separable(d_a, d_b, k, seed)
    model = model_from_separable(ensemble)
    if prime_side == "bob":
        prime = cons.bob_biased_prime_model(model, c)
    else:
        prime = cons.alice_biased_prime_model(model, c)
    return state, model, prime


def computational_settings(d, extra=0, seed=None):
    settings = [qudit_measurement(np.eye(d))]
    if extra:
        rng = np.random.default_rng(seed)
        settings += [qudit_measurement(random_basis(d, rng)) for _ in range(extra)]
    return settings


class TestMixedJointProb:
    """The mixed joint eta = mu P(a|s,xi) P(0|k,xi) + (1-mu) P'(a|s,xi) P'(0|k,xi).

    A hidden-state certificate encodes it as Alice's Born table at the
    settings times the Pauli table of Bob's hidden qubits.
    """

    @staticmethod
    def eta(cert, settings):
        pa = born_probs(validate_projectors(settings), cert.alice)[..., None]
        return pa * pauli_table(cert, "bob")

    def test_endpoint_mixtures(self):
        _, model, prime = separable_pair(2, 2, 3, seed=1, c=0.3)
        settings = computational_settings(2, extra=2, seed=10)
        pa = born_probs(validate_projectors(settings), model.alice)[..., None]
        full = self.eta(cons.lhs_certificate(model, prime, 1.0, settings), settings)
        assert np.max(np.abs(full - pa * pauli_table(model, "bob"))) <= 1e-15
        none = self.eta(cons.lhs_certificate(model, prime, 0.0, settings), settings)
        assert np.max(np.abs(none - pa * prime.bob)) <= 1e-15
        assert np.all(prime.bob == [0.5, 0.5, 0.65])

    def test_shared_alice_cancellation(self):
        # With the partner reusing Alice's responses, eta factors into
        # P(a|s,xi) times the mixture of Bob's responses alone.
        _, model, prime = separable_pair(3, 2, 4, seed=2, c=0.25)
        settings = computational_settings(3, extra=2, seed=20)
        mu = 0.4
        cert = cons.lhs_certificate(model, prime, mu, settings)
        pa = born_probs(validate_projectors(settings), model.alice)[..., None]
        eta = mu * pa * pauli_table(model, "bob") + (1 - mu) * pa * prime.bob
        expected = mu * pauli_table(model, "bob") + (1 - mu) * prime.bob
        assert cert.bob.shape == (4, 2, 2)
        assert np.max(np.abs(pauli_table(cert, "bob") - expected)) <= 1e-13
        assert np.max(np.abs(self.eta(cert, settings) - eta)) <= 1e-13

    def test_weight_mismatch(self):
        _, model, _ = separable_pair(2, 2, 2, seed=3, c=0.0)
        _, other, _ = separable_pair(2, 2, 3, seed=3, c=0.0)
        with pytest.raises(ValueError, match="ensemble size"):
            cons.lhs_certificate(model, other, 0.5, computational_settings(2))


class TestLhsCertificate:
    def test_full_visibility_recovers_bob_bloch(self):
        # mu=1 with the state as its own partner: the hidden state is
        # Bob's quantum response itself.
        _, ensemble = random_separable(2, 2, 3, seed=5)
        model = model_from_separable(ensemble)
        settings = computational_settings(2)
        cert = cons.lhs_certificate(model, model, 1.0, settings)
        for xi, (_, _, beta) in enumerate(ensemble):
            expected = np.einsum("kij,ji->k", PAULI_STACK, beta).real
            assert np.allclose(bloch_of(cert.bob[xi]), expected, atol=1e-12)

    def test_biased_family_matches_affine_formula(self):
        mu, c = 0.45, 0.3
        _, model, prime = separable_pair(3, 2, 4, seed=6, c=c)
        settings = computational_settings(3)
        cert = cons.lhs_certificate(model, prime, mu, settings)
        for xi in range(model.n_hidden):
            probs = pauli_table(model, "bob")[xi]
            expected = np.array(mapping.hidden_bloch_vector(*probs, mu, c))
            assert np.allclose(bloch_of(cert.bob[xi]), expected, atol=1e-13)

    def test_alice_setting_independence(self):
        # The biased family's hidden state must not depend on which
        # Alice setting or outcome produced it: one vector per hidden
        # value, whatever settings the certificate was built for.
        _, model, prime = separable_pair(3, 2, 4, seed=7, c=0.2)
        settings = computational_settings(3, extra=6, seed=70)
        cert = cons.lhs_certificate(model, prime, 0.5, settings)
        alone = cons.lhs_certificate(model, prime, 0.5, settings[-1:])
        assert cert.bob.shape == (model.n_hidden, 2, 2)
        assert np.array_equal(cert.alice, model.alice)
        assert np.array_equal(cert.bob, alone.bob)

    def test_all_physical_at_saturation_point(self):
        _, model, prime = separable_pair(3, 2, 4, seed=8, c=0.0)
        settings = computational_settings(3, extra=4, seed=80)
        cert = cons.lhs_certificate(model, prime, INV_SQRT3, settings)
        bloch = bloch_of(cert.bob)
        norms = np.einsum("xk,xk->x", bloch, bloch)
        assert norms.max() <= 1.0 + 1e-12

    def test_response_normalization(self):
        _, model, prime = separable_pair(2, 2, 3, seed=9, c=0.4)
        settings = computational_settings(2, extra=5, seed=90)
        cert = cons.lhs_certificate(model, prime, 0.3, settings)
        sums = born_probs(validate_projectors(settings), cert.alice).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        traces = np.trace(cert.bob, axis1=-2, axis2=-1)
        assert np.max(np.abs(traces - 1.0)) <= 1e-12

    def test_unphysical_raises_with_context(self):
        mu = 0.5
        c = mapping.analytic_c_max(mu) + 0.05
        base = cons.vertex_witness_model(2)
        prime = cons.bob_biased_prime_model(base, c)
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.lhs_certificate(base, prime, mu, computational_settings(2))
        assert info.value.norm_sq > 1.0
        assert info.value.xi == 0

    def test_weight_mismatch(self):
        _, model, _ = separable_pair(2, 2, 2, seed=11, c=0.0)
        reweighted = finite_model([0.9, 0.1], model.alice, model.bob)
        with pytest.raises(ValueError, match="weights"):
            cons.lhs_certificate(model, reweighted, 0.5, computational_settings(2))

    def test_unphysical_reports_first_entry_in_loop_order(self):
        # Two unphysical hidden values, xi=0 and xi=1, at different Alice
        # outcomes.  The hidden qubit depends on the hidden value alone, so
        # the error names xi=0 and its squared norm, and nothing else.
        alice = np.stack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]).astype(complex)
        base = finite_model([0.5, 0.5], alice, np.ones((2, 3)))
        mu = 0.5
        prime = cons.bob_biased_prime_model(base, mapping.analytic_c_max(mu) + 0.05)
        settings = computational_settings(2) * 2
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.lhs_certificate(base, prime, mu, settings)
        err = info.value
        assert vars(err) == {"xi": 0, "norm_sq": err.norm_sq}
        assert err.norm_sq > 1.0
        assert str(err) == f"hidden state unphysical at xi=0: |r|^2 = {err.norm_sq:.12g} > 1"


class TestStackedCertificates:
    """The stacked kernels against per-trial calls of the public builders."""

    def test_lhs_unphysical_error_is_the_trial_loops(self):
        # Trial 0 is feasible, trials 1 and 2 are not, with offenders at
        # different hidden values: the stack must raise what the first
        # failing trial raises alone.
        det = np.ones((2, 3))
        alices = [
            np.stack([HALF, HALF]),
            np.stack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]).astype(complex),
            np.stack([HALF, HALF]),
        ]
        mu = 0.5
        cs = [0.3, mapping.analytic_c_max(mu) + 0.05, 0.9]
        settings = computational_settings(2) * 2
        stack = validate_projectors(settings)
        arrays, first_error = [], None
        for alice, c in zip(alices, cs):
            base = finite_model([0.5, 0.5], alice, det)
            prime = cons.bob_biased_prime_model(base, c)
            try:
                cons.lhs_certificate(base, prime, mu, settings)
            except cons.UnphysicalHiddenStateError as exc:
                first_error = first_error or exc
            arrays.append((born_probs(stack, base.alice), base.bob))
        pa = np.stack([a for a, _ in arrays])
        pb = np.stack([b for _, b in arrays])
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.hidden_bloch(np.full(3, mu), pb, mapping.biased_probs(np.array(cs)))
        assert str(info.value) == str(first_error)
        bloch = cons.hidden_bloch(np.full(1, mu), pb[:1], mapping.biased_probs(np.array(cs[:1])))
        base = finite_model([0.5, 0.5], alices[0], det)
        cert = cons.lhs_certificate(base, cons.bob_biased_prime_model(base, cs[0]), mu, settings)
        assert np.array_equal(pa[0], born_probs(stack, cert.alice))
        assert np.array_equal(hidden_qubits(bloch[0]), cert.bob)

    @pytest.mark.parametrize("table", [False, True], ids=["qubits", "pauli-table"])
    def test_core_stack_equals_each_trial(self, table):
        # Three hidden values: a stacked (T, 3, 3) Pauli table has the shape
        # of three qutrit states, and must still be read as a table.
        mus, cs, seeds = np.array([0.1, 0.3, 0.5]), np.array([0.8, 0.5, 0.1]), [51, 52, 53]
        bases = random_bases(3 * 4, 3, np.random.default_rng(54))
        settings = qudit_projectors(bases).reshape(3, 4, 3, 3, 3)
        tau, weights, alphas, betas = states.random_separables(3, 2, 3, seeds)
        rho, weights_n, alphas_n, betas_n = states.random_separables(2, 3, 3, seeds)
        if table:
            betas = pauli_table(FiniteModel(weights, alphas, betas), "bob")
            alphas_n = pauli_table(FiniteModel(weights_n, alphas_n, betas_n), "alice")
            assert betas.shape == alphas_n.shape == (3, 3, 3)
        model_m = FiniteModel(weights, alphas, betas)
        model_n = FiniteModel(weights_n, alphas_n, betas_n)
        partner = mapping.biased_probs(cs)
        assert partner.shape == (3, 1, 3)
        lhs = cons.certificate(model_m, mus, "B", partner)
        spm = cons.certificate(model_n, mus, "A", partner)
        assert lhs.bob.shape == spm.alice.shape == (3, 3, 2, 2)
        for t in range(3):
            single_m = finite_model(weights[t], alphas[t], betas[t])
            single_n = finite_model(weights_n[t], alphas_n[t], betas_n[t])
            cert_m = cons.lhs_certificate(
                single_m, cons.bob_biased_prime_model(single_m, cs[t]), mus[t], settings[t]
            )
            cert_n = cons.spm_certificate(
                single_n, cons.alice_biased_prime_model(single_n, cs[t]), mus[t]
            )
            for stacked, single in ((lhs, cert_m), (spm, cert_n)):
                for party in ("weights", "alice", "bob"):
                    assert np.array_equal(getattr(stacked, party)[t], getattr(single, party))

    def test_core_refuses_an_unknown_side(self):
        _, model, _ = separable_pair(2, 2, 2, seed=55, c=0.2)
        with pytest.raises(ValueError, match=r"^side must be 'A' or 'B', got 'M'$"):
            cons.certificate(model, 0.4, "M", mapping.biased_probs(0.2))

    @pytest.mark.parametrize("side", ["B", "A"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
    def test_core_with_biased_row_equals_two_model_builders(self, side, stacked):
        # The (..., 1, 3) row of biased_probs gives, bit for bit, the
        # certificate that the biased prime model gives the two-model builders.
        dims = (3, 2) if side == "B" else (2, 3)
        seeds = [61, 62, 63] if stacked else [61]
        _, *arrays = states.random_separables(*dims, 4, seeds)
        if not stacked:
            arrays = [a[0] for a in arrays]
        model = FiniteModel(*arrays)
        mu, c = (np.array([0.1, 0.3, 0.5]), np.array([0.8, 0.5, 0.1])) if stacked else (0.3, 0.5)
        partner = mapping.biased_probs(c)
        core = cons.certificate(model, mu, side, partner)
        if side == "B":
            settings = computational_settings(3)
            want = cons.lhs_certificate(model, cons.bob_biased_prime_model(model, c), mu, settings)
        else:
            want = cons.spm_certificate(model, cons.alice_biased_prime_model(model, c), mu)
        for party in ("weights", "alice", "bob"):
            assert np.array_equal(getattr(core, party), getattr(want, party))

    def test_spm_unphysical_names_first_trial(self):
        # Trial 1 is unphysical at xi = 1, trial 2 at xi = 0.
        p0 = np.stack([np.full((2, 3), 0.5), np.full((2, 3), 0.5), np.zeros((2, 3))])
        p0[1, 1] = 1.0
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.hidden_bloch(np.ones(3), p0, mapping.biased_probs(np.zeros(3)))
        assert (info.value.xi, info.value.norm_sq) == (1, 3.0)

    @pytest.mark.parametrize("side", ["B", "A"])
    def test_nan_partner_is_unphysical(self, side):
        # NaN fails every comparison, so the Bloch-ball test must be
        # written as "not inside" to refuse it.
        _, model, _ = separable_pair(2, 2, 2, seed=56, c=0.2)
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.certificate(model, 0.3, side, np.full((1, 3), np.nan))
        assert info.value.xi == 0
        assert str(info.value) == "hidden state unphysical at xi=0: |r|^2 = nan > 1"

    def test_nan_in_the_base_table_is_unphysical(self):
        with pytest.raises(cons.UnphysicalHiddenStateError, match=r"xi=0: .*= nan > 1$"):
            cons.hidden_bloch(0.3, np.full((2, 3), np.nan), mapping.biased_probs(0.1))
        # Stacked: trial 0 is physical, trial 1 is NaN at xi = 2 only.
        p0 = np.full((2, 3, 3), 0.5)
        p0[1, 2, 0] = np.nan
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.hidden_bloch(np.full(2, 0.3), p0, mapping.biased_probs(np.full(2, 0.1)))
        assert info.value.xi == 2 and math.isnan(info.value.norm_sq)


class TestRoundingLevelResponses:
    @pytest.mark.parametrize("side", ["B", "A"])
    def test_negative_within_psd_tol_certifies(self, side):
        # finite_model accepts a qubit response with eigenvalue -5e-11, so
        # its Pauli-z probability 1 + 5e-11 must reach the Bloch-ball test.
        qubit = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        qutrit = np.eye(3, dtype=complex) / 3
        mu, c = 0.3, 0.2
        if side == "B":
            model = finite_model([1.0], qutrit[None], qubit[None])
            cert = cons.lhs_certificate(
                model, cons.bob_biased_prime_model(model, c), mu, computational_settings(3)
            )
            tau = make_density(np.kron(qutrit, qubit), 3, 2)
        else:
            model = finite_model([1.0], qubit[None], qutrit[None])
            cert = cons.spm_certificate(model, cons.alice_biased_prime_model(model, c), mu)
            tau = make_density(np.kron(qubit, qutrit), 2, 3)
        rho = mapping.mix(tau, mapping.biased_partner(tau, c, side), mu)
        assert cons.verify_model_identities(rho, cert) <= 1e-12


class TestVerifyLhsIdentity:
    def test_product_state(self):
        for mu, c in [(0.2, 0.5), (INV_SQRT3, 0.0), (0.5, 0.41)]:
            tau, model, prime = separable_pair(2, 2, 1, seed=13, c=c)
            settings = computational_settings(2, extra=10, seed=130)
            cert = cons.lhs_certificate(model, prime, mu, settings)
            rho = mapping.map_m(tau, mapping.bob_biased_partner(tau, c), mu)
            assert cons.verify_lhs_identity(rho, cert, settings) <= 1e-12

    def test_four_member_ensemble(self):
        mu, c = 0.5, 0.4
        tau, model, prime = separable_pair(3, 2, 4, seed=14, c=c)
        settings = computational_settings(3, extra=19, seed=140)
        cert = cons.lhs_certificate(model, prime, mu, settings)
        rho = mapping.map_m(tau, mapping.bob_biased_partner(tau, c), mu)
        assert cons.verify_lhs_identity(rho, cert, settings) <= 1e-10

    def test_degenerate_mixture(self):
        tau, model, _ = separable_pair(2, 2, 3, seed=15, c=0.0)
        settings = computational_settings(2, extra=5, seed=150)
        cert = cons.lhs_certificate(model, model, 1.0, settings)
        assert cons.verify_lhs_identity(tau, cert, settings) <= 1e-12

    def test_setting_count_need_not_match(self):
        # The certificate holds for every Alice measurement: one built at
        # one setting verifies at any number of them.
        tau, model, prime = separable_pair(2, 2, 2, seed=16, c=0.0)
        cert = cons.lhs_certificate(model, prime, 0.5, computational_settings(2))
        rho = mapping.map_m(tau, mapping.bob_biased_partner(tau, 0.0), 0.5)
        for extra in (1, 19):
            settings = computational_settings(2, extra=extra, seed=160)
            assert cons.verify_lhs_identity(rho, cert, settings) <= 1e-12

    def test_refuses_a_state_stack_by_name(self):
        _, model, prime = separable_pair(2, 2, 2, seed=16, c=0.0)
        settings = computational_settings(2)
        cert = cons.lhs_certificate(model, prime, 0.5, settings)
        with pytest.raises(ValueError, match=r"^need one state, got a stack of shape \(2,\)$"):
            cons.verify_lhs_identity(states.werner(np.array([0.1, 0.4])), cert, settings)

    def test_refuses_a_state_without_a_qubit_bob(self):
        _, model, prime = separable_pair(2, 2, 2, seed=16, c=0.0)
        settings = computational_settings(2)
        cert = cons.lhs_certificate(model, prime, 0.5, settings)
        qutrit_bob, _ = random_separable(2, 3, 2, seed=17)
        with pytest.raises(ValueError) as info:
            cons.verify_lhs_identity(qutrit_bob, cert, settings)
        assert str(info.value) == "certificate targets a qubit on Bob's side, got 3"


class TestSpmCertificate:
    def test_full_visibility(self):
        _, ensemble = random_separable(2, 3, 3, seed=17)
        model = model_from_separable(ensemble)
        cert = cons.spm_certificate(model, model, 1.0)
        for xi, (_, alpha, _) in enumerate(ensemble):
            expected = np.einsum("kij,ji->k", PAULI_STACK, alpha).real
            assert np.allclose(bloch_of(cert.alice[xi]), expected, atol=1e-12)

    def test_biased_family_matches_affine_formula(self):
        mu, c = 0.4, 0.35
        _, model, prime = separable_pair(2, 3, 4, seed=18, c=c, prime_side="alice")
        cert = cons.spm_certificate(model, prime, mu)
        for xi in range(model.n_hidden):
            probs = pauli_table(model, "alice")[xi]
            expected = np.array(mapping.hidden_bloch_vector(*probs, mu, c))
            assert np.allclose(bloch_of(cert.alice[xi]), expected, atol=1e-13)

    def test_unbiased_responses_collapse_to_origin(self):
        model = finite_model([1.0], np.full((1, 3), 0.5), HALF[None])
        cert = cons.spm_certificate(model, cons.alice_biased_prime_model(model, 0.0), 0.7)
        assert np.allclose(bloch_of(cert.alice), 0.0, atol=1e-15)

    def test_bob_mismatch(self):
        _, model, _ = separable_pair(2, 2, 2, seed=19, c=0.0)
        _, other, _ = separable_pair(2, 2, 2, seed=20, c=0.0)
        mixed = finite_model(model.weights, model.alice, other.bob)
        with pytest.raises(ValueError, match="bob responses differ"):
            cons.spm_certificate(model, mixed, 0.5)

    def test_unphysical_names_hidden_index(self):
        mu = 0.5
        c = mapping.analytic_c_max(mu) + 0.05
        model = finite_model([1.0], np.ones((1, 3)), HALF[None])
        prime = cons.alice_biased_prime_model(model, c)
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.spm_certificate(model, prime, mu)
        assert info.value.xi == 0


class TestVerifySpmIdentity:
    def test_product_state(self):
        for mu, c in [(0.3, 0.4), (INV_SQRT3, 0.0)]:
            rho, model, prime = separable_pair(2, 2, 1, seed=22, c=c, prime_side="alice")
            cert = cons.spm_certificate(model, prime, mu)
            sigma = mapping.map_n(rho, mapping.alice_biased_partner(rho, c), mu)
            assert cons.verify_spm_identity(sigma, cert, 20, seed=220) <= 1e-12

    def test_four_member_qutrit(self):
        mu, c = INV_SQRT3, 0.0
        rho, model, prime = separable_pair(2, 3, 4, seed=23, c=c, prime_side="alice")
        cert = cons.spm_certificate(model, prime, mu)
        sigma = mapping.map_n(rho, mapping.alice_biased_partner(rho, c), mu)
        assert cons.verify_spm_identity(sigma, cert, 50, seed=230) <= 1e-10

    def test_degenerate_mixture(self):
        rho, model, _ = separable_pair(2, 2, 3, seed=24, c=0.0)
        cert = cons.spm_certificate(model, model, 1.0)
        assert cons.verify_spm_identity(rho, cert, 20, seed=240) <= 1e-12

    @pytest.mark.parametrize("seed", [3.7, np.float64(3.0), True, np.True_])
    def test_refuses_float_and_bool_seeds(self, seed):
        rho, model, _ = separable_pair(2, 2, 3, seed=24, c=0.0)
        cert = cons.spm_certificate(model, model, 1.0)
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            cons.verify_spm_identity(rho, cert, 5, seed=seed)

    def test_numpy_and_large_integer_seeds(self):
        rho, model, _ = separable_pair(2, 3, 3, seed=24, c=0.0)
        cert = cons.spm_certificate(model, model, 1.0)
        residual = cons.verify_spm_identity(rho, cert, 20, seed=3)
        assert cons.verify_spm_identity(rho, cert, 20, seed=np.int64(3)) == residual
        assert cons.verify_spm_identity(rho, cert, 20, seed=np.uint8(3)) == residual
        assert cons.verify_spm_identity(rho, cert, 20, seed=10**40) <= 1e-12

    def test_refuses_a_state_without_a_qubit_alice(self):
        _, model, _ = separable_pair(2, 2, 1, seed=24, c=0.0)
        cert = cons.spm_certificate(model, model, 1.0)
        qutrit_alice, _ = random_separable(3, 2, 2, seed=25)
        with pytest.raises(ValueError) as info:
            cons.verify_spm_identity(qutrit_alice, cert, 5, seed=1)
        assert str(info.value) == "certificate targets a qubit on Alice's side, got 3"

    def test_needs_a_sample(self):
        rho, model, _ = separable_pair(2, 2, 1, seed=24, c=0.0)
        cert = cons.spm_certificate(model, model, 1.0)
        with pytest.raises(ValueError, match="at least one"):
            cons.verify_spm_identity(rho, cert, 0, seed=1)

    @pytest.mark.parametrize("n", [2.5, 5.0, True, "5"])
    def test_refuses_a_non_integer_sample_count(self, n):
        # numpy's own TypeError, or a bool read as one sample, before the check.
        rho, model, _ = separable_pair(2, 2, 1, seed=24, c=0.0)
        cert = cons.spm_certificate(model, model, 1.0)
        with pytest.raises(ValueError, match=rf"^n_samples must be an integer, got {n!r}$"):
            cons.verify_spm_identity(rho, cert, n, 0)
        assert cons.verify_spm_identity(rho, cert, np.int64(5), 0) <= 1e-12

    def test_refuses_a_stack_and_a_seed_list(self, monkeypatch):
        # The steered-state kernel refuses the stack; the seed list is
        # refused before any measurement is drawn.
        rho, weights, alphas, betas = states.random_separables(2, 3, 4, [31, 32, 33])
        with pytest.raises(ValueError, match=r"^need one state, got a stack of shape \(3,\)$"):
            cons.verify_spm_identity(rho, FiniteModel(weights, alphas, betas), 5, seed=7)
        monkeypatch.setattr(cons, "random_bases", lambda *args: pytest.fail("drew measurements"))
        single = DensityMatrix(2, 3, rho.mat[0])
        cert = FiniteModel(weights[0], alphas[0], betas[0])
        with pytest.raises(ValueError, match=r"^seed must be an integer, got \[7, 8\]$"):
            cons.verify_spm_identity(single, cert, 5, seed=[7, 8])


def spm_residual_reference(sigma, cert, n_samples, seed):
    """verify_spm_identity as a per-pair loop with an explicit Kronecker trace.

    Draws the same measurements in the same order: the n qubit
    directions for Alice, then one orthonormal basis per sample for Bob.
    """
    rng = np.random.default_rng(seed)
    directions = [rng.standard_normal(3) for _ in range(n_samples)]
    worst = 0.0
    for v in directions:
        m_a = qubit_projectors((v / math.sqrt(v @ v))[None])[0]
        m_b = qudit_measurement(random_basis(sigma.d_b, rng))
        for a in range(2):
            for b in range(sigma.d_b):
                rhs = sum(
                    w * np.trace(m_a[a] @ alpha).real * np.trace(m_b[b] @ beta).real
                    for w, alpha, beta in zip(cert.weights, cert.alice, cert.bob)
                )
                lhs = np.trace(np.kron(m_a[a], m_b[b]) @ sigma.mat).real
                worst = max(worst, abs(lhs - rhs))
    return worst


def lhs_residual_reference(rho, cert, settings):
    """verify_lhs_identity as a loop over tr_A[(pi x 1) rho], Kronecker product explicit."""
    worst = 0.0
    for setting in settings:
        for pi in setting:
            rhs = sum(
                np.trace(pi @ alpha).real * w * beta
                for w, alpha, beta in zip(cert.weights, cert.alice, cert.bob)
            )
            full = (np.kron(pi, np.eye(2)) @ rho.mat).reshape(rho.d_a, 2, rho.d_a, 2)
            lhs = np.einsum("ibic->bc", full)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


class TestBatchedVerifiersMatchLoops:
    """The batched identities against the per-pair loops they replaced.

    Each case runs twice: on the state the certificate was built for
    (residual at rounding level) and on a state mixed at another
    visibility (residual of order 1e-2), so the comparison also covers
    the contraction itself, not only two near-zero numbers.
    """

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_spm(self, d_b):
        mu, c = 0.45, 0.2
        for seed in range(3):
            rho, model, prime = separable_pair(
                2, d_b, 4, seed=70 + seed, c=c, prime_side="alice"
            )
            cert = cons.spm_certificate(model, prime, mu)
            partner = mapping.alice_biased_partner(rho, c)
            for vis in (mu, 0.2):
                sigma = mapping.map_n(rho, partner, vis)
                got = cons.verify_spm_identity(sigma, cert, 25, seed=700 + seed)
                ref = spm_residual_reference(sigma, cert, 25, seed=700 + seed)
                assert abs(got - ref) <= 1e-14
                assert (ref > 1e-3) == (vis != mu)

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    def test_lhs(self, d_a):
        mu, c = 0.45, 0.2
        for seed in range(3):
            tau, model, prime = separable_pair(d_a, 2, 4, seed=80 + seed, c=c)
            settings = computational_settings(d_a, extra=9, seed=800 + seed)
            cert = cons.lhs_certificate(model, prime, mu, settings)
            partner = mapping.bob_biased_partner(tau, c)
            for vis in (mu, 0.2):
                rho = mapping.map_m(tau, partner, vis)
                got = cons.verify_lhs_identity(rho, cert, settings)
                ref = lhs_residual_reference(rho, cert, settings)
                assert abs(got - ref) <= 1e-14
                assert (ref > 1e-3) == (vis != mu)


class TestResidualProperty:
    """Certificate residuals stay at rounding level on random instances."""

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
        mu_frac=st.floats(0.0, 1.0),
        c_frac=st.floats(0.0, 1.0),
    )
    def test_lhs(self, dim, seed, mu_frac, c_frac):
        mu = mu_frac * INV_SQRT3
        c = c_frac * mapping.analytic_c_max(mu)
        tau, model, prime = separable_pair(dim, 2, 4, seed=seed, c=c)
        settings = computational_settings(dim, extra=5, seed=seed)
        cert = cons.lhs_certificate(model, prime, mu, settings)
        rho = mapping.map_m(tau, mapping.bob_biased_partner(tau, c), mu)
        assert cons.verify_lhs_identity(rho, cert, settings) <= 1e-10

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
        mu_frac=st.floats(0.0, 1.0),
        c_frac=st.floats(0.0, 1.0),
    )
    def test_spm(self, dim, seed, mu_frac, c_frac):
        mu = mu_frac * INV_SQRT3
        c = c_frac * mapping.analytic_c_max(mu)
        rho, model, prime = separable_pair(2, dim, 4, seed=seed, c=c, prime_side="alice")
        cert = cons.spm_certificate(model, prime, mu)
        sigma = mapping.map_n(rho, mapping.alice_biased_partner(rho, c), mu)
        assert cons.verify_spm_identity(sigma, cert, 20, seed=seed) <= 1e-10


class TestGeneralModelPairs:
    """Construction identities beyond the biased-partner family."""

    def test_lhs_with_independent_partner_model(self):
        # Partner with its own Alice responses and maximally mixed Bob
        # responses: a hidden state built from such a pair would depend
        # on Alice's setting and outcome, so it is no LHS model and the
        # builder refuses the pair.
        rng = np.random.default_rng(60)
        _, ensemble = random_separable(3, 2, 4, seed=61)
        model = model_from_separable(ensemble)
        prime_alice = np.stack([random_pure(3, rng) for _ in range(4)])
        prime = finite_model(model.weights, prime_alice, np.stack([HALF] * 4))
        settings = computational_settings(3, extra=8, seed=62)
        for mu in (0.15, 0.5, 0.9):
            with pytest.raises(ValueError, match=r"^alice responses differ \(max dev "):
                cons.lhs_certificate(model, prime, mu, settings)

    def test_spm_with_independent_alice_responses(self):
        # Same Bob ensemble, fresh Alice qubits on the partner side: the
        # mixture of two Bloch vectors stays in the ball, so the
        # separable construction applies at every visibility.
        rng = np.random.default_rng(63)
        rho, ensemble = random_separable(2, 3, 4, seed=64)
        model = model_from_separable(ensemble)
        prime_alice = np.stack([random_pure(2, rng) for _ in range(4)])
        prime = finite_model(model.weights, prime_alice, model.bob)
        rho_prime_mat = sum(
            w * np.kron(alpha, beta) for (w, _, beta), alpha in zip(ensemble, prime_alice)
        )
        rho_prime = make_density(rho_prime_mat, 2, 3)
        for mu in (0.2, 0.6, 1.0):
            cert = cons.spm_certificate(model, prime, mu)
            sigma = mapping.map_n(rho, rho_prime, mu)
            assert cons.verify_spm_identity(sigma, cert, 30, seed=65) <= 1e-12

    def test_verifier_rejects_wrong_state(self):
        # Negative control: a certificate built at one visibility must
        # not reproduce the state mixed at another.
        tau, model, prime = separable_pair(2, 2, 4, seed=66, c=0.2)
        settings = computational_settings(2, extra=5, seed=67)
        cert = cons.lhs_certificate(model, prime, 0.5, settings)
        wrong = mapping.map_m(tau, mapping.bob_biased_partner(tau, 0.2), 0.25)
        assert cons.verify_lhs_identity(wrong, cert, settings) > 1e-3

    def test_spm_verifier_rejects_wrong_state(self):
        rho, model, prime = separable_pair(2, 3, 4, seed=68, c=0.1, prime_side="alice")
        cert = cons.spm_certificate(model, prime, 0.5)
        wrong = mapping.map_n(rho, mapping.alice_biased_partner(rho, 0.1), 0.2)
        assert cons.verify_spm_identity(wrong, cert, 20, seed=69) > 1e-3


class TestOperatorIdentity:
    """Both certificates are models of the mixed state itself, not only of its statistics.

    Map M: sum_xi w_xi alpha_xi (x) h_xi, with Alice's shared responses
    and the certificate's hidden qubits; map N: sum_xi w_xi a_xi (x)
    beta_xi, with the hidden qubits on Alice's side.  verify_model_identities
    is checked against an explicit Kronecker sum.
    """

    @staticmethod
    def reference(state, cert):
        ensemble = sum(w * np.kron(a, b) for w, a, b in zip(cert.weights, cert.alice, cert.bob))
        return np.max(np.abs(ensemble - state.mat))

    @staticmethod
    def certified(dim, seed, mu, c, vis):
        """Both maps' (mixed state at visibility vis, certificate at mu) for one seed."""
        tau, model, prime = separable_pair(dim, 2, 4, seed=seed, c=c)
        cert_m = cons.lhs_certificate(model, prime, mu, computational_settings(dim))
        rho = mapping.map_m(tau, mapping.bob_biased_partner(tau, c), vis)
        rho_n, model, prime = separable_pair(2, dim, 4, seed=seed, c=c, prime_side="alice")
        cert_n = cons.spm_certificate(model, prime, mu)
        sigma = mapping.map_n(rho_n, mapping.alice_biased_partner(rho_n, c), vis)
        return [(rho, cert_m), (sigma, cert_n)]

    @staticmethod
    def params(dim):
        rng = np.random.default_rng(90 + dim)
        for trial in range(5):
            mu = float(rng.uniform(0.0, INV_SQRT3))
            c = float(rng.uniform(0.0, 1.0)) * mapping.analytic_c_max(mu)
            yield 100 * dim + trial, mu, c

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_both_maps(self, dim):
        for seed, mu, c in self.params(dim):
            for state, cert in self.certified(dim, seed, mu, c, mu):
                got = cons.verify_model_identities(state, cert)
                assert got <= 1e-12
                assert self.reference(state, cert) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_wrong_visibility_is_rejected(self, dim):
        # Negative control: the state mixed at half the visibility is not
        # the certificate's, and the residual is the reference's.
        for seed, mu, c in self.params(dim):
            for state, cert in self.certified(dim, seed, mu, c, mu / 2):
                got = cons.verify_model_identities(state, cert)
                assert got > 1e-3
                assert abs(got - self.reference(state, cert)) <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stacked_call_equals_each_trial(self, dim):
        # At half the visibility, so that the compared residuals are not rounding noise.
        trials = [self.certified(dim, seed, mu, c, mu / 2) for seed, mu, c in self.params(dim)]
        for per_map in zip(*trials):  # map M's five trials, then map N's
            mixed = [state for state, _ in per_map]
            certs = [cert for _, cert in per_map]
            stack = DensityMatrix(mixed[0].d_a, mixed[0].d_b, np.stack([m.mat for m in mixed]))
            fields = ("weights", "alice", "bob")
            arrays = [np.stack([getattr(c, f) for c in certs]) for f in fields]
            got = cons.verify_model_identities(stack, FiniteModel(*arrays))
            each = [cons.verify_model_identities(m, c) for m, c in zip(mixed, certs)]
            assert got.shape == (5,)
            assert np.array_equal(got, each)

    def test_needs_quantum_parties_of_the_state_dims(self):
        (rho, cert), _ = self.certified(3, 7, 0.3, 0.2, 0.3)
        table_bob = FiniteModel(cert.weights, cert.alice, np.ones((4, 3)))
        with pytest.raises(ValueError, match="operator identity needs quantum 3- and 2-dim"):
            cons.verify_model_identities(rho, table_bob)
        with pytest.raises(ValueError, match="operator identity needs quantum"):
            cons.verify_model_identities(rho, FiniteModel(cert.weights, cert.bob, cert.alice))

    def test_stacked_pauli_table_of_the_state_dim_is_refused(self):
        # A (T, Xi, 3) table with Xi = 3 has the shape of T stacks of qutrit
        # states; the kind is its rank relative to the weights', not its shape.
        tau, weights, _, betas = states.random_separables(3, 2, 3, range(4))
        model = FiniteModel(weights, np.full((4, 3, 3), 0.5), betas)
        message = r"^operator identity needs quantum 3- and 2-dim .* got shapes \(4, 3, 3\) and"
        with pytest.raises(ValueError, match=message):
            cons.verify_model_identities(tau, model)


class TestFeasibilityPhysicalityLink:
    def test_feasible_params_never_raise(self):
        rng = np.random.default_rng(25)
        settings = computational_settings(2, extra=3, seed=250)
        for trial in range(20):
            mu = float(rng.uniform(0, INV_SQRT3))
            c = float(rng.uniform(0, 1)) * mapping.analytic_c_max(mu)
            _, model, prime = separable_pair(2, 2, 3, seed=300 + trial, c=c)
            cons.lhs_certificate(model, prime, mu, settings)  # must not raise

    def test_infeasible_params_always_detected(self):
        settings = computational_settings(2)
        for mu in np.linspace(0.25, INV_SQRT3, 12):
            c = mapping.analytic_c_max(float(mu)) + 1e-6
            if c > 1.0:
                continue
            base = cons.vertex_witness_model(2)
            prime = cons.bob_biased_prime_model(base, c)
            with pytest.raises(cons.UnphysicalHiddenStateError):
                cons.lhs_certificate(base, prime, float(mu), settings)


class TestUnitIntervalCheck:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_mu_and_c_rejected(self, bad):
        _, model, prime = separable_pair(2, 2, 2, seed=5, c=0.3)
        _, model_n, prime_n = separable_pair(2, 2, 2, seed=6, c=0.3, prime_side="alice")
        cases = [
            ("mu", lambda: cons.lhs_certificate(model, prime, bad, computational_settings(2))),
            ("mu", lambda: cons.spm_certificate(model_n, prime_n, bad)),
            ("c", lambda: cons.bob_biased_prime_model(model, bad)),
            ("c", lambda: cons.alice_biased_prime_model(model, bad)),
        ]
        for name, call in cases:
            with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got {bad}$"):
                call()


def _bad_settings(kind):
    """Alice settings for a qubit that validate_projectors must refuse."""
    good = computational_settings(2, extra=1, seed=5)
    if kind == "non-idempotent":
        return np.stack(good) * 0.5
    if kind == "not summing to identity":
        stack = np.array(np.stack(good))
        stack[1, 1] = 0.0
        return stack
    if kind == "ragged":
        return good + [qudit_measurement(np.eye(3))]
    if kind == "non-numeric":
        stack = np.stack(good).astype(object)
        stack[1, 0, 1, 1] = "a"
        return stack
    return good[0]  # one (k, d, d) measurement, not a stack of them


class TestSettingsBoundary:
    """Certificate builders and verifiers check Alice's settings once, as validate_projectors does."""

    KINDS = ["non-idempotent", "not summing to identity", "ragged", "non-numeric", "wrong dimension"]

    @staticmethod
    def message(call):
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejected_with_validate_projectors_message(self, kind):
        tau, model, prime = separable_pair(2, 2, 2, seed=40, c=0.2)
        good = computational_settings(2, extra=1, seed=5)
        cert = cons.lhs_certificate(model, prime, 0.4, good)
        bad = _bad_settings(kind)
        expected = self.message(lambda: validate_projectors(bad))
        if kind == "ragged":
            assert expected == "projector stack is ragged: its entries differ in shape"
        if kind == "non-numeric":
            rule = "projector stack must be a complex number or array, got {!r}"
            assert expected == rule.format(bad)
            assert self.message(lambda: validate_projectors([["a"]])) == rule.format([["a"]])
        assert self.message(lambda: cons.lhs_certificate(model, prime, 0.4, bad)) == expected
        assert self.message(lambda: cons.verify_lhs_identity(tau, cert, bad)) == expected

    def test_setting_dim_must_match_alice(self):
        _, model, prime = separable_pair(2, 2, 2, seed=41, c=0.2)
        with pytest.raises(ValueError, match="setting dim 3 != response dim 2"):
            cons.lhs_certificate(model, prime, 0.4, computational_settings(3))

    def test_settings_accept_one_stack_or_a_sequence(self):
        _, model, prime = separable_pair(3, 2, 3, seed=42, c=0.2)
        settings = computational_settings(3, extra=3, seed=43)
        from_list = cons.lhs_certificate(model, prime, 0.4, settings)
        from_stack = cons.lhs_certificate(model, prime, 0.4, np.stack(settings))
        assert np.array_equal(from_list.bob, from_stack.bob)


class TestPartyKinds:
    """Which model parties each construction accepts."""

    def test_lhs_rejects_a_table_alice(self):
        _, model, _ = separable_pair(2, 2, 2, seed=44, c=0.0)
        table_alice = finite_model(model.weights, np.full((2, 3), 0.5), model.bob)
        with pytest.raises(ValueError, match="needs quantum Alice responses"):
            cons.lhs_certificate(table_alice, model, 0.4, computational_settings(2))
        with pytest.raises(ValueError, match=r"alice responses differ in shape: \(2, 2, 2\) vs \(2, 3\)"):
            cons.lhs_certificate(model, table_alice, 0.4, computational_settings(2))

    def test_lhs_rejects_a_qudit_bob(self):
        _, model, _ = separable_pair(2, 3, 2, seed=45, c=0.0)
        with pytest.raises(ValueError, match="Pauli settings need qubit responses, got dim 3"):
            cons.lhs_certificate(model, model, 0.4, computational_settings(2))

    def test_spm_rejects_a_table_bob(self):
        _, model, _ = separable_pair(2, 2, 2, seed=46, c=0.0)
        table_bob = finite_model(model.weights, model.alice, np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="needs quantum Bob responses"):
            cons.spm_certificate(table_bob, table_bob, 0.4)
        with pytest.raises(ValueError, match=r"bob responses differ in shape: \(2, 2, 2\) vs \(2, 3\)"):
            cons.spm_certificate(model, table_bob, 0.4)

    def test_spm_rejects_bob_stacks_of_another_dim(self):
        _, model, _ = separable_pair(2, 2, 2, seed=47, c=0.0)
        _, qutrit, _ = separable_pair(2, 3, 2, seed=47, c=0.0)
        other = finite_model(model.weights, model.alice, qutrit.bob)
        with pytest.raises(ValueError, match="bob responses differ in shape"):
            cons.spm_certificate(model, other, 0.4)

    def test_spm_bob_states_is_one_stack(self):
        _, model, prime = separable_pair(2, 3, 4, seed=48, c=0.2, prime_side="alice")
        cert = cons.spm_certificate(model, prime, 0.4)
        assert cert.bob.shape == (4, 3, 3)
        assert np.array_equal(cert.bob, model.bob)


# Per mixed side: the party both models share, the biased partner's builder
# and the two-model certificate builder.
SHARED = {
    "B": ("alice", cons.bob_biased_prime_model,
          lambda model, prime: cons.lhs_certificate(model, prime, 0.4, computational_settings(2))),
    "A": ("bob", cons.alice_biased_prime_model,
          lambda model, prime: cons.spm_certificate(model, prime, 0.4)),
}


class TestSharedParty:
    """The two-model builders compare the partner's weights and kept party entry by entry."""

    @pytest.mark.parametrize("side", ["B", "A"])
    def test_nan_in_a_party_passed_as_both_is_refused(self, side):
        _, model, _ = separable_pair(2, 2, 4, seed=49, c=0.0)
        kept, build, certify = SHARED[side]
        party = getattr(model, kept).copy()
        party[1, 0, 0] = np.nan
        bad = FiniteModel(model.weights, **{"alice": model.alice, "bob": model.bob, kept: party})
        prime = build(bad, 0.3)
        assert getattr(prime, kept) is party
        with pytest.raises(ValueError, match=rf"^{kept} responses differ \(max dev nan\)$"):
            certify(bad, prime)

    @pytest.mark.parametrize("side", ["B", "A"])
    def test_a_shifted_copy_is_compared_and_refused(self, side):
        _, model, _ = separable_pair(2, 2, 4, seed=50, c=0.0)
        kept, build, certify = SHARED[side]
        prime = build(model, 0.3)
        copy = getattr(model, kept).copy()
        same = FiniteModel(prime.weights.copy(), **{"alice": prime.alice, "bob": prime.bob,
                                                    kept: copy})
        cert, want = (certify(model, m) for m in (same, prime))
        assert np.array_equal(cert.alice, want.alice) and np.array_equal(cert.bob, want.bob)
        shifted = FiniteModel(prime.weights, **{"alice": prime.alice, "bob": prime.bob,
                                                kept: copy + 1e-9})
        with pytest.raises(ValueError, match=rf"^{kept} responses differ \(max dev 1\.000e-09\)$"):
            certify(model, shifted)

    def test_shifted_weights_are_refused(self):
        _, model, prime = separable_pair(2, 2, 4, seed=51, c=0.3)
        shifted = FiniteModel(model.weights + 1e-9, prime.alice, prime.bob)
        with pytest.raises(ValueError, match=r"^models must share hidden-variable weights"):
            SHARED["B"][2](model, shifted)

    @pytest.mark.parametrize("side", ["B", "A"])
    def test_nan_weights_are_refused(self, side):
        # NaN fails every comparison, so the weight test is written as
        # "not within", as the kept party's is.
        _, model, _ = separable_pair(2, 2, 4, seed=52, c=0.3)
        prime = SHARED[side][1](model, 0.3)
        nan = FiniteModel(np.full(4, np.nan), prime.alice, prime.bob)
        message = r"^models must share hidden-variable weights \(max dev nan\)$"
        with pytest.raises(ValueError, match=message):
            SHARED[side][2](model, nan)
