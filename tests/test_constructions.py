import math

import numpy as np
import pytest
import hypothesis
from hypothesis import strategies as st

from steermap import constructions as cons
from steermap import mapping, states
from steermap.mapping import INV_SQRT3
from steermap.measurements import (
    qubit_projectors,
    qudit_measurement,
    random_basis,
    validate_projectors,
)
from steermap.models import born_probs, finite_model, model_from_separable
from steermap.states import (
    PAULI_STACK,
    hidden_qubits,
    make_density,
    random_pure,
    random_separable,
)

HALF = np.eye(2, dtype=complex) / 2


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

    A hidden-state certificate encodes it as responses * (1 + bloch) / 2.
    """

    @staticmethod
    def eta(cert):
        return cert.responses[..., None] * (1.0 + cert.bloch) / 2.0

    def test_endpoint_mixtures(self):
        _, model, prime = separable_pair(2, 2, 3, seed=1, c=0.3)
        settings = computational_settings(2, extra=2, seed=10)
        pa = born_probs(validate_projectors(settings), model.alice)[..., None]
        full = self.eta(cons.lhs_certificate(model, prime, 1.0, settings))
        assert np.max(np.abs(full - pa * cons.pauli_probs(model.bob))) <= 1e-15
        none = self.eta(cons.lhs_certificate(model, prime, 0.0, settings))
        assert np.max(np.abs(none - pa * prime.bob)) <= 1e-15
        assert np.all(prime.bob == [0.5, 0.5, 0.65])

    def test_shared_alice_cancellation(self):
        # With the partner reusing Alice's responses the ratio collapses
        # to the mixture of Bob's responses alone.
        _, model, prime = separable_pair(3, 2, 4, seed=2, c=0.25)
        settings = computational_settings(3, extra=2, seed=20)
        mu = 0.4
        cert = cons.lhs_certificate(model, prime, mu, settings)
        expected = mu * cons.pauli_probs(model.bob) + (1 - mu) * prime.bob
        weighted = cert.responses > 0.0
        ratio = (1.0 + cert.bloch[weighted]) / 2.0
        assert weighted.any()
        assert np.max(np.abs(ratio - np.broadcast_to(expected, cert.bloch.shape)[weighted])) <= 1e-13

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
            for a in range(2):
                if cert.responses[0, a, xi] == 0.0:
                    continue
                assert np.allclose(cert.bloch[0, a, xi], expected, atol=1e-12)

    def test_biased_family_matches_affine_formula(self):
        mu, c = 0.45, 0.3
        _, model, prime = separable_pair(3, 2, 4, seed=6, c=c)
        settings = computational_settings(3)
        cert = cons.lhs_certificate(model, prime, mu, settings)
        for xi in range(model.n_hidden):
            probs = cons.pauli_probs(model.bob)[xi]
            expected = mapping.hidden_bloch_vector(*probs, mu, c).as_array()
            for a in range(3):
                if cert.responses[0, a, xi] == 0.0:
                    continue
                assert np.allclose(cert.bloch[0, a, xi], expected, atol=1e-13)

    def test_alice_setting_independence(self):
        # The biased family's hidden state must not depend on which
        # Alice setting or outcome produced it.
        _, model, prime = separable_pair(3, 2, 4, seed=7, c=0.2)
        settings = computational_settings(3, extra=6, seed=70)
        cert = cons.lhs_certificate(model, prime, 0.5, settings)
        for xi in range(model.n_hidden):
            seen = None
            for s in range(len(settings)):
                for a in range(3):
                    if cert.responses[s, a, xi] == 0.0:
                        continue
                    if seen is None:
                        seen = cert.bloch[s, a, xi]
                    assert np.max(np.abs(cert.bloch[s, a, xi] - seen)) <= 1e-14

    def test_all_physical_at_saturation_point(self):
        _, model, prime = separable_pair(3, 2, 4, seed=8, c=0.0)
        settings = computational_settings(3, extra=4, seed=80)
        cert = cons.lhs_certificate(model, prime, INV_SQRT3, settings)
        norms = np.einsum("saxk,saxk->sax", cert.bloch, cert.bloch)
        assert norms.max() <= 1.0 + 1e-12

    def test_response_normalization(self):
        _, model, prime = separable_pair(2, 2, 3, seed=9, c=0.4)
        settings = computational_settings(2, extra=5, seed=90)
        cert = cons.lhs_certificate(model, prime, 0.3, settings)
        sums = cert.responses.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

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
        # Two unphysical entries, (s=0, a=1, xi=0) and (s=0, a=0, xi=1);
        # the others carry zero weight.  The setting -> hidden value ->
        # outcome order reaches xi=0 first, flat (s, a, xi) order would not.
        alice = np.stack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]).astype(complex)
        base = finite_model([0.5, 0.5], alice, np.ones((2, 3)))
        mu = 0.5
        prime = cons.bob_biased_prime_model(base, mapping.analytic_c_max(mu) + 0.05)
        settings = computational_settings(2) * 2
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.lhs_certificate(base, prime, mu, settings)
        err = info.value
        assert (err.xi, err.setting, err.outcome) == (0, 0, 1)
        assert err.norm_sq > 1.0


class TestStackedCertificates:
    """The stacked kernels against per-trial calls of the public builders."""

    def test_lhs_unphysical_error_is_the_trial_loops(self):
        # Trial 0 is feasible, trials 1 and 2 are not, with offenders at
        # different (setting, hidden value, outcome) positions: the stack
        # must raise what the first failing trial raises alone.
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
            cons.lhs_certificates(np.full(3, mu), pa, pa, pb, cons.biased_probs(np.array(cs)))
        assert str(info.value) == str(first_error)
        responses, bloch = cons.lhs_certificates(
            np.full(1, mu), pa[:1], pa[:1], pb[:1], cons.biased_probs(np.array(cs[:1]))
        )
        base = finite_model([0.5, 0.5], alices[0], det)
        cert = cons.lhs_certificate(base, cons.bob_biased_prime_model(base, cs[0]), mu, settings)
        assert np.array_equal(responses[0], cert.responses)
        assert np.array_equal(bloch[0], cert.bloch)

    def test_spm_stack_equals_each_trial(self):
        mus, cs = np.array([0.1, 0.3, 0.5]), np.array([0.8, 0.5, 0.1])
        rho, weights, alphas, betas = states.random_separables(2, 3, 4, [31, 32, 33])
        alice_bloch = cons.spm_certificates(mus, cons.pauli_probs(alphas), cons.biased_probs(cs))
        partners = mapping.biased_partner(rho, cs, "A")
        sigma = mapping.mix(rho, partners, mus)
        residuals = cons.verify_spm_identities(sigma, weights, alice_bloch, betas, 20, [7, 8, 9])
        for t, seed in enumerate([31, 32, 33]):
            state, model, prime = separable_pair(2, 3, 4, seed, cs[t], prime_side="alice")
            cert = cons.spm_certificate(model, prime, mus[t])
            assert np.array_equal(cert.alice_bloch, alice_bloch[t])
            single = mapping.mix(state, mapping.biased_partner(state, cs[t], "A"), mus[t])
            assert residuals[t] == cons.verify_spm_identity(single, cert, 20, 7 + t)

    def test_spm_unphysical_names_first_trial(self):
        # Trial 1 is unphysical at xi = 1, trial 2 at xi = 0.
        p0 = np.stack([np.full((2, 3), 0.5), np.full((2, 3), 0.5), np.zeros((2, 3))])
        p0[1, 1] = 1.0
        with pytest.raises(cons.UnphysicalHiddenStateError) as info:
            cons.spm_certificates(np.ones(3), p0, cons.biased_probs(np.zeros(3)))
        assert (info.value.xi, info.value.norm_sq) == (1, 3.0)


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

    def test_setting_count_must_match(self):
        tau, model, prime = separable_pair(2, 2, 2, seed=16, c=0.0)
        settings = computational_settings(2)
        cert = cons.lhs_certificate(model, prime, 0.5, settings)
        with pytest.raises(ValueError, match="settings"):
            cons.verify_lhs_identity(tau, cert, settings * 2)


class TestSpmCertificate:
    def test_full_visibility(self):
        _, ensemble = random_separable(2, 3, 3, seed=17)
        model = model_from_separable(ensemble)
        cert = cons.spm_certificate(model, model, 1.0)
        for xi, (_, alpha, _) in enumerate(ensemble):
            expected = np.einsum("kij,ji->k", PAULI_STACK, alpha).real
            assert np.allclose(cert.alice_bloch[xi], expected, atol=1e-12)

    def test_biased_family_matches_affine_formula(self):
        mu, c = 0.4, 0.35
        _, model, prime = separable_pair(2, 3, 4, seed=18, c=c, prime_side="alice")
        cert = cons.spm_certificate(model, prime, mu)
        for xi in range(model.n_hidden):
            probs = cons.pauli_probs(model.alice)[xi]
            expected = mapping.hidden_bloch_vector(*probs, mu, c).as_array()
            assert np.allclose(cert.alice_bloch[xi], expected, atol=1e-13)

    def test_unbiased_responses_collapse_to_origin(self):
        model = finite_model([1.0], np.full((1, 3), 0.5), HALF[None])
        cert = cons.spm_certificate(model, cons.alice_biased_prime_model(model, 0.0), 0.7)
        assert np.allclose(cert.alice_bloch, 0.0, atol=1e-15)

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

    def test_needs_a_sample(self):
        rho, model, _ = separable_pair(2, 2, 1, seed=24, c=0.0)
        cert = cons.spm_certificate(model, model, 1.0)
        with pytest.raises(ValueError, match="at least one"):
            cons.verify_spm_identity(rho, cert, 0, seed=1)


def spm_residual_reference(sigma, cert, n_samples, seed):
    """verify_spm_identity as a per-pair loop with an explicit Kronecker trace.

    Draws the same measurements in the same order: per sample a qubit
    direction for Alice, then an orthonormal basis for Bob.
    """
    rng = np.random.default_rng(seed)
    alice_states = hidden_qubits(cert.alice_bloch)
    worst = 0.0
    for _ in range(n_samples):
        v = rng.standard_normal(3)
        m_a = qubit_projectors((v / math.sqrt(v @ v))[None])[0]
        m_b = qudit_measurement(random_basis(sigma.d_b, rng))
        for a in range(2):
            for b in range(sigma.d_b):
                rhs = sum(
                    w * np.trace(m_a[a] @ alpha).real * np.trace(m_b[b] @ beta).real
                    for w, alpha, beta in zip(cert.weights, alice_states, cert.bob_states)
                )
                lhs = np.trace(np.kron(m_a[a], m_b[b]) @ sigma.mat).real
                worst = max(worst, abs(lhs - rhs))
    return worst


def lhs_residual_reference(rho, cert, settings):
    """verify_lhs_identity as a loop over tr_A[(pi x 1) rho], Kronecker product explicit."""
    worst = 0.0
    for s, setting in enumerate(settings):
        for a, pi in enumerate(setting):
            rhs = sum(
                cert.responses[s, a, xi] * cert.weights[xi] * hidden_qubits(cert.bloch[s, a, xi])
                for xi in range(len(cert.weights))
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
        # responses: hidden states stay physical for every mu, and the
        # decomposition identity must hold even though the hidden state
        # now genuinely depends on Alice's setting and outcome.
        rng = np.random.default_rng(60)
        tau, ensemble = random_separable(3, 2, 4, seed=61)
        model = model_from_separable(ensemble)
        prime_alice = np.stack([random_pure(3, rng) for _ in range(4)])
        prime = finite_model(model.weights, prime_alice, np.stack([HALF] * 4))
        tau_prime_mat = sum(
            w * np.kron(alpha, HALF) for w, alpha in zip(model.weights, prime_alice)
        )
        tau_prime = make_density(tau_prime_mat, 3, 2)
        settings = computational_settings(3, extra=8, seed=62)
        for mu in (0.15, 0.5, 0.9):
            cert = cons.lhs_certificate(model, prime, mu, settings)
            rho = mapping.map_m(tau, tau_prime, mu)
            assert cons.verify_lhs_identity(rho, cert, settings) <= 1e-12

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
    return good[0]  # one (k, d, d) measurement, not a stack of them


class TestSettingsBoundary:
    """Certificate builders and verifiers check Alice's settings once, as validate_projectors does."""

    KINDS = ["non-idempotent", "not summing to identity", "ragged", "wrong dimension"]

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
        assert np.array_equal(from_list.bloch, from_stack.bloch)


class TestPartyKinds:
    """Which model parties each construction accepts."""

    def test_lhs_rejects_a_table_alice(self):
        _, model, _ = separable_pair(2, 2, 2, seed=44, c=0.0)
        table_alice = finite_model(model.weights, np.full((2, 3), 0.5), model.bob)
        for base, prime in ((table_alice, model), (model, table_alice)):
            with pytest.raises(ValueError, match="needs quantum Alice responses"):
                cons.lhs_certificate(base, prime, 0.4, computational_settings(2))

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
        assert cert.bob_states.shape == (4, 3, 3)
        assert np.array_equal(cert.bob_states, model.bob)
