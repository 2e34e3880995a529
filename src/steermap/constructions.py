"""Hidden-state and separable-model constructions, with numeric checks.

Given a finite model for a state and one for its mixing partner (sharing
the same hidden-variable weights), the builders below produce explicit
certificates: hidden qubit states as Bloch vectors plus the conditional
probabilities that reassemble the mixed state's statistics.  The
verifiers recompute both sides of the defining identities from scratch
and return the worst residual.

Everything is evaluated array-first: models hold one array per party
(see :mod:`steermap.models`), Alice's settings (or the sampled
measurement pairs) form one (n, k, d, d) projector stack, and each side
of an identity is one contraction over that stack, the hidden index
and the (d_a, d_b, d_a, d_b) state tensor.  Each builder and verifier is the unstacked
case of a stacked kernel (``lhs_certificates``, ``verify_lhs_identities``,
``spm_certificates``, ``verify_spm_identities``) that takes probability
tables, certificate arrays and projector stacks with a leading trial
axis; ``verify`` runs a block of trials through each kernel in one call.

A caveat worth keeping in mind: the general recipe makes the hidden
state depend on Alice's setting and outcome through the ratio it is
built from.  For the biased-partner family (the partner reusing Alice's
responses) that dependence cancels and the ensemble is a genuine
single hidden-state model; the certificate stores the per-(setting,
outcome) states exactly as constructed so the cancellation can be
checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measurements import (
    _orthonormal_rows,
    pair_draws,
    pauli_projectors,
    qubit_projectors,
    qudit_projectors,
    validate_projectors,
)
from .models import FiniteModel, born_joints, born_probs, finite_model
from .states import DensityMatrix, check_unit_interval, conditional_states, hidden_qubits

WEIGHT_TOL = 1e-12
PHYS_TOL = 1e-12


class UnphysicalHiddenStateError(ValueError):
    """A constructed hidden state left the Bloch ball.

    Signals that (mu, c) lies outside the range where the construction
    works; carries the offending hidden index, setting, outcome and
    squared Bloch norm.
    """

    def __init__(self, xi: int, setting, outcome: int, norm_sq: float):
        self.xi = xi
        self.setting = setting
        self.outcome = outcome
        self.norm_sq = norm_sq
        super().__init__(
            f"hidden state unphysical at xi={xi}, setting={setting}, "
            f"outcome={outcome}: |r|^2 = {norm_sq:.12g} > 1"
        )


def _check_shared_weights(model: FiniteModel, model_prime: FiniteModel) -> None:
    if model.n_hidden != model_prime.n_hidden:
        raise ValueError(
            f"models disagree on ensemble size: {model.n_hidden} vs "
            f"{model_prime.n_hidden}"
        )
    dev = float(np.max(np.abs(model.weights - model_prime.weights)))
    if dev > WEIGHT_TOL:
        raise ValueError(f"models must share hidden-variable weights (max dev {dev:.3e})")


@dataclass(frozen=True)
class LhsCertificate:
    """Hidden-state ensemble for a mixed qudit-qubit state.

    ``responses[s, a, xi]`` is the conditional probability of outcome a
    at the s-th Alice setting; ``bloch[s, a, xi]`` the matching hidden
    qubit Bloch vector (zero rows mark skipped zero-probability entries).
    """

    weights: np.ndarray = field(repr=False)
    responses: np.ndarray = field(repr=False)
    bloch: np.ndarray = field(repr=False)


def lhs_certificate(
    model_tau: FiniteModel,
    model_tau_prime: FiniteModel,
    mu: float,
    alice_settings,
) -> LhsCertificate:
    """Build the hidden-state ensemble for the M-mixture of two models.

    Both models need quantum Alice responses; Bob's may be quantum qubits
    or Pauli tables.  ``alice_settings`` is an (S, k, d_a, d_a) projector
    stack (or a sequence of (k, d_a, d_a) measurements), checked by
    :func:`steermap.measurements.validate_projectors`.  For every Alice
    setting, outcome and hidden value the conditional probability is the
    mu-mixture of the two models' responses and the hidden Bloch
    component for B is 2 eta(B)/p - 1.  Zero-probability entries
    contribute nothing and get the maximally mixed state.  An unphysical
    Bloch vector raises :class:`UnphysicalHiddenStateError` naming the
    first one in (setting, hidden value, outcome) order.  The unstacked
    case of :func:`lhs_certificates`.
    """
    _check_shared_weights(model_tau, model_tau_prime)
    settings = validate_projectors(alice_settings)
    pa = [_alice_probs(m.alice, settings) for m in (model_tau, model_tau_prime)]
    responses, bloch = lhs_certificates(
        mu, *pa, _pauli_table(model_tau.bob), _pauli_table(model_tau_prime.bob)
    )
    return LhsCertificate(model_tau.weights.copy(), responses, bloch)


def lhs_certificates(mu, pa, pa_prime, pb, pb_prime) -> tuple[np.ndarray, np.ndarray]:
    """Responses and hidden Bloch vectors of M-mixtures, for a stack of trials.

    ``pa[..., s, a, xi]`` is the base model's P(a | s, xi) for Alice and
    ``pb[..., xi, k]`` its Bob outcome-0 probability at the k-th Pauli
    setting; the primed arrays are the partner model's.  A partner row
    shared by every hidden value, like a biased table's, may have length
    1 on the xi axis.  ``mu`` is a float or one value per leading index.
    Returns ``responses`` (..., S, A, Xi) and ``bloch`` (..., S, A, Xi, 3).
    The error names the first unphysical entry in (trial, setting, hidden
    value, outcome) order, where a loop over the trials would stop.
    """
    check_unit_interval("mu", mu)
    m = np.asarray(mu, dtype=float)[..., None, None, None]
    responses = m * pa + (1.0 - m) * pa_prime
    # eta[..., s, a, xi, k] pairs Alice's (s, a) with Bob's outcome 0 at k.
    eta = (
        m[..., None] * pa[..., None] * pb[..., None, None, :, :]
        + (1.0 - m[..., None]) * pa_prime[..., None] * pb_prime[..., None, None, :, :]
    )
    weighted = responses > 0.0  # zero-weight entries keep r = 0
    ratio = np.divide(
        eta, responses[..., None], out=np.zeros_like(eta), where=weighted[..., None]
    )
    bloch = np.where(weighted[..., None], 2.0 * ratio - 1.0, 0.0)
    norm_sq = np.einsum("...saxk,...saxk->...sax", bloch, bloch)
    bad = np.argwhere(np.swapaxes(norm_sq > 1.0 + PHYS_TOL, -1, -2))
    if len(bad):
        *trial, s, xi, a = (int(i) for i in bad[0])
        raise UnphysicalHiddenStateError(xi, s, a, float(norm_sq[(*trial, s, a, xi)]))
    return responses, bloch


def _alice_probs(alice: np.ndarray, settings: np.ndarray) -> np.ndarray:
    """P(a | s, xi) of quantum Alice responses at validated settings: (S, A, Xi)."""
    if alice.ndim != 3:
        raise ValueError("hidden-state construction needs quantum Alice responses")
    dim = settings.shape[-1]
    if alice.shape[-1] != dim:
        raise ValueError(f"setting dim {dim} != response dim {alice.shape[-1]}")
    return born_probs(settings, alice, "quantum response")


def pauli_probs(states) -> np.ndarray:
    """Outcome-0 probabilities of qubit states at x, y, z: (..., Xi, 3).

    ``states`` is an (..., Xi, 2, 2) stack of validated response states;
    one Born-rule contraction.
    """
    probs = born_probs(pauli_projectors(), states, "quantum response")
    return probs[..., 0, :].swapaxes(-1, -2)


def _pauli_table(party: np.ndarray) -> np.ndarray:
    """A model party's (Xi, 3) Pauli table: itself, or its qubit states' one."""
    if party.ndim == 2:
        return party
    if party.shape[-1] != 2:
        raise ValueError(f"Pauli settings need qubit responses, got dim {party.shape[-1]}")
    return pauli_probs(party)


def verify_lhs_identity(
    rho_ab: DensityMatrix, cert: LhsCertificate, alice_settings
) -> float:
    """Worst-case residual of the steered-state decomposition.

    For every listed Alice setting and outcome, compares the conditional
    state of ``rho_ab`` against the certificate's weighted hidden-state
    sum; returns the max-abs entry difference over all of them.  The
    unstacked case of :func:`verify_lhs_identities`; ``alice_settings``
    is checked as in :func:`lhs_certificate`.
    """
    settings = validate_projectors(alice_settings)
    return float(
        verify_lhs_identities(rho_ab, cert.weights, cert.responses, cert.bloch, settings)
    )


def verify_lhs_identities(rho_ab: DensityMatrix, weights, responses, bloch, projectors):
    """Steered-state decomposition residuals, one per state of a stack.

    ``rho_ab`` holds one state or a stack of T.  ``weights`` (..., Xi),
    ``responses`` (..., S, A, Xi) and ``bloch`` (..., S, A, Xi, 3) are
    the certificate arrays and ``projectors`` (..., S, A, d_a, d_a) are
    Alice's settings, each with the state's leading axes.  All steered
    states come from one contraction over the settings' stack.  Returns
    the max-abs entry difference per state.
    """
    if rho_ab.d_b != 2:
        raise ValueError(f"certificate targets a qubit on Bob's side, got {rho_ab.d_b}")
    n_set, got = responses.shape[-3], projectors.shape[-4]
    if got != n_set:
        raise ValueError(f"certificate built for {n_set} settings, got {got}")
    lhs = conditional_states(rho_ab, projectors)
    coef = responses * weights[..., None, None, :]
    rhs = np.einsum("...sax,...saxij->...saij", coef, hidden_qubits(bloch))
    return np.abs(lhs - rhs).max(axis=(-4, -3, -2, -1))


@dataclass(frozen=True)
class SpmCertificate:
    """Separable-model ensemble: hidden qubits for Alice, states for Bob.

    ``alice_bloch`` is (Xi, 3) and ``bob_states`` the (Xi, d_b, d_b)
    stack of Bob's response states.
    """

    weights: np.ndarray = field(repr=False)
    alice_bloch: np.ndarray = field(repr=False)
    bob_states: np.ndarray = field(repr=False)


def spm_certificate(
    model_rho: FiniteModel, model_rho_prime: FiniteModel, mu: float
) -> SpmCertificate:
    """Build the separable ensemble for the N-mixture of two models.

    Both inputs must carry identical quantum Bob responses and weights;
    Alice's responses may be quantum qubits or Pauli tables.  Alice's
    hidden qubit per hidden value has Bloch components
    2 (mu P(0|k,xi) + (1-mu) P'(0|k,xi)) - 1 for k in x, y, z.  The
    unstacked case of :func:`spm_certificates`.
    """
    _check_shared_weights(model_rho, model_rho_prime)
    bob, bob_prime = model_rho.bob, model_rho_prime.bob
    if bob.ndim != 3:
        raise ValueError("separable construction needs quantum Bob responses")
    if bob_prime.shape != bob.shape:
        raise ValueError(f"bob responses differ in shape: {bob.shape} vs {bob_prime.shape}")
    dev = float(np.max(np.abs(bob - bob_prime)))
    if not dev <= WEIGHT_TOL:
        raise ValueError(f"bob responses differ (max dev {dev:.3e})")
    alice_bloch = spm_certificates(
        mu, _pauli_table(model_rho.alice), _pauli_table(model_rho_prime.alice)
    )
    return SpmCertificate(model_rho.weights.copy(), alice_bloch, bob)


def spm_certificates(mu, p0, p0_prime) -> np.ndarray:
    """Alice's hidden Bloch vectors of N-mixtures, for a stack of trials.

    ``p0[..., xi, k]`` is the base model's Alice outcome-0 probability at
    the k-th Pauli setting and ``p0_prime`` the partner's (length 1 on
    the xi axis for a row shared by every hidden value); ``mu`` is a
    float or one value per leading index.  Returns (..., Xi, 3).  The
    error names the first unphysical vector in (trial, hidden value)
    order.
    """
    check_unit_interval("mu", mu)
    m = np.asarray(mu, dtype=float)[..., None, None]
    alice_bloch = 2.0 * (m * p0 + (1.0 - m) * p0_prime) - 1.0
    norm_sq = np.einsum("...xk,...xk->...x", alice_bloch, alice_bloch)
    bad = np.argwhere(norm_sq > 1.0 + PHYS_TOL)
    if len(bad):
        idx = tuple(int(i) for i in bad[0])
        raise UnphysicalHiddenStateError(idx[-1], "xyz", -1, float(norm_sq[idx]))
    return alice_bloch


def verify_spm_identity(
    sigma_ab: DensityMatrix, cert: SpmCertificate, n_samples: int, seed: int
) -> float:
    """Worst-case residual of the separable-model joint probabilities.

    Samples ``n_samples`` measurement pairs (per sample a random qubit
    direction for Alice, then a random orthonormal basis for Bob, so a
    seed always samples the same measurements), evaluates all
    n x 2 x d_b joints on both the state and the certificate ensemble in
    one batch, and returns the largest absolute difference.  The
    unstacked case of :func:`verify_spm_identities`.
    """
    return float(
        verify_spm_identities(
            sigma_ab, cert.weights, cert.alice_bloch, cert.bob_states, n_samples, seed
        )
    )


def verify_spm_identities(
    sigma_ab: DensityMatrix, weights, alice_bloch, bob_states, n_samples: int, seeds
):
    """Separable-model joint residuals, one per state of a stack.

    ``sigma_ab`` holds one state or a stack of T.  ``weights`` (..., Xi),
    ``alice_bloch`` (..., Xi, 3) and ``bob_states`` (..., Xi, d_b, d_b)
    are the certificate arrays, with the state's leading axes, and
    ``seeds`` holds one measurement seed per state (an int for one
    state).  Each seed draws its own ``n_samples`` pairs; one QR then
    orthonormalises the bases of all states, and the projectors, joints
    and certificate tables are built as stacks.
    """
    if sigma_ab.d_a != 2:
        raise ValueError(f"certificate targets a qubit on Alice's side, got {sigma_ab.d_a}")
    if n_samples < 1:
        raise ValueError(f"need at least one measurement sample, got {n_samples}")
    lead, d_b = sigma_ab.mat.shape[:-2], sigma_ab.d_b
    draws = [
        pair_draws(n_samples, d_b, np.random.default_rng(int(seed)))
        for seed in np.ravel(seeds)
    ]
    directions = np.reshape([d for d, _ in draws], (*lead, n_samples, 3))
    bases = _orthonormal_rows(np.reshape([g for _, g in draws], (*lead, n_samples, d_b, d_b)))
    a_stack = qubit_projectors(directions)
    b_stack = qudit_projectors(bases)
    lhs = born_joints(sigma_ab, a_stack, b_stack)
    pa = born_probs(a_stack, hidden_qubits(alice_bloch), "certificate")
    pb = born_probs(b_stack, bob_states, "certificate")
    rhs = np.einsum("...x,...nax,...nbx->...nab", weights, pa, pb)
    return np.abs(lhs - rhs).max(axis=(-3, -2, -1))


def biased_probs(c) -> np.ndarray:
    """Outcome-0 probabilities (1/2, 1/2, (1 + c)/2) of the biased table at x, y, z.

    ``c`` is a float or a (T,) array; the result has shape (1, 3) or
    (T, 1, 3): one row that every hidden value shares, as in the partner
    models of :func:`bob_biased_prime_model` and
    :func:`alice_biased_prime_model`.
    """
    check_unit_interval("c", c)
    c = np.asarray(c, dtype=float)
    probs = np.full((*c.shape, 1, 3), 0.5)
    probs[..., 2] = ((1.0 + c) / 2.0)[..., None]
    return probs


def bob_biased_prime_model(model: FiniteModel, c: float) -> FiniteModel:
    """Partner model for the Bob-side biased product partner.

    Reuses the base model's validated weights and Alice responses; Bob
    answers independently of the hidden value, unbiased at x and y and
    z-biased by the number c, through one read-only table row that every
    hidden value shares.  Matches the statistics of bob_biased_partner
    exactly.
    """
    table = np.broadcast_to(biased_probs(c), (model.n_hidden, 3))
    return FiniteModel(model.weights, model.alice, table)


def alice_biased_prime_model(model: FiniteModel, c: float) -> FiniteModel:
    """Partner model for the Alice-side biased product partner."""
    table = np.broadcast_to(biased_probs(c), (model.n_hidden, 3))
    return FiniteModel(model.weights, table, model.bob)


def vertex_witness_model(d_a: int) -> FiniteModel:
    """Single hidden-value model probing the worst box vertex.

    Bob answers outcome 0 deterministically at all of x, y, z (the
    vertex maximizing the hidden-state norm); Alice holds the maximally
    mixed qudit so every setting/outcome pair carries weight.  Feeding
    this together with its biased prime model into lhs_certificate
    raises for any (mu, c) outside the feasible region.
    """
    alice = np.eye(d_a, dtype=np.complex128)[None] / d_a
    return finite_model([1.0], alice, np.ones((1, 3)))
