"""Hidden-state and separable-model constructions, with numeric checks.

Given a finite model for a state and one for its mixing partner (sharing
the same hidden-variable weights), each map's builder returns its
certificate as a :class:`~steermap.models.FiniteModel` of the mixed
state.  Both maps share one construction with the parties swapped: the
certificate keeps the weights and the responses of the party that was
not mixed, and the other party, Bob's qubit for map M and Alice's for
map N, gets one hidden qubit per hidden value with Bloch components
2 (mu P(0|k,xi) + (1-mu) P'(0|k,xi)) - 1 at the Paulis k = x, y, z
(:func:`hidden_bloch`).  Since that qubit depends on the hidden value
alone, an LHS certificate is a hidden-state model by construction.

The verifiers recompute both sides of an identity from scratch and
return the worst residual: the steered states at Alice's settings (map
M), the joints of sampled measurement pairs (map N) and, for a model
whose parties are both quantum, the operator identity
rho = sum_xi w_xi a_xi (x) b_xi itself (:func:`verify_model_identities`),
which covers every measurement.  Everything is evaluated array-first:
each verifier takes the certificate's arrays and the projector stacks
with the state's leading trial axis, and each side of an identity is one
contraction over the hidden index and the state tensor.
``verify_lhs_identity`` and ``verify_spm_identity`` are the unstacked
cases; ``verify`` runs a block of trials through each kernel in one call.
"""

from __future__ import annotations

import math

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
from .states import DensityMatrix, _rng, check_unit_interval, conditional_states, hidden_qubits

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


def _shared_party(model: FiniteModel, model_prime: FiniteModel, side: str) -> np.ndarray:
    """The quantum responses that both models share on ``side``, with their weights."""
    if model.n_hidden != model_prime.n_hidden:
        sizes = f"{model.n_hidden} vs {model_prime.n_hidden}"
        raise ValueError(f"models disagree on ensemble size: {sizes}")
    dev = float(np.max(np.abs(model.weights - model_prime.weights)))
    if dev > WEIGHT_TOL:
        raise ValueError(f"models must share hidden-variable weights (max dev {dev:.3e})")
    party, party_prime = getattr(model, side), getattr(model_prime, side)
    if party.ndim != 3:
        kind = "hidden-state" if side == "alice" else "separable"
        raise ValueError(f"{kind} construction needs quantum {side.capitalize()} responses")
    if party_prime.shape != party.shape:
        raise ValueError(f"{side} responses differ in shape: {party.shape} vs {party_prime.shape}")
    dev = float(np.max(np.abs(party - party_prime)))
    if not dev <= WEIGHT_TOL:
        raise ValueError(f"{side} responses differ (max dev {dev:.3e})")
    return party


def hidden_bloch(mu, p0, p0_prime, responses=None) -> np.ndarray:
    """Hidden Bloch vectors 2 (mu p0 + (1 - mu) p0') - 1 of both maps: (..., Xi, 3).

    ``p0[..., xi, k]`` is the mixed party's outcome-0 probability at the
    k-th Pauli setting in the base model and ``p0_prime`` the partner's
    (length 1 on the xi axis for a row shared by every hidden value);
    ``mu`` is a float or one value per leading index.  The error names
    the first unphysical (trial, hidden value); with Alice's
    ``responses`` (..., S, A, Xi), setting 0 and its first outcome of
    positive probability, else the settings "xyz" and outcome -1.
    """
    check_unit_interval("mu", mu)
    m = np.asarray(mu, dtype=float)[..., None, None]
    bloch = 2.0 * (m * p0 + (1.0 - m) * p0_prime) - 1.0
    norm_sq = np.einsum("...xk,...xk->...x", bloch, bloch)
    bad = np.argwhere(norm_sq > 1.0 + PHYS_TOL)
    if len(bad):
        *trial, xi = (int(i) for i in bad[0])
        setting, outcome = "xyz", -1
        if responses is not None:
            setting = 0
            outcome = int(np.argmax(responses[(*trial, 0, slice(None), xi)] > 0.0))
        raise UnphysicalHiddenStateError(xi, setting, outcome, float(norm_sq[(*trial, xi)]))
    return bloch


def _hidden_party(model: FiniteModel, model_prime: FiniteModel, mu, side: str, responses=None):
    """The mixed party's read-only (Xi, 2, 2) hidden qubits, from both models' Pauli tables."""
    p0 = _pauli_table(getattr(model, side))
    p0_prime = _pauli_table(getattr(model_prime, side))
    qubits = hidden_qubits(hidden_bloch(mu, p0, p0_prime, responses))
    qubits.setflags(write=False)
    return qubits


def _alice_table(alice: np.ndarray, alice_settings):
    """Alice's settings, checked by validate_projectors, and her Born table P(a | s, xi)."""
    settings = validate_projectors(alice_settings)
    dim = settings.shape[-1]
    if alice.shape[-1] != dim:
        raise ValueError(f"setting dim {dim} != response dim {alice.shape[-1]}")
    return settings, born_probs(settings, alice, "quantum response")


def lhs_certificate(
    model_tau: FiniteModel, model_tau_prime: FiniteModel, mu: float, alice_settings
) -> FiniteModel:
    """The hidden-state model of the M-mixture of two models.

    Both models need the same weights and the same quantum Alice
    responses; Bob's may be quantum qubits or Pauli tables.  The result
    keeps the weights and Alice's responses and gives Bob one hidden
    qubit per hidden value, so it holds for every Alice measurement.
    ``alice_settings``, an (S, k, d_a, d_a) projector stack (or a
    sequence of (k, d_a, d_a) measurements) checked by
    :func:`steermap.measurements.validate_projectors`, only names the
    setting and outcome of an :class:`UnphysicalHiddenStateError`.
    """
    alice = _shared_party(model_tau, model_tau_prime, "alice")
    _, responses = _alice_table(alice, alice_settings)
    bob = _hidden_party(model_tau, model_tau_prime, mu, "bob", responses)
    return FiniteModel(model_tau.weights, alice, bob)


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


def verify_lhs_identity(rho_ab: DensityMatrix, cert: FiniteModel, alice_settings) -> float:
    """Worst-case residual of the steered-state decomposition.

    For every listed Alice setting and outcome, compares the conditional
    state of ``rho_ab`` against the certificate's weighted hidden-state
    sum, with Alice's Born table taken from ``cert.alice`` at those
    settings; returns the max-abs entry difference over all of them.
    The unstacked case of :func:`verify_lhs_identities`;
    ``alice_settings`` is checked as in :func:`lhs_certificate`.
    """
    settings, responses = _alice_table(cert.alice, alice_settings)
    return float(verify_lhs_identities(rho_ab, cert.weights, responses, cert.bob, settings))


def verify_lhs_identities(rho_ab: DensityMatrix, weights, responses, bob, projectors):
    """Steered-state decomposition residuals, one per state of a stack.

    ``rho_ab`` holds one state or a stack of T.  ``weights`` (..., Xi),
    Alice's Born table ``responses`` (..., S, A, Xi) at the settings
    ``projectors`` (..., S, A, d_a, d_a), and Bob's hidden qubits ``bob``
    (..., Xi, 2, 2) each carry the state's leading axes.  All steered
    states come from one contraction over the settings' stack.  Returns
    the max-abs entry difference per state.
    """
    if rho_ab.d_b != 2:
        raise ValueError(f"certificate targets a qubit on Bob's side, got {rho_ab.d_b}")
    lhs = conditional_states(rho_ab, projectors)
    coef = responses * weights[..., None, None, :]
    rhs = np.einsum("...sax,...xij->...saij", coef, bob)
    return np.abs(lhs - rhs).max(axis=(-4, -3, -2, -1))


def spm_certificate(
    model_rho: FiniteModel, model_rho_prime: FiniteModel, mu: float
) -> FiniteModel:
    """The separable model of the N-mixture of two models.

    Both models need the same weights and the same quantum Bob
    responses; Alice's may be quantum qubits or Pauli tables.  The
    result keeps the weights and Bob's responses and gives Alice one
    hidden qubit per hidden value.
    """
    bob = _shared_party(model_rho, model_rho_prime, "bob")
    alice = _hidden_party(model_rho, model_rho_prime, mu, "alice")
    return FiniteModel(model_rho.weights, alice, bob)


def verify_spm_identity(
    sigma_ab: DensityMatrix, cert: FiniteModel, n_samples: int, seed: int
) -> float:
    """Worst-case residual of the separable-model joint probabilities.

    Samples ``n_samples`` measurement pairs (per sample a random qubit
    direction for Alice, then a random orthonormal basis for Bob, so a
    seed always samples the same measurements), evaluates all
    n x 2 x d_b joints on both the state and the certificate ensemble in
    one batch, and returns the largest absolute difference.  The
    unstacked case of :func:`verify_spm_identities`.
    """
    arrays = (cert.weights, cert.alice, cert.bob)
    return float(verify_spm_identities(sigma_ab, *arrays, n_samples, seed))


def verify_spm_identities(sigma_ab: DensityMatrix, weights, alice, bob, n_samples: int, seeds):
    """Separable-model joint residuals, one per state of a stack.

    ``sigma_ab`` holds one state or a stack of T.  ``weights`` (..., Xi),
    Alice's hidden qubits ``alice`` (..., Xi, 2, 2) and Bob's states
    ``bob`` (..., Xi, d_b, d_b) carry the state's leading axes, and
    ``seeds`` holds one integer measurement seed per state (an int for
    one state); any other count raises ``ValueError`` before a draw.
    Each seed draws its own ``n_samples`` pairs; one QR then
    orthonormalises the bases of all states, and the projectors, joints
    and certificate tables are built as stacks.
    """
    if sigma_ab.d_a != 2:
        raise ValueError(f"certificate targets a qubit on Alice's side, got {sigma_ab.d_a}")
    if n_samples < 1:
        raise ValueError(f"need at least one measurement sample, got {n_samples}")
    lead, d_b = sigma_ab.mat.shape[:-2], sigma_ab.d_b
    seeds = [seeds] if np.ndim(seeds) == 0 else seeds
    n_states = math.prod(lead)
    if len(seeds) != n_states:
        raise ValueError(
            f"need one seed per state, got {len(seeds)} seed(s) for {n_states} state(s)"
        )
    draws = [pair_draws(n_samples, d_b, _rng(seed)) for seed in seeds]
    directions = np.reshape([d for d, _ in draws], (*lead, n_samples, 3))
    bases = _orthonormal_rows(np.reshape([g for _, g in draws], (*lead, n_samples, d_b, d_b)))
    a_stack = qubit_projectors(directions)
    b_stack = qudit_projectors(bases)
    lhs = born_joints(sigma_ab, a_stack, b_stack)
    pa = born_probs(a_stack, alice, "certificate")
    pb = born_probs(b_stack, bob, "certificate")
    rhs = np.einsum("...x,...nax,...nbx->...nab", weights, pa, pb)
    return np.abs(lhs - rhs).max(axis=(-3, -2, -1))


def verify_model_identities(rho: DensityMatrix, weights, alice, bob):
    """Operator residuals of models whose parties are both quantum, one per state.

    The max-abs entry of rho - sum_xi w_xi a_xi (x) b_xi, from one
    contraction.  It is at rounding level when the model is a separable
    decomposition of the state itself, a check that covers every
    measurement of both parties.  ``weights`` (..., Xi), ``alice``
    (..., Xi, d_a, d_a) and ``bob`` (..., Xi, d_b, d_b) carry the
    leading axes of ``rho``, one state or a stack of T.
    """
    d_a, d_b = rho.d_a, rho.d_b
    got = (np.shape(alice)[-1], np.shape(bob)[-1])
    if np.ndim(alice) < 3 or np.ndim(bob) < 3 or got != (d_a, d_b):
        raise ValueError(
            f"operator identity needs quantum {d_a}- and {d_b}-dim responses, "
            f"got shapes {np.shape(alice)} and {np.shape(bob)}"
        )
    ensemble = np.einsum("...x,...xij,...xkl->...ikjl", weights, alice, bob)
    lead = rho.mat.shape[:-2]
    return np.abs(rho.mat - ensemble.reshape(*lead, d_a * d_b, d_a * d_b)).max(axis=(-2, -1))


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
