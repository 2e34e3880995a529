"""Hidden-state and separable-model constructions, with numeric checks.

Given a finite model for a state and one for its mixing partner (sharing
the same hidden-variable weights), the builders below produce explicit
certificates: hidden qubit states as Bloch vectors plus the conditional
probabilities that reassemble the mixed state's statistics.  The
verifiers recompute both sides of the defining identities from scratch
and return the worst residual.

Everything is evaluated array-first: Alice's settings (or the sampled
measurement pairs) form one (n, k, d, d) projector stack, and each side
of an identity is one contraction over that stack, the hidden index
and the (d_a, d_b, d_a, d_b) state tensor, with the same range and
projector checks as the single-pair functions in :mod:`steermap.models`
and :mod:`steermap.states`.

A caveat worth keeping in mind: the general recipe makes the hidden
state depend on Alice's setting and outcome through the ratio it is
built from.  For the biased-partner family (the partner reusing Alice's
responses) that dependence cancels and the ensemble is a genuine
single hidden-state model; the certificate stores the per-(setting,
outcome) states exactly as constructed so the cancellation can be
checked rather than assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .mapping import check_unit_interval
from .measurements import (
    PAULI_LABELS,
    pauli_projectors,
    projector_stack,
    qubit_projectors,
    qudit_projectors,
    random_measurement_pairs,
)
from .models import (
    FiniteModel,
    QuantumResponse,
    TableResponse,
    born_joints,
    born_probs,
    finite_model,
    quantum_response,
    response_prob,
    table_response,
)
from .states import DensityMatrix, conditional_states, hidden_qubits

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


def mixed_joint_prob(
    b_label: str,
    xi: int,
    a: int,
    alice_setting,
    mu: float,
    model: FiniteModel,
    model_prime: FiniteModel,
) -> float:
    """mu P(a|A,xi) P(0|B,xi) + (1-mu) P'(a|A,xi) P'(0|B,xi) for B in x,y,z."""
    if b_label not in PAULI_LABELS:
        raise ValueError(f"b_label must be one of {PAULI_LABELS}, got {b_label!r}")
    _check_shared_weights(model, model_prime)
    pa = response_prob(model.alice[xi], alice_setting, a)
    pb = response_prob(model.bob[xi], b_label, 0)
    pa_p = response_prob(model_prime.alice[xi], alice_setting, a)
    pb_p = response_prob(model_prime.bob[xi], b_label, 0)
    return mu * pa * pb + (1.0 - mu) * pa_p * pb_p


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

    @property
    def n_hidden(self) -> int:
        return len(self.weights)

    def hidden_state(self, s: int, a: int, xi: int) -> np.ndarray:
        return hidden_qubits(self.bloch[s, a, xi])

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "hidden-state",
                "weights": self.weights.tolist(),
                "responses": self.responses.tolist(),
                "bloch": self.bloch.tolist(),
            },
            allow_nan=False,
        )


def lhs_certificate(
    model_tau: FiniteModel,
    model_tau_prime: FiniteModel,
    mu: float,
    alice_settings,
) -> LhsCertificate:
    """Build the hidden-state ensemble for the M-mixture of two models.

    For every Alice setting, outcome and hidden value the conditional
    probability is the mu-mixture of the two models' responses and the
    hidden Bloch component for B is 2 eta(B)/p - 1.  Zero-probability
    entries contribute nothing and get the maximally mixed state.  An
    unphysical Bloch vector raises :class:`UnphysicalHiddenStateError`
    naming the first one in (setting, hidden value, outcome) order.
    """
    check_unit_interval("mu", mu)
    _check_shared_weights(model_tau, model_tau_prime)
    settings = list(alice_settings)
    stack = projector_stack(settings)
    pa = _response_probs(model_tau.alice, settings, stack)
    pa_p = _response_probs(model_tau_prime.alice, settings, stack)
    pb = _pauli_probs(model_tau.bob)
    pb_p = _pauli_probs(model_tau_prime.bob)
    responses = mu * pa + (1.0 - mu) * pa_p
    # eta[s, a, xi, k] pairs Alice's (s, a) with Bob's outcome 0 at k.
    eta = (
        mu * pa[..., None] * pb[None, None]
        + (1.0 - mu) * pa_p[..., None] * pb_p[None, None]
    )
    weighted = responses > 0.0  # zero-weight entries keep r = 0
    ratio = np.divide(
        eta, responses[..., None], out=np.zeros_like(eta), where=weighted[..., None]
    )
    bloch = np.where(weighted[..., None], 2.0 * ratio - 1.0, 0.0)
    norm_sq = np.einsum("saxk,saxk->sax", bloch, bloch)
    # Report the first offender in (setting, hidden value, outcome) order.
    bad = np.argwhere((norm_sq > 1.0 + PHYS_TOL).transpose(0, 2, 1))
    if len(bad):
        s, xi, a = (int(i) for i in bad[0])
        raise UnphysicalHiddenStateError(xi, s, a, float(norm_sq[s, a, xi]))
    return LhsCertificate(model_tau.weights.copy(), responses, bloch)


def _response_probs(responses, settings, stack: np.ndarray) -> np.ndarray:
    """P(a | s, xi) for every setting, outcome and response: (S, A, Xi).

    Quantum responses share one Born-rule contraction over ``stack``, the
    settings' (S, A, d, d) projectors; table responses are looked up
    entry by entry under the matching element of ``settings``.
    """
    n_set, n_out, _, dim = stack.shape
    out = np.empty((n_set, n_out, len(responses)))
    quantum = [xi for xi, r in enumerate(responses) if isinstance(r, QuantumResponse)]
    if quantum:
        rhos = np.stack([responses[xi].rho for xi in quantum])
        if rhos.shape[-1] != dim:
            raise ValueError(f"setting dim {dim} != response dim {rhos.shape[-1]}")
        out[:, :, quantum] = born_probs(stack, rhos, "quantum response")
    for xi, resp in enumerate(responses):
        if not isinstance(resp, QuantumResponse):
            for s, setting in enumerate(settings):
                for a in range(n_out):
                    out[s, a, xi] = response_prob(resp, setting, a)
    return out


def _pauli_probs(responses) -> np.ndarray:
    """Outcome-0 probabilities at the x, y, z qubit settings: (Xi, 3)."""
    return _response_probs(responses, PAULI_LABELS, pauli_projectors())[:, 0, :].T


def verify_lhs_identity(
    rho_ab: DensityMatrix, cert: LhsCertificate, alice_settings
) -> float:
    """Worst-case residual of the steered-state decomposition.

    For every listed Alice setting and outcome, compares the conditional
    state of ``rho_ab`` against the certificate's weighted hidden-state
    sum; returns the max-abs entry difference over all of them.  All
    steered states come from one contraction over the settings' stack.
    """
    if rho_ab.d_b != 2:
        raise ValueError(f"certificate targets a qubit on Bob's side, got {rho_ab.d_b}")
    settings = list(alice_settings)
    n_set = cert.responses.shape[0]
    if len(settings) != n_set:
        raise ValueError(f"certificate built for {n_set} settings, got {len(settings)}")
    lhs = conditional_states(rho_ab, projector_stack(settings))
    coef = cert.responses * cert.weights
    rhs = np.einsum("sax,saxij->saij", coef, hidden_qubits(cert.bloch))
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class SpmCertificate:
    """Separable-model ensemble: hidden qubits for Alice, states for Bob."""

    weights: np.ndarray = field(repr=False)
    alice_bloch: np.ndarray = field(repr=False)
    bob_states: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_hidden(self) -> int:
        return len(self.weights)

    def alice_state(self, xi: int) -> np.ndarray:
        return hidden_qubits(self.alice_bloch[xi])

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "separable",
                "weights": self.weights.tolist(),
                "alice_bloch": self.alice_bloch.tolist(),
                "bob_states": [
                    {"re": b.real.tolist(), "im": b.imag.tolist()}
                    for b in self.bob_states
                ],
            },
            allow_nan=False,
        )


def _same_bob_responses(model: FiniteModel, model_prime: FiniteModel) -> None:
    for xi in range(model.n_hidden):
        r, rp = model.bob[xi], model_prime.bob[xi]
        if isinstance(r, QuantumResponse) and isinstance(rp, QuantumResponse):
            dev = float(np.max(np.abs(r.rho - rp.rho)))
            if dev > WEIGHT_TOL:
                raise ValueError(f"bob responses differ at xi={xi} (max dev {dev:.3e})")
        elif isinstance(r, TableResponse) and isinstance(rp, TableResponse):
            if r.table != rp.table:
                raise ValueError(f"bob response tables differ at xi={xi}")
        else:
            raise ValueError(f"bob response kinds differ at xi={xi}")


def spm_certificate(
    model_rho: FiniteModel, model_rho_prime: FiniteModel, mu: float
) -> SpmCertificate:
    """Build the separable ensemble for the N-mixture of two models.

    Both inputs must carry identical quantum Bob responses and weights;
    Alice's hidden qubit per hidden value has Bloch components
    2 (mu P(0|k,xi) + (1-mu) P'(0|k,xi)) - 1 for k in x, y, z.
    """
    check_unit_interval("mu", mu)
    _check_shared_weights(model_rho, model_rho_prime)
    _same_bob_responses(model_rho, model_rho_prime)
    for xi, bob in enumerate(model_rho.bob):
        if not isinstance(bob, QuantumResponse):
            raise ValueError(
                f"separable construction needs quantum Bob responses (xi={xi})"
            )
    p0 = _pauli_probs(model_rho.alice)
    p0_p = _pauli_probs(model_rho_prime.alice)
    alice_bloch = 2.0 * (mu * p0 + (1.0 - mu) * p0_p) - 1.0
    norm_sq = np.einsum("xk,xk->x", alice_bloch, alice_bloch)
    unphysical = np.flatnonzero(norm_sq > 1.0 + PHYS_TOL)
    if len(unphysical):
        xi = int(unphysical[0])
        raise UnphysicalHiddenStateError(xi, "xyz", -1, float(norm_sq[xi]))
    bob_states = [bob.rho for bob in model_rho.bob]
    return SpmCertificate(model_rho.weights.copy(), alice_bloch, tuple(bob_states))


def verify_spm_identity(
    sigma_ab: DensityMatrix, cert: SpmCertificate, n_samples: int, seed: int
) -> float:
    """Worst-case residual of the separable-model joint probabilities.

    Samples ``n_samples`` measurement pairs (per sample a random qubit
    direction for Alice, then a random orthonormal basis for Bob, so a
    seed always samples the same measurements), evaluates all
    n x 2 x d_b joints on both the state and the certificate ensemble in
    one batch, and returns the largest absolute difference.
    """
    if sigma_ab.d_a != 2:
        raise ValueError(f"certificate targets a qubit on Alice's side, got {sigma_ab.d_a}")
    if n_samples < 1:
        raise ValueError(f"need at least one measurement sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    directions, bases = random_measurement_pairs(n_samples, sigma_ab.d_b, rng)
    a_stack = qubit_projectors(directions)
    b_stack = qudit_projectors(bases)
    lhs = born_joints(sigma_ab, a_stack, b_stack)
    pa = born_probs(a_stack, hidden_qubits(cert.alice_bloch), "certificate")
    pb = born_probs(b_stack, np.stack(cert.bob_states), "certificate")
    rhs = np.einsum("x,nax,nbx->nab", cert.weights, pa, pb)
    return float(np.max(np.abs(lhs - rhs)))


UNBIASED_QUBIT_TABLE = {"x": (0.5, 0.5), "y": (0.5, 0.5)}


def _biased_table(c: float) -> TableResponse:
    check_unit_interval("c", c)
    return table_response(
        {**UNBIASED_QUBIT_TABLE, "z": ((1.0 + c) / 2.0, (1.0 - c) / 2.0)}
    )


def bob_biased_prime_model(model: FiniteModel, c: float) -> FiniteModel:
    """Partner model for the Bob-side biased product partner.

    Reuses the base model's weights and Alice responses; Bob answers
    independently of the hidden value, unbiased at x and y and z-biased
    by c.  Matches the statistics of bob_biased_partner exactly.
    """
    table = _biased_table(c)
    return finite_model(model.weights, model.alice, (table,) * model.n_hidden)


def alice_biased_prime_model(model: FiniteModel, c: float) -> FiniteModel:
    """Partner model for the Alice-side biased product partner."""
    table = _biased_table(c)
    return finite_model(model.weights, (table,) * model.n_hidden, model.bob)


def vertex_witness_model(d_a: int) -> FiniteModel:
    """Single hidden-value model probing the worst box vertex.

    Bob answers outcome 0 deterministically at all of x, y, z (the
    vertex maximizing the hidden-state norm); Alice holds the maximally
    mixed qudit so every setting/outcome pair carries weight.  Feeding
    this together with its biased prime model into lhs_certificate
    raises for any (mu, c) outside the feasible region.
    """
    bob = table_response({"x": (1.0, 0.0), "y": (1.0, 0.0), "z": (1.0, 0.0)})
    alice = quantum_response(np.eye(d_a, dtype=np.complex128) / d_a)
    return finite_model([1.0], (alice,), (bob,))
