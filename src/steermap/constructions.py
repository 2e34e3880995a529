"""Hidden-state and separable-model constructions, with numeric checks.

Given a finite model for a state and its mixing partner's Pauli table on
the mixed party (the biased partner's is
:func:`~steermap.mapping.biased_probs`), :func:`certificate` returns the
certificate of the mixed state as a :class:`~steermap.models.FiniteModel`.
Both maps share this one construction with the parties swapped: the
certificate keeps the weights and the responses of the party that was
not mixed, and the other party, Bob's qubit for map M and Alice's for
map N, gets one hidden qubit per hidden value with Bloch components
2 (mu P(0|k,xi) + (1-mu) P'(0|k,xi)) - 1 at the Paulis k = x, y, z
(:func:`hidden_bloch`, with the Bloch-ball tolerance of
:func:`~steermap.mapping.feasible`), reading P(0|k,xi) through
:func:`~steermap.models.pauli_table`.  Since that qubit depends on the
hidden value alone, an LHS certificate is a hidden-state model by
construction, and no builder reads Alice's measurements.
:func:`lhs_certificate` and :func:`spm_certificate` are its two maps for
a partner given as a model, which must share the base model's weights
and other party and is compared with them entry by entry.

The verifiers recompute both sides of an identity from scratch and
return the worst residual: the steered states at Alice's settings (map
M) and the joints of sampled measurement pairs (map N) of one state,
and, for a model whose parties are both quantum, the operator identity
rho = sum_xi w_xi a_xi (x) b_xi itself (:func:`verify_model_identities`),
which covers every measurement.  The builders and
:func:`verify_model_identities` take models and states with leading
trial axes; the other two verifiers take one state.  Each side of an
identity is one contraction over the hidden index and the state
tensor.  ``verify`` builds a block of trials in one call per stage and
checks it by its operator identities alone.
"""

from __future__ import annotations

import numpy as np

from . import mapping
from .measurements import qubit_projectors, qudit_projectors, random_bases, validate_projectors
from .models import WEIGHT_TOL, FiniteModel, born_joints, born_probs, finite_model, pauli_table
from .states import DensityMatrix, check_unit_interval, conditional_states, hidden_qubits
from .states import _integer, _rng


class UnphysicalHiddenStateError(ValueError):
    """A constructed hidden state left the Bloch ball.

    Signals that (mu, c) lies outside the range where the construction
    works; carries the offending hidden index and squared Bloch norm.
    """

    def __init__(self, xi: int, norm_sq: float):
        self.xi = xi
        self.norm_sq = norm_sq
        super().__init__(f"hidden state unphysical at xi={xi}: |r|^2 = {norm_sq:.12g} > 1")


def _parties(model: FiniteModel, side: str) -> tuple[str, str]:
    """The (mixed, kept) party names of ``side``, once the kept party is checked to be quantum."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    mixed, kept = ("alice", "bob") if side == "A" else ("bob", "alice")
    if not model.is_quantum(kept):
        kind = "hidden-state" if kept == "alice" else "separable"
        raise ValueError(f"{kind} construction needs quantum {kept.capitalize()} responses")
    return mixed, kept


def _partner_table(model: FiniteModel, prime: FiniteModel, side: str) -> np.ndarray:
    """The Pauli table of ``prime`` on the party that ``side`` mixes.

    The two models must share their weights and the kept party's quantum
    responses; each is compared entry by entry.
    """
    if model.weights.shape != prime.weights.shape:
        sizes = f"{model.weights.shape} vs {prime.weights.shape}"
        raise ValueError(f"models disagree on ensemble size: weights {sizes}")
    dev = float(np.max(np.abs(model.weights - prime.weights)))
    if not dev <= WEIGHT_TOL:
        raise ValueError(f"models must share hidden-variable weights (max dev {dev:.3e})")
    mixed, kept = _parties(model, side)
    party, party_prime = getattr(model, kept), getattr(prime, kept)
    if party_prime.shape != party.shape:
        raise ValueError(f"{kept} responses differ in shape: {party.shape} vs {party_prime.shape}")
    dev = float(np.max(np.abs(party - party_prime)))
    if not dev <= WEIGHT_TOL:
        raise ValueError(f"{kept} responses differ (max dev {dev:.3e})")
    return pauli_table(prime, mixed)


def hidden_bloch(mu, p0, p0_prime) -> np.ndarray:
    """Hidden Bloch vectors 2 (mu p0 + (1 - mu) p0') - 1 of both maps: (..., Xi, 3).

    ``p0[..., xi, k]`` is the mixed party's outcome-0 probability at the
    k-th Pauli setting in the base model and ``p0_prime`` the partner's
    (length 1 on the xi axis for a row shared by every hidden value);
    ``mu`` is a float or one value per leading index.  A squared norm
    above 1 + ``mapping.FEAS_TOL``, the bound of
    :func:`~steermap.mapping.feasible`, or NaN is refused, naming the
    first such hidden value.
    """
    m = check_unit_interval("mu", mu)[..., None, None]
    bloch = 2.0 * (m * p0 + (1.0 - m) * p0_prime) - 1.0
    norm_sq = np.einsum("...xk,...xk->...x", bloch, bloch)
    over = ~(norm_sq <= 1.0 + mapping.FEAS_TOL)
    if over.any():
        *trial, xi = (int(i) for i in np.argwhere(over)[0])
        raise UnphysicalHiddenStateError(xi, float(norm_sq[(*trial, xi)]))
    return bloch


def certificate(model: FiniteModel, mu, side: str, partner) -> FiniteModel:
    """The certificate of ``model`` mixed on party ``side`` with a partner.

    ``side`` is "B" for map M (a hidden-state model) and "A" for map N
    (a separable model), as in :func:`steermap.mapping.biased_partner`.
    ``partner`` is the partner's Pauli table on the mixed party, (..., Xi, 3)
    or (..., 1, 3) for one row that every hidden value shares, as
    :func:`steermap.mapping.biased_probs` gives.  The other party must
    hold quantum responses; the mixed party's may be qubit states or a
    Pauli table.  The result keeps the weights and the other party's
    responses and gives the mixed party one read-only hidden qubit per
    hidden value.  Models may carry leading trial axes, with ``mu`` a
    float or one value per trial.
    """
    mixed, kept = _parties(model, side)
    qubits = hidden_qubits(hidden_bloch(mu, pauli_table(model, mixed), partner))
    qubits.setflags(write=False)
    return FiniteModel(model.weights, **{kept: getattr(model, kept), mixed: qubits})


def _check_setting_dim(settings: np.ndarray, alice: np.ndarray) -> None:
    """Refuse settings that validate_projectors checked but that do not fit Alice's dim."""
    if alice.shape[-1] != settings.shape[-1]:
        raise ValueError(f"setting dim {settings.shape[-1]} != response dim {alice.shape[-1]}")


def lhs_certificate(
    model_tau: FiniteModel, model_tau_prime: FiniteModel, mu: float, alice_settings
) -> FiniteModel:
    """The hidden-state model of the M-mixture of two models: :func:`certificate` on side "B".

    It holds for every Alice measurement, since each hidden qubit depends
    on the hidden value alone.  ``alice_settings``, an (S, k, d_a, d_a)
    projector stack (or a sequence of (k, d_a, d_a) measurements), is
    checked by :func:`steermap.measurements.validate_projectors` and
    against Alice's dim; the certificate does not depend on it.
    """
    settings = validate_projectors(alice_settings)
    # Refuses a table Alice by name, before her dim is compared.
    partner = _partner_table(model_tau, model_tau_prime, "B")
    _check_setting_dim(settings, model_tau.alice)
    return certificate(model_tau, mu, "B", partner)


def verify_lhs_identity(rho_ab: DensityMatrix, cert: FiniteModel, alice_settings) -> float:
    """Worst-case residual of the steered-state decomposition.

    For every listed Alice setting and outcome, compares the conditional
    state of ``rho_ab`` against the certificate's weighted hidden-state
    sum, with Alice's Born table taken from ``cert.alice`` at those
    settings; returns the max-abs entry difference over all of them.
    ``alice_settings`` is checked as in :func:`lhs_certificate`, and all
    steered states come from one contraction over its stack.
    """
    settings = validate_projectors(alice_settings)
    _check_setting_dim(settings, cert.alice)
    responses = born_probs(settings, cert.alice, "quantum response")
    if rho_ab.d_b != 2:
        raise ValueError(f"certificate targets a qubit on Bob's side, got {rho_ab.d_b}")
    lhs = conditional_states(rho_ab, settings)
    rhs = np.einsum("sax,xij->saij", responses * cert.weights, cert.bob)
    return float(np.abs(lhs - rhs).max())


def spm_certificate(model_rho: FiniteModel, model_rho_prime: FiniteModel, mu) -> FiniteModel:
    """The separable model of the N-mixture of two models: :func:`certificate` on side "A"."""
    return certificate(model_rho, mu, "A", _partner_table(model_rho, model_rho_prime, "A"))


def verify_spm_identity(sigma_ab: DensityMatrix, cert: FiniteModel, n_samples: int, seed) -> float:
    """Worst-case residual of the separable-model joint probabilities of one state.

    The integer ``seed`` samples ``n_samples`` measurement pairs: the n
    random qubit directions for Alice, then the n random orthonormal
    bases for Bob (:func:`steermap.measurements.random_bases`).  All
    n x 2 x d_b joints of the state and the certificate come from
    stacks.  Returns the largest absolute difference; a stack of states
    is refused by :func:`steermap.models.born_joints`.
    """
    if sigma_ab.d_a != 2:
        raise ValueError(f"certificate targets a qubit on Alice's side, got {sigma_ab.d_a}")
    if _integer("n_samples", n_samples) < 1:
        raise ValueError(f"need at least one measurement sample, got {n_samples}")
    rng = _rng(seed)
    v = rng.standard_normal((n_samples, 3))
    a_stack = qubit_projectors(v / np.linalg.norm(v, axis=1, keepdims=True))
    b_stack = qudit_projectors(random_bases(n_samples, sigma_ab.d_b, rng))
    lhs = born_joints(sigma_ab, a_stack, b_stack)
    pa = born_probs(a_stack, cert.alice, "certificate")
    pb = born_probs(b_stack, cert.bob, "certificate")
    rhs = np.einsum("x,nax,nbx->nab", cert.weights, pa, pb)
    return float(np.abs(lhs - rhs).max())


def verify_model_identities(rho: DensityMatrix, model: FiniteModel):
    """Operator residuals of models whose parties are both quantum, one per state.

    The max-abs entry of rho - sum_xi w_xi a_xi (x) b_xi, from one
    contraction.  It is at rounding level when the model is a separable
    decomposition of the state itself, a check that covers every
    measurement of both parties.  ``model`` carries the leading axes of
    ``rho``, one state or a stack of T; both its parties must be quantum
    (:meth:`~steermap.models.FiniteModel.is_quantum`) and of the state's
    dims.
    """
    d_a, d_b = rho.d_a, rho.d_b
    alice, bob = model.alice, model.bob
    quantum = model.is_quantum("alice") and model.is_quantum("bob")
    if not quantum or (alice.shape[-1], bob.shape[-1]) != (d_a, d_b):
        raise ValueError(
            f"operator identity needs quantum {d_a}- and {d_b}-dim responses, "
            f"got shapes {alice.shape} and {bob.shape}"
        )
    ensemble = np.einsum("...x,...xij,...xkl->...ikjl", model.weights, alice, bob)
    lead = rho.mat.shape[:-2]
    return np.abs(rho.mat - ensemble.reshape(*lead, d_a * d_b, d_a * d_b)).max(axis=(-2, -1))


def bob_biased_prime_model(model: FiniteModel, c: float) -> FiniteModel:
    """Partner model for the Bob-side biased product partner.

    Reuses the base model's validated weights and Alice responses; Bob
    answers independently of the hidden value, unbiased at x and y and
    z-biased by the number c, through one read-only table row that every
    hidden value shares.  Matches the statistics of bob_biased_partner
    exactly.
    """
    table = np.broadcast_to(mapping.biased_probs(c), (*model.weights.shape, 3))
    return FiniteModel(model.weights, model.alice, table)


def alice_biased_prime_model(model: FiniteModel, c: float) -> FiniteModel:
    """Partner model for the Alice-side biased product partner."""
    table = np.broadcast_to(mapping.biased_probs(c), (*model.weights.shape, 3))
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
