"""Finite hidden-variable models and the Born-rule tables they are checked with.

A model is a finite ensemble: weights over a hidden index plus one
read-only array per party.  A party is either quantum, an (Xi, d, d)
stack of response states whose probabilities come from the Born rule,
or a Pauli table, an (Xi, 3) array of outcome-0 probabilities at the
x, y, z qubit settings.  A model may hold one ensemble per trial:
(..., Xi) weights and (..., Xi, d, d) or (..., Xi, 3) parties.  A party's
kind is its rank relative to the weights', not its shape: a (T, 3, 3)
stack of Pauli tables has the shape of three qutrit states.  That rule
is :meth:`FiniteModel.is_quantum`, and :func:`pauli_table` reads either
kind's answers at x, y, z, which are all a certificate takes from the
mixed party.  The Born-rule kernels take one projector stack:
:func:`born_probs` reads the response states of every trial in one
matmul, and :func:`born_joints` the steered states of one state.  Both
return the contraction as computed, since states are validated where
they are made.  Which combination of parties is present decides what
the model certifies:

  both parties quantum   -> separable model (SPM)
  only Bob quantum       -> local-hidden-state (LHS) model for Alice's Paulis
  otherwise              -> local-hidden-variable (LHV) model

A certificate of map M built from a quantum Alice keeps her responses
beside Bob's hidden qubits, so both its parties are quantum: where
``constructions.verify_model_identities`` reads zero to rounding, it is
a separable decomposition sum_xi w_xi a_xi (x) b_xi of the M-mixed
state, and so a hidden-state model for every Alice measurement.

The hidden variable is always a finite index; ensemble integrals become
finite sums, which lets every construction be checked pointwise.
"""

from __future__ import annotations

import numpy as np

from .linalg import _array, _real_array
from .measurements import pauli_projectors
from .states import (
    DensityMatrix,
    _Frozen,
    check_unit_interval,
    conditional_states,
    validate_states,
)

WEIGHT_TOL = 1e-12  # of hidden-variable weights, and of two models' agreement


def born_probs(projectors, states, context: str = "born_probs") -> np.ndarray:
    """Born-rule table tr[P_sa rho_x] as an (S, A, X) array.

    ``projectors`` is an (S, A, d, d) stack (S measurements with A
    outcomes each) and ``states`` an (X, d, d) stack of density
    matrices.  States may carry leading axes, such as (T, X, d, d) for T
    models, giving (T, S, A, X) tables in one batched matmul.  Projectors
    of another rank, and states of another shape, such as an (X, 3)
    Pauli table, raise ``ValueError``.  Entries are returned as computed:
    validated states give probabilities to rounding.
    """
    p = _real_array("projectors", projectors, "biufc")
    rhos = _real_array("states", states, "biufc")
    if p.ndim != 4 or p.shape[-2] != p.shape[-1]:
        raise ValueError(f"{context}: projectors must be (S, A, d, d), got shape {p.shape}")
    n_set, n_out, _, d = p.shape
    if rhos.ndim < 3 or rhos.shape[-2:] != (d, d):
        raise ValueError(f"{context}: states must be (..., X, {d}, {d}), got shape {rhos.shape}")
    # tr[P rho] = sum_ij P[i, j] rho[j, i]: one matmul over flattened entries.
    flat = p.reshape(n_set * n_out, d * d) @ rhos.swapaxes(-1, -2).reshape(
        *rhos.shape[:-3], -1, d * d
    ).swapaxes(-1, -2)
    return flat.real.reshape(*flat.shape[:-2], n_set, n_out, -1)


class FiniteModel(_Frozen):
    """Finite hidden-variable ensemble: (..., Xi) weights plus one array per party.

    ``alice`` and ``bob`` are each an (..., Xi, d, d) response-state stack
    or an (..., Xi, 3) Pauli table (see the module docstring), with the
    leading trial axes of the weights; build one with :func:`finite_model`.
    """

    __slots__ = ("weights", "alice", "bob")

    def __init__(self, weights: np.ndarray, alice: np.ndarray, bob: np.ndarray):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    def __repr__(self) -> str:
        return f"FiniteModel(n_hidden={self.n_hidden})"

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[-1]

    def is_quantum(self, party: str) -> bool:
        """Whether ``party`` ("alice" or "bob") holds response states: rank of the weights' + 2."""
        return getattr(self, party).ndim == self.weights.ndim + 2


def pauli_table(model: FiniteModel, party: str) -> np.ndarray:
    """The (..., Xi, 3) outcome-0 table of ``party`` at the x, y, z settings.

    A Pauli table is returned as itself and qubit response states answer
    by one Born-rule contraction; qudit ones raise ``ValueError``.
    """
    r = getattr(model, party)
    if not model.is_quantum(party):
        return r
    if r.shape[-1] != 2:
        raise ValueError(f"Pauli settings need qubit responses, got dim {r.shape[-1]}")
    return born_probs(pauli_projectors(), r, "quantum response")[..., 0, :].swapaxes(-1, -2)


def finite_model(weights, alice, bob) -> FiniteModel:
    """Validate weights and both parties and assemble a FiniteModel.

    The weights must form a non-empty real 1-D sequence summing to 1
    within 1e-12, each >= -1e-12.  A 3-D party is a response-state stack,
    checked by :func:`steermap.states.validate_states`; a 2-D party is a
    real Pauli table, with three columns and every entry in [0, 1].  Each
    party needs one row per weight.
    """
    w = _real_array("weights", weights).copy()
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if w.min() < -WEIGHT_TOL:
        raise ValueError(f"negative weight {w.min()}")
    if not abs(w.sum() - 1.0) <= WEIGHT_TOL:
        raise ValueError(f"weights sum to {w.sum()} != 1")
    w.setflags(write=False)
    alice, bob = _party("alice", alice), _party("bob", bob)
    if len(alice) != w.size or len(bob) != w.size:
        raise ValueError(
            f"need one response per hidden value: {w.size} weights, "
            f"{len(alice)} alice, {len(bob)} bob"
        )
    return FiniteModel(w, alice, bob)


def _party(name: str, responses) -> np.ndarray:
    """One party of a model as a validated read-only array; its rank names its entries' rule."""
    r = _array(name, responses)
    if r.ndim == 3:
        return validate_states(r)
    if r.ndim != 2 or r.shape[1] != 3:
        raise ValueError(
            f"{name} must be an (Xi, d, d) state stack or an (Xi, 3) Pauli table, "
            f"got shape {r.shape}"
        )
    table = _real_array(f"{name} table", responses).copy()
    check_unit_interval(f"{name} table entry", table)
    table.setflags(write=False)
    return table


def born_joints(rho: DensityMatrix, a_projectors, b_projectors) -> np.ndarray:
    """Joint outcome probabilities of one state at n measurement pairs at once.

    ``a_projectors`` is an (n, A, d_a, d_a) stack and ``b_projectors``
    an (n, B, d_b, d_b) stack; entry [m, a, b] of the (n, A, B) result is
    tr[B_mb sigma_ma], where sigma_ma = tr_A[(A_ma x 1) rho] is Bob's
    steered state from :func:`steermap.states.conditional_states`, which
    refuses a stack of states.  Entries are returned as computed.  Stacks
    of another rank, or of other dims than the state's, raise
    ``ValueError``.
    """
    d_a, d_b = rho.d_a, rho.d_b
    if a_projectors.ndim != 4 or b_projectors.ndim != 4:
        shapes = f"{a_projectors.shape} and {b_projectors.shape}"
        raise ValueError(f"need (n, k, d, d) projector stacks, got shapes {shapes}")
    got = (a_projectors.shape[-1], b_projectors.shape[-1])
    if got != (d_a, d_b):
        raise ValueError(f"projector dims {got[0]}x{got[1]} != state dims {d_a}x{d_b}")
    # sum_jl sigma[l, j] B[j, l], with sigma transposed into B's (j, l) order.
    sigma_t = conditional_states(rho, a_projectors).swapaxes(-1, -2)
    x = sigma_t.reshape(*sigma_t.shape[:-2], d_b**2)
    b = b_projectors.reshape(*b_projectors.shape[:-2], d_b**2)
    return (x @ b.swapaxes(-1, -2)).real


def model_from_separable(ensemble) -> FiniteModel:
    """Both-sides-quantum model indexed by a separable ensemble.

    ``ensemble`` is the (weight, alpha, beta) list produced by
    :func:`steermap.states.random_separable`.
    """
    members = list(ensemble)
    if not members:
        raise ValueError("ensemble is empty")
    weights = [w for w, _, _ in members]
    alice = np.stack([alpha for _, alpha, _ in members])
    bob = np.stack([beta for _, _, beta in members])
    return finite_model(weights, alice, bob)

