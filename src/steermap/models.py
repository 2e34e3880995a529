"""Finite hidden-variable models and the Born-rule tables they are checked with.

A model is a finite ensemble: weights over a hidden index plus one
read-only array per party.  A party is either quantum, an (Xi, d, d)
stack of response states whose probabilities come from the Born rule,
or a Pauli table, an (Xi, 3) array of outcome-0 probabilities at the
x, y, z qubit settings.  Which combination is present decides what the
model certifies:

  both parties quantum   -> separable-model (SPM) witness
  only Bob quantum       -> local-hidden-state (LHS) model
  otherwise              -> local-hidden-variable (LHV) model

The hidden variable is always a finite index; ensemble integrals become
finite sums, which lets every construction be checked pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import DensityMatrix, check_unit_interval, validate_states

PROB_TOL = 1e-12


def _check_probs(values: np.ndarray, context: str) -> np.ndarray:
    """Range-check an array of probabilities to PROB_TOL and clip to [0, 1].

    The error names the first offending entry in C order.
    """
    ok = (values >= -PROB_TOL) & (values <= 1.0 + PROB_TOL)
    if not ok.all():
        value = float(values[tuple(np.argwhere(~ok)[0])])
        raise ValueError(f"{context}: probability {value} exceeds tolerance")
    return np.minimum(np.maximum(values, 0.0), 1.0)


def born_probs(projectors, states, context: str = "born_probs") -> np.ndarray:
    """Born-rule table tr[P_sa rho_x] as an (S, A, X) array.

    ``projectors`` is an (S, A, d, d) stack (S measurements with A
    outcomes each) and ``states`` an (X, d, d) stack of density
    matrices.  Either may carry a leading (T,) axis, giving T tables
    (T, S, A, X) in one batched matmul.  Every entry is range-checked and
    clipped to [0, 1].
    """
    p = np.asarray(projectors)
    rhos = np.asarray(states)
    *lead_p, n_set, n_out, _, d = p.shape
    # tr[P rho] = sum_ij P[i, j] rho[j, i]: one matmul over flattened entries.
    flat = p.reshape(*lead_p, n_set * n_out, d * d) @ rhos.swapaxes(-1, -2).reshape(
        *rhos.shape[:-3], -1, d * d
    ).swapaxes(-1, -2)
    return _check_probs(flat.real.reshape(*flat.shape[:-2], n_set, n_out, -1), context)


@dataclass(frozen=True)
class FiniteModel:
    """Finite hidden-variable ensemble: (Xi,) weights plus one array per party.

    ``alice`` and ``bob`` are each an (Xi, d, d) response-state stack or
    an (Xi, 3) Pauli table (see the module docstring); build one with
    :func:`finite_model`.
    """

    weights: np.ndarray = field(repr=False)
    alice: np.ndarray = field(repr=False)
    bob: np.ndarray = field(repr=False)

    @property
    def n_hidden(self) -> int:
        return len(self.weights)


def finite_model(weights, alice, bob) -> FiniteModel:
    """Validate weights and both parties and assemble a FiniteModel.

    The weights must form a non-empty 1-D sequence summing to 1 within
    1e-12, each >= -1e-12.  A 3-D party is a response-state stack, checked
    by :func:`steermap.states.validate_states`; a 2-D party is a Pauli
    table, which must have three columns and every entry in [0, 1].  Each
    party needs one row per weight.
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if w.min() < -PROB_TOL:
        raise ValueError(f"negative weight {w.min()}")
    if not abs(w.sum() - 1.0) <= PROB_TOL:
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
    """One party of a model as a validated read-only array."""
    r = np.asarray(responses)
    if r.ndim == 3:
        return validate_states(r)
    if r.ndim != 2 or r.shape[1] != 3:
        raise ValueError(
            f"{name} must be an (Xi, d, d) state stack or an (Xi, 3) Pauli table, "
            f"got shape {r.shape}"
        )
    table = np.array(r, dtype=float)
    check_unit_interval(f"{name} table entry", table)
    table.setflags(write=False)
    return table


def born_joints(rho: DensityMatrix, a_projectors, b_projectors) -> np.ndarray:
    """Joint outcome probabilities of n measurement pairs at once.

    ``a_projectors`` is an (n, A, d_a, d_a) stack and ``b_projectors``
    an (n, B, d_b, d_b) stack; entry [m, a, b] of the (n, A, B) result is
    tr[(A_ma x B_mb) rho], contracted on the (d_a, d_b, d_a, d_b) state
    tensor without forming Kronecker products.  For a stack of T states
    both projector stacks carry a leading (T,) axis and the result is
    (T, n, A, B).  Every entry is range-checked and clipped to [0, 1].
    Projectors of other dims than the state's raise ``ValueError``.
    """
    d_a, d_b = rho.d_a, rho.d_b
    got = (a_projectors.shape[-1], b_projectors.shape[-1])
    if got != (d_a, d_b):
        raise ValueError(f"projector dims {got[0]}x{got[1]} != state dims {d_a}x{d_b}")
    lead = rho.mat.shape[:-2]
    n, n_a = a_projectors.shape[len(lead) : len(lead) + 2]
    # t[k, l, i, j] = rho[(k, l), (i, j)], regrouped as a (d_a^2, d_b^2)
    # matrix with rows (i, k) and columns (j, l).  Alice's side first,
    # x[m, a, (j, l)] = sum_ik A_ma[i, k] t[k, l, i, j], then Bob's,
    # sum_jl x[m, a, (j, l)] B_mb[j, l].
    t = rho.mat.reshape(*lead, d_a, d_b, d_a, d_b)
    t = t.transpose(*range(len(lead)), -2, -4, -1, -3).reshape(*lead, d_a**2, d_b**2)
    x = (a_projectors.reshape(*lead, n * n_a, d_a**2) @ t).reshape(*lead, n, n_a, d_b**2)
    values = (x @ b_projectors.reshape(*lead, n, -1, d_b**2).swapaxes(-1, -2)).real
    return _check_probs(values, "born_joint")


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

