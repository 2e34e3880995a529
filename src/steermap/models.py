"""Finite hidden-variable models and their joint-probability evaluators.

A model is a finite ensemble: weights over a hidden index plus one
response per party and hidden value.  A response is either quantum (a
density matrix; probabilities come from the Born rule) or an explicit
table over a declared finite set of settings.  Which combination is
present decides what the model certifies:

  both parties quantum   -> separable-model (SPM) witness
  only Bob quantum       -> local-hidden-state (LHS) model
  otherwise              -> local-hidden-variable (LHV) model

The hidden variable is always a finite index; ensemble integrals become
finite sums, which lets every construction be checked pointwise.

Settings: a quantum response accepts a ProjMeasurement, or (for qubits)
one of the labels 'x', 'y', 'z' which resolve to the fixed Pauli
settings.  A table response accepts exactly the labels it declares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .measurements import PAULI_LABELS, ProjMeasurement, pauli_setting
from .states import PSD_TOL, TRACE_TOL, DensityMatrix

PROB_TOL = 1e-12


class SettingError(ValueError):
    """A setting could not be resolved against a response."""


@dataclass(frozen=True)
class QuantumResponse:
    """Born-rule response P(a | M, xi) = tr[M_a rho]."""

    rho: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class TableResponse:
    """Explicit outcome distributions over a declared finite setting set."""

    table: dict[str, tuple[float, ...]] = field(repr=False)

    @property
    def settings(self) -> tuple[str, ...]:
        return tuple(self.table)


Response = QuantumResponse | TableResponse


def validate_responses(stack) -> np.ndarray:
    """Validate a stack of response density matrices; return a read-only copy.

    ``stack`` has shape (n, d, d), or (T, n, d, d) for the members of T
    ensembles.  One pass over the whole stack: the eigensolver rejects
    non-finite and non-Hermitian members, then every trace must be 1 and
    every least eigenvalue >= -1e-10, both checks written so that NaN
    fails them.  Errors name the first offending member (``t,i`` for a
    stack of ensembles).
    """
    m = np.array(stack, dtype=np.complex128)
    if m.ndim not in (3, 4):
        raise ValueError(f"expected an (n, d, d) stack of states, got shape {m.shape}")
    w, _ = linalg.hermitian_eigen(m)
    tr = np.trace(m, axis1=-2, axis2=-1)
    bad = ~(np.abs(tr - 1.0) <= TRACE_TOL)
    if bad.any():
        i = linalg._first(bad)
        raise ValueError(f"response state {_index(i)} trace {tr[i]} != 1")
    bad = ~(w[..., 0] >= -PSD_TOL)
    if bad.any():
        i = linalg._first(bad)
        raise ValueError(
            f"response state {_index(i)} is not PSD (min eigenvalue {w[i][0]:.3e})"
        )
    m.setflags(write=False)
    return m


def _index(idx: tuple[int, ...]) -> str:
    return ",".join(map(str, idx))


def quantum_responses(stack) -> tuple[QuantumResponse, ...]:
    """Validate an (n, d, d) stack of density matrices, one response each.

    The checks of :func:`validate_responses`; the responses hold
    read-only views of one copy of the stack.
    """
    m = np.asarray(stack)
    if m.ndim != 3:
        raise ValueError(f"expected an (n, d, d) stack of states, got shape {m.shape}")
    return tuple(QuantumResponse(rho) for rho in validate_responses(m))


def quantum_response(rho) -> QuantumResponse:
    """Validate a density matrix and wrap it as a response.

    The ``n = 1`` case of :func:`quantum_responses`, with its checks.
    """
    return quantum_responses(linalg.as_matrix(rho)[None])[0]


def table_response(table: dict[str, tuple[float, ...]]) -> TableResponse:
    """Validate an explicit response table: probabilities, unit sums."""
    if not table:
        raise ValueError("response table declares no settings")
    clean = {}
    for setting, probs in table.items():
        row = tuple(float(p) for p in probs)
        for p in row:
            if p < -PROB_TOL or p > 1.0 + PROB_TOL:
                raise ValueError(f"probability {p} out of [0, 1] at setting {setting!r}")
        total = sum(row)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"outcomes at setting {setting!r} sum to {total} != 1")
        clean[setting] = row
    return TableResponse(clean)


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


def response_prob(resp: Response, setting, outcome: int) -> float:
    """Evaluate P(outcome | setting) for one response."""
    if isinstance(resp, TableResponse):
        if not isinstance(setting, str) or setting not in resp.table:
            raise SettingError(
                f"setting {setting!r} not in declared set {tuple(resp.table)}"
            )
        row = resp.table[setting]
        if not 0 <= outcome < len(row):
            raise IndexError(f"outcome {outcome} out of range for {len(row)} outcomes")
        return row[outcome]
    if isinstance(setting, str):
        if resp.dim != 2 or setting not in PAULI_LABELS:
            raise SettingError(
                f"label {setting!r} only resolves to a Pauli setting on a qubit"
            )
        setting = pauli_setting(setting)
    if not isinstance(setting, ProjMeasurement):
        raise SettingError(f"cannot resolve setting {setting!r} for a quantum response")
    if setting.dim != resp.dim:
        raise ValueError(f"setting dim {setting.dim} != response dim {resp.dim}")
    if not 0 <= outcome < setting.n_outcomes:
        raise IndexError(
            f"outcome {outcome} out of range for {setting.n_outcomes} outcomes"
        )
    pi = setting.projectors[None, outcome : outcome + 1]
    return float(born_probs(pi, resp.rho[None], "quantum response")[0, 0, 0])


@dataclass(frozen=True)
class FiniteModel:
    """Finite hidden-variable ensemble: weights plus per-party responses."""

    weights: np.ndarray = field(repr=False)
    alice: tuple[Response, ...] = field(repr=False)
    bob: tuple[Response, ...] = field(repr=False)

    @property
    def n_hidden(self) -> int:
        return len(self.weights)

    @property
    def kind(self) -> str:
        """'SPM' if both sides quantum, 'LHS' if only Bob, else 'LHV'."""
        alice_q = all(isinstance(r, QuantumResponse) for r in self.alice)
        bob_q = all(isinstance(r, QuantumResponse) for r in self.bob)
        if alice_q and bob_q:
            return "SPM"
        if bob_q:
            return "LHS"
        return "LHV"


def check_weights(weights) -> np.ndarray:
    """Validate hidden-variable weights; return a read-only float copy.

    ``weights`` is one non-empty 1-D sequence or a (T, Xi) stack of T
    ensembles' weights: every weight >= -1e-12 and every row summing to
    1 within 1e-12.  The error names the first bad row's least weight or
    sum.
    """
    w = np.array(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    low = w.min(axis=-1)
    if np.any(low < -PROB_TOL):
        raise ValueError(f"negative weight {low.flat[np.argmax(low < -PROB_TOL)]}")
    total = w.sum(axis=-1)
    off = ~(np.abs(total - 1.0) <= PROB_TOL)
    if off.any():
        raise ValueError(f"weights sum to {float(total.flat[np.argmax(off)])} != 1")
    w.setflags(write=False)
    return w


def finite_model(weights, alice, bob) -> FiniteModel:
    """Validate weights and assemble a FiniteModel."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be a non-empty 1-D sequence")
    w = check_weights(w)
    alice = tuple(alice)
    bob = tuple(bob)
    if len(alice) != w.size or len(bob) != w.size:
        raise ValueError(
            f"need one response per hidden value: {w.size} weights, "
            f"{len(alice)} alice, {len(bob)} bob"
        )
    return FiniteModel(w, alice, bob)


def born_joints(rho: DensityMatrix, a_projectors, b_projectors) -> np.ndarray:
    """Joint outcome probabilities of n measurement pairs at once.

    ``a_projectors`` is an (n, A, d_a, d_a) stack and ``b_projectors``
    an (n, B, d_b, d_b) stack; entry [m, a, b] of the (n, A, B) result is
    tr[(A_ma x B_mb) rho], contracted on the (d_a, d_b, d_a, d_b) state
    tensor without forming Kronecker products.  For a stack of T states
    both projector stacks carry a leading (T,) axis and the result is
    (T, n, A, B).  Every entry is range-checked and clipped to [0, 1].
    """
    d_a, d_b = rho.d_a, rho.d_b
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


def born_joint(
    rho: DensityMatrix, m_a: ProjMeasurement, m_b: ProjMeasurement, a: int, b: int
) -> float:
    """Joint outcome probability tr[(A_a x B_b) rho]."""
    if m_a.dim != rho.d_a or m_b.dim != rho.d_b:
        raise ValueError(
            f"measurement dims {m_a.dim}x{m_b.dim} do not match state "
            f"{rho.d_a}x{rho.d_b}"
        )
    if not 0 <= a < m_a.n_outcomes:
        raise IndexError(f"outcome a={a} out of range")
    if not 0 <= b < m_b.n_outcomes:
        raise IndexError(f"outcome b={b} out of range")
    pa = m_a.projectors[None, a : a + 1]
    pb = m_b.projectors[None, b : b + 1]
    return float(born_joints(rho, pa, pb)[0, 0, 0])


def model_joint(model: FiniteModel, setting_a, setting_b, a: int, b: int) -> float:
    """Hidden-variable joint probability sum_xi w_xi P(a|A,xi) P(b|B,xi)."""
    total = 0.0
    for xi in range(model.n_hidden):
        pa = response_prob(model.alice[xi], setting_a, a)
        pb = response_prob(model.bob[xi], setting_b, b)
        total += float(model.weights[xi]) * pa * pb
    return total


def model_from_separable(ensemble) -> FiniteModel:
    """Both-sides-quantum model indexed by a separable ensemble.

    ``ensemble`` is the (weight, alpha, beta) list produced by
    :func:`steermap.states.random_separable`.
    """
    members = list(ensemble)
    if not members:
        raise ValueError("ensemble is empty")
    weights = [w for w, _, _ in members]
    alice = quantum_responses([alpha for _, alpha, _ in members])
    bob = quantum_responses([beta for _, _, beta in members])
    return finite_model(weights, alice, bob)


def bob_marginal(model: FiniteModel, dim: int) -> np.ndarray:
    """sum_xi w_xi rho^B_xi for a model with quantum Bob responses."""
    out = np.zeros((dim, dim), dtype=np.complex128)
    for xi in range(model.n_hidden):
        resp = model.bob[xi]
        if not isinstance(resp, QuantumResponse):
            raise ValueError("bob responses are not all quantum")
        out += model.weights[xi] * resp.rho
    return out
