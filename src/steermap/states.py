"""Bipartite density matrices, canonical families and qubit Bloch algebra.

All states are immutable value objects over numpy arrays.  Random
constructions take an explicit seed; there is no global RNG state.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import linalg

HERM_TOL = linalg.HERMITICITY_TOL
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.stack(PAULIS)


def check_unit_interval(name: str, value) -> None:
    """Raise ValueError unless ``value`` (a float or an array) lies in [0, 1].

    The one range check for mu, c, visibilities and Pauli response
    tables.  It is written so that NaN fails it; for an array the message
    names the first offending entry.  Python numbers are compared
    directly.
    """
    if isinstance(value, (int, float)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
        return
    v = np.asarray(value, dtype=np.float64)
    outside = ~((v >= 0.0) & (v <= 1.0))
    if outside.any():
        got = value if v.ndim == 0 else v[outside][0]
        raise ValueError(f"{name} must be in [0, 1], got {got}")


class StateValidationError(ValueError):
    """A density-matrix invariant failed; names it, the deviation and,
    for a stack, the first state that failed it."""

    def __init__(self, invariant: str, deviation: float, state: int | tuple | None = None):
        self.invariant = invariant
        self.deviation = deviation
        self.state = state
        where = "" if state is None else f" in state {state}"
        super().__init__(
            f"invariant violated: {invariant}{where} (deviation {deviation:.3e})"
        )


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector r with qubit state (1 + r.sigma)/2."""

    rx: float
    ry: float
    rz: float

    def norm_sq(self) -> float:
        return self.rx * self.rx + self.ry * self.ry + self.rz * self.rz

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz])


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite state; subsystem A is the left tensor factor.

    ``mat`` is one ``(n, n)`` matrix, or a ``(T, n, n)`` stack of T
    states of the same dims that the stacked kernels (``make_density``,
    ``werner``, ``mix``, ``biased_partner``, the witnesses,
    ``conditional_states``, ``models.born_joints``) process in one pass.
    """

    d_a: int
    d_b: int
    mat: np.ndarray = field(repr=False)

    def reduced_a(self) -> np.ndarray:
        return linalg.partial_trace(self.mat, self.d_a, self.d_b, keep="A")

    def reduced_b(self) -> np.ndarray:
        return linalg.partial_trace(self.mat, self.d_a, self.d_b, keep="B")


def validate_states(mat, n: int | None = None) -> np.ndarray:
    """Check a matrix, or an (..., n, n) stack, as density matrices; return a read-only copy.

    The one state validator.  Checks, in order: finite entries, shape
    (square; n x n if ``n`` is given), hermiticity (1e-10), unit trace
    (1e-10) and min eigenvalue >= -1e-10, each over the whole stack at
    once and so that NaN fails it.  The :class:`StateValidationError`
    names the first failed invariant and member: ``i`` for a (T, n, n)
    stack, ``(t, i)`` for a (T, Xi, n, n) one.
    """
    m = np.array(mat, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or an (..., n, n) stack, got ndim={m.ndim}")

    def fail(invariant: str, deviation: np.ndarray, ok: np.ndarray):
        idx = linalg._first(~ok)
        state = idx[0] if len(idx) == 1 else idx or None
        return StateValidationError(invariant, float(deviation[idx]), state)

    if not np.isfinite(m).all():
        bad = np.count_nonzero(~np.isfinite(m), axis=(-2, -1))
        raise fail("finite entries", bad, bad == 0)
    n = m.shape[-1] if n is None else n
    if m.shape[-2:] != (n, n):
        off = abs(m.shape[-2] - n)  # an int: a huge n must not overflow float()
        dev = float(off) if off <= sys.float_info.max else np.inf
        raise StateValidationError(f"shape {m.shape} != ({n}, {n})", dev)
    defect = np.abs(m - m.conj().swapaxes(-1, -2))
    if defect.max() > HERM_TOL:
        defect = defect.max(axis=(-2, -1))
        raise fail("hermitian within 1e-10", defect, defect <= HERM_TOL)
    tr = np.trace(m, axis1=-2, axis2=-1)
    tr_dev = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    if not (tr_dev <= TRACE_TOL).all():
        raise fail("trace = 1 within 1e-10", tr_dev, tr_dev <= TRACE_TOL)
    w, _ = linalg.hermitian_eigen(m)
    if not (w[..., 0] >= -PSD_TOL).all():
        raise fail("min eigenvalue >= -1e-10", -w[..., 0], w[..., 0] >= -PSD_TOL)
    m.setflags(write=False)
    return m


def make_density(mat, d_a: int, d_b: int) -> DensityMatrix:
    """Validate (:func:`validate_states`) and wrap a matrix, or a (T, n, n) stack of them.

    Stores the Hermitian part ``(mat + mat^dagger)/2``, so every state
    downstream is Hermitian to rounding.
    """
    try:
        d_a, d_b = operator.index(d_a), operator.index(d_b)
    except TypeError:
        raise ValueError(f"subsystem dims must be integers, got {d_a}x{d_b}") from None
    if d_a < 2 or d_b < 2:
        raise ValueError(f"subsystem dims must be >= 2, got {d_a}x{d_b}")
    m = np.asarray(mat, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a (T, n, n) stack, got ndim={m.ndim}")
    return _closed_density(validate_states(m, d_a * d_b), d_a, d_b)


def _closed_density(mat: np.ndarray, d_a: int, d_b: int) -> DensityMatrix:
    """Wrap a matrix (or a stack) built from validated states, without validating it again.

    Stores the read-only Hermitian part; :func:`make_density` stores the
    states it has validated the same way.  Otherwise only closed
    operations may call this: convex combinations, with
    weights in [0, 1], of validated states, and a validated state's
    reduced state times a qubit ``diag((1 + c)/2, (1 - c)/2)``,
    c in [0, 1].  Such results are Hermitian and have unit trace to
    rounding.  They are positive semidefinite whenever their inputs are:
    a convex combination's least eigenvalue is at least the weighted
    least eigenvalues of its terms, and a product's eigenvalues are the
    reduced state's times (1 +- c)/2 >= 0.  An input that is negative
    within the 1e-10 tolerance can leave a partner up to (1 + c) times as
    far below zero, since tracing out a qubit at most doubles the least
    eigenvalue's magnitude; ``mapping.biased_partner`` therefore checks
    its reduced state's least eigenvalue, scaled by (1 + c)/2.

    :func:`random_separables` builds its mixtures here too and checks
    neither them nor their members.  A member ``|p><p|`` of a unit vector
    p is Hermitian with trace ``|p|^2 = 1`` to rounding and eigenvalues
    ``|p|^2`` and zeros; a mixture ``sum_i w_i |p_i><p_i|`` with simplex
    weights is their weighted Gram matrix, positive semidefinite since
    ``<x|M|x> = sum_i w_i |<p_i|x>|^2``, with trace ``sum_i w_i = 1``.
    """
    out = (mat + mat.conj().swapaxes(-1, -2)) / 2.0
    out.setflags(write=False)
    return DensityMatrix(d_a, d_b, out)


def pure_state(vec) -> np.ndarray:
    """Projector |v><v| of a normalized state vector."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


@functools.cache
def bell_phi_plus() -> DensityMatrix:
    """(|00> + |11>)/sqrt(2) projector as a 2x2 state, built once; read-only."""
    v = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    return make_density(pure_state(v), 2, 2)


@functools.cache
def singlet() -> DensityMatrix:
    """(|01> - |10>)/sqrt(2) projector, built once; read-only."""
    v = np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2)
    return make_density(pure_state(v), 2, 2)


def werner(p) -> DensityMatrix:
    """p * singlet + (1-p) * I/4 for visibility p in [0, 1]; an array of p gives a stack."""
    check_unit_interval("visibility", p)
    p = np.asarray(p, dtype=np.float64)[..., None, None]
    mat = p * singlet().mat + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0
    return _closed_density(mat, 2, 2)


def hidden_qubits(bloch) -> np.ndarray:
    """Qubit density matrices (1 + r.sigma)/2 for an (..., 3) array of r.

    Written entry by entry, [[1 + z, x - iy], [x + iy, 1 - z]] / 2: each
    entry of r.sigma has one term, so no contraction is needed.
    """
    r = np.asarray(bloch, dtype=float)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    out = np.zeros((*r.shape[:-1], 2, 2), dtype=np.complex128)
    out.real[..., 0, 0] = (1.0 + z) / 2.0
    out.real[..., 1, 1] = (1.0 - z) / 2.0
    out.real[..., 0, 1] = out.real[..., 1, 0] = x / 2.0
    out.imag[..., 0, 1] = -y / 2.0
    out.imag[..., 1, 0] = y / 2.0
    return out


def conditional_states(rho: DensityMatrix, projectors) -> np.ndarray:
    """Bob's unnormalized steered states tr_A[(pi x 1) rho] for a stack.

    ``projectors`` has shape (..., d_a, d_a) and holds projectors their
    builder has checked; as in ``models.born_probs``, only the shape is
    checked here.  The result has shape (..., d_b, d_b), from one
    contraction on the (d_a, d_b, d_a, d_b) state tensor; the trace of
    each entry is its outcome probability.  For a stack of T states the
    projectors have shape (T, ..., d_a, d_a) and state t meets row t.
    """
    pi = np.asarray(projectors, dtype=np.complex128)
    if pi.ndim < 2 or pi.shape[-2:] != (rho.d_a, rho.d_a):
        raise ValueError(
            f"projector shape {pi.shape} does not match d_a={rho.d_a}"
        )
    d_a, d_b = rho.d_a, rho.d_b
    lead = rho.mat.shape[:-2]
    # out[..., b, d] = sum_ij pi[..., i, j] t[j, b, i, d] for the state
    # tensor t, regrouped as a matrix with rows (i, j), columns (b, d).
    t = rho.mat.reshape(*lead, d_a, d_b, d_a, d_b)
    t = t.transpose(*range(len(lead)), -2, -4, -3, -1).reshape(*lead, d_a**2, d_b**2)
    out = pi.reshape(*lead, -1, d_a**2) @ t
    return out.reshape(*pi.shape[:-2], d_b, d_b)


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-1 density matrix from normalized complex normal deviates."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return pure_state(v)


def random_separables(d_a: int, d_b: int, k: int, seeds):
    """Random k-member separable mixtures sum_i w_i alpha_i x beta_i, one per seed.

    The stacked kernel of :func:`random_separable`: each seed draws
    exactly what a :func:`random_separable` call with it draws, and the
    normalization, products and mixtures of all T seeds run as stacks.
    Returns ``(rho, weights, alphas, betas)``, all read-only: the T
    mixtures as one closed :class:`DensityMatrix` stack, the (T, k)
    Dirichlet weights and the (T, k, d_a, d_a) and (T, k, d_b, d_b)
    members ``v v^dagger`` of unit vectors v, which need no check: each
    is Hermitian, with trace and one eigenvalue ``|v|^2 = 1``, the rest 0.
    """
    if k < 1:
        raise ValueError(f"ensemble size must be >= 1, got {k}")
    alpha = np.ones(k)
    weights, draws = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        weights.append(rng.dirichlet(alpha))
        draws.append(rng.standard_normal((k, 2 * d_a + 2 * d_b)))
    if not weights:
        raise ValueError("need at least one seed")
    weights = np.array(weights)
    # Row i: real, then imaginary parts of alpha_i's vector, then of beta_i's.
    re_a, im_a, re_b, im_b = np.split(np.array(draws), np.cumsum([d_a, d_a, d_b]), axis=-1)
    va, vb = re_a + 1j * im_a, re_b + 1j * im_b
    va /= np.linalg.norm(va, axis=-1, keepdims=True)
    vb /= np.linalg.norm(vb, axis=-1, keepdims=True)
    alphas = va[..., :, None] * va.conj()[..., None, :]
    betas = vb[..., :, None] * vb.conj()[..., None, :]
    product = (va[..., :, None] * vb[..., None, :]).reshape(len(weights), k, d_a * d_b)
    mat = (weights[..., None] * product).swapaxes(-1, -2) @ product.conj()
    for a in (weights, alphas, betas):
        a.setflags(write=False)
    return _closed_density(mat, d_a, d_b), weights, alphas, betas


def random_separable(
    d_a: int, d_b: int, k: int, seed: int
) -> tuple[DensityMatrix, list[tuple[float, np.ndarray, np.ndarray]]]:
    """Random k-member separable mixture sum_i w_i alpha_i x beta_i.

    Weights are a random simplex point, factors random pure states;
    deterministic for a fixed seed.  The ensemble is returned alongside
    the assembled state because decomposition recovery is not supported.
    The draws are those of k alternating :func:`random_pure` calls for
    alpha_i and beta_i, made as one array; the mixture is one
    contraction over the members' product vectors.  The one-seed case of
    :func:`random_separables`.
    """
    rho, weights, alphas, betas = random_separables(d_a, d_b, k, [seed])
    ensemble = [(float(w), a, b) for w, a, b in zip(weights[0], alphas[0], betas[0])]
    return DensityMatrix(d_a, d_b, rho.mat[0]), ensemble


def state_to_json(rho: DensityMatrix) -> str:
    """Serialize as {"dims": [dA, dB], "re": [[...]], "im": [[...]]}."""
    payload = {
        "dims": [rho.d_a, rho.d_b],
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }
    return json.dumps(payload, allow_nan=False)


def state_from_json(text: str) -> DensityMatrix:
    """Parse and fully validate the state JSON format."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("state JSON nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError("state JSON must be an object")
    for key in ("dims", "re", "im"):
        if key not in data:
            raise ValueError(f"state JSON missing field {key!r}")
    dims = data["dims"]
    # JSON integers only: bool is an int subclass, and a float would be truncated.
    if not (isinstance(dims, list) and len(dims) == 2 and all(type(d) is int for d in dims)):
        raise ValueError(f"'dims' must be a list of two integers, got {dims!r}")
    d_a, d_b = dims
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except TypeError:
        raise ValueError("'re'/'im' must be 2-D arrays of numbers") from None
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError(
            f"'re'/'im' must be equal-shape 2-D arrays, got {re.shape} and {im.shape}"
        )
    if max(d_a, d_b) > len(re):
        raise ValueError(f"'dims' entries must not exceed the matrix side {len(re)}")
    return make_density(re + 1j * im, d_a, d_b)


def load_state(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())
