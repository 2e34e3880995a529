"""Bipartite density matrices, canonical families and qubit Bloch algebra.

All states are immutable value objects over numpy arrays.  Random
constructions take an explicit seed; there is no global RNG state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg

HERM_TOL = linalg.HERMITICITY_TOL
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
BLOCH_TOL = 1e-12

IDENTITY_2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.stack(PAULIS)


class StateValidationError(ValueError):
    """A density-matrix invariant failed; names it and the deviation."""

    def __init__(self, invariant: str, deviation: float):
        self.invariant = invariant
        self.deviation = deviation
        super().__init__(f"invariant violated: {invariant} (deviation {deviation:.3e})")


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector r with qubit state (1 + r.sigma)/2."""

    rx: float
    ry: float
    rz: float

    def norm_sq(self) -> float:
        return self.rx * self.rx + self.ry * self.ry + self.rz * self.rz

    def is_physical(self, tol: float = BLOCH_TOL) -> bool:
        return self.norm_sq() <= 1.0 + tol

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz])


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite state; subsystem A is the left tensor factor."""

    d_a: int
    d_b: int
    mat: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def reduced_a(self) -> np.ndarray:
        return linalg.partial_trace(self.mat, self.d_a, self.d_b, keep="A")

    def reduced_b(self) -> np.ndarray:
        return linalg.partial_trace(self.mat, self.d_a, self.d_b, keep="B")


def make_density(mat, d_a: int, d_b: int) -> DensityMatrix:
    """Validate and wrap a matrix as a DensityMatrix.

    Checks, in order: finite entries, shape, hermiticity (1e-10), unit
    trace (1e-10) and positive semidefiniteness (min eigenvalue >=
    -1e-10).  Raises :class:`StateValidationError` naming the first
    failed invariant.  The stored matrix is the Hermitian part
    ``(mat + mat^dagger)/2``, so every state downstream is Hermitian to
    rounding.
    """
    if d_a < 2 or d_b < 2:
        raise ValueError(f"subsystem dims must be >= 2, got {d_a}x{d_b}")
    m = linalg.as_matrix(mat)
    bad = int(np.count_nonzero(~np.isfinite(m)))
    if bad:
        raise StateValidationError("finite entries", float(bad))
    n = d_a * d_b
    if m.shape != (n, n):
        raise StateValidationError(
            f"shape {m.shape} != ({n}, {n})", float(abs(m.shape[0] - n))
        )
    defect = linalg.hermiticity_defect(m)
    if defect > HERM_TOL:
        raise StateValidationError("hermitian within 1e-10", defect)
    tr_dev = abs(float(np.trace(m).real) - 1.0) + abs(float(np.trace(m).imag))
    if tr_dev > TRACE_TOL:
        raise StateValidationError("trace = 1 within 1e-10", tr_dev)
    w, _ = linalg.hermitian_eigen(m)
    if w[0] < -PSD_TOL:
        raise StateValidationError("min eigenvalue >= -1e-10", float(-w[0]))
    return _closed_density(m, d_a, d_b)


def _closed_density(mat: np.ndarray, d_a: int, d_b: int) -> DensityMatrix:
    """Wrap a matrix built from validated states, without validating it again.

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
    eigenvalue's magnitude.
    """
    out = (mat + mat.conj().T) / 2.0
    out.setflags(write=False)
    return DensityMatrix(d_a, d_b, out)


def pure_state(vec) -> np.ndarray:
    """Projector |v><v| of a normalized state vector."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


def bell_phi_plus() -> DensityMatrix:
    """(|00> + |11>)/sqrt(2) projector as a 2x2 state."""
    v = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    return make_density(pure_state(v), 2, 2)


def singlet() -> DensityMatrix:
    """(|01> - |10>)/sqrt(2) projector."""
    v = np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2)
    return make_density(pure_state(v), 2, 2)


def werner(p: float) -> DensityMatrix:
    """p * singlet + (1-p) * I/4 for visibility p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {p}")
    mat = p * singlet().mat + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0
    return _closed_density(mat, 2, 2)


def bloch_from_qubit(m) -> tuple[float, BlochVector]:
    """Decompose a Hermitian 2x2 matrix as t*I + rx*sx + ry*sy + rz*sz.

    Round-trips exactly to 1e-14: qubit_from_bloch(t, r) reproduces m.
    """
    a = linalg.as_matrix(m)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    defect = linalg.hermiticity_defect(a)
    if defect > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    t = float((a[0, 0].real + a[1, 1].real) / 2.0)
    rx = float(a[0, 1].real)
    ry = float(-a[0, 1].imag)
    rz = float((a[0, 0].real - a[1, 1].real) / 2.0)
    return t, BlochVector(rx, ry, rz)


def qubit_from_bloch(t: float, r: BlochVector) -> np.ndarray:
    """Inverse of bloch_from_qubit: t*I + r.sigma."""
    return t * IDENTITY_2 + r.rx * SIGMA_X + r.ry * SIGMA_Y + r.rz * SIGMA_Z


def hidden_qubits(bloch) -> np.ndarray:
    """Qubit density matrices (1 + r.sigma)/2 for an (..., 3) array of r."""
    r = np.asarray(bloch, dtype=float)
    r_sigma = (r @ PAULI_STACK.reshape(3, 4)).reshape(*r.shape[:-1], 2, 2)
    return (IDENTITY_2 + r_sigma) / 2.0


def conditional_states(rho: DensityMatrix, projectors) -> np.ndarray:
    """Bob's unnormalized steered states tr_A[(pi x 1) rho] for a stack.

    ``projectors`` has shape (..., d_a, d_a); each must be a Hermitian
    idempotent projector (1e-10).  The result has shape (..., d_b, d_b),
    from one contraction on the (d_a, d_b, d_a, d_b) state tensor; the
    trace of each entry is its outcome probability.
    """
    pi = np.asarray(projectors, dtype=np.complex128)
    if pi.ndim < 2 or pi.shape[-2:] != (rho.d_a, rho.d_a):
        raise ValueError(
            f"projector shape {pi.shape} does not match d_a={rho.d_a}"
        )
    defect = float(np.max(np.abs(pi - pi.conj().swapaxes(-1, -2)), initial=0.0))
    if not defect <= HERM_TOL:
        raise ValueError(f"projector is not Hermitian (defect {defect:.3e})")
    idem = float(np.max(np.abs(pi @ pi - pi), initial=0.0))
    if not idem <= HERM_TOL:
        raise ValueError(f"projector is not idempotent (defect {idem:.3e})")
    d_a, d_b = rho.d_a, rho.d_b
    # out[..., b, d] = sum_ij pi[..., i, j] t[j, b, i, d] for the state
    # tensor t, regrouped as a matrix with rows (i, j), columns (b, d).
    t = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 1, 3).reshape(d_a**2, d_b**2)
    out = pi.reshape(-1, d_a**2) @ t
    return out.reshape(*pi.shape[:-2], d_b, d_b)


def conditional_state(rho: DensityMatrix, pi_a) -> np.ndarray:
    """Bob's unnormalized steered state tr_A[(pi_a x 1) rho].

    ``pi_a`` must be a Hermitian idempotent d_a x d_a projector (1e-10);
    the trace of the result is the outcome probability.
    """
    return conditional_states(rho, linalg.as_matrix(pi_a))


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-1 density matrix from normalized complex normal deviates."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return pure_state(v)


def random_separable(
    d_a: int, d_b: int, k: int, seed: int
) -> tuple[DensityMatrix, list[tuple[float, np.ndarray, np.ndarray]]]:
    """Random k-member separable mixture sum_i w_i alpha_i x beta_i.

    Weights are a random simplex point, factors random pure states;
    deterministic for a fixed seed.  The ensemble is returned alongside
    the assembled state because decomposition recovery is not supported.
    The draws are those of k alternating :func:`random_pure` calls for
    alpha_i and beta_i, made as one array; the mixture is one
    contraction over the members' product vectors.
    """
    if k < 1:
        raise ValueError(f"ensemble size must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    # Row i: real, then imaginary parts of alpha_i's vector, then of beta_i's.
    re_a, im_a, re_b, im_b = np.split(
        rng.standard_normal((k, 2 * d_a + 2 * d_b)), np.cumsum([d_a, d_a, d_b]), axis=1
    )
    va, vb = re_a + 1j * im_a, re_b + 1j * im_b
    va /= np.linalg.norm(va, axis=1, keepdims=True)
    vb /= np.linalg.norm(vb, axis=1, keepdims=True)
    alphas = va[:, :, None] * va.conj()[:, None, :]
    betas = vb[:, :, None] * vb.conj()[:, None, :]
    product = (va[:, :, None] * vb[:, None, :]).reshape(k, d_a * d_b)
    mat = (weights[:, None] * product).T @ product.conj()
    ensemble = [(float(w), a, b) for w, a, b in zip(weights, alphas, betas)]
    return make_density(mat, d_a, d_b), ensemble


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
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("state JSON must be an object")
    for key in ("dims", "re", "im"):
        if key not in data:
            raise ValueError(f"state JSON missing field {key!r}")
    dims = data["dims"]
    if not (isinstance(dims, list) and len(dims) == 2):
        raise ValueError(f"'dims' must be a two-element list, got {dims!r}")
    d_a, d_b = int(dims[0]), int(dims[1])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError(
            f"'re'/'im' must be equal-shape 2-D arrays, got {re.shape} and {im.shape}"
        )
    return make_density(re + 1j * im, d_a, d_b)


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(rho))


def load_state(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())
