"""Bipartite density matrices, canonical families and qubit Bloch algebra.

All states are immutable value objects over numpy arrays, each stored as
its read-only Hermitian part (:class:`DensityMatrix`).  Random
constructions take an explicit seed; there is no global RNG state.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import STATE_TOL, StateValidationError, _check_invariant, _integer, _real_array

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.stack(PAULIS)


def check_unit_interval(name: str, value) -> np.float64 | np.ndarray:
    """``value`` (a float or an array) as float64, if it lies in [0, 1]; NaN does not.

    The one range check for mu, c, visibilities and Pauli response tables;
    an array's message names its first offending entry.  A Python number
    comes back as ``np.float64``, any other value as :func:`_real_array` reads it.
    """
    if isinstance(value, (int, float)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
        return np.float64(value)
    v = _real_array(name, value)
    outside = ~((v >= 0.0) & (v <= 1.0))
    if outside.any():
        got = value if v.ndim == 0 else v[outside][0]
        raise ValueError(f"{name} must be in [0, 1], got {got}")
    return v


class BlochVector(NamedTuple):
    """Real 3-vector r with qubit state (1 + r.sigma)/2."""

    rx: float
    ry: float
    rz: float

    def norm_sq(self) -> float:
        return self.rx * self.rx + self.ry * self.ry + self.rz * self.rz


class _Frozen:
    """Base of the array-holding value classes: fields set once, never reassigned.

    A subclass lists its fields in ``__slots__`` and stores them in
    ``__init__`` through ``object.__setattr__``; assigning or deleting a
    field afterwards raises ``AttributeError``.  Equality is identity,
    since arrays have no single truth value.  Copies and pickles call the
    constructor again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class DensityMatrix(_Frozen):
    """Bipartite state; subsystem A is the left tensor factor.

    ``mat`` is one ``(n, n)`` matrix, or a ``(T, n, n)`` stack of T
    states of the same dims that the stacked kernels (``make_density``,
    ``werner``, ``mix``, ``biased_partner``, the witnesses) process in one
    pass.  ``conditional_states`` and ``models.born_joints`` take one state.

    The constructor stores the read-only Hermitian part
    ``(mat + mat^dagger)/2``, never the caller's array, and validates
    nothing: :func:`make_density` validates first.  Otherwise only closed
    operations build one: convex combinations, with weights in [0, 1], of
    validated states, and a validated state's reduced state times a
    qubit ``diag((1 + c)/2, (1 - c)/2)``, c in [0, 1].  Such results are
    Hermitian and have unit trace to rounding.  They are positive
    semidefinite whenever their inputs are: a convex combination's least
    eigenvalue is at least the weighted least eigenvalues of its terms,
    and a product's eigenvalues are the reduced state's times
    (1 +- c)/2 >= 0.  An input that is negative within the 1e-10
    tolerance can leave a partner up to (1 + c) times as far below zero,
    since tracing out a qubit at most doubles the least eigenvalue's
    magnitude; ``mapping.biased_partner`` therefore checks its reduced
    state's least eigenvalue, scaled by (1 + c)/2.

    :func:`random_separables` builds its mixtures here too and checks
    neither them nor their members.  A member ``|p><p|`` of a unit vector
    p is Hermitian with trace ``|p|^2 = 1`` to rounding and eigenvalues
    ``|p|^2`` and zeros; a mixture ``sum_i w_i |p_i><p_i|`` with simplex
    weights is their weighted Gram matrix, positive semidefinite since
    ``<x|M|x> = sum_i w_i |<p_i|x>|^2``, with trace ``sum_i w_i = 1``.
    """

    __slots__ = ("d_a", "d_b", "mat")

    def __init__(self, d_a: int, d_b: int, mat: np.ndarray):
        out = (mat + mat.conj().swapaxes(-1, -2)) / 2.0
        out.setflags(write=False)
        object.__setattr__(self, "d_a", d_a)
        object.__setattr__(self, "d_b", d_b)
        object.__setattr__(self, "mat", out)

    def __repr__(self) -> str:
        return f"DensityMatrix(d_a={self.d_a!r}, d_b={self.d_b!r})"

    def reduced_a(self) -> np.ndarray:
        return linalg.partial_trace(self.mat, self.d_a, self.d_b, keep="A")

    def reduced_b(self) -> np.ndarray:
        return linalg.partial_trace(self.mat, self.d_a, self.d_b, keep="B")


def validate_states(mat, n: int | None = None) -> np.ndarray:
    """Check a matrix, or a (T, n, n) stack, as density matrices; return a read-only copy.

    The one state validator.  Checks, in order: rank, shape (square and
    not empty; n x n if ``n`` is given), finite entries and hermiticity
    (1e-10), both judged by :func:`~steermap.linalg.hermitian_eigen`, unit
    trace (1e-10) and min eigenvalue >= -1e-10, each over the whole stack
    at once and so that NaN fails it.  The :class:`StateValidationError`
    names the first failed invariant and, for a stack, the index of the
    first state that failed it.
    """
    m = _real_array("state", mat, "biufc").copy()
    if m.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a (T, n, n) stack, got ndim={m.ndim}")
    n = m.shape[-1] if n is None else n
    if m.shape[-2:] != (n, n) or n == 0:
        # An int: a huge n must not overflow float().  A 0 x 0 matrix lacks a row.
        off = max(abs(m.shape[-2] - n), abs(m.shape[-1] - n)) if n else 1
        dev = float(off) if off <= sys.float_info.max else np.inf
        want = f"({n}, {n})" if n else "(n, n), n >= 1"
        raise StateValidationError(f"shape {m.shape} != {want}", dev)
    least = linalg.hermitian_eigen(m)[..., 0]
    tr = np.trace(m, axis1=-2, axis2=-1)
    tr_dev = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    _check_invariant(f"trace = 1 within {STATE_TOL:g}", tr_dev, tr_dev <= STATE_TOL)
    _check_invariant(f"min eigenvalue >= -{STATE_TOL:g}", -least, least >= -STATE_TOL)
    m.setflags(write=False)
    return m


def make_density(mat, d_a: int, d_b: int) -> DensityMatrix:
    """Validate (:func:`validate_states`) and wrap a matrix, or a (T, n, n) stack of them.

    Every state downstream is Hermitian to rounding (see :class:`DensityMatrix`).
    """
    return DensityMatrix(*_dims(d_a, d_b), validate_states(mat, d_a * d_b))


def _dims(d_a, d_b) -> tuple[int, int]:
    """The subsystem dims as ints (see :func:`_integer`); dims below 2 raise ``ValueError``."""
    d_a, d_b = int(_integer("subsystem dim", d_a)), int(_integer("subsystem dim", d_b))
    if d_a < 2 or d_b < 2:
        raise ValueError(f"subsystem dims must be >= 2, got {d_a}x{d_b}")
    return d_a, d_b


def pure_state(vec) -> np.ndarray:
    """Projector |v><v| of a normalized state vector."""
    v = _real_array("vec", vec, "biufc").reshape(-1)
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
    p = check_unit_interval("visibility", p)[..., None, None]
    mat = p * singlet().mat + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0
    return DensityMatrix(2, 2, mat)


def hidden_qubits(bloch) -> np.ndarray:
    """Qubit density matrices (1 + r.sigma)/2 for an (..., 3) array of r.

    Written entry by entry, [[1 + z, x - iy], [x + iy, 1 - z]] / 2: each
    entry of r.sigma has one term, so no contraction is needed.
    """
    r = _real_array("bloch", bloch)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    out = np.zeros((*r.shape[:-1], 2, 2), dtype=np.complex128)
    out.real[..., 0, 0] = (1.0 + z) / 2.0
    out.real[..., 1, 1] = (1.0 - z) / 2.0
    out.real[..., 0, 1] = out.real[..., 1, 0] = x / 2.0
    out.imag[..., 0, 1] = -y / 2.0
    out.imag[..., 1, 0] = y / 2.0
    return out


def conditional_states(rho: DensityMatrix, projectors) -> np.ndarray:
    """Bob's unnormalized steered states tr_A[(pi x 1) rho] of one state.

    ``projectors`` has shape (..., d_a, d_a) and holds projectors their
    builder has checked; only the shape is checked here.  The result has
    shape (..., d_b, d_b), from one contraction on the (d_a, d_b, d_a,
    d_b) state tensor, the one place where a state meets Alice's
    projectors: the trace of each entry is its outcome probability, and
    ``models.born_joints`` takes Bob's joints from it.  A stack of states
    raises ``ValueError``.
    """
    if rho.mat.ndim != 2:
        raise ValueError(f"need one state, got a stack of shape {rho.mat.shape[:-2]}")
    pi = _real_array("projectors", projectors, "biufc")
    if pi.ndim < 2 or pi.shape[-2:] != (rho.d_a, rho.d_a):
        raise ValueError(f"projector shape {pi.shape} does not match d_a={rho.d_a}")
    d_a, d_b = rho.d_a, rho.d_b
    # out[..., b, d] = sum_ij pi[..., i, j] t[j, b, i, d] for the state
    # tensor t, regrouped as a matrix with rows (i, j), columns (b, d).
    t = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 1, 3).reshape(d_a**2, d_b**2)
    out = pi.reshape(-1, d_a**2) @ t
    return out.reshape(*pi.shape[:-2], d_b, d_b)


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-1 density matrix from normalized complex normal deviates; ``dim`` is an integer >= 1."""
    if _integer("dim", dim) < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return pure_state(v)


def _rng(seed) -> np.random.Generator:
    """The generator of an integer seed >= 0 (see :func:`_integer`)."""
    if _integer("seed", seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def random_separables(d_a: int, d_b: int, k: int, seeds):
    """Random k-member separable mixtures sum_i w_i alpha_i x beta_i, one per seed.

    The stacked kernel of :func:`random_separable`: each seed draws
    exactly what a :func:`random_separable` call with it draws, and the
    normalization, products and mixtures of all T integer seeds run as
    stacks.  Returns ``(rho, weights, alphas, betas)``, all read-only: the T
    mixtures as one closed :class:`DensityMatrix` stack, the (T, k)
    Dirichlet weights and the (T, k, d_a, d_a) and (T, k, d_b, d_b)
    members ``v v^dagger`` of unit vectors v, which need no check: each
    is Hermitian, with trace and one eigenvalue ``|v|^2 = 1``, the rest 0.
    Dims are checked as :func:`make_density` checks them, and ``k`` and the
    seeds as integers.
    """
    d_a, d_b = _dims(d_a, d_b)
    if _integer("ensemble size k", k) < 1:
        raise ValueError(f"ensemble size must be >= 1, got {k}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    weights, draws = np.empty((len(seeds), k)), np.empty((len(seeds), k, 2 * d_a + 2 * d_b))
    for seed, w, row in zip(seeds, weights, draws):
        rng = _rng(seed)
        rng.standard_exponential(out=w)
        rng.standard_normal(out=row)
    # rng.dirichlet(np.ones(k)) bit for bit: its gammas are these, over their left-to-right sum.
    weights *= 1.0 / np.add.accumulate(weights, axis=-1)[:, -1:]
    # Row i: real, then imaginary parts of alpha_i's vector, then of beta_i's.
    va = draws[..., :d_a] + 1j * draws[..., d_a : 2 * d_a]
    vb = draws[..., 2 * d_a : 2 * d_a + d_b] + 1j * draws[..., 2 * d_a + d_b :]
    for v in (va, vb):
        # np.linalg.norm's own formula for one axis, without its dispatch.
        v /= np.sqrt(np.add.reduce((v.conj() * v).real, axis=-1, keepdims=True))
    alphas = va[..., :, None] * va.conj()[..., None, :]
    betas = vb[..., :, None] * vb.conj()[..., None, :]
    product = (va[..., :, None] * vb[..., None, :]).reshape(len(seeds), k, d_a * d_b)
    mat = (weights[..., None] * product).swapaxes(-1, -2) @ product.conj()
    for a in (weights, alphas, betas):
        a.setflags(write=False)
    return DensityMatrix(d_a, d_b, mat), weights, alphas, betas


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


def _numbers_only(value) -> bool:
    """Whether every leaf of nested JSON lists is a number (bools are not)."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(item)
        elif type(item) is not float and type(item) is not int:
            return False
    return True


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
    not_numbers = "'re'/'im' must be 2-D arrays of numbers"
    # numpy would read true/false as 1/0 and a numeric string as its value.
    if not (_numbers_only(data["re"]) and _numbers_only(data["im"])):
        raise ValueError(not_numbers)
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (OverflowError, ValueError):  # too large for a float; ragged or > 64 deep
        raise ValueError(not_numbers) from None
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
