"""Dense complex matrix kernel for small bipartite operators.

Matrices are plain numpy ``complex128`` arrays, row-major, with
subsystem A always the left (slow-varying) tensor factor.  Every
function takes one matrix or a stack of them (``kron`` and
``partial_trace`` a ``(T, n, n)`` stack, the others any ``(..., n, n)``
one) and treats each member alone: a stacked call gives, bit for bit,
what its members' single calls give.  Construction never normalizes
anything; callers validate explicitly.

The Hermitian eigensolver is LAPACK's eigenvalues-only ``eigvalsh`` (via
numpy) behind one validation step: the input must be square, finite and
Hermitian within ``STATE_TOL``.  It is the one judge of finite entries
and hermiticity for every caller, ``states.validate_states`` included,
and raises :class:`StateValidationError`, the error of every state
invariant.  Every spectral quantity here needs eigenvalues alone, so no
eigenvectors are computed.  The Hermitian part ``(m + m^dagger)/2`` is
what gets solved, so callers never need to symmetrize.
"""

from __future__ import annotations

import numpy as np

STATE_TOL = 1e-10  # of a state's hermiticity, unit trace and least eigenvalue


class StateValidationError(ValueError):
    """A density-matrix invariant failed; names it, the deviation and,
    for a stack, the first state that failed it."""

    def __init__(self, invariant: str, deviation: float, state: int | None = None):
        self.invariant = invariant
        self.deviation = deviation
        self.state = state
        where = "" if state is None else f" in state {state}"
        super().__init__(f"invariant violated: {invariant}{where} (deviation {deviation:.3e})")


def _check_invariant(invariant: str, deviation: np.ndarray, ok: np.ndarray) -> None:
    """Raise :class:`StateValidationError` unless every entry of ``ok`` holds.

    ``ok`` and ``deviation`` hold one value per member (0-d for one
    matrix); the error reports the first failing member's deviation and
    its first leading index.
    """
    if ok.all():
        return
    idx = tuple(int(i) for i in np.argwhere(~ok)[0])
    raise StateValidationError(invariant, float(deviation[idx]), idx[0] if idx else None)


def _integer(name: str, value):
    """``value`` if it is an integer of any size, the one rule for integers: a float
    or a bool, which numpy would read as its integer part or as 0/1, raises ``ValueError``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _array(name: str, value) -> np.ndarray:
    """``value`` as an array of its own dtype; a ragged value raises ``ValueError`` naming it."""
    try:
        return np.asarray(value)
    except ValueError:  # numpy's own text names neither the value nor its caller
        raise ValueError(f"{name} is ragged: its entries differ in shape") from None


def _real_array(name: str, value, kinds: str = "biuf") -> np.ndarray:
    """``value`` as a float64 array (complex128 if ``kinds`` holds ``c``), the one rule for
    numbers: a ragged value or a dtype kind not in ``kinds``, which numpy would parse or
    truncate, raises.  It copies only to convert; a caller that freezes copies."""
    v = _array(name, value)
    if v.dtype.kind not in kinds:
        what = "complex" if "c" in kinds else "real"
        raise ValueError(f"{name} must be a {what} number or array, got {value!r}")
    return v.astype(np.complex128 if "c" in kinds else np.float64, copy=False)


def kron(a, b) -> np.ndarray:
    """Kronecker product, A the left (slow) factor.

    Either factor may be a ``(T, p, q)`` stack; stacks pair up matrix by
    matrix and the result is the stack of the T products.
    """
    a, b = _real_array("a", a, "biufc"), _real_array("b", b, "biufc")
    if not (2 <= a.ndim <= 3 and 2 <= b.ndim <= 3):
        raise ValueError(f"expected matrices or (T, p, q) stacks, got ndim={a.ndim}, {b.ndim}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def _check_bipartite(m: np.ndarray, d_a: int, d_b: int) -> None:
    if _integer("d_a", d_a) < 1 or _integer("d_b", d_b) < 1:
        name, d = ("d_a", d_a) if d_a < 1 else ("d_b", d_b)
        raise ValueError(f"{name} must be >= 1, got {d}")
    n = d_a * d_b
    if m.shape[-2:] != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} does not match dims {d_a}x{d_b} "
            f"(expected {n}x{n})"
        )


def partial_trace(m, d_a: int, d_b: int, keep: str = "B") -> np.ndarray:
    """Trace out one subsystem of a (d_a*d_b) x (d_a*d_b) matrix.

    keep='B' returns the d_b x d_b operator tr_A[m]; keep='A' the
    d_a x d_a operator tr_B[m].  The full trace is preserved.  A
    ``(T, n, n)`` stack gives the T reduced operators.
    """
    a = _real_array("m", m, "biufc")
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a (T, n, n) stack, got ndim={a.ndim}")
    _check_bipartite(a, d_a, d_b)
    t = a.reshape(*a.shape[:-2], d_a, d_b, d_a, d_b)
    if keep == "B":
        return np.einsum("...ibid->...bd", t)
    if keep == "A":
        return np.einsum("...ibkb->...ik", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(m, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the B factor; involutive, trace preserving, (..., n, n) stacks too."""
    a = _real_array("m", m, "biufc")
    _check_bipartite(a, d_a, d_b)
    t = a.reshape(*a.shape[:-2], d_a, d_b, d_a, d_b)
    return t.swapaxes(-1, -3).reshape(a.shape)


def hermitian_eigen(m):
    """Eigenvalues of a Hermitian matrix via LAPACK ``eigvalsh``.

    ``m`` is one matrix or an ``(..., d, d)`` stack, solved in one call.
    Returns the real eigenvalues of the Hermitian part of ``m``,
    ascending along the last axis and stacked like ``m``.  Non-square
    input raises ``ValueError``; non-finite entries, then a hermiticity
    defect above ``STATE_TOL``, raise :class:`StateValidationError`,
    checked per matrix and naming the first offending member of a stack.
    """
    a = _real_array("m", m, "biufc")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # Whole-stack checks first; per-matrix values only name an offender.
    if not np.isfinite(a).all():
        bad = np.count_nonzero(~np.isfinite(a), axis=(-2, -1))
        _check_invariant("finite entries", bad, bad == 0)
    adjoint = a.conj().swapaxes(-1, -2)
    defect = np.abs(a - adjoint)
    if defect.max(initial=0.0) > STATE_TOL:
        defect = defect.max(axis=(-2, -1))
        _check_invariant(f"hermitian within {STATE_TOL:g}", defect, defect <= STATE_TOL)
    return np.linalg.eigvalsh((a + adjoint) / 2.0)


def scalar_or_array(x: np.ndarray):
    """A 0-d result (one matrix's or one float's) as a Python number; a stack's as it is."""
    return x.item() if x.ndim == 0 else x


def trace_norm(m):
    """Sum of absolute eigenvalues of a Hermitian matrix: a float, or an array for a stack."""
    return scalar_or_array(np.sum(np.abs(hermitian_eigen(m)), axis=-1))
