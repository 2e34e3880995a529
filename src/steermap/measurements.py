"""Projective measurements for qubits and qudits, single or stacked.

Outcomes are indices 0..d-1.  For qubit measurements along a direction
n the outcome-0 projector is (1 + n.sigma)/2, i.e. outcome 0 carries the
+1 sign.  Only projective measurements are supported.

Measurements are built in batches: :func:`qubit_projectors` takes an
``(n, 3)`` array of directions and :func:`qudit_projectors` an
``(n, d, d)`` array of bases.  Each builder derives the projector
invariants from the check it runs on its input, rather than testing its
own output with the generic product loop, which serves only the stacks
a caller hands to :func:`validate_projectors`.  A measurement is its
read-only ``(k, d, d)`` projector array; the single builder
:func:`qudit_measurement` is the ``n = 1`` case.  Random bases are drawn
(:func:`basis_draws`, :func:`pair_draws`) apart from their QR, so draws
from several streams can share one.
"""

from __future__ import annotations

import functools

import numpy as np

from .states import hidden_qubits

PROJ_TOL = 1e-10


def _check(defects: np.ndarray, message: str, axes: tuple[int, ...] = ()) -> None:
    """Raise for the first entry (C order) of ``defects`` maximized over
    ``axes`` that is NaN or above PROJ_TOL.

    ``message`` is formatted with that entry's index and its value as
    ``defect``.  The maxima over ``axes`` are only formed to name an
    offender.
    """
    if not defects.max() <= PROJ_TOL:
        if axes:
            defects = defects.max(axis=axes)
        idx = tuple(int(i) for i in np.argwhere(~(defects <= PROJ_TOL))[0])
        raise ValueError(message.format(*idx, defect=float(defects[idx])))


def validate_projectors(projectors) -> np.ndarray:
    """Validate a stack of n complete projective measurements.

    ``projectors`` has shape ``(n, k, d, d)``: measurement m has outcome
    projectors ``projectors[m, 0..k-1]``.  Checks, to ``PROJ_TOL``: finite
    entries, each projector Hermitian and idempotent, each measurement
    summing to the identity and its projectors pairwise orthogonal.
    Raises ``ValueError`` naming the first offending measurement and
    projector, or a ragged sequence; returns a read-only complex copy.
    """
    try:
        p = np.asarray(projectors)
    except ValueError:
        raise ValueError("projector stack is ragged: its entries differ in shape") from None
    p = np.array(p, dtype=np.complex128)
    if p.ndim != 4 or p.shape[2] != p.shape[3] or 0 in p.shape:
        raise ValueError(f"projector stack must have shape (n, k, d, d), got {p.shape}")
    _check_finite(p)
    # |P - P^dagger| from real arrays: no complex temporaries of the stack.
    re, im = p.real, p.imag
    _check(
        np.hypot(re - re.swapaxes(-1, -2), im + im.swapaxes(-1, -2)),
        "measurement {0}: projector {1} is not Hermitian (defect {defect:.3e})",
        axes=(-2, -1),
    )
    return _checked(p)


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("projectors have non-finite entries")


def _checked(stack: np.ndarray, per_block: np.ndarray | None = None) -> np.ndarray:
    """The checks of :func:`validate_projectors` after the finite and Hermitian ones.

    ``stack`` is a finite Hermitian (n, k, d, d) or (T, n, k, d, d) array
    that the caller owns; errors count its measurements in C order.
    ``per_block`` holds the (n, k, k) max-abs entries of the blocks
    P_i P_j - delta_ij P_i when the caller can derive them.  Returns
    ``stack`` read-only.
    """
    p = stack.reshape(-1, *stack.shape[-3:])
    n, k, d = p.shape[:3]
    # Step i forms P_i [P_0 ... P_{k-1}], an (n, d, k d) array whose block
    # j is P_i P_j, which must equal delta_ij P_i.  After subtracting P_i
    # from block i, the diagonal of the per-block maxima tests idempotence
    # and its strict upper triangle orthogonality; they are only formed
    # for a step with a defect.  One outcome at a time keeps the
    # temporaries k times smaller than all k^2 blocks at once.
    if per_block is None:
        row = p.swapaxes(1, 2).reshape(n, d, k * d)
        products = np.empty((n, d, k, d), dtype=np.complex128)
        defects = np.empty((n, d, k, d))
        per_block = np.zeros((n, k, k))
        for i in range(k):
            np.matmul(p[:, i], row, out=products.reshape(n, d, k * d))
            products[:, :, i] -= p[:, i]
            if np.abs(products, out=defects).max() > PROJ_TOL:
                per_block[:, i] = defects.max(axis=(1, 3))
    _check(
        np.diagonal(per_block, axis1=1, axis2=2),
        "measurement {0}: projector {1} is not idempotent (defect {defect:.3e})",
    )
    _check(
        np.abs(p.sum(axis=1) - np.eye(d)),
        "measurement {0}: projectors do not sum to identity (defect {defect:.3e})",
        axes=(-2, -1),
    )
    _check(
        np.triu(per_block, 1),
        "measurement {0}: projectors {1} and {2} are not orthogonal "
        "(overlap {defect:.3e})",
    )
    stack.setflags(write=False)
    return stack


def qubit_projectors(directions) -> np.ndarray:
    """Read-only (n, 2, 2, 2) projector stack for qubit directions.

    Row m of the (n, 3) array ``directions`` must be a unit vector n_m
    (``|norm - 1| <= PROJ_TOL``; NaN and inf fail); measurement m has
    outcome projectors (1 +- n_m.sigma)/2.  These are Hermitian and sum to
    the identity by construction, and their idempotency and orthogonality
    defects are ``|norm^2 - 1| / 4 <= PROJ_TOL``.  A (T, n, 3) stack
    gives (T, n, 2, 2, 2).
    """
    v = np.asarray(directions, dtype=float)
    if v.ndim not in (2, 3) or v.shape[-1] != 3:
        raise ValueError(f"directions must have shape (n, 3), got {v.shape}")
    norm = np.linalg.norm(v, axis=-1)
    off = np.flatnonzero(~(np.abs(norm - 1.0) <= PROJ_TOL))
    if len(off):
        raise ValueError(
            f"direction must be a unit vector (norm {float(norm.flat[off[0]])!r})"
        )
    stack = np.stack((hidden_qubits(v), hidden_qubits(-v)), axis=-3)
    stack.setflags(write=False)
    return stack


@functools.cache
def pauli_projectors() -> np.ndarray:
    """The read-only (3, 2, 2, 2) projector stack of the x, y, z settings.

    Built and validated on the first call, then shared.
    """
    return qubit_projectors(np.eye(3))


def qudit_projectors(bases) -> np.ndarray:
    """Validated (n, d, d, d) rank-1 projector stack for orthonormal bases.

    ``bases[m]`` holds basis m as rows; row i becomes the outcome-i
    projector of measurement m.  Every basis must be finite and
    orthonormal (Gram defect within ``PROJ_TOL``).  A (T, n, d, d) stack
    gives (T, n, d, d, d), validated as one stack (errors count its bases
    in C order).  The checks and messages are those of
    :func:`validate_projectors`, but the product defects come from the
    Gram matrix: block (i, j) of P_i P_j - delta_ij P_i is
    (G_ij - delta_ij) b_i b_j^dagger, whose max-abs entry is
    |G_ij - delta_ij| max|b_i| max|b_j|.  Hermiticity is derived: once
    |G_ii - 1| <= PROJ_TOL, every entry of b_i b_i^dagger is one rounded
    complex product of entries no larger than about 1, so its
    conjugate-symmetry defect is at most about 5e-16.
    """
    b = np.asarray(bases, dtype=np.complex128)
    if b.ndim not in (3, 4) or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"bases must have shape (n, d, d), got {b.shape}")
    _check_finite(b)
    flat = b.reshape(-1, *b.shape[-2:])
    gram = np.abs(flat.conj() @ flat.swapaxes(-1, -2) - np.eye(b.shape[-1]))
    _check(gram, "basis {0} is not orthonormal (Gram defect {defect:.3e})", axes=(-2, -1))
    peak = np.abs(flat).max(axis=-1)
    return _checked(
        np.einsum("...ix,...iy->...ixy", b, b.conj()),
        gram * peak[:, :, None] * peak[:, None, :],
    )


def qudit_measurement(basis) -> np.ndarray:
    """Read-only (d, d, d) rank-1 projectors of an orthonormal basis.

    ``basis`` is a sequence of d vectors of length d; vector i becomes
    the outcome-i projector.
    """
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in basis]
    d = len(vecs)
    for i, v in enumerate(vecs):
        if v.shape != (d,):
            raise ValueError(f"basis vector {i} has length {v.shape[0]}, expected {d}")
    return qudit_projectors(np.array(vecs)[None])[0]


def _orthonormal_rows(g: np.ndarray) -> np.ndarray:
    """Orthonormal rows from a stack of complex Gaussian matrices via QR.

    The phases of R's diagonal are moved into Q, which makes the bases
    Haar distributed.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    return q.swapaxes(-1, -2).copy()


def basis_draws(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, dim, dim) complex Gaussian matrices of n random bases.

    Per basis it draws the real parts, then the imaginary parts, as n
    calls of :func:`random_basis` do.
    """
    z = rng.standard_normal((n, 2, dim, dim))
    return z[:, 0] + 1j * z[:, 1]


def random_basis(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthonormal basis (rows) via QR of a Gaussian matrix."""
    return _orthonormal_rows(basis_draws(1, dim, rng))[0]


def pair_draws(n: int, dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n qubit directions and the (n, dim, dim) Gaussian matrices of n qudit bases.

    One (n, 3 + 2 dim^2) block of normals holds, row by row, three
    direction entries and the basis's real and imaginary parts: the
    stream of a per-sample loop that draws a direction, then a basis.
    The norms come from a batched matmul, the dot kernel of
    ``math.sqrt(v @ v)``, so the directions are bit-identical to that
    loop's.  A row whose direction norm is <= 1e-8 (probability about
    1e-25) gets three fresh normals from ``rng``, drawn after the block.
    """
    block = rng.standard_normal((n, 3 + 2 * dim * dim))
    v = block[:, :3]
    while True:
        norm = np.sqrt(v[:, None, :] @ v[:, :, None]).reshape(n, 1)
        redraw = np.flatnonzero(norm <= 1e-8)
        if not len(redraw):
            break
        v[redraw] = rng.standard_normal((len(redraw), 3))
    z = block[:, 3:].reshape(n, 2, dim, dim)
    return v / norm, z[:, 0] + 1j * z[:, 1]
