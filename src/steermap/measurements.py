"""Projective measurements for qubits and qudits, single or stacked.

Outcomes are indices 0..d-1.  For qubit measurements along a direction
n the outcome-0 projector is (1 + n.sigma)/2, i.e. outcome 0 carries the
+1 sign.  Only projective measurements are supported.

Measurements are built in batches: :func:`qubit_projectors` takes an
``(n, 3)`` array of directions and :func:`qudit_projectors` an
``(n, d, d)`` array of bases.  Each builder checks its input, then the
stack it built, with the product checks that :func:`validate_projectors`
runs on any stack, one batched matmul.  A measurement is its read-only
``(k, d, d)`` projector array; the single builder
:func:`qudit_measurement` is the ``n = 1`` case.  :func:`random_bases`
draws n random bases with one QR; :func:`random_basis` is its
``n = 1`` case.
"""

from __future__ import annotations

import functools

import numpy as np

from .states import _integer, _real_array, hidden_qubits

PROJ_TOL = 1e-10


def _check(defects: np.ndarray, message: str, axes: tuple[int, ...] = ()) -> None:
    """Raise for the first entry (C order) of ``defects`` maximized over
    ``axes`` that is NaN or above PROJ_TOL.

    ``message`` is formatted with that entry's index and its value as
    ``defect``.  The maxima over ``axes`` are only formed to name an
    offender.
    """
    if not defects.max(initial=0.0) <= PROJ_TOL:
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
    projector, or a value the number rule refuses; returns a read-only complex copy.
    """
    p = _real_array("projector stack", projectors, "biufc").copy()
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


def _checked(p: np.ndarray) -> np.ndarray:
    """The checks of :func:`validate_projectors` after the finite and Hermitian ones.

    ``p`` is a finite Hermitian (n, k, d, d) array that the caller owns.
    The max-abs entries of the blocks P_i P_j - delta_ij P_i test
    idempotence (diagonal) and orthogonality (strict upper triangle).
    Returns ``p`` read-only.
    """
    # Block (i, j) of P_i [P_0 ... P_{k-1}], an (n, k, d, k d) array, is
    # P_i P_j, which must equal delta_ij P_i.
    n, k, d = p.shape[:3]
    products = (p @ p.swapaxes(1, 2).reshape(n, 1, d, k * d)).reshape(n, k, d, k, d)
    products[:, np.arange(k), :, np.arange(k)] -= p.swapaxes(0, 1)
    per_block = np.abs(products).max(axis=(2, 4))
    _check(
        np.diagonal(per_block, axis1=1, axis2=2),
        "measurement {0}: projector {1} is not idempotent (defect {defect:.3e})",
    )
    _check(
        np.abs(p.sum(axis=1) - np.eye(p.shape[-1])),
        "measurement {0}: projectors do not sum to identity (defect {defect:.3e})",
        axes=(-2, -1),
    )
    _check(
        np.triu(per_block, 1),
        "measurement {0}: projectors {1} and {2} are not orthogonal "
        "(overlap {defect:.3e})",
    )
    p.setflags(write=False)
    return p


def qubit_projectors(directions) -> np.ndarray:
    """Read-only (n, 2, 2, 2) projector stack for qubit directions.

    Row m of the (n, 3) array ``directions`` must be a unit vector n_m
    (``|norm - 1| <= PROJ_TOL``; NaN and inf fail); measurement m has
    outcome projectors (1 +- n_m.sigma)/2, Hermitian by construction and
    checked as in :func:`validate_projectors`.
    """
    v = _real_array("directions", directions)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"directions must have shape (n, 3), got {v.shape}")
    norm = np.linalg.norm(v, axis=1)
    off = np.flatnonzero(~(np.abs(norm - 1.0) <= PROJ_TOL))
    if len(off):
        raise ValueError(f"direction must be a unit vector (norm {float(norm[off[0]])!r})")
    return _checked(hidden_qubits(np.stack((v, -v), axis=1)))


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
    orthonormal (Gram defect within ``PROJ_TOL``).  The projectors
    b_i b_i^dagger are Hermitian to rounding by construction and checked
    as in :func:`validate_projectors`.
    """
    b = _real_array("bases", bases, "biufc")
    if b.ndim != 3 or b.shape[1] != b.shape[2] or b.shape[2] == 0:
        raise ValueError(f"bases must have shape (n, d, d), got {b.shape}")
    _check_finite(b)
    gram = np.abs(b.conj() @ b.swapaxes(1, 2) - np.eye(b.shape[2]))
    _check(gram, "basis {0} is not orthonormal (Gram defect {defect:.3e})", axes=(1, 2))
    return _checked(np.einsum("nix,niy->nixy", b, b.conj()))


def qudit_measurement(basis) -> np.ndarray:
    """Read-only (d, d, d) rank-1 projectors of an orthonormal basis.

    ``basis`` is a sequence of d vectors of length d; vector i becomes
    the outcome-i projector.
    """
    vecs = [_real_array(f"basis vector {i}", v, "biufc").reshape(-1) for i, v in enumerate(basis)]
    d = len(vecs)
    for i, v in enumerate(vecs):
        if v.shape != (d,):
            raise ValueError(f"basis vector {i} has length {v.shape[0]}, expected {d}")
    return qudit_projectors(np.array(vecs)[None])[0]


def random_bases(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n random orthonormal bases of C^dim as rows: an (n, dim, dim) array.

    Per basis it draws the real parts, then the imaginary parts, of a
    complex Gaussian matrix, as n calls of :func:`random_basis` do; one
    QR orthonormalises all n.  The phases of R's diagonal are moved into
    Q, which makes the bases Haar distributed.  ``n`` and ``dim`` are integers >= 1.
    """
    for name, size in (("n", n), ("dim", dim)):
        if _integer(name, size) < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    z = rng.standard_normal((n, 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    return q.swapaxes(-1, -2).copy()


def random_basis(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar random orthonormal basis (rows) via QR of a Gaussian matrix."""
    return random_bases(1, dim, rng)[0]
