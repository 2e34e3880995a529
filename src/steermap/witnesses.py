"""Detectors for the three correlation layers.

These are sufficient-condition witnesses, not deciders: a value below
threshold never proves a state local, unsteerable or separable.  The one
exception is the Werner-family steering oracle, an external literature
threshold kept in its own function so dependent tests can declare where
the number comes from.  Each detector takes one state (a Python number
out) or a stack (one value per state, from one stacked pass).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .states import PAULI_STACK, DensityMatrix, check_unit_interval

CHSH_THRESHOLD = 2.0
F3_THRESHOLD = float(np.sqrt(3.0))
NEGATIVITY_ZERO_TOL = 1e-12


class WitnessReport(NamedTuple):
    """Witness values for one state; None marks a non-applicable detector."""

    negativity: float
    chsh: float | None
    f3: float | None


def negativity(rho: DensityMatrix):
    """Entanglement witness (||rho^T_B||_1 - 1)/2, reported as 0 up to 1e-12.

    Positive negativity certifies entanglement; for 2x2 and 2x3 systems
    the converse holds as well.  Partial transpose is taken on B (the
    spectrum is the same either way; fixed for determinism).  Values at
    or below ``NEGATIVITY_ZERO_TOL`` are eigensolver rounding on a
    separable state and come back as exactly 0.0.
    """
    pt = linalg.partial_transpose(rho.mat, rho.d_a, rho.d_b)
    neg = (np.asarray(linalg.trace_norm(pt)) - 1.0) / 2.0
    return linalg.scalar_or_array(np.where(neg > NEGATIVITY_ZERO_TOL, neg, 0.0))


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """T[..., j, k] = tr[(sigma_j x sigma_k) rho] for a two-qubit state or stack."""
    if (rho.d_a, rho.d_b) != (2, 2):
        raise ValueError(f"needs a 2x2 state, got {rho.d_a}x{rho.d_b}")
    # tr[(A x B) rho] = sum A[a, c] B[b, d] rho[(c, d), (a, b)].
    t = rho.mat.reshape(*rho.mat.shape[:-2], 2, 2, 2, 2)
    return np.einsum("jac,kbd,...cdab->...jk", PAULI_STACK, PAULI_STACK, t).real


def chsh_horodecki(rho: DensityMatrix):
    """Largest CHSH value 2 sqrt(m1 + m2) reachable with projective settings.

    m1, m2 are the two largest eigenvalues of T^T T built from the
    correlation matrix; a value above 2 certifies Bell nonlocality of a
    two-qubit state.
    """
    t = correlation_matrix(rho)
    w = linalg.hermitian_eigen(t.swapaxes(-1, -2) @ t)
    return linalg.scalar_or_array(2.0 * np.sqrt(np.maximum(0.0, w[..., -1] + w[..., -2])))


def f3_steering(rho: DensityMatrix):
    """Three-setting linear steering functional sum_k ||tr_B[(1 x sigma_k) rho]||_1.

    Bob must hold a qubit; a value above sqrt(3) certifies that Alice
    can steer Bob using dichotomic observables on her side.
    """
    if rho.d_b != 2:
        raise ValueError(f"needs a qubit on Bob's side, got d_b={rho.d_b}")
    # tr_B[(1 x sigma_k) rho][a, c] = sum sigma_k[b, d] rho[(a, d), (c, b)].
    t = rho.mat.reshape(*rho.mat.shape[:-2], rho.d_a, 2, rho.d_a, 2)
    norms = linalg.trace_norm(np.einsum("kbd,...adcb->...kac", PAULI_STACK, t))
    return linalg.scalar_or_array(norms[..., 0] + norms[..., 1] + norms[..., 2])


def werner_steerable_oracle(v):
    """Exact steering boundary of the Werner family under projective settings.

    External literature threshold: steerable iff visibility > 1/2
    (strict; the boundary point itself is unsteerable).  Not derivable
    from anything in this package.
    """
    return linalg.scalar_or_array(check_unit_interval("visibility", v) > 0.5)


def witness_report(rho: DensityMatrix) -> WitnessReport:
    """Run every applicable detector on one state."""
    chsh = chsh_horodecki(rho) if (rho.d_a, rho.d_b) == (2, 2) else None
    f3 = f3_steering(rho) if rho.d_b == 2 else None
    return WitnessReport(negativity=negativity(rho), chsh=chsh, f3=f3)
