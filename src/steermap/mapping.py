"""The two mixing maps, their product partners and the (mu, c) region.

Map M mixes a qudit-qubit state with an unsteerable partner; map N mixes
a qubit-qudit state with a separable partner.  For the biased-partner
family (Alice response unchanged, partner's qubit responses unbiased in
x and y and z-biased by c) the constructed hidden-state Bloch vector is
affine in Bob's three response probabilities, so physicality over the
whole probability box is decided exactly at its 8 vertices, whose worst
squared norm has a closed form.  Feasibility is decided only for this
family; general instances are checked by the construction residuals in
:mod:`steermap.constructions` instead.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .states import (
    PSD_TOL,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    StateValidationError,
    _closed_density,
    check_unit_interval,
)

INV_SQRT3 = 1.0 / math.sqrt(3.0)
FEAS_TOL = 1e-12


class RegionPoint(NamedTuple):
    """One grid point of the feasibility boundary scan."""

    mu: float
    c_numeric: float
    c_analytic: float

    @property
    def abs_err(self) -> float:
        return abs(self.c_numeric - self.c_analytic)


def mix(state: DensityMatrix, partner: DensityMatrix, mu: float) -> DensityMatrix:
    """Convex mixture mu*state + (1-mu)*partner of two states of equal dims.

    Map M (nonlocality -> steering) mixes a qudit-qubit tau with its
    partner, map N (steering -> entanglement) a qubit-qudit rho; both are
    this function.  A convex combination of validated states is not
    validated again (see :func:`steermap.states._closed_density`).  For
    stacks of T states ``mu`` is a float or a (T,) array, one per pair.
    """
    if (state.d_a, state.d_b) != (partner.d_a, partner.d_b):
        raise ValueError(
            f"dimension mismatch: {state.d_a}x{state.d_b} vs "
            f"{partner.d_a}x{partner.d_b}"
        )
    check_unit_interval("mu", mu)
    m = np.asarray(mu, dtype=np.float64)[..., None, None]
    mat = m * state.mat + (1.0 - m) * partner.mat
    return _closed_density(mat, state.d_a, state.d_b)


map_m = mix
map_n = mix


def biased_partner(state: DensityMatrix, c: float, side: str) -> DensityMatrix:
    """Product partner whose qubit on ``side`` is (1 + c sigma_z)/2.

    ``side='B'`` gives tr_B[state] (x) (1 + c sigma_z)/2 for a d x 2
    state (map M), ``side='A'`` gives (1 + c sigma_z)/2 (x) tr_A[state]
    for a 2 x d state (map N).  The product of a validated state's
    reduced state with a qubit state is closed but for one edge case (see
    :func:`steermap.states._closed_density`): a reduced state negative
    within tolerance.  So the partner's least eigenvalue, the reduced
    state's times (1 + c)/2, must be >= -1e-10, from one small
    eigendecomposition; otherwise :class:`StateValidationError`.  For a
    stack of T states ``c`` is a float or a (T,) array and the T reduced
    states are decomposed in one call.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if side == "B" and state.d_b != 2:
        raise ValueError(f"partner requires a qubit on Bob's side, got d_b={state.d_b}")
    if side == "A" and state.d_a != 2:
        raise ValueError(f"partner requires a qubit on Alice's side, got d_a={state.d_a}")
    check_unit_interval("c", c)
    c = np.asarray(c, dtype=np.float64)
    qubit = (np.eye(2, dtype=np.complex128) + c[..., None, None] * SIGMA_Z) / 2.0
    reduced = state.reduced_a() if side == "B" else state.reduced_b()
    w, _ = linalg.hermitian_eigen(reduced)
    least = w[..., 0] * (1.0 + c) / 2.0
    if not (least >= -PSD_TOL).all():
        i = int(np.argmin(least >= -PSD_TOL))
        raise StateValidationError(
            "partner min eigenvalue >= -1e-10",
            float(-least.flat[i]),
            i if least.ndim else None,
        )
    if side == "B":
        mat = linalg.kron(reduced, qubit)
    else:
        mat = linalg.kron(qubit, reduced)
    return _closed_density(mat, state.d_a, state.d_b)


# Map M's partner, tr_B[tau] (x) (1 + c sigma_z)/2, and map N's, (1 + c sigma_z)/2 (x) tr_A[rho].
bob_biased_partner = functools.partial(biased_partner, side="B")
alice_biased_partner = functools.partial(biased_partner, side="A")


def analytic_c_max(mu):
    """Closed-form bias bound (sqrt(1 - 2 mu^2) - mu) / (1 - mu), elementwise.

    Defined for 0 <= mu <= 1/sqrt(3); 1 at mu=0, 0 at the right endpoint.
    A float in gives a float out; a range error names the first bad entry.
    """
    m = np.asarray(mu, dtype=np.float64)
    outside = ~((m >= 0.0) & (m <= INV_SQRT3 + 1e-12))
    if outside.any():
        raise ValueError(f"mu must be in [0, 1/sqrt(3)], got {m[outside][0] if m.ndim else mu}")
    c = np.maximum(0.0, (np.sqrt(np.maximum(0.0, 1.0 - 2.0 * m * m)) - m) / (1.0 - m))
    return linalg.scalar_or_array(c)


def hidden_bloch_vector(
    px: float, py: float, pz: float, mu: float, c: float
) -> BlochVector:
    """Hidden-state Bloch vector for the biased-partner response family.

    ``px, py, pz`` are Bob's outcome-0 probabilities at the x, y, z
    settings; the partner contributes (1/2, 1/2, (1+c)/2).
    """
    for name, value in (("px", px), ("py", py), ("pz", pz), ("mu", mu), ("c", c)):
        check_unit_interval(name, value)
    return BlochVector(
        2.0 * mu * px - mu,
        2.0 * mu * py - mu,
        2.0 * mu * pz + c - mu * c - mu,
    )


def _worst_norm_sq(mu, c):
    """Largest squared hidden-state Bloch norm over the response box.

    At every box vertex x and y are exactly -mu or +mu and z is
    ``zc = c - mu c - mu`` or ``z1 = 2 mu + zc``.  For mu, c in [0, 1]
    every rounding step is monotone and ``mu c <= c``, so ``zc >= -mu``
    and ``z1 >= max(zc, mu) >= |zc|``: the z1 vertices are the worst.
    The sum keeps the order of ``rx*rx + ry*ry + rz*rz``, so the value is
    the 8-vertex maximum bit for bit.  Works on floats and on arrays.
    """
    z1 = 2.0 * mu + (c - mu * c - mu)
    xy = mu * mu
    return xy + xy + z1 * z1


def feasible(mu: float, c: float) -> bool:
    """Whether every hidden state of the biased-partner family is physical.

    Each Bloch component is affine in one box variable, so the squared
    norm is convex over [0,1]^3 and maximal at a vertex; the maximum
    over the 8 vertices decides the universally quantified condition
    exactly.
    """
    check_unit_interval("mu", mu)
    check_unit_interval("c", c)
    return bool(_worst_norm_sq(mu, c) <= 1.0 + FEAS_TOL)


def c_max_numeric(mu, tol: float = 1e-10):
    """Supremum bias c with feasible(mu, c), by bisection on [0, 1].

    ``mu`` is a float (float out) or an array, whose entries are bisected
    at once; each stops once its bracket is narrower than ``tol`` or can
    no longer be split in floating point, so any finite positive ``tol``
    terminates.  Every active bracket is [k w, (k+1) w] for one power of
    two w.  While w > 2**-50 its midpoint lo + w/2 is exact, so only lo is
    kept and all stop when w <= tol; below that each stops by the full rule.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    check_unit_interval("mu", mu)
    mu = np.asarray(mu, dtype=np.float64)
    limit = 1.0 + FEAS_TOL
    feasible_at_0 = _worst_norm_sq(mu, 0.0) <= limit
    feasible_at_1 = _worst_norm_sq(mu, 1.0) <= limit
    lo = np.zeros_like(mu)
    active = feasible_at_0 & ~feasible_at_1
    width = 1.0 if active.any() else 0.0  # nothing active: no halvings
    while tol < width > 2.0**-50:
        width /= 2.0
        mid = lo + width
        lo = np.where(_worst_norm_sq(mu, mid) <= limit, mid, lo)
    hi = lo + width
    while True:
        mid = (lo + hi) / 2.0
        active &= (hi - lo > tol) & (mid != lo) & (mid != hi)
        if not active.any():
            break
        ok = _worst_norm_sq(mu, mid) <= limit
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
    c = np.where(feasible_at_0, np.where(feasible_at_1, 1.0, (lo + hi) / 2.0), 0.0)
    return linalg.scalar_or_array(c)


def region_scan(n_grid: int = 200, bisect_tol: float = 1e-10) -> list[RegionPoint]:
    """Numeric vs analytic boundary on a uniform mu grid over [0, 1/sqrt(3)], one array each."""
    if not isinstance(n_grid, (int, np.integer)):
        raise ValueError(f"grid needs an integer number of points, got {n_grid}")
    if n_grid < 2:
        raise ValueError(f"grid needs at least 2 points, got {n_grid}")
    mus = INV_SQRT3 * np.arange(n_grid, dtype=np.float64) / (n_grid - 1)
    c_numeric, c_analytic = c_max_numeric(mus, bisect_tol), analytic_c_max(mus)
    return list(map(RegionPoint, mus.tolist(), c_numeric.tolist(), c_analytic.tolist()))


REGION_CSV_HEADER = "mu,c_max_numeric,c_max_analytic,abs_err"


def region_to_csv(points) -> str:
    """CSV rendering of region points, 12 significant digits, by one ``%`` format."""
    values = tuple([v for mu, c, a in points for v in (mu, c, a, abs(c - a))])
    return REGION_CSV_HEADER + "\n" + ("%.12g,%.12g,%.12g,%.12g\n" * len(points)) % values
