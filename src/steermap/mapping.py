"""The two mixing maps, their product partners and the (mu, c) region.

Map M mixes a qudit-qubit state with an unsteerable partner; map N mixes
a qubit-qudit state with a separable partner.  The biased partner lives
here in both its forms: as a state (:func:`biased_partner`) and as its
qubit's Pauli table (:func:`biased_probs`).  For the biased-partner
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
from .linalg import STATE_TOL, _check_invariant, _real_array
from .states import SIGMA_Z, BlochVector, DensityMatrix, _integer, check_unit_interval

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
    validated again (see :class:`~steermap.states.DensityMatrix`).  For
    stacks of T states ``mu`` is a float or a (T,) array, one per pair.
    """
    if (state.d_a, state.d_b) != (partner.d_a, partner.d_b):
        raise ValueError(
            f"dimension mismatch: {state.d_a}x{state.d_b} vs "
            f"{partner.d_a}x{partner.d_b}"
        )
    m = check_unit_interval("mu", mu)[..., None, None]
    mat = m * state.mat + (1.0 - m) * partner.mat
    return DensityMatrix(state.d_a, state.d_b, mat)


map_m = mix
map_n = mix


def biased_partner(state: DensityMatrix, c: float, side: str) -> DensityMatrix:
    """Product partner whose qubit on ``side`` is (1 + c sigma_z)/2.

    ``side='B'`` gives tr_B[state] (x) (1 + c sigma_z)/2 for a d x 2
    state (map M), ``side='A'`` gives (1 + c sigma_z)/2 (x) tr_A[state]
    for a 2 x d state (map N).  The product of a validated state's
    reduced state with a qubit state is closed but for one edge case (see
    :class:`~steermap.states.DensityMatrix`): a reduced state negative
    within tolerance.  So the partner's least eigenvalue, the reduced
    state's times (1 + c)/2, must be >= -1e-10, from one small eigenvalue
    solve; otherwise :class:`~steermap.linalg.StateValidationError`.  For
    a stack of T states ``c`` is a float or a (T,) array and the T reduced
    states are solved in one call.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if side == "B" and state.d_b != 2:
        raise ValueError(f"partner requires a qubit on Bob's side, got d_b={state.d_b}")
    if side == "A" and state.d_a != 2:
        raise ValueError(f"partner requires a qubit on Alice's side, got d_a={state.d_a}")
    c = check_unit_interval("c", c)
    qubit = (np.eye(2, dtype=np.complex128) + c[..., None, None] * SIGMA_Z) / 2.0
    reduced = state.reduced_a() if side == "B" else state.reduced_b()
    least = linalg.hermitian_eigen(reduced)[..., 0] * (1.0 + c) / 2.0
    _check_invariant(f"partner min eigenvalue >= -{STATE_TOL:g}", -least, least >= -STATE_TOL)
    if side == "B":
        mat = linalg.kron(reduced, qubit)
    else:
        mat = linalg.kron(qubit, reduced)
    return DensityMatrix(state.d_a, state.d_b, mat)


# Map M's partner, tr_B[tau] (x) (1 + c sigma_z)/2, and map N's, (1 + c sigma_z)/2 (x) tr_A[rho].
bob_biased_partner = functools.partial(biased_partner, side="B")
alice_biased_partner = functools.partial(biased_partner, side="A")


def biased_probs(c) -> np.ndarray:
    """Outcome-0 probabilities (1/2, 1/2, (1 + c)/2) at x, y, z of :func:`biased_partner`'s qubit.

    ``c`` is a float or a (T,) array; the result has shape (1, 3) or
    (T, 1, 3): one row that every hidden value shares, a ``partner`` for
    :func:`steermap.constructions.certificate` and the table of the
    partner models of :func:`steermap.constructions.bob_biased_prime_model`
    and :func:`steermap.constructions.alice_biased_prime_model`.
    """
    c = check_unit_interval("c", c)
    probs = np.full((*c.shape, 1, 3), 0.5)
    probs[..., 2] = ((1.0 + c) / 2.0)[..., None]
    return probs


def analytic_c_max(mu):
    """Closed-form bias bound (sqrt(1 - 2 mu^2) - mu) / (1 - mu), elementwise.

    Defined for 0 <= mu <= 1/sqrt(3); 1 at mu=0, 0 at the right endpoint.
    A float in gives a float out; a range error names the first bad entry.
    """
    m = _real_array("mu", mu)
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
    """Supremum bias c with feasible(mu, c), as bisection on [0, 1] finds it.

    ``mu`` is a float (float out) or an array, searched at once; any finite
    positive ``tol`` terminates.  Bisection's brackets are [k w, (k+1) w] for
    powers of two w, exact while w > 2**-50, and feasibility is weakly
    monotone in c (see :func:`_worst_norm_sq`), so halving to the last such w
    ends at the largest feasible k w.  That k w is found directly: seeded from
    the closed form with FEAS_TOL folded in, snapped down to the grid and
    stepped until k w holds and (k+1) w fails; below it the full rule bisects.
    """
    t = _real_array("tolerance", tol)
    if not (t.ndim == 0 and 0.0 < t < np.inf):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    mu, tol = check_unit_interval("mu", mu), float(t)
    limit = 1.0 + FEAS_TOL
    feasible_at_0 = _worst_norm_sq(mu, 0.0) <= limit
    feasible_at_1 = _worst_norm_sq(mu, 1.0) <= limit
    active = feasible_at_0 & ~feasible_at_1
    width = 1.0
    while tol < width > 2.0**-50:
        width /= 2.0
    m = np.where(active, mu, 0.0)  # at mu = 1 (inactive) the seed would divide by 0
    seed = (np.sqrt(1.0 + FEAS_TOL - 2.0 * m * m) - m) / (1.0 - m)
    lo = np.clip(np.floor(seed / width) * width, 0.0, 1.0 - width)
    for step, probe, holds in ((width, width, True), (-width, 0.0, False)):
        move = active
        while (move := move & ((_worst_norm_sq(mu, lo + probe) <= limit) == holds)).any():
            lo = np.where(move, lo + step, lo)
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


def _region_grid(n_grid: int, bisect_tol: float) -> np.ndarray:
    """(n_grid, 3) rows of mu, numeric and analytic c_max on a uniform grid over [0, 1/sqrt(3)]."""
    if _integer("number of grid points", n_grid) < 2:
        raise ValueError(f"grid needs at least 2 points, got {n_grid}")
    mus = INV_SQRT3 * np.arange(n_grid, dtype=np.float64) / (n_grid - 1)
    return np.column_stack([mus, c_max_numeric(mus, bisect_tol), analytic_c_max(mus)])


def region_scan(n_grid: int = 200, bisect_tol: float = 1e-10) -> list[RegionPoint]:
    """Numeric vs analytic boundary on a uniform mu grid over [0, 1/sqrt(3)], one array each."""
    return list(map(RegionPoint, *_region_grid(n_grid, bisect_tol).T.tolist()))


REGION_CSV_HEADER = "mu,c_max_numeric,c_max_analytic,abs_err"


def region_to_csv(points) -> str:
    """CSV of region points or (n, 3) rows, 12 significant digits, by one ``%`` format."""
    rows = _real_array("points", points).reshape(-1, 3)
    values = np.column_stack([rows, abs(rows[:, 1] - rows[:, 2])]).ravel().tolist()
    return REGION_CSV_HEADER + "\n" + ("%.12g,%.12g,%.12g,%.12g\n" * len(rows)) % tuple(values)
