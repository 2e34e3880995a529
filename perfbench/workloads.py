"""Workloads: seeded CLI request sequences and reference checks on outputs.

A workload turns a numpy Generator into one round, the fixed sequence of
``steermap`` command lines the run repeats.  Inputs depend only on the
seed; steermap sees nothing but the generated argv and state files.

Every request carries a check of its exit code and output.  The
references use numpy (``np.linalg.eigvalsh``) and closed forms, never
steermap's own eigensolver, so a wrong kernel cannot vouch for itself.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

INV_SQRT3 = 1.0 / math.sqrt(3.0)
F3_THRESHOLD = math.sqrt(3.0)
WITNESS_TOL = 1e-9  # analyze/demo-werner values vs reference (12 significant digits)
MAP_TOL = 1e-12  # mapped state vs mu*rho + (1-mu)*partner
REGION_TOL = 2e-10  # region abs_err, the package's acceptance tolerance
VERIFY_TOL = 1e-10  # verify residual bound
GRID_TOL = 1e-12  # grid coordinates printed with 12 significant digits

OUT = "{out}"  # argv placeholder for a fresh output path per request

EXIT_OK = 0
EXIT_INFEASIBLE = 3

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

WERNER_HEADER = (
    "p,negativity_sigma,f3_tau,chsh_tau,steerable_rho_oracle,"
    "impl_steerable_nonlocal,impl_entangled_steerable"
)
REGION_HEADER = "mu,c_max_numeric,c_max_analytic,abs_err"


class CheckFailed(Exception):
    """A request's exit code or output disagreed with the reference."""


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``check(rc, stdout, out_path)`` raises CheckFailed
    on a wrong answer and returns the verify residual, if any."""

    argv: tuple[str, ...]
    check: Callable[[object, str, str | None], float | None]

    @property
    def writes_file(self) -> bool:
        return OUT in self.argv

    def argv_for(self, out_path: str | None) -> list[str]:
        return [out_path if a == OUT else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator, Path], list[Request]]

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, zlib.crc32(self.name.encode())])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _expect_rc(rc, expected: int) -> None:
    _require(rc == expected, f"exit {rc!r}, expected {expected}")


def _near(name: str, got: float, want: float, tol: float) -> None:
    _require(abs(got - want) <= tol, f"{name} = {got!r}, reference {want!r} (tol {tol:g})")


def _csv_rows(stdout: str, header: str, n_rows: int) -> list[list[str]]:
    lines = stdout.rstrip("\n").split("\n")
    _require(lines[0] == header, f"CSV header {lines[0]!r}")
    _require(len(lines) == n_rows + 1, f"{len(lines) - 1} CSV rows, expected {n_rows}")
    return [line.split(",") for line in lines[1:]]


# --- references (numpy only) -------------------------------------------------


def c_max(mu: float) -> float:
    """Closed-form feasibility bound of the biased-partner family."""
    return max(0.0, (math.sqrt(max(0.0, 1.0 - 2.0 * mu * mu)) - mu) / (1.0 - mu))


def ref_negativity(m: np.ndarray, d_a: int, d_b: int) -> float:
    pt = m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(m.shape)
    return max(0.0, (float(np.abs(np.linalg.eigvalsh(pt)).sum()) - 1.0) / 2.0)


def ref_chsh(m: np.ndarray) -> float:
    t = np.array([[np.trace(np.kron(sj, sk) @ m).real for sk in SIGMA] for sj in SIGMA])
    w = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(0.0, float(w[-1] + w[-2])))


def ref_f3(m: np.ndarray, d_a: int) -> float:
    t = m.reshape(d_a, 2, d_a, 2)
    return sum(
        float(np.abs(np.linalg.eigvalsh(np.einsum("bc,icjb->ij", s, t))).sum())
        for s in SIGMA
    )


def random_state(rng: np.random.Generator, n: int, rank: int = 2) -> np.ndarray:
    """Exactly Hermitian, unit-trace, low-rank (so often entangled) state."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def write_state(path: Path, m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Write the state JSON format; return the matrix exactly as written."""
    path.write_text(json.dumps({"dims": [d_a, d_b], "re": m.real.tolist(), "im": m.imag.tolist()}))
    return m


# --- request builders ---------------------------------------------------------


def verify_request(target: str, d_a: int, d_b: int, trials: int, seed: int) -> Request:
    argv = ("verify", target, "--dims", f"{d_a}x{d_b}", "--trials", str(trials), "--seed", str(seed))

    def check(rc, stdout, _out):
        _expect_rc(rc, EXIT_OK)
        report = json.loads(stdout)
        echo = {"target": target, "dims": [d_a, d_b], "trials": trials, "seed": seed}
        for key, want in echo.items():
            _require(report.get(key) == want, f"{key} = {report.get(key)!r}, expected {want!r}")
        _require(report.get("pass") is True, "verify did not report pass")
        residual = report.get("max_residual")
        _require(
            isinstance(residual, float) and 0.0 <= residual <= VERIFY_TOL,
            f"max_residual {residual!r} above {VERIFY_TOL:g}",
        )
        return residual

    return Request(argv, check)


def werner_request(grid: int) -> Request:
    """demo-werner against the closed forms of the Werner family.

    sigma = W(p / sqrt 3), so negativity_sigma = max(0, (sqrt3 p - 1) / 4);
    f3(W(p)) = 3p and CHSH(W(p)) = 2 sqrt2 p.  Both the entanglement and
    the steering detector switch on at p = 1/sqrt3.
    """
    step = 1.0 / (grid - 1)

    def check(rc, stdout, _out):
        _expect_rc(rc, EXIT_OK)
        first_neg = first_f3 = None
        for i, row in enumerate(_csv_rows(stdout, WERNER_HEADER, grid)):
            p, neg, f3, chsh = (float(x) for x in row[:4])
            _near("p", p, i * step, GRID_TOL)
            v = p * INV_SQRT3
            _near(f"negativity_sigma at p={p}", neg, max(0.0, (3.0 * v - 1.0) / 4.0), WITNESS_TOL)
            _near(f"f3_tau at p={p}", f3, 3.0 * p, WITNESS_TOL)
            _near(f"chsh_tau at p={p}", chsh, 2.0 * math.sqrt(2.0) * p, WITNESS_TOL)
            _require(row[4] == str(v > 0.5).lower(), f"steering oracle {row[4]} at p={p}")
            _require(row[5:] == ["true", "true"], f"implication columns {row[5:]} at p={p}")
            if first_neg is None and neg > 0.0:
                first_neg = p
            if first_f3 is None and f3 > F3_THRESHOLD:
                first_f3 = p
        for name, cross in (("negativity", first_neg), ("f3", first_f3)):
            _require(
                cross is not None and abs(cross - INV_SQRT3) <= step + GRID_TOL,
                f"{name} crossing at {cross!r}, not within one step of 1/sqrt3",
            )

    return Request(("demo-werner", "--grid", str(grid)), check)


def region_request(grid: int) -> Request:
    def check(rc, stdout, _out):
        _expect_rc(rc, EXIT_OK)
        for i, row in enumerate(_csv_rows(stdout, REGION_HEADER, grid)):
            mu, c_num, c_ana, err = (float(x) for x in row)
            exact_mu = INV_SQRT3 * i / (grid - 1)
            _near("mu", mu, exact_mu, GRID_TOL)
            _require(err <= REGION_TOL, f"abs_err {err!r} at mu={mu}")
            _near(f"c_max_numeric at mu={mu}", c_num, c_max(exact_mu), REGION_TOL + GRID_TOL)
            _near(f"c_max_analytic at mu={mu}", c_ana, c_max(exact_mu), GRID_TOL)

    return Request(("region", "--grid", str(grid)), check)


def analyze_request(path: Path, m: np.ndarray, d_a: int, d_b: int) -> Request:
    want = {"negativity": ref_negativity(m, d_a, d_b)}
    if (d_a, d_b) == (2, 2):
        want["chsh"] = ref_chsh(m)
    if d_b == 2:
        want["f3"] = ref_f3(m, d_a)

    def check(rc, stdout, _out):
        _expect_rc(rc, EXIT_OK)
        report = json.loads(stdout)
        _require(set(report) == set(want), f"report keys {sorted(report)}")
        for key, value in want.items():
            _near(key, report[key], value, WITNESS_TOL)

    return Request(("analyze", "--state", str(path)), check)


def map_request(path: Path, m: np.ndarray, d_a: int, d_b: int, mode: str, mu: float, c: float) -> Request:
    """map M|N; feasible (mu, c) must write mu*rho + (1-mu)*partner,
    infeasible ones must exit 3 and write nothing."""
    feasible = mu <= INV_SQRT3 and c <= c_max(mu)
    qubit = np.diag([(1.0 + c) / 2.0, (1.0 - c) / 2.0]).astype(complex)
    t = m.reshape(d_a, d_b, d_a, d_b)
    if mode == "M":
        partner = np.kron(np.einsum("ibkb->ik", t), qubit)
    else:
        partner = np.kron(qubit, np.einsum("ibid->bd", t))
    expected = mu * m + (1.0 - mu) * partner
    argv = ("map", "--state", str(path), "--mode", mode, "--mu", repr(mu), "--c", repr(c), "--out", OUT)

    def check(rc, stdout, out_path):
        verdict = stdout.strip().endswith(f"= {str(feasible).lower()}")
        _require(stdout.startswith("feasible(") and verdict, f"feasibility line {stdout.strip()!r}")
        if not feasible:
            _expect_rc(rc, EXIT_INFEASIBLE)
            _require(not os.path.exists(out_path), "infeasible map wrote its output")
            return
        _expect_rc(rc, EXIT_OK)
        data = json.loads(Path(out_path).read_text())
        _require(data["dims"] == [d_a, d_b], f"dims {data['dims']!r}")
        got = np.asarray(data["re"]) + 1j * np.asarray(data["im"])
        _require(got.shape == expected.shape, f"shape {got.shape}")
        dev = float(np.max(np.abs(got - expected)))
        _require(dev <= MAP_TOL, f"mapped state off by {dev:.3e}")

    return Request(argv, check)


# --- workloads ----------------------------------------------------------------

# A round mixes request classes of distinct cost.  Class shares put the
# median latency in the middle of a large class and p90 in the middle of a
# class clearly above the ones below it.  A percentile on the edge between
# two classes jumps when a few requests are slowed by other load.
SPM_CLASSES = (((2, 2), 2, 2), ((2, 3), 2, 6), ((2, 4), 3, 2))  # (dims, trials, copies)
LHS_CLASSES = (((2, 2), 3, 2), ((3, 2), 3, 6), ((4, 2), 5, 2))
WERNER_CLASSES = ((101, 1), (201, 3), (451, 1))  # (grid, copies)
REGION_GRID = 200
# (kind, d_a, d_b, copies); 40 requests: p50 falls in the middle of the
# dimension-6 class, p90 in the middle of the region class.
MIX_CLASSES = (
    # ~2 ms: dimension 4
    ("analyze", 2, 2, 4), ("map-M", 2, 2, 4), ("map-N", 2, 2, 4),
    # ~3 ms: dimension 6, with the infeasible maps that must exit 3
    ("analyze", 2, 3, 2), ("analyze", 3, 2, 2), ("map-M", 3, 2, 3), ("map-N", 2, 3, 3),
    ("infeasible-M", 3, 2, 3), ("infeasible-N", 2, 3, 3),
    # ~6 ms: dimension 8 and 9
    ("analyze", 2, 4, 1), ("analyze", 4, 2, 1), ("analyze", 3, 3, 2),
    ("map-N", 2, 4, 1), ("map-M", 4, 2, 1),
    # ~8 ms: feasible() bisection, no linalg; ~33 ms: dimension 16
    ("region", 0, 0, 4), ("analyze", 4, 4, 2),
)


def _verify_round(target, classes):
    def make(rng, _workdir):
        return [
            verify_request(target, d_a, d_b, trials, int(rng.integers(0, 10**6)))
            for (d_a, d_b), trials, copies in classes
            for _ in range(copies)
        ]

    return make


def _werner_round(rng, _workdir):
    grids = [g + int(rng.integers(0, 5)) for g, copies in WERNER_CLASSES for _ in range(copies)]
    rng.shuffle(grids)
    return [werner_request(g) for g in grids]


def _map_params(rng, kind: str, mode: str) -> tuple[float, float]:
    if kind == "map":
        mu = float(rng.uniform(0.02, 0.55))
        return mu, float(rng.uniform(0.0, 0.9)) * c_max(mu)
    if mode == "M":  # c above the bound
        mu = float(rng.uniform(0.1, 0.5))
        return mu, c_max(mu) + float(rng.uniform(0.1, 0.9)) * (1.0 - c_max(mu))
    return float(rng.uniform(0.6, 0.95)), float(rng.uniform(0.0, 1.0))  # mu beyond 1/sqrt3


def _cli_mix_round(rng, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []
    for kind, d_a, d_b, copies in MIX_CLASSES:
        for _ in range(copies):
            if kind == "region":
                requests.append(region_request(REGION_GRID))
                continue
            path = workdir / f"state{len(requests)}-{d_a}x{d_b}.json"
            m = write_state(path, random_state(rng, d_a * d_b), d_a, d_b)
            if kind == "analyze":
                requests.append(analyze_request(path, m, d_a, d_b))
            else:
                map_kind, mode = kind.split("-")
                mu, c = _map_params(rng, map_kind, mode)
                requests.append(map_request(path, m, d_a, d_b, mode, mu, c))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-spm",
            "verify spm at 2x2..2x4: Born-rule joints (kron per call), measurement "
            "validation and dim-8 make_density eigens dominate; no witnesses, no feasible()",
            _verify_round("spm", SPM_CLASSES),
        ),
        Workload(
            "verify-lhs",
            "verify lhs at 2x2..4x2: lhs_certificate, response_prob and conditional_state "
            "dominate; born_joint never runs, so a Born-rule change must predict no change",
            _verify_round("lhs", LHS_CLASSES),
        ),
        # Not in BENCHMARK.json: demo-werner prints negativity_sigma =
        # 1.1e-16 at some separable grid points (e.g. --grid 114, p = 6/113)
        # and then a false impl_entangled_steerable, which this check rejects.
        # About one grid in eight is hit.  List it again once that is fixed.
        Workload(
            "werner-scan",
            "demo-werner over fine grids: per-call eigen overhead on 2-4 dim matrices, "
            "re-validation and kron; no constructions or measurements",
            _werner_round,
        ),
        Workload(
            "cli-mix",
            "analyze 2x2..4x4, map M|N (some infeasible, exit 3) and region on seeded state "
            "files: the only JSON/validation boundary, 16-dim eigens and feasible() bisection",
            _cli_mix_round,
        ),
    )
}
