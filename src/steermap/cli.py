"""Command-line front end.

One binary, subcommand style; JSON for structured reports, CSV for
scans.  Exit codes are a stable contract: 0 success, 2 input error,
3 infeasible mixing parameters, 4 verification failure.  Output files
are written atomically (temp + rename; a failed write removes its temp).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import constructions, mapping, states, witnesses
from .mapping import INV_SQRT3
from .measurements import _orthonormal_rows, basis_draws, qudit_measurement, qudit_projectors
from .models import born_probs

LHS_SETTINGS_PER_TRIAL = 20
SPM_SAMPLES_PER_TRIAL = 50
ENSEMBLE_SIZE = 4
# Trial t of a request seeded s samples its state from seed s + 1000 + t
# (lhs) or s + 2000 + t (spm), and spm's measurements from s + 3000 + t.
LHS_STATE_SEED = 1000
SPM_STATE_SEED = 2000
SPM_SAMPLE_SEED = 3000
# verify runs its trials, and demo-werner its grid points, in blocks of these
# sizes, each one stacked pass per stage, so memory does not grow with the run.
VERIFY_BLOCK = 8
WERNER_BLOCK = 1024

# Map M mixes with a partner biased on Bob's qubit, map N on Alice's.
PARTNER_SIDE = {"M": "B", "N": "A"}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_dims(raw: str) -> tuple[int, int]:
    try:
        a, b = raw.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"--dims expects the form AxB (e.g. 3x2), got {raw!r}") from None


def cmd_analyze(args) -> int:
    rho = states.load_state(args.state)
    report = witnesses.witness_report(rho)
    # Fields in declaration order; a detector that does not apply is left out.
    rounded = {k: _sig12(v) for k, v in vars(report).items() if v is not None}
    _emit(json.dumps(rounded, allow_nan=False), args.out)
    return EXIT_OK


def cmd_map(args) -> int:
    rho = states.load_state(args.state)
    mode = args.mode.upper()
    if mode not in PARTNER_SIDE:
        raise ValueError(f"--mode must be M or N, got {args.mode!r}")
    # The partner and feasible() check dims, c and mu before any output;
    # the mixture is only built when it is written.
    partner = mapping.biased_partner(rho, args.c, PARTNER_SIDE[mode])
    ok = mapping.feasible(args.mu, args.c)
    print(f"feasible(mu={args.mu:.12g}, c={args.c:.12g}) = {str(ok).lower()}")
    if not ok and not args.force:
        if args.mu <= INV_SQRT3:
            bound = mapping.analytic_c_max(args.mu)
            why = f"c = {args.c:.12g} exceeds c_max = {bound:.12g} at mu = {args.mu:.12g}"
        else:
            why = f"mu = {args.mu:.12g} > 1/sqrt(3) admits no c"
        print(f"infeasible: {why} (use --force to map anyway)", file=sys.stderr)
        return EXIT_INFEASIBLE
    mapped = mapping.mix(rho, partner, args.mu)
    _atomic_write(args.out, states.state_to_json(mapped))
    return EXIT_OK


def cmd_region(args) -> int:
    points = mapping.region_scan(args.grid, args.tol)
    _emit(mapping.region_to_csv(points), args.out)
    return EXIT_OK


def _sample_params(rng: np.random.Generator) -> tuple[float, float]:
    mu = float(rng.uniform(0.0, INV_SQRT3))
    c = float(rng.uniform(0.0, 1.0)) * mapping.analytic_c_max(mu)
    return mu, c


def _run_blocks(trials: int, seed: int, run_block):
    """Residuals, mu and c of every trial, from ``run_block(rng, block)``.

    The blocks hold VERIFY_BLOCK trials each and share the request RNG in
    trial order.  A block's arrays are freed before the next is built.
    """
    rng = np.random.default_rng(seed)
    parts = [
        run_block(rng, range(start, min(start + VERIFY_BLOCK, trials)))
        for start in range(0, trials, VERIFY_BLOCK)
    ]
    return [np.concatenate(part) for part in zip(*parts)]


def _verify_lhs(dims, trials, seed, fixed):
    """Per-trial residuals, mu and c of the hidden-state construction."""
    d_a, d_b = dims
    if d_b != 2:
        raise ValueError(f"hidden-state verification needs AxB with B=2, got {d_a}x{d_b}")

    def run_block(rng, block):
        # Per trial, in the order a trial loop draws them: (mu, c), then the
        # bases' Gaussian matrices, orthonormalised by one QR per block.
        params, draws = [], []
        for _ in block:
            params.append(fixed if fixed else _sample_params(rng))
            draws.append(basis_draws(LHS_SETTINGS_PER_TRIAL, d_a, rng))
        mu, c = np.array(params).T
        tau, weights, alice, bob = states.random_separables(
            d_a, 2, ENSEMBLE_SIZE, [seed + LHS_STATE_SEED + t for t in block]
        )
        settings = qudit_projectors(_orthonormal_rows(np.stack(draws)))
        pa = born_probs(settings, alice, "quantum response")
        responses, bloch = constructions.lhs_certificates(
            mu, pa, pa, constructions.pauli_probs(bob), constructions.biased_probs(c)
        )
        rho = mapping.mix(tau, mapping.biased_partner(tau, c, "B"), mu)
        residuals = constructions.verify_lhs_identities(rho, weights, responses, bloch, settings)
        return residuals, mu, c

    return _run_blocks(trials, seed, run_block)


def _verify_spm(dims, trials, seed, fixed):
    """Per-trial residuals, mu and c of the separable construction."""
    d_a, d_b = dims
    if d_a != 2:
        raise ValueError(f"separable verification needs AxB with A=2, got {d_a}x{d_b}")

    def run_block(rng, block):
        mu, c = np.array([fixed if fixed else _sample_params(rng) for _ in block]).T
        rho, weights, alice, bob = states.random_separables(
            2, d_b, ENSEMBLE_SIZE, [seed + SPM_STATE_SEED + t for t in block]
        )
        alice_bloch = constructions.spm_certificates(
            mu, constructions.pauli_probs(alice), constructions.biased_probs(c)
        )
        sigma = mapping.mix(rho, mapping.biased_partner(rho, c, "A"), mu)
        sample_seeds = [seed + SPM_SAMPLE_SEED + t for t in block]
        residuals = constructions.verify_spm_identities(
            sigma, weights, alice_bloch, bob, SPM_SAMPLES_PER_TRIAL, sample_seeds
        )
        return residuals, mu, c

    return _run_blocks(trials, seed, run_block)


def cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    if dims[0] not in (2, 3, 4) or dims[1] not in (2, 3, 4):
        raise ValueError(f"--dims subsystems must be in 2..4, got {args.dims}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    fixed = None
    if (args.mu is None) != (args.c is None):
        raise ValueError("--mu and --c must be given together")
    if args.mu is not None:
        fixed = (args.mu, args.c)
        if not mapping.feasible(*fixed):
            # Demonstrate the failure constructively before bailing out.
            base = constructions.vertex_witness_model(dims[0])
            prime = constructions.bob_biased_prime_model(base, args.c)
            settings = [qudit_measurement(np.eye(dims[0]))]
            try:
                constructions.lhs_certificate(base, prime, args.mu, settings)
            except constructions.UnphysicalHiddenStateError as exc:
                print(f"infeasible parameters: {exc}", file=sys.stderr)
                return EXIT_VERIFY
            print(
                "infeasible parameters (no vertex witness found)", file=sys.stderr
            )
            return EXIT_VERIFY
    try:
        if args.target == "lhs":
            residuals, mu, c = _verify_lhs(dims, args.trials, args.seed, fixed)
            state_seed = args.seed + LHS_STATE_SEED
        else:
            residuals, mu, c = _verify_spm(dims, args.trials, args.seed, fixed)
            state_seed = args.seed + SPM_STATE_SEED
    except constructions.UnphysicalHiddenStateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    worst = int(np.argmax(residuals))
    residual = float(residuals[worst])
    passed = bool(residual <= args.tol)
    if not passed:
        print(
            f"worst trial {worst} (state seed {state_seed + worst}): "
            f"mu={float(mu[worst])!r}, c={float(c[worst])!r}, residual={residual!r}",
            file=sys.stderr,
        )
    report = {
        "target": args.target,
        "dims": list(dims),
        "trials": args.trials,
        "seed": args.seed,
        "tol": _sig12(args.tol),
        "max_residual": _sig12(residual),
        "pass": passed,
    }
    _emit(json.dumps(report, allow_nan=False), args.out)
    return EXIT_OK if passed else EXIT_VERIFY


def _werner_rows(p: np.ndarray) -> str:
    """demo-werner's CSV rows at visibilities ``p``: one stacked pass per detector, one format."""
    tau = states.werner(p)
    sigma = mapping.mix(tau, mapping.biased_partner(tau, 0.0, "A"), INV_SQRT3)
    neg, f3 = witnesses.negativity(sigma), witnesses.f3_steering(tau)
    chsh, steer = witnesses.chsh_horodecki(tau), witnesses.werner_steerable_oracle(p * INV_SQRT3)
    flags = (steer, ~steer | (chsh > witnesses.CHSH_THRESHOLD),
             (neg <= 0.0) | (f3 > witnesses.F3_THRESHOLD))
    words = [np.where(b, "true", "false").tolist() for b in flags]
    rows = zip(p.tolist(), neg.tolist(), f3.tolist(), chsh.tolist(), *words)
    return ("%.12g,%.12g,%.12g,%.12g,%s,%s,%s\n" * len(p)) % tuple([v for r in rows for v in r])


def cmd_demo_werner(args) -> int:
    if args.grid < 2:
        raise ValueError(f"--grid must be >= 2, got {args.grid}")
    header = ("p,negativity_sigma,f3_tau,chsh_tau,steerable_rho_oracle,"
              "impl_steerable_nonlocal,impl_entangled_steerable\n")
    blocks = [_werner_rows(np.arange(i, min(i + WERNER_BLOCK, args.grid)) / (args.grid - 1))
              for i in range(0, args.grid, WERNER_BLOCK)]
    _emit("".join([header, *blocks]), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` leaves the parser unchanged and returns a fresh
    namespace, so reuse carries no state from one request to the next.
    Callers get the same object each time and must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="steermap",
        description="Mixing maps and model constructions linking nonlocality, "
        "steering and entanglement witnesses on bipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run all applicable witnesses on a state")
    p.add_argument("--state", required=True, help="input state JSON file")
    p.add_argument("--out", help="output JSON file (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("map", help="apply a mixing map with a biased product partner")
    p.add_argument("--state", required=True, help="input state JSON file")
    p.add_argument("--mode", required=True, help="M (qudit-qubit) or N (qubit-qudit)")
    p.add_argument("--mu", type=float, required=True, help="mixing visibility in [0,1]")
    p.add_argument("--c", type=float, default=0.0, help="partner z-bias in [0,1]")
    p.add_argument("--out", required=True, help="output state JSON file")
    p.add_argument("--force", action="store_true", help="map even if (mu, c) infeasible")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("region", help="scan the feasible (mu, c) boundary to CSV")
    p.add_argument("--grid", type=int, default=200, help="number of mu grid points")
    p.add_argument("--tol", type=float, default=1e-10, help="bisection tolerance")
    p.add_argument("--out", help="output CSV file (default stdout)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("verify", help="randomized construction verification suite")
    p.add_argument(
        "target",
        choices=("lhs", "spm"),
        help="lhs: hidden-state construction on AxB qudit-qubit states; "
        "spm: separable construction on 2xB qubit-qudit states",
    )
    p.add_argument("--trials", type=int, default=50, help="number of random states")
    p.add_argument("--seed", type=int, default=7, help="RNG seed")
    p.add_argument("--tol", type=float, default=1e-10, help="residual pass threshold")
    p.add_argument("--dims", default="2x2", help="subsystem dims, e.g. 3x2 or 2x3")
    p.add_argument("--mu", type=float, help="fix the visibility instead of sampling")
    p.add_argument("--c", type=float, help="fix the partner bias instead of sampling")
    p.add_argument("--out", help="output report JSON file (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "demo-werner", help="threshold scan of all detectors on the Werner family"
    )
    p.add_argument("--grid", type=int, default=101, help="number of visibility steps")
    p.add_argument("--out", help="output CSV file (default stdout)")
    p.set_defaults(func=cmd_demo_werner)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
