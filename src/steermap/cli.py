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
import itertools
import json
import math
import os
import sys

import numpy as np

from . import constructions, mapping, states, witnesses
from .mapping import INV_SQRT3
from .models import FiniteModel

ENSEMBLE_SIZE = 4
# verify runs its trials, and demo-werner its grid points, in blocks of these
# sizes, each one stacked pass per stage, so memory does not grow with the run;
# demo-werner writes each block before it makes the next.
VERIFY_BLOCK = 8
WERNER_BLOCK = 1024

# Map M mixes with a partner biased on Bob's qubit, map N on Alice's; verify
# checks map M's certificate (lhs) or map N's (spm).
PARTNER_SIDE = {"M": "B", "N": "A"}
VERIFY_SIDE = {"lhs": "B", "spm": "A"}
# Trial t of a verify request seeded s samples its state from seed
# s + 1000 + t (lhs) or s + 2000 + t (spm).
STATE_SEED = {"B": 1000, "A": 2000}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks``, each as it comes, to a temp file renamed to ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _emit(chunks, out: str | None) -> None:
    """Write the strings of ``chunks`` to ``out``, or to stdout ending in a newline."""
    if out:
        return _atomic_write(out, chunks)
    text = "\n"
    for text in chunks:
        sys.stdout.write(text)
    sys.stdout.write("" if text.endswith("\n") else "\n")


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
    rounded = {k: _sig12(v) for k, v in report._asdict().items() if v is not None}
    _emit([json.dumps(rounded, allow_nan=False)], args.out)
    return EXIT_OK


def cmd_map(args) -> int:
    rho = states.load_state(args.state)
    mode = args.mode.upper()
    if mode not in PARTNER_SIDE:
        raise ValueError(f"--mode must be M or N, got {args.mode!r}")
    # The partner and feasible() check dims, c and mu before any output;
    # the mixture is only built when it is written, and stdout only after
    # that, so a failed write leaves it empty.
    partner = mapping.biased_partner(rho, args.c, PARTNER_SIDE[mode])
    ok = mapping.feasible(args.mu, args.c)
    if ok or args.force:
        _atomic_write(args.out, [states.state_to_json(mapping.mix(rho, partner, args.mu))])
    print(f"feasible(mu={args.mu:.12g}, c={args.c:.12g}) = {str(ok).lower()}")
    if not (ok or args.force):
        if mapping.feasible(args.mu, 0.0):
            bound = mapping.analytic_c_max(args.mu)
            why = f"c = {args.c:.12g} exceeds c_max = {bound:.12g} at mu = {args.mu:.12g}"
        else:
            why = f"mu = {args.mu:.12g} > 1/sqrt(3) admits no c"
        print(f"infeasible: {why} (use --force to map anyway)", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_region(args) -> int:
    _emit([mapping.region_to_csv(mapping._region_grid(args.grid, args.tol))], args.out)
    return EXIT_OK


def _sample_params(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` trials' (mu, c): mu uniform in [0, 1/sqrt(3)], c uniform in [0, c_max(mu)].

    One draw of n (mu, u) rows, c = u c_max(mu): the values, and the
    generator state after, of n draws of one row each.  A uniform draw
    on [0, h) is h times a ``random()`` draw, bit for bit.
    """
    mu, u = (rng.random((n, 2)) * (INV_SQRT3, 1.0)).T
    return mu, u * mapping.analytic_c_max(mu)


def _verify_block(side: str, dims, seeds, mu, c) -> np.ndarray:
    """Exact operator residuals of one block of trials, mixed on ``side``.

    Trial t samples its separable state from ``seeds[t]``, builds the
    certificate of its mixture at ``(mu[t], c[t])`` and compares it with
    the mixed state itself (:func:`constructions.verify_model_identities`).
    """
    tau, *arrays = states.random_separables(*dims, ENSEMBLE_SIZE, seeds)
    cert = constructions.certificate(FiniteModel(*arrays), mu, side, mapping.biased_probs(c))
    rho = mapping.mix(tau, mapping.biased_partner(tau, c, side), mu)
    return constructions.verify_model_identities(rho, cert)


def _verify_trials(side: str, dims, trials: int, seed: int, fixed):
    """Exact residuals, mu and c of every trial, VERIFY_BLOCK trials per block.

    The request RNG draws each trial's (mu, c) in trial order, one call
    per block, and nothing else, so trial t of seed s is trial 0 of seed
    s + t at those values.  Each block is built and freed in its own call.
    """
    rng = np.random.default_rng(seed)
    residuals, mu, c = np.empty(trials), np.empty(trials), np.empty(trials)
    first = seed + STATE_SEED[side]
    for start in range(0, trials, VERIFY_BLOCK):
        stop = min(start + VERIFY_BLOCK, trials)
        block = slice(start, stop)
        mu[block], c[block] = fixed if fixed else _sample_params(rng, stop - start)
        seeds = range(first + start, first + stop)
        residuals[block] = _verify_block(side, dims, seeds, mu[block], c[block])
    return residuals, mu, c


def cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    if dims[0] not in (2, 3, 4) or dims[1] not in (2, 3, 4):
        raise ValueError(f"--dims subsystems must be in 2..4, got {args.dims}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    fixed = None
    if (args.mu is None) != (args.c is None):
        raise ValueError("--mu and --c must be given together")
    if args.mu is not None:
        fixed = (args.mu, args.c)
        if not mapping.feasible(*fixed):
            # Name the box vertex that decided it: outcome 0 at every Pauli
            # setting, whose hidden state is the largest.
            norm_sq = mapping._worst_norm_sq(*fixed)
            print("infeasible parameters: hidden state unphysical at xi=0, setting=0, outcome=0: "
                  f"|r|^2 = {norm_sq:.12g} > 1", file=sys.stderr)
            return EXIT_VERIFY
    side = VERIFY_SIDE[args.target]
    d_a, d_b = dims
    if side == "B" and d_b != 2:
        raise ValueError(f"hidden-state verification needs AxB with B=2, got {d_a}x{d_b}")
    if side == "A" and d_a != 2:
        raise ValueError(f"separable verification needs AxB with A=2, got {d_a}x{d_b}")
    try:
        residuals, mu, c = _verify_trials(side, dims, args.trials, args.seed, fixed)
    except constructions.UnphysicalHiddenStateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    # A pass needs every trial's exact operator identity within --tol.
    worst = int(np.argmax(residuals))
    residual = float(residuals[worst])
    passed = residual <= args.tol
    if not passed:
        print(
            f"worst trial {worst} (state seed {args.seed + STATE_SEED[side] + worst}): "
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
    _emit([json.dumps(report, allow_nan=False)], args.out)
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
    blocks = (_werner_rows(np.arange(i, min(i + WERNER_BLOCK, args.grid)) / (args.grid - 1))
              for i in range(0, args.grid, WERNER_BLOCK))
    _emit(itertools.chain([header], blocks), args.out)
    return EXIT_OK


def _plain_table(p: argparse.ArgumentParser):
    """What :func:`_plain_parse` needs of subcommand parser ``p``, or None unless its every
    namespace action is a one-value ``store`` or a ``store_true``: its options by exact option
    string, its positionals in order, all its actions in declaration order and its ``func``."""
    actions = [a for a in p._actions if a.default is not argparse.SUPPRESS]
    if not all(type(a) is argparse._StoreAction and a.nargs is None
               or type(a) is argparse._StoreTrueAction for a in actions):
        return None
    options = {s: a for a in actions for s in a.option_strings}
    return options, [a for a in actions if not a.option_strings], actions, p.get_default("func")


_PLAIN_TABLES: dict[str, tuple | None] = {}  # by subcommand name; build_parser fills it


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` leaves the parser unchanged and returns a fresh
    namespace, so reuse carries no state from one request to the next.
    Callers get the same object each time and must not modify it or
    :data:`_PLAIN_TABLES`, where the first call records each subcommand's
    :func:`_plain_table`.
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
    _PLAIN_TABLES.update((name, _plain_table(p)) for name, p in sub.choices.items())
    return parser


def _plain_parse(argv, options, positionals, actions, func):
    """The namespace argparse makes of a plain subcommand argv, built from the table, or None.

    Plain: after the name, only exact option strings, each with one value that does not start
    with ``-`` (a flag takes none), and positionals in their ``choices``; no dest twice, every
    ``type`` conversion succeeds and every required action is given.  Items are ``command``,
    each action's dest in declaration order (a string default through ``type``), then ``func``.
    """
    given, tokens, free = {}, iter(argv[1:]), iter(positionals)
    for token in tokens:
        action = options.get(token) if token.startswith("-") else next(free, None)
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:
            given[action.dest] = action.const
            continue
        if action.option_strings:
            token = next(tokens, "-")  # a missing value reads as "-"
            if token.startswith("-"):
                return None
        given[action.dest] = token
    values = {"command": argv[0]}
    for action in actions:
        if action.dest in given:
            value = given[action.dest]
        elif action.required:
            return None
        else:
            value = action.default
        if isinstance(value, str) and action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.dest in given and action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    values["func"] = func
    return argparse.Namespace(**values)


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: a plain subcommand argv (see :func:`_plain_parse`)
    gets its namespace straight from the parser's recorded actions, without running argparse;
    any other argv goes to the full parser, the one source of help, usage and error text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    table = _PLAIN_TABLES.get(argv[0]) if argv else None
    args = _plain_parse(argv, *table) if table else None
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
