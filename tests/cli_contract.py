"""The CLI contract corpus: recorded runs of ``steermap`` and how to compare them.

Each record of ``tests/data/cli_contract.json`` holds an argv, the exit
code, stdout, stderr and the files the run wrote.  ``argv`` entries name
the checked-in states as ``{states}/<name>.json`` and the run's scratch
directory as ``{tmp}``; both placeholders also stand for those paths in
the recorded output.  ``tests/test_cli_contract.py`` replays every record
in process and compares it with :func:`compare`:

- exit codes, written file names and all text between numbers exactly,
  so key order and formats are part of the contract;
- numbers to 1e-12 relative;
- ``verify``'s residuals (``"max_residual"`` and the ``residual=`` of the
  worst-trial line) are rounding noise, so only a bound of 1e-13 on both
  sides, and the ``pass`` flag as text.  Which trial is worst is noise
  too: when the replay names another trial than the record, it must
  still belong to the same request (same state-seed offset).

Regenerating the corpus is a deliberate act, since a changed record is a
changed contract: name the changed records and the reason in CHANGES.md.
To regenerate, from the repository root::

    PYTHONPATH=src python tests/cli_contract.py

The state files under ``tests/data/states`` are inputs: they are written
only when missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from steermap import cli

DATA = Path(__file__).resolve().parent / "data"
STATES = DATA / "states"
CORPUS = DATA / "cli_contract.json"

REL_TOL = 1e-12
RESIDUAL_BOUND = 1e-13

FLOAT = r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
NUMBER = re.compile(f"({FLOAT})")
RESIDUAL = re.compile(rf'("max_residual": |residual=)({FLOAT})')
WORST = re.compile(rf"worst trial (\d+) \(state seed (\d+)\): mu=({FLOAT}), c=({FLOAT}), ")


# --- inputs -------------------------------------------------------------------


def _singlet_mix(p: float) -> np.ndarray:
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return p * np.outer(v, v.conj()) + (1 - p) * np.eye(4) / 4


def _random_state(n: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _payload(m: np.ndarray, dims) -> str:
    return json.dumps({"dims": list(dims), "re": m.real.tolist(), "im": m.imag.tolist()})


def state_files() -> dict[str, str]:
    """Name -> text of the checked-in input states, valid and malformed."""
    werner = _singlet_mix(0.5)
    return {
        "werner_0.9": _payload(_singlet_mix(0.9), (2, 2)),
        "mixed_2x2": _payload(np.eye(4) / 4, (2, 2)),
        "rand_3x2": _payload(_random_state(6, 2, 1), (3, 2)),
        "rand_2x3": _payload(_random_state(6, 2, 2), (2, 3)),
        "rand_4x2": _payload(_random_state(8, 3, 3), (4, 2)),
        "rand_2x4": _payload(_random_state(8, 2, 4), (2, 4)),
        "rand_3x3": _payload(_random_state(9, 2, 5), (3, 3)),
        "truncated": '{"dims": [2, 2], "re": [[0.25, 0',
        "not_object": "[1, 2]",
        "missing_im": json.dumps({"dims": [2, 2], "re": werner.real.tolist()}),
        "dims_float": _payload(werner, (2.0, 2)),
        "dims_bool": _payload(werner, (True, 2)),
        "dims_huge": _payload(werner, (10**400, 2)),
        "dims_mismatch": _payload(werner, (2, 3)),
        "ragged": json.dumps({"dims": [2, 2], "re": [[1, 0], [0]], "im": [[0, 0], [0]]}),
        "nan_entry": _payload(np.where(np.eye(4) > 0, np.nan, werner), (2, 2)),
        "not_hermitian": _payload(werner + np.triu(np.ones((4, 4)), 1) * 1e-3, (2, 2)),
        "bad_trace": _payload(np.eye(4) / 2, (2, 2)),
        "not_psd": _payload(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2)),
        # Not in the corpus: the console-script CI step and test_cli read them.
        "wrong_columns": _payload(np.hstack([werner, np.zeros((4, 1))]), (2, 2)),
        "re_im_mismatch": json.dumps(
            {"dims": [2, 2], "re": (np.eye(4) / 4).tolist(), "im": np.zeros((2, 2)).tolist()}
        ),
    }


VALID = ["werner_0.9", "mixed_2x2", "rand_3x2", "rand_2x3", "rand_4x2", "rand_2x4", "rand_3x3"]
INVALID = [
    "truncated", "not_object", "missing_im", "dims_float", "dims_bool", "dims_huge",
    "dims_mismatch", "ragged", "nan_entry", "not_hermitian", "bad_trace", "not_psd", "gone",
]


def _state(name: str) -> str:
    return f"{{states}}/{name}.json"


def cases() -> list[list[str]]:
    """Every argv of the corpus."""
    out = "{tmp}/out.json"
    runs: list[list[str]] = []
    # verify: all six dims, --trials 1 and 9 with and without --tol 0, 17
    # (three blocks), fixed feasible and infeasible (mu, c); then the
    # input errors.
    dims = {"lhs": ["2x2", "3x2", "4x2"], "spm": ["2x2", "2x3", "2x4"]}
    for target, target_dims in dims.items():
        for d in target_dims:
            base = ["verify", target, "--dims", d]
            for trials in ("1", "9"):
                runs.append(base + ["--trials", trials, "--seed", "3"])
                runs.append(base + ["--trials", trials, "--seed", "5", "--tol", "0"])
            runs.append(base + ["--trials", "17", "--seed", "11"])
            runs.append(base + ["--trials", "9", "--mu", "0.3", "--c", "0.5"])
            runs.append(base + ["--trials", "9", "--mu", "0.5", "--c", "0.465"])
            runs.append(base + ["--trials", "2", "--mu", "0.7", "--c", "0"])
    runs += [
        ["verify", "lhs", "--trials", "2", "--out", out],
        ["verify", "spm", "--dims", "2x3", "--trials", "2", "--tol", "0", "--out", out],
        ["verify", "lhs", "--dims", "2x3", "--trials", "1"],
        ["verify", "spm", "--dims", "3x2", "--trials", "1"],
        ["verify", "lhs", "--dims", "5x2"],
        ["verify", "lhs", "--dims", "2by2"],
        ["verify", "spm", "--trials", "0"],
        ["verify", "lhs", "--tol", "-1"],
        ["verify", "spm", "--tol", "nan"],
        ["verify", "lhs", "--mu", "0.3"],
        ["verify", "spm", "--trials", "1", "--mu", "1.5", "--c", "0"],
    ]
    # analyze: every valid state, two written reports, every malformed file.
    for name in VALID:
        runs.append(["analyze", "--state", _state(name)])
    runs.append(["analyze", "--state", _state("werner_0.9"), "--out", out])
    runs.append(["analyze", "--state", _state("rand_3x2"), "--out", out])
    for name in INVALID:
        runs.append(["analyze", "--state", _state(name)])
    runs.append(["analyze", "--state", _state("werner_0.9"), "--out", "{tmp}/no/such/dir.json"])
    # map: each mode on the states that fit it, feasible, infeasible in c
    # and in mu, and forced; then wrong sides, bad parameters and bad files.
    params = [
        ["--mu", "0.3", "--c", "0.2"],
        ["--mu", "0.5", "--c", "0.5"],
        ["--mu", "0.7"],
        ["--mu", "0.5", "--c", "0.5", "--force"],
    ]
    sides = {"M": ["werner_0.9", "mixed_2x2", "rand_3x2", "rand_4x2"],
             "N": ["werner_0.9", "rand_2x3", "rand_2x4"]}
    for mode, names in sides.items():
        for name in names:
            for extra in params:
                runs.append(["map", "--state", _state(name), "--mode", mode, "--out", out, *extra])
    for mode, name in (("M", "rand_2x3"), ("M", "rand_3x3"), ("N", "rand_3x2"), ("N", "rand_3x3")):
        runs.append(["map", "--state", _state(name), "--out", out, "--mode", mode, "--mu", "0.3"])
    for extra in (["--mode", "X", "--mu", "0.3"], ["--mode", "M", "--mu", "0.3", "--c", "1.5"],
                  ["--mode", "N", "--mu", "-0.1"], ["--mode", "M", "--mu", "nan"],
                  ["--mode", "n", "--mu", "0.2", "--c", "0.1"]):
        runs.append(["map", "--state", _state("werner_0.9"), "--out", out, *extra])
    for name in ("truncated", "dims_mismatch", "nan_entry", "not_psd", "gone"):
        runs.append(["map", "--state", _state(name), "--mode", "M", "--mu", "0.3", "--out", out])
    # region and demo-werner at grids 2 and 114, to stdout and to a file.
    for grid in ("2", "114"):
        runs.append(["region", "--grid", grid])
        runs.append(["demo-werner", "--grid", grid])
    runs += [
        ["region", "--grid", "5", "--tol", "1e-6"],
        ["region", "--grid", "2", "--out", out],
        ["region", "--grid", "1"],
        ["region", "--tol", "0"],
        ["region", "--tol", "nan"],
        ["demo-werner", "--grid", "3", "--out", out],
        ["demo-werner", "--grid", "1"],
    ]
    return runs


# --- running and comparing ----------------------------------------------------


def run(argv: list[str]) -> dict:
    """One in-process CLI run, with a fresh scratch directory, as a record."""
    with tempfile.TemporaryDirectory() as tmp:
        return _run_in(argv, Path(tmp))


def _run_in(argv: list[str], tmp: Path) -> dict:
    paths = {"{states}": str(STATES), "{tmp}": str(tmp)}

    def expand(arg: str) -> str:
        for key, path in paths.items():
            arg = arg.replace(key, path)
        return arg

    def fold(text: str) -> str:
        for key, path in paths.items():
            text = text.replace(path, key)
        # An atomic write's temporary file is named after the process.
        return text.replace(f".tmp.{os.getpid()}", ".tmp.{pid}")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([expand(a) for a in argv])
    files = {p.name: fold(p.read_text()) for p in sorted(tmp.iterdir())}
    return {"argv": argv, "exit": code, "stdout": fold(out.getvalue()),
            "stderr": fold(err.getvalue()), "files": files}


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _mask_noise(text: str, problems: list[str], where: str) -> tuple[str, list]:
    """Text with the residuals and the worst-trial numbers masked; those numbers."""
    for _, value in RESIDUAL.findall(text):
        if not float(value) <= RESIDUAL_BOUND:
            problems.append(f"{where}: residual {value} above {RESIDUAL_BOUND:g}")
    text = RESIDUAL.sub(r"\1R", text)
    worst = WORST.findall(text)
    return WORST.sub("worst trial T: ", text), worst


def compare_text(want: str, got: str, where: str) -> list[str]:
    """Mismatches between a recorded and a replayed output text."""
    problems: list[str] = []
    want, want_worst = _mask_noise(want, problems, f"{where} (record)")
    got, got_worst = _mask_noise(got, problems, where)
    if len(want_worst) != len(got_worst):
        problems.append(f"{where}: worst-trial lines {len(got_worst)} != {len(want_worst)}")
    for (t0, s0, mu0, c0), (t1, s1, mu1, c1) in zip(want_worst, got_worst):
        if int(s0) - int(t0) != int(s1) - int(t1):
            problems.append(f"{where}: worst trial {t1} (seed {s1}) is not of this request")
        elif t0 == t1 and not (_close(mu0, mu1) and _close(c0, c1)):
            problems.append(f"{where}: worst trial mu={mu1}, c={c1} != mu={mu0}, c={c0}")
    want_parts, got_parts = NUMBER.split(want), NUMBER.split(got)
    if len(want_parts) != len(got_parts) or want_parts[0::2] != got_parts[0::2]:
        problems.append(f"{where}: text differs:\n--- record\n{want}\n--- replay\n{got}")
        return problems
    for a, b in zip(want_parts[1::2], got_parts[1::2]):
        if not _close(a, b):
            problems.append(f"{where}: number {b} != {a}")
    return problems


def compare(want: dict, got: dict) -> list[str]:
    """Mismatches between a record and its replay; empty when they agree."""
    name = " ".join(want["argv"])
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"{name}: exit {got['exit']} != {want['exit']}")
    if sorted(got["files"]) != sorted(want["files"]):
        problems.append(f"{name}: wrote {sorted(got['files'])} != {sorted(want['files'])}")
    for key in ("stdout", "stderr"):
        problems += compare_text(want[key], got[key], f"{name} [{key}]")
    for file, text in want["files"].items():
        if file in got["files"]:
            problems += compare_text(text, got["files"][file], f"{name} [{file}]")
    return problems


def replay(records: list[dict]) -> list[str]:
    """Replay every record; all mismatches."""
    return [problem for record in records for problem in compare(record, run(record["argv"]))]


def main() -> None:
    STATES.mkdir(parents=True, exist_ok=True)
    for name, text in state_files().items():
        path = STATES / f"{name}.json"
        if not path.exists():
            path.write_text(text)
    records = [run(argv) for argv in cases()]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n")
    codes = sorted({r["exit"] for r in records})
    print(f"{len(records)} records, exit codes {codes}, written to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
