#!/usr/bin/env python3
"""steermap benchmark: CLI workloads end to end, and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Workloads (see workloads.py): verify-spm, verify-lhs, cli-mix, and
werner-scan, which BENCHMARK.json leaves out while demo-werner fails its
check (see workloads.py).

One run is one process with one BLAS thread.  It drives the public CLI
in-process, ``steermap.cli.main(argv)`` with stdout captured, as a closed
loop with one client: a request is sent when the previous one has
returned.  A round is the workload's fixed request sequence, generated
from the seed.  The run repeats whole rounds for ``--seconds`` (and until
it has at least 100 requests, ten beyond p90) and checks every output
against a reference that does not use steermap's eigensolver.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median of 9 set-ups spread over the run; each imports
               steermap afresh and generates the workload's inputs from
               the seed (the record keeps the first one counted from
               process start as cold_setup_s)
  wall_s       median time of one round, output checks included
  req_p50_ms   median request latency over every request of the run
  req_p90_ms   90th percentile of the same
  peak_rss_mb  peak resident set size of the process
  ok_ratio     requests with the right exit code and a correct output,
               over requests attempted (1 - failed ratio)

``--trace 1`` alternates untraced and traced rounds.  Traced rounds wrap
the public functions of every steermap module (layers.py) and report,
per round and as the median over traced rounds, each layer's calls and
self time, the eigensolver's mean matrix dimension and calls per request,
the share of make_density calls made at the state-file boundary and the
worst verify residual; ``trace.overhead_ratio`` is traced over untraced
wall_s.

The last line on stdout is the JSON result ``{"correct", "attempted",
"failed", "metrics"}``.  The run's record (machine info, git SHA, seed,
workload rationale, metrics, layer call graph) is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.

``--self-test`` runs each workload named in BENCHMARK.json for one round
with tracing off and on.  It checks that exactly the metrics BENCHMARK.json
names are emitted, that no request fails, and that the traced self times
of each request sum to no more than its wall time.  Exit status 0 means
it passed.
"""

import os
import time

PROCESS_START = time.perf_counter()

# Pin BLAS to one thread before numpy loads it: one process, one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from layers import EIGEN, MAKE_DENSITY, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "_work"

MODULES = ("linalg", "states", "measurements", "models", "mapping", "constructions", "witnesses", "cli")
SETUP_REPEATS = 9
MIN_REQUESTS = 100  # at least ten requests beyond p90
MAX_FAILURES_KEPT = 20

clock = time.perf_counter


class MissingProgram(RuntimeError):
    """steermap's sources are not in this checkout."""


def import_steermap() -> tuple[object, SimpleNamespace]:
    """Import steermap from ``src/`` afresh, dropping any loaded copy."""
    if not (SRC / "steermap" / "__init__.py").is_file():
        raise MissingProgram(f"no steermap package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "steermap" or n.startswith("steermap.")]:
        del sys.modules[name]
    pkg = importlib.import_module("steermap")
    if Path(pkg.__file__).resolve().parent != SRC / "steermap":
        raise MissingProgram(f"imported steermap from {pkg.__file__}, not from {SRC}")
    return pkg, SimpleNamespace(**{m: importlib.import_module(f"steermap.{m}") for m in MODULES})


def run_round(cli, requests, round_idx, workdir, tracer=None):
    """Send each request once; return latencies, failures, self-time
    violations, worst verify residual and the round's wall time."""
    latencies, failures, outputs = [], [], []
    violations = 0
    worst_residual = 0.0
    start = clock()
    for i, req in enumerate(requests):
        out_path = str(workdir / f"out-r{round_idx}-{i}.json") if req.writes_file else None
        argv = req.argv_for(out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        self_before = tracer.self_total if tracer else 0.0
        t0 = clock()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed request
            rc = f"raised {exc!r}"
        elapsed = clock() - t0
        latencies.append(elapsed)
        if tracer and tracer.self_total - self_before > elapsed:
            violations += 1
        try:
            residual = req.check(rc, stdout.getvalue(), out_path)
        except Exception as exc:  # the check boundary records and keeps going
            failures.append(f"{' '.join(argv)}: {exc!r} | stderr: {stderr.getvalue().strip()}")
        else:
            worst_residual = max(worst_residual, residual or 0.0)
        if out_path:
            outputs.append(out_path)
    wall = clock() - start
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    return SimpleNamespace(
        latencies=latencies, failures=failures, violations=violations,
        residual=worst_residual, wall=wall, traced=tracer is not None,
    )


def layer_metrics(stats, n_requests: int, residual: float) -> dict[str, float]:
    """Per-round layer metrics from one traced round's group stats."""
    out = {}
    for group, s in stats.items():
        out[f"{group}.calls"] = s.calls
        out[f"{group}.self_ms"] = s.self_s * 1e3
    eig = stats[EIGEN]
    out[f"{EIGEN}.mean_dim"] = eig.dim_sum / eig.calls if eig.calls else 0.0
    out[f"{EIGEN}.per_req"] = eig.calls / n_requests
    md = stats[MAKE_DENSITY]
    out[f"{MAKE_DENSITY}.boundary_ratio"] = md.boundary_calls / md.calls if md.calls else 0.0
    out["constructions.max_residual"] = residual
    return out


UNITS = {"calls": "count", "self_ms": "ms", "mean_dim": "dim", "per_req": "count/req",
         "boundary_ratio": "ratio", "max_residual": "abs", "overhead_ratio": "ratio"}


def _metric(name: str, value: float, unit: str | None = None) -> dict:
    return {"value": value, "unit": unit or UNITS[name.rsplit(".", 1)[1]]}


def run_workload(workload, seed: int, seconds: float, trace: bool, min_requests: int = MIN_REQUESTS):
    """One benchmark run; returns (result line, record)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        setup_times = []

        def set_up():
            t0 = clock()
            pkg, mods = import_steermap()
            requests = workload.make(workload.rng(seed), work / f"setup{len(setup_times)}")
            setup_times.append(clock() - t0)
            return pkg, mods, requests

        pkg, mods, requests = set_up()
        cold_setup_s = clock() - PROCESS_START
        tracer = Tracer() if trace else None
        rounds, traced_rounds = [], []
        start = clock()
        while True:
            traced = trace and len(rounds) % 2 == 1
            if traced:
                tracer.reset()
                with tracer.installed():
                    rnd = run_round(mods.cli, requests, len(rounds), work, tracer)
                traced_rounds.append(layer_metrics(tracer.stats, len(requests), rnd.residual))
            else:
                rnd = run_round(mods.cli, requests, len(rounds), work)
            rounds.append(rnd)
            elapsed = clock() - start
            # The other set-ups are spread over the run, so that their median
            # does not hang on how busy the machine was in its first moment.
            if len(setup_times) < SETUP_REPEATS and elapsed >= seconds * len(setup_times) / SETUP_REPEATS:
                pkg, mods, requests = set_up()
            untraced = [r for r in rounds if not r.traced]
            enough = (
                len(traced_rounds) >= 1
                if trace
                else sum(len(r.latencies) for r in untraced) >= min_requests
            )
            if enough and elapsed >= seconds:
                break
        while len(setup_times) < SETUP_REPEATS:
            set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in rounds for f in r.failures]
    violations = sum(r.violations for r in rounds)
    attempted = sum(len(r.latencies) for r in rounds)
    untraced = [r for r in rounds if not r.traced]
    wall_s = statistics.median(r.wall for r in untraced)
    if trace:
        metrics = {
            name: _metric(name, statistics.median(m[name] for m in traced_rounds))
            for name in traced_rounds[0]
        }
        traced_wall = statistics.median(r.wall for r in rounds if r.traced)
        metrics["trace.overhead_ratio"] = _metric("trace.overhead_ratio", traced_wall / wall_s)
    else:
        lat_ms = sorted(x * 1e3 for r in untraced for x in r.latencies)
        pct = statistics.quantiles(lat_ms, n=10, method="inclusive")
        metrics = {
            "setup_s": _metric("setup_s", statistics.median(setup_times), "s"),
            "wall_s": _metric("wall_s", wall_s, "s"),
            "req_p50_ms": _metric("req_p50_ms", statistics.median(lat_ms), "ms"),
            "req_p90_ms": _metric("req_p90_ms", pct[8], "ms"),
            "peak_rss_mb": _metric(
                "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "ok_ratio": _metric("ok_ratio", 1.0 - len(failures) / attempted, "ratio"),
        }
    result = {
        "correct": not failures and violations == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "machine": machine_info(pkg),
        "requests_per_round": len(requests),
        "rounds": len(rounds),
        "setup_s_samples": setup_times,
        "cold_setup_s": cold_setup_s,
        "self_time_violations": violations,
        "failures": failures[:MAX_FAILURES_KEPT],
        "result": result,
    }
    if trace:
        record["call_edges"] = [
            {"parent": parent, "child": child, "calls": n}
            for (parent, child), n in sorted(tracer.edges.items(), key=lambda kv: -kv[1])
        ]
    return result, record


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def machine_info(pkg) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    kernel = getattr(pkg, "kernel_name", None)
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "steermap_version": getattr(pkg, "__version__", None),
        "eigen_kernel": kernel() if callable(kernel) else None,
    }


def self_test() -> int:
    """One round of each workload in BENCHMARK.json, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    workloads = [WORKLOADS[w["name"]] for w in spec["workloads"]]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads:
            result, record = run_workload(workload, seed=1, seconds=0.0, trace=trace, min_requests=0)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload.name} trace={int(trace)}"
            if got != wanted:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json {key}: {got}")
            if result["failed"]:
                problems.append(f"{label}: {result['failed']} failed: {record['failures']}")
            if record["self_time_violations"]:
                problems.append(f"{label}: traced self times exceed a request's wall time")
            print(f"{label}: {result['attempted']} requests, failed {result['failed']}", file=sys.stderr)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="quick check of the benchmark itself")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        workload = WORKLOADS[args.workload]
        result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # report any benchmark fault without a result line
        traceback.print_exc()
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    print(f"record: {path}", file=sys.stderr)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
