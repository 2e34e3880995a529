#!/usr/bin/env python3
"""Pair two checkouts' benchmark runs and judge the change against the parent.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<pr>.json
    python3 tools/bench_pairs.py --self-test

For each seed S from 1 to 10 and each workload W of the parent's
BENCHMARK.json, both checkouts run ``OPENBLAS_NUM_THREADS=1 python3
perfbench/run.py --workload W --seed S --trace 0 --seconds T`` as a
subprocess, back to back; the parent runs first at odd seeds, the change
first at even seeds.  The run length T (``run_seconds``) and each
end-to-end metric's ``better`` and ``bound`` are read from the same file.

The output holds ``what`` (with each checkout's git commit), ``command``
(with T filled in), ``protocol``, ``machine``, ``summary`` and ``runs``.
Per workload and metric the summary gives both sides' medians and linear
quartiles, the parent's IQR, the change's median relative to the
parent's, the pairs (same seed) in which the change is better or worse
(ties count for neither), the verdict and ``move_resolved``, whether the
medians differ by more than the parent's IQR.

``--self-test`` runs one pair of the first workload in BENCHMARK.json for
``--seconds 0``, with this checkout on both sides, and fails unless both
runs are correct and report every end-to-end metric there.  Nothing is
written.

The script imports neither steermap nor perfbench; it reads only their
result lines and BENCHMARK.json.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
COMMAND = ("OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py --workload W --seed S --trace 0 "
           "--seconds {seconds:g}")
PROTOCOL = (
    f"Two checkouts (parent, change). Seeds 1-{PAIRS}; each workload per seed runs on both "
    "trees back to back, the parent first at odd seeds and the change first at even seeds. "
    f"Quartiles are linear percentiles of the {PAIRS} runs. Verdict rule: a regression beyond "
    "bound where the change median is worse than the parent median by more than the "
    "BENCHMARK.json bound, relative to the parent median (absolute where that median is 0); "
    "otherwise unresolved where the parent's IQR, taken the same way, exceeds the bound, "
    "unless every change run is better than every parent run; otherwise no regression beyond "
    "bound. "
    "A move is resolved only where the difference of medians exceeds the parent's IQR."
)


def quantile(values, q: float) -> float:
    """The linear-interpolation quantile of ``values`` (numpy's default method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _relative(delta: float, base: float) -> float:
    return delta / abs(base) if base else delta


def judge(parent, change, better: str, bound: float) -> dict:
    """Summary of one metric: ``parent[i]`` and ``change[i]`` are the runs of seed i + 1."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quantile(parent, 0.25), quantile(parent, 0.75)
    rel = _relative(c_med - p_med, p_med)
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if sign * rel > bound:
        verdict = "regression beyond bound"
    elif _relative(p_q3 - p_q1, p_med) > bound and not every_run_better:
        verdict = "unresolved: parent IQR wider than bound"
    else:
        verdict = "no regression beyond bound"
    return {
        "pairs": len(parent),
        "parent_median": p_med,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "parent_iqr": p_q3 - p_q1,
        "change_median": c_med,
        "change_q1": quantile(change, 0.25),
        "change_q3": quantile(change, 0.75),
        "change_minus_parent_rel": rel,
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "change_worse_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "bound": bound,
        "better": better,
        "verdict": verdict,
        "move_resolved": abs(c_med - p_med) > p_q3 - p_q1,
    }


def summarize(runs, spec: dict) -> dict:
    """{workload: {metric: judge(...)}} over ``runs``, for the end-to-end metrics of ``spec``."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        side = {
            tree: sorted((r for r in runs if r["workload"] == workload and r["tree"] == tree),
                         key=lambda r: r["seed"])
            for tree in ("parent", "change")
        }
        for r in side["parent"] + side["change"]:
            missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in r["metrics"]]
            if missing:
                raise ValueError(f"{workload}: {r['tree']} run of seed {r['seed']} "
                                 f"reports no {', '.join(missing)}")
        if [r["seed"] for r in side["parent"]] != [r["seed"] for r in side["change"]]:
            raise ValueError(f"{workload}: parent and change runs do not pair by seed")
        summary[workload] = {
            m["name"]: judge(
                [r["metrics"][m["name"]] for r in side["parent"]],
                [r["metrics"][m["name"]] for r in side["change"]],
                m["better"], m["bound"],
            )
            for m in spec["end_to_end"]
        }
    return summary


def run_once(checkout: Path, tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``; its result line as a ``runs`` entry."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0", "--seconds", str(seconds)]
    load = os.getloadavg()[0]
    proc = subprocess.run(argv, cwd=checkout, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "tree": tree,
        "workload": workload,
        "seed": seed,
        "load1_before": round(load, 2),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def collect(trees: dict, workloads, pairs: int, seconds: float) -> list[dict]:
    """Runs of every seed and workload on both trees, alternating which goes first."""
    runs = []
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in workloads:
            for tree in order:
                runs.append(run_once(trees[tree], tree, workload, seed, seconds))
                print(f"seed {seed} {workload} {tree} done", file=sys.stderr)
    return runs


def machine(runs) -> dict:
    loads = [r["load1_before"] for r in runs]
    info = {
        "cpus": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "blas_threads": 1,
        "load1_range_during_runs": [min(loads), max(loads)],
        "note": "shared machine; other tenants' load is not controlled",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["mem_total_mb"] = int(line.split()[1]) // 1024
    except OSError:
        pass
    return info


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown commit"


def report(parent: Path, change: Path, runs, spec: dict) -> dict:
    return {
        "what": f"Parent checkout {parent.resolve().name} ({commit(parent)}) against change "
                f"checkout {change.resolve().name} ({commit(change)}). End-to-end metrics of "
                "BENCHMARK.json per run, medians and quartiles per workload.",
        "command": COMMAND.format(seconds=spec["run_seconds"]),
        "protocol": PROTOCOL,
        "machine": machine(runs),
        "summary": summarize(runs, spec),
        "runs": runs,
    }


def load_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def self_test() -> int:
    spec = load_spec(ROOT)
    workload = spec["workloads"][0]["name"]
    runs = collect({"parent": ROOT, "change": ROOT}, [workload], pairs=1, seconds=0.0)
    summarize(runs, spec)  # raises unless every run reports every end-to-end metric
    problems = [f"{r['tree']}: {r['failed']} failed" for r in runs if not r["correct"]]
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--self-test", action="store_true", help="one quick pair of this checkout")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None or args.out is None:
        parser.error("--parent, --change and --out are required")
    spec = load_spec(args.parent)
    runs = collect({"parent": args.parent, "change": args.change},
                   [w["name"] for w in spec["workloads"]], PAIRS, spec["run_seconds"])
    args.out.write_text(json.dumps(report(args.parent, args.change, runs, spec), indent=1,
                                   allow_nan=False) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
