"""tools/bench_pairs.py's summary on synthetic runs: a regression, a tie and a resolved move."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "req_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "better": "higher", "bound": 0.01},
]}


def runs(workload, parent, change):
    """Runs of seeds 1..n: ``parent`` and ``change`` map each metric to its n values."""
    out = []
    for tree, values in (("parent", parent), ("change", change)):
        for i in range(len(next(iter(values.values())))):
            metrics = {name: v[i] for name, v in values.items()}
            out.append({"tree": tree, "workload": workload, "seed": i + 1, "metrics": metrics})
    return out


def test_quantile_is_linear():
    assert bench_pairs.quantile([4.0, 1.0, 3.0, 2.0], 0.25) == 1.75
    assert bench_pairs.quantile([4.0, 1.0, 3.0, 2.0], 0.75) == 3.25
    assert bench_pairs.quantile([5.0], 0.25) == 5.0


def test_regression_beyond_bound():
    parent = {"req_p50_ms": [1.0, 1.01, 0.99, 1.0], "ok_ratio": [1.0] * 4}
    change = {"req_p50_ms": [1.3, 1.31, 1.29, 1.3], "ok_ratio": [1.0, 0.9, 0.95, 0.97]}
    summary = bench_pairs.summarize(runs("w", parent, change), SPEC)["w"]
    p50 = summary["req_p50_ms"]
    assert p50["verdict"] == "regression beyond bound"
    assert p50["change_minus_parent_rel"] == pytest.approx(0.3)
    assert (p50["change_better_pairs"], p50["change_worse_pairs"]) == (0, 4)
    assert p50["move_resolved"]
    ok = summary["ok_ratio"]
    assert ok["verdict"] == "regression beyond bound"  # 0.96 is 4% below 1.0, higher is better
    assert (ok["change_better_pairs"], ok["change_worse_pairs"]) == (0, 3)


def test_a_tie_counts_for_neither_side():
    same = {"req_p50_ms": [1.0, 1.1, 0.9], "ok_ratio": [1.0] * 3}
    summary = bench_pairs.summarize(runs("w", same, same), SPEC)["w"]
    for metric in summary.values():
        assert (metric["change_better_pairs"], metric["change_worse_pairs"]) == (0, 0)
        assert metric["change_minus_parent_rel"] == 0.0
        assert not metric["move_resolved"]
        assert metric["verdict"] == "no regression beyond bound"


def test_a_resolved_move_and_a_wide_parent():
    parent = {"req_p50_ms": [1.0, 1.02, 0.98, 1.01, 0.99], "ok_ratio": [1.0] * 5}
    change = {"req_p50_ms": [0.9, 0.91, 0.89, 0.9, 0.92], "ok_ratio": [1.0] * 5}
    p50 = bench_pairs.summarize(runs("w", parent, change), SPEC)["w"]["req_p50_ms"]
    assert p50["parent_iqr"] == pytest.approx(0.02)
    assert p50["move_resolved"] and p50["verdict"] == "no regression beyond bound"
    assert (p50["change_better_pairs"], p50["change_worse_pairs"]) == (5, 0)
    # A parent whose quartiles lie further apart than the bound cannot show a regression.
    wide = {"req_p50_ms": [0.5, 1.0, 2.0, 1.5], "ok_ratio": [1.0] * 4}
    p50 = bench_pairs.summarize(runs("w", wide, wide), SPEC)["w"]["req_p50_ms"]
    assert p50["verdict"] == "unresolved: parent IQR wider than bound"
    # ... unless every run of the change beats every run of the parent.
    faster = {"req_p50_ms": [0.1, 0.2, 0.3, 0.4], "ok_ratio": [1.0] * 4}
    p50 = bench_pairs.summarize(runs("w", wide, faster), SPEC)["w"]["req_p50_ms"]
    assert p50["verdict"] == "no regression beyond bound"


def test_unpaired_seeds_are_refused():
    bad = runs("w", {"req_p50_ms": [1.0, 1.0], "ok_ratio": [1.0, 1.0]},
               {"req_p50_ms": [1.0, 1.0], "ok_ratio": [1.0, 1.0]})[:-1]
    with pytest.raises(ValueError, match="do not pair by seed"):
        bench_pairs.summarize(bad, SPEC)


def test_a_run_missing_a_checked_in_metric_is_refused():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [1.0] for m in spec["end_to_end"]}
    assert set(bench_pairs.summarize(runs("w", values, values), spec)["w"]) == set(values)
    short = {name: v for name, v in values.items() if name != "peak_rss_mb"}
    with pytest.raises(ValueError, match="change run of seed 1 reports no peak_rss_mb"):
        bench_pairs.summarize(runs("w", values, short), spec)
