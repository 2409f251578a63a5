import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(workload, side, seed, wall, ratio, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "pass_ratio": {"value": ratio, "unit": "ratio"}}
    return {"workload": workload, "side": side, "seed": seed, "trace": 0,
            "result": {"correct": True, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1601-1603") == [1601, 1602, 1603]
    assert bench_pairs.parse_seeds("7,9-10") == [7, 9, 10]


def test_summary_on_fixed_numbers():
    parent = [0.30, 0.20, 0.40, 0.25, 0.35]
    change = [0.20, 0.21, 0.30, 0.25, 0.10]
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs.append(_run("identities", "parent", 100 + i, p, 1.0))
        runs.append(_run("identities", "change", 100 + i, c, 1.0 if i else 0.9, failed=int(i == 0)))
    # a pair with one side missing is not counted
    runs.append(_run("identities", "parent", 200, 9.0, 1.0))
    runs.append(_run("h2", "change", 100, 0.5, 1.0))
    runs.append(_run("h2", "parent", 100, 0.4, 1.0))
    summary = bench_pairs.summarize(runs, [("wall_s", "lower"), ("pass_ratio", "higher")])
    assert list(summary) == ["identities", "h2"]
    ident = summary["identities"]
    assert ident["pairs"] == 5
    assert ident["failed"] == 1
    # exclusive quartiles of 0.20 0.25 0.30 0.35 0.40
    assert ident["wall_s"] == {
        "parent_median": 0.30, "parent_q1": 0.225, "parent_q3": 0.375,
        "change_median": 0.21, "change_min": 0.10, "change_max": 0.30,
        "change_better_in": "3/5",  # 0.21 > 0.20 loses, 0.25 = 0.25 ties
    }
    assert ident["pass_ratio"]["change_better_in"] == "0/5"
    assert ident["pass_ratio"]["change_min"] == pytest.approx(0.9)
    h2 = summary["h2"]
    assert h2["pairs"] == 1 and h2["failed"] == 0
    assert h2["wall_s"]["parent_q1"] == h2["wall_s"]["parent_q3"] == 0.4
    assert h2["wall_s"]["change_better_in"] == "0/1"
