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
        # ratios 0.667 1.05 0.75 1.0 0.286
        "ratio_median": 0.75, "ratios_below_1": 3, "ratios_above_1": 1,
    }
    assert ident["pass_ratio"]["change_better_in"] == "0/5"
    assert ident["pass_ratio"]["change_min"] == pytest.approx(0.9)
    h2 = summary["h2"]
    assert h2["pairs"] == 1 and h2["failed"] == 0
    assert h2["wall_s"]["parent_q1"] == h2["wall_s"]["parent_q3"] == 0.4
    assert h2["wall_s"]["change_better_in"] == "0/1"


def test_pair_ratios_cancel_a_shift_between_pairs():
    """The host runs pairs 0-2 at one speed and pairs 3-5 at 1.6x that: the
    medians of the two sides fall in different speed modes, while the ratio
    within each pair reads the change 10% slower in every pair."""
    parent = [0.10, 0.11, 0.10, 0.16, 0.176, 0.16]
    runs = []
    for i, p in enumerate(parent):
        runs.append(_run("extend", "parent", i, p, 1.0))
        runs.append(_run("extend", "change", i, round(p * 1.1, 4), 1.0))
    # a parent reading 0 gives no ratio
    runs.append(_run("extend", "parent", 9, 0.0, 1.0))
    runs.append(_run("extend", "change", 9, 0.5, 1.0))
    wall = bench_pairs.summarize(runs, [("wall_s", "lower")])["extend"]["wall_s"]
    assert wall["change_better_in"] == "0/7"
    # the medians read the change 60% slower
    assert (wall["parent_median"], wall["change_median"]) == (0.11, 0.176)
    assert wall["ratio_median"] == 1.1
    assert (wall["ratios_below_1"], wall["ratios_above_1"]) == (0, 6)
    assert bench_pairs.summarize(runs[-2:], [("wall_s", "lower")])["extend"]["wall_s"][
        "ratio_median"] is None
