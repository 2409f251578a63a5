"""Alternating parent/change pairs of the perfbench benchmark.

    python3 tools/bench_pairs.py --parent REF --runs identities:1601-1610 h2:1611-1613 \
        --seconds 32 --out BENCH_name.json [--change REF] \
        [--parent-note TEXT] [--change-note TEXT]

Each side is the committed tree of a git ref, unpacked with `git archive`
into a fresh temporary directory; without --change the change side is the
checkout this script lives in, as it stands. `--runs W:SEEDS` gives a
workload and its seeds (`1601-1610` or `1601,1605`), one pair per seed: both
sides run `perfbench/run.py --workload W --seed S --seconds T` from their
own tree, one run at a time. Pair i runs the parent first when i is even
and the change first when it is odd; the pairs of all workloads are
interleaved by their index.

The JSON written to --out holds the command, the host, the sides, the
order, every run in the order it ran, and per workload a summary: for each
end-to-end metric of BENCHMARK.json, the parent's median and quartiles
(statistics.quantiles, exclusive method), the change's median, min and
max, and in how many pairs the change was better (ties count for neither),
plus the number of failed jobs over all runs. Next to the medians it gives
the ratio change/parent within each pair: their median and how many pairs
read below 1 and above 1 (pairs whose parent reads 0 have no ratio). Two
runs of one pair run back to back, so their ratio cancels a shift of the
host's speed between pairs, which the medians do not. Standard library only.
"""
import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"


def parse_seeds(text):
    """'1601-1603' or '1601,1605' (or a mix) -> [1601, 1602, 1603]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export(ref, into):
    """Unpack the committed tree of ref into the directory into; return its
    commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def run_one(tree, workload, seed, seconds):
    """The result object of one perfbench run in tree, or None when the run
    printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def _round(x):
    return round(x, 4)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q3


def summarize(runs, metrics):
    """Per workload, the summary of its complete pairs.

    runs: dicts with workload, side, seed and result ({failed, metrics});
    metrics: (name, better) with better "lower" or "higher".
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run["result"]
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = [sides for (w, _), sides in by_pair.items()
                 if w == workload and sides.get("parent") and sides.get("change")]
        summary = {"pairs": len(pairs)}
        for name, better in metrics if pairs else ():
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            q1, q3 = _quartiles(parent)
            ratios = [c / p for p, c in zip(parent, change) if p]
            summary[name] = {
                "parent_median": _round(statistics.median(parent)),
                "parent_q1": _round(q1),
                "parent_q3": _round(q3),
                "change_median": _round(statistics.median(change)),
                "change_min": _round(min(change)),
                "change_max": _round(max(change)),
                "change_better_in": f"{wins}/{len(pairs)}",
                "ratio_median": _round(statistics.median(ratios)) if ratios else None,
                "ratios_below_1": sum(r < 1 for r in ratios),
                "ratios_above_1": sum(r > 1 for r in ratios),
            }
        summary["failed"] = sum(result["failed"] for sides in pairs
                                for result in sides.values())
        out[workload] = summary
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REF")
    parser.add_argument("--change", metavar="REF")
    parser.add_argument("--runs", required=True, nargs="+", metavar="W:SEEDS")
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent-note", default="")
    parser.add_argument("--change-note", default="")
    args = parser.parse_args(argv)

    plan = []
    for item in args.runs:
        workload, _, seeds = item.partition(":")
        plan.append((workload, parse_seeds(seeds)))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": os.path.join(tmp, "parent")}
        sides = {"parent": f"{args.parent} ({export(args.parent, trees['parent'])})"}
        if args.change:
            trees["change"] = os.path.join(tmp, "change")
            sides["change"] = f"{args.change} ({export(args.change, trees['change'])})"
        else:
            trees["change"] = ROOT
            sides["change"] = "the working tree"
        for side, note in (("parent", args.parent_note), ("change", args.change_note)):
            if note:
                sides[side] += ": " + note
        runs = []
        for i in range(max(len(seeds) for _, seeds in plan)):
            for workload, seeds in plan:
                if i >= len(seeds):
                    continue
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_one(trees[side], workload, seeds[i], args.seconds)
                    runs.append({"workload": workload, "side": side, "seed": seeds[i],
                                 "trace": 0, "result": result})
                    print(workload, side, seeds[i],
                          "no result" if result is None else
                          {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                          file=sys.stderr, flush=True)

    order = ("pairs alternate which side runs first (the parent in even pairs, counting "
             "from 0); runs are listed in the order they ran; quartiles are "
             "statistics.quantiles (exclusive method)")
    doc = {
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "host": f"{os.cpu_count()}-CPU {platform.system()} host, Python "
                f"{platform.python_version()}, one worker process per run, runs one "
                "after another",
        "sides": sides,
        "order": order,
        "runs": runs,
        "summary": summarize([r for r in runs if r["result"] is not None], metrics),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["result"] is not None for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
