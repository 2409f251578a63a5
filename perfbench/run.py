"""Benchmark of the gradalg engine.

    python3 perfbench/run.py --workload {h2,extend,embed,identities} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The workload runs in a fresh interpreter
(worker.py) with BLAS/OpenMP thread counts pinned to 1, a fixed hash seed
and no bytecode cache for the library. The last stdout line is one JSON
object {correct, attempted, failed, metrics}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. The line before it records the
environment, the passes, the tail percentile and any oracle problems.
Traced runs also write their spans to .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("h2", "extend", "embed", "identities")
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
TIMEOUT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gradalg", "__init__.py")):
        print("perfbench: src/gradalg not found next to perfbench/", file=sys.stderr)
        return 2
    cmd = [sys.executable, "-B", os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        print("perfbench: worker printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
