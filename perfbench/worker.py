"""Measure one workload in this interpreter and print its result.

run.py starts this file in a fresh interpreter with the thread counts
pinned; see run.py for the command line. The run is a closed loop with one
client: jobs go to the library one at a time, each timed on its own. Work
is grouped in passes (a fresh set of inputs each, whose job list runs a
workload-specific number of times); passes repeat until the next one would
end past --seconds, with a workload-specific minimum. With
--trace 1, untraced and traced passes alternate; only the traced ones carry
wrappers.
"""
import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def tail_latency(latencies, beyond=10):
    """(percentile, value, samples above it) at the highest whole percentile
    with at least `beyond` samples above it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    pct = max(0, 100 * (n - beyond) // n)
    rank = max(1, -(-pct * n // 100))
    return pct, xs[rank - 1], n - rank


def run_jobs(jobs, tracer, job_base):
    latencies, results = [], []
    t_pass = perf_counter()
    for n, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_base + n
        t0 = perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a raising job is a failed job, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        results.append((result, error))
    wall = perf_counter() - t_pass
    if tracer is not None:
        tracer.job = -1
    return latencies, results, wall


def check_jobs(jobs, results, problems):
    failed = 0
    for job, (result, error) in zip(jobs, results):
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:  # an oracle that cannot decide fails the job
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error:
            failed += 1
            problems.append(f"{job.label}: {error}")
    return failed


def run_pass(workload, tracer, job_base, problems, reps):
    """Set up one pass, then run its job list `reps` times, each timed."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        jobs = workload.generate()
        workload.settle(jobs)
        setup = perf_counter() - t0
        runs = [run_jobs(jobs, tracer, job_base + r * len(jobs)) for r in range(reps)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = sum(check_jobs(jobs, results, problems) for _, results, _ in runs)
    return {"traced": tracer is not None, "setup_s": setup,
            "wall_s": [wall for _, _, wall in runs],
            "latencies": [x for latencies, _, _ in runs for x in latencies],
            "jobs": reps * len(jobs), "failed": failed}


def measure(workload, seconds, trace, tracing):
    tracer = tracing.Tracer() if trace else None
    min_passes = 2 if trace else workload.min_passes
    # traced and untraced passes are compared job list for job list
    reps = 1 if trace else workload.timed_reps
    passes, problems = [], []
    start = perf_counter()
    while True:
        t_iter = perf_counter()
        traced = trace and len(passes) % 2 == 1
        job_base = sum(p["jobs"] for p in passes)
        passes.append(run_pass(workload, tracer if traced else None, job_base, problems, reps))
        # the finished pass is garbage now: collect it outside the timed
        # regions, so the next pass neither pays for it nor starts on top of it
        gc.collect()
        last = perf_counter() - t_iter
        if len(passes) >= min_passes and perf_counter() - start + last > seconds:
            break
    return passes, problems, tracer


def environment():
    src = os.path.join(ROOT, "src", "gradalg")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import numpy
    return {"commit": commit, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "modulus_override": None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    t_import = perf_counter()
    import numpy  # noqa: F401  (its own bytecode cache is part of the install)
    # compile the library from source: no bytecode is read or written for it
    sys.pycache_prefix = os.path.join(OUT_DIR, "no-pycache")
    import tracing
    import workloads
    import_s = perf_counter() - t_import

    workload = workloads.WORKLOADS[args.workload](args.seed)
    t0 = perf_counter()
    workload.warm_up()
    warm_s = perf_counter() - t0
    workload.prepare_oracles()
    gc.collect()

    passes, problems, tracer = measure(workload, args.seconds, bool(args.trace), tracing)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = [x for p in untraced for x in p["latencies"]]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    pct, tail, beyond = tail_latency(latencies)
    wall = statistics.median(w for p in untraced for w in p["wall_s"])
    setup_s = import_s + warm_s + statistics.median(p["setup_s"] for p in untraced)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "import_s": import_s, "warm_s": warm_s,
            "passes": [{k: v for k, v in p.items() if k != "latencies"} for p in passes],
            "job_tail": {"percentile": pct, "jobs": len(latencies), "beyond": beyond},
            "problems": problems[:20], **environment()}
    print(json.dumps({"info": info}, sort_keys=True))

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed})
        layer = tracing.per_layer_metrics(
            tracer, len(traced), statistics.median(w for p in traced for w in p["wall_s"]), wall)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in layer.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "job_tail_ms": {"value": 1000 * tail, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
