"""Outside-in benchmark of qcurrents: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every timed call runs in a fresh
interpreter (perfbench/worker.py), one at a time, with QC_THREADS removed
from its environment so the program runs single-threaded.

--trace 0 measures set-up 15 times (after one unmeasured warm-up that
fills the bytecode cache), then repeats untraced calls until S seconds
have passed (at least one), and prints the end-to-end metrics: medians of
wall_s, cpu_s, setup_s and peak_rss_mb.  The times are scaled to a
reference host speed (speedprobe.py); the unscaled ones are printed too.

--trace 1 makes one untraced and one traced call and prints the per-layer
metrics of the traced call; trace.overhead_s is the traced wall time minus
the untraced one, both unscaled.  The traced call's spans and aggregates
are written to perfbench/out/.

A call fails if the worker raises or exits nonzero, if the report says
`pass: false` or the exit status is nonzero, if the output oracle rejects
it, or if its output bytes differ from the first call of the set.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 15
# a run must end within 180 s; every worker is stopped by this deadline
RUN_LIMIT_S = 170
STARTED = time.monotonic()
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# printed for reference, not metrics: unscaled, they drift with the host
RAW = (("wall_raw_s", "s"), ("cpu_raw_s", "s"), ("setup_raw_s", "s"))


class WorkerError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QC_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(step: str, workload: str, seed: int, trace: str | None = None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), step,
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", trace]
    left = RUN_LIMIT_S - (time.monotonic() - STARTED)
    if left <= 0:
        raise WorkerError(f"{step} not started: the run's {RUN_LIMIT_S} s "
                          "are used up")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{step} stopped at the run's {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise WorkerError(f"{step} exited {proc.returncode}: "
                          + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(samples: list, errors: list) -> tuple:
    """(attempted, failed, reference digest) over one set of calls."""
    reference = samples[0]["digest"] if samples else None
    failed = len(errors)
    for i, s in enumerate(samples):
        problems = list(s["problems"])
        if s["digest"] != reference:
            problems.append(f"output digest {s['digest'][:16]} differs from "
                            f"the first call's {reference[:16]}")
        for problem in problems:
            print(f"FAIL call {i}: {problem}")
        failed += bool(problems)
    for error in errors:
        print(f"FAIL: {error}")
    return len(samples) + len(errors), failed, reference


def timed_calls(workload: str, seed: int, seconds: float):
    samples, errors = [], []
    start = time.perf_counter()
    while True:
        try:
            samples.append(worker("run", workload, seed))
        except WorkerError as exc:
            errors.append(str(exc))
        if time.perf_counter() - start >= seconds:
            return samples, errors


def end_to_end(workload: str, seed: int, seconds: float):
    worker("setup", workload, seed)
    setups = [worker("setup", workload, seed) for _ in range(SETUP_RUNS)]
    samples, errors = timed_calls(workload, seed, seconds)
    attempted, failed, digest = judge(samples, errors)
    if not samples:
        raise WorkerError("no call completed")
    values = {key: [s[key] for s in setups]
              for key in ("setup_s", "setup_raw_s")}
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "wall_raw_s", "cpu_raw_s"):
        values[key] = [s[key] for s in samples]
    metrics = {}
    for name, unit in END_TO_END + RAW:
        median = statistics.median(values[name])
        if (name, unit) in END_TO_END:
            metrics[name] = {"value": median, "unit": unit}
        print(f"{name:12s} median {median:.6f} {unit} "
              f"(n={len(values[name])}, min {min(values[name]):.6f}, "
              f"max {max(values[name]):.6f})")
    print(f"fail_rate    {failed}/{attempted} = {failed / attempted:.6f}")
    print(f"output       sha256 {digest} bytes {samples[0]['bytes']}")
    return attempted, failed, metrics


def per_layer(workload: str, seed: int):
    from layers import PER_LAYER
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    samples, errors = [], []
    for trace in (None, trace_path):
        try:
            samples.append(worker("run", workload, seed, trace))
        except WorkerError as exc:
            errors.append(str(exc))
    attempted, failed, digest = judge(samples, errors)
    if len(samples) < 2:
        raise WorkerError("the untraced or the traced call did not complete")
    plain, traced = samples
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_raw_s"] - plain["wall_raw_s"]
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:36s} {values[name]} {unit}")
    print(f"output       sha256 {digest} bytes {traced['bytes']} "
          f"(traced and untraced identical: {traced['digest'] == digest})")
    print(f"trace        {os.path.relpath(trace_path)}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    package = os.path.join(os.path.dirname(HERE), "src", "qcurrents")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: {package} not found; the benchmark runs on the "
              "repository it is part of", file=sys.stderr)
        return 2
    print(f"python {platform.python_version()} nproc {os.cpu_count()} "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(args.workload, args.seed)
        else:
            attempted, failed, metrics = end_to_end(args.workload, args.seed,
                                                    args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
