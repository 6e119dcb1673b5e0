"""One fresh-interpreter benchmark step; prints one JSON line on stdout.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py run --workload NAME --seed N [--trace PATH]

`setup` times importing qcurrents and building and validating the inputs,
raw and scaled to the reference host speed.
`run` does the same set-up untimed, then times one workload call (wall
and user+system CPU, raw and scaled to the reference host speed by
speedprobe.py), then runs the output oracle outside the timed region.
With `--trace PATH` the call runs under the per-layer tracer instead of the
speed probe; its spans and aggregates are written to PATH and the
per-layer metrics are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402

# probes taken before and after set-up, which is too short for the timer
SETUP_PROBES = 3


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def do_setup(args) -> dict:
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    start = time.perf_counter()
    workloads.prepare(args.workload, args.seed)
    elapsed = time.perf_counter() - start
    for _ in range(SETUP_PROBES):
        probe.sample()
    return {"setup_s": probe.wall_at_reference(elapsed),
            "setup_raw_s": elapsed}


def timed_call(args, inputs):
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    result = workloads.call(args.workload, inputs)
    return result, time.perf_counter() - wall0, cpu_seconds() - cpu0


def do_run(args) -> dict:
    # one CPU for every thread, so the speed probe, which runs on the main
    # thread, times the CPU that verify-all's suite thread runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = workloads.prepare(args.workload, args.seed)
    out = {}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
        result, wall, cpu = timed_call(args, inputs)
        tracer.uninstall()
    else:
        with SpeedProbe() as probe:
            result, wall, cpu = timed_call(args, inputs)
        wall, cpu = probe.without_probes(wall, cpu)
        out["wall_s"] = probe.wall_at_reference(wall)
        out["cpu_s"] = probe.cpu_at_reference(cpu)
    out["peak_rss_mb"] = peak_rss_mb()
    digest, nbytes, problems = workloads.outcome(args.workload, inputs,
                                                 result, args.seed)
    out.update(wall_raw_s=wall, cpu_raw_s=cpu, digest=digest, bytes=nbytes,
               problems=problems)
    if args.trace:
        from layers import layer_metrics
        out["layers"] = layer_metrics(tracer, nbytes)
        with open(args.trace, "w") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("step", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", help="trace the call; write the trace here")
    args = p.parse_args(argv)
    out = do_setup(args) if args.step == "setup" else do_run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
