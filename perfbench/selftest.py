"""Self-tests of the benchmark's own checks; run from the repository root:

    python3 perfbench/selftest.py

* the product-rule oracle of gram-distinct rejects a perturbed Gram entry;
* the tracer's patch-completeness check trips when one binding is left
  unwrapped, and passes after a normal install;
* the metric names and units in BENCHMARK.json match what run.py prints.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402


def check(condition, message: str):
    if not condition:
        raise AssertionError(message)


def test_product_rule_rejects_perturbed_entry():
    from qcurrents.series import HSeries
    modes = [-1, 0, 2]
    _, cartan, config = workloads.prepare("gram-distinct", 0)
    report = workloads.gram_block(modes, cartan, config)
    n = len(report.matrix)
    entries = [(i, j) for i in range(n) for j in range(n)]
    problems = workloads.product_rule_problems(report, modes, cartan, config,
                                               entries)
    check(not problems, f"unperturbed block rejected: {problems}")
    # perturb only the top h-order of one entry
    i, j = 2, 4
    report.matrix[i][j] = report.matrix[i][j] + HSeries.hbar(config.K,
                                                             config.K - 1)
    problems = workloads.product_rule_problems(report, modes, cartan, config,
                                               entries)
    check(len(problems) == 1 and f"entry ({i},{j})" in problems[0],
          f"perturbed entry not singled out: {problems}")


def test_patch_completeness_trips_on_unwrapped_binding():
    from qcurrents import canonical, cli, pairing, series, suites
    original_pair = pairing.pair
    tracer = Tracer().install()
    try:
        check(pairing.pair is not original_pair, "pairing.pair not wrapped")
        check(canonical.pair is pairing.pair, "canonical.pair not rebound")
        check(suites.SUITES["gram"] is suites.suite_gram,
              "SUITES entry not rebound")
        check(series.HSeries.__rmul__ is series.HSeries.__mul__,
              "HSeries.__rmul__ alias not rebound")
        check(cli.SUITES is suites.SUITES, "cli sees another SUITES")
        canonical.pair = original_pair
        try:
            tracer.check_complete()
        except AssertionError as exc:
            check("qcurrents.canonical.pair" in str(exc),
                  f"wrong binding named: {exc}")
        else:
            raise AssertionError("unwrapped canonical.pair went unnoticed")
    finally:
        tracer.uninstall()
    check(pairing.pair is original_pair and canonical.pair is original_pair,
          "uninstall did not restore pair")


def test_benchmark_json_matches_printed_metrics():
    from run import END_TO_END
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    check(sorted(declared) == sorted(END_TO_END),
          f"end_to_end {declared} != {list(END_TO_END)}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(declared == list(PER_LAYER), "per_layer differs from layers.py")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workload names differ")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
