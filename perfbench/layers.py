"""Per-layer metrics of one traced call, read from the tracer's aggregates.

`PER_LAYER` is the list BENCHMARK.json declares, in order; `trace.overhead_s`
is added by run.py because it needs the untraced call's wall time.
"""

from __future__ import annotations

from tracer import Tracer, percentile_ms

SUITE_NAMES = ("kernels", "cartan", "serre", "shuffle", "gram", "canonical")

PER_LAYER = (
    [
        ("series.kf_mul.calls", "count"),
        ("series.kf_mul.self_s", "s"),
        ("series.kf_mul.terms_out", "count"),
        ("series.hs_mul.calls", "count"),
        ("series.hs_mul.self_s", "s"),
        ("series.hs_new.calls", "count"),
        ("series.expand.calls", "count"),
        ("series.expand.distinct", "count"),
        ("series.expand.distinct_ratio", "ratio"),
        ("series.expand.total_s", "s"),
        ("series.expand_linear_ratio.calls", "count"),
        ("series.expand_linear_ratio.distinct", "count"),
        ("pairing.pair.calls", "count"),
        ("pairing.pair.distinct", "count"),
        ("pairing.pair.distinct_ratio", "ratio"),
        ("pairing.pair.total_s", "s"),
        ("pairing.pair.self_s", "s"),
        ("pairing.pair.p50_ms", "ms"),
        ("pairing.pair.p99_ms", "ms"),
        ("pairing.gram.self_s", "s"),
        ("pairing.delta_B.calls", "count"),
        ("canonical.compute_F.calls", "count"),
        ("canonical.compute_F.self_s", "s"),
        ("canonical.checks.total_s", "s"),
        ("shuffle.star.calls", "count"),
        ("shuffle.star.self_s", "s"),
        ("shuffle.serre_element.total_s", "s"),
        ("serre.synthesize.calls", "count"),
        ("serre.synthesize.total_s", "s"),
        ("serre.checks.total_s", "s"),
        ("kernels.checks.total_s", "s"),
        ("kernels.checks.self_s", "s"),
        ("geometry.checks.total_s", "s"),
        ("cartan.total_s", "s"),
    ]
    + [(f"suites.{name}.total_s", "s") for name in SUITE_NAMES]
    + [
        ("cli.dump_report.s", "s"),
        ("cli.report_bytes", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict:
    """Every PER_LAYER value except trace.overhead_s, by name."""
    g, f = tracer.group, tracer.function
    expand = [f(f"series.{name}") for name in
              ("expand_pole", "expand_shifted_pole_inv", "expand_linear_ratio")]
    elr = f("series.expand_linear_ratio")
    pair = f("pairing.pair")
    expand_distinct = tracer.distinct(*expand)
    pair_distinct = tracer.distinct(pair)
    dump = f("cli.dump_report")
    out = {
        "series.kf_mul.calls": g("series.kf_mul").calls,
        "series.kf_mul.self_s": g("series.kf_mul").self_time,
        "series.kf_mul.terms_out": g("series.kf_mul").terms_out,
        "series.hs_mul.calls": g("series.hs_mul").calls,
        "series.hs_mul.self_s": g("series.hs_mul").self_time,
        "series.hs_new.calls": tracer.constructions.calls,
        "series.expand.calls": g("series.expand").calls,
        "series.expand.distinct": expand_distinct,
        "series.expand.distinct_ratio":
            _ratio(expand_distinct, g("series.expand").calls),
        "series.expand.total_s": g("series.expand").total,
        "series.expand_linear_ratio.calls": elr.calls,
        "series.expand_linear_ratio.distinct": tracer.distinct(elr),
        "pairing.pair.calls": pair.calls,
        "pairing.pair.distinct": pair_distinct,
        "pairing.pair.distinct_ratio": _ratio(pair_distinct, pair.calls),
        "pairing.pair.total_s": pair.total,
        "pairing.pair.self_s": pair.self_time,
        "pairing.pair.p50_ms": percentile_ms(pair.durations, 0.50),
        "pairing.pair.p99_ms": percentile_ms(pair.durations, 0.99),
        "pairing.gram.self_s": g("pairing.gram").self_time,
        "pairing.delta_B.calls": g("pairing.delta_B").calls,
        "canonical.compute_F.calls": g("canonical.compute_F").calls,
        "canonical.compute_F.self_s": g("canonical.compute_F").self_time,
        "canonical.checks.total_s": g("canonical.checks").total,
        "shuffle.star.calls": g("shuffle.star").calls,
        "shuffle.star.self_s": g("shuffle.star").self_time,
        "shuffle.serre_element.total_s": g("shuffle.serre_element").total,
        "serre.synthesize.calls": g("serre.synthesize").calls,
        "serre.synthesize.total_s": g("serre.synthesize").total,
        "serre.checks.total_s": g("serre.checks").total,
        "kernels.checks.total_s": g("kernels.checks").total,
        "kernels.checks.self_s": g("kernels.checks").self_time,
        "geometry.checks.total_s": g("geometry.checks").total,
        "cartan.total_s": g("cartan").total,
        "cli.dump_report.s": dump.total,
        "cli.report_bytes": report_bytes if dump.calls else 0,
    }
    for name in SUITE_NAMES:
        out[f"suites.{name}.total_s"] = g(f"suites.{name}").total
    return out
