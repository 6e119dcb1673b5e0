"""Command-line driver: configuration, suite orchestration, JSON reports.

Reports carry a versioned schema tag and are byte-deterministic for a
fixed configuration (sorted keys, no timestamps).  `verify-all` runs every
suite, one after another, and exits nonzero if any check fails.  Every
`pass` field above a suite's leaves, and the exit status, come from one
rule, `verdict`.  Bad input raises `ConfigError`, the one exception that
`main` maps to exit 2; a `--cartan` other than the default is bad input
for a run that does not read it.  The pairing and expansion memos live
for one suite: they are emptied after each suite returns.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cartan import BUILTIN_CARTAN
from .geometry import CurveConfig
from .series import clear_memos
from .suites import FIXED_CARTAN, SUITES

SCHEMA = "qc-report/1"


class ConfigError(ValueError):
    """Bad input: a malformed or unknown config value, flag or name."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class RunConfig:
    curve: str = "rational"
    K: int = 6
    window: tuple = (-10, 10)
    max_mode: int = 10
    cartan: str = "A1"
    suite: str = "all"
    out: str | None = None

    def validate(self):
        if not (isinstance(self.curve, str) and isinstance(self.cartan, str)):
            raise ConfigError("curve and cartan must be strings")
        if not _is_int(self.K) or not _is_int(self.max_mode):
            raise ConfigError("K and max_mode must be integers")
        if not (isinstance(self.window, tuple) and len(self.window) == 2
                and all(map(_is_int, self.window))):
            raise ConfigError("window must be a pair of integers")
        if self.curve != "rational":
            raise ConfigError(f"unknown curve {self.curve!r}")
        if self.K < 2:
            raise ConfigError("K must be at least 2")
        lo, hi = self.window
        if min(-lo, hi) < 1:
            raise ConfigError("window must contain 0 and reach at least 1 "
                              "on each side of it")
        if hi - lo < 2 * self.K:
            raise ConfigError("window span must be at least 2K")
        if self.cartan not in BUILTIN_CARTAN:
            raise ConfigError(f"unknown cartan name {self.cartan!r}")
        if self.max_mode < 1:
            raise ConfigError("max_mode must be positive")
        return self

    @staticmethod
    def from_json(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {"curve", "K", "window", "max_mode", "cartan"}
        if unknown:
            raise ConfigError("unknown config key "
                              + ", ".join(map(repr, sorted(unknown))))
        return RunConfig(
            curve=data.get("curve", "rational"),
            K=data.get("K", 6),
            window=tuple(data.get("window", (-10, 10))),
            max_mode=data.get("max_mode", 10),
            cartan=data.get("cartan", "A1"),
        )

    def curve_config(self) -> CurveConfig:
        return CurveConfig(name=self.curve, K=self.K, max_mode=self.max_mode)


def verdict(report) -> bool:
    """True exactly when every bool leaf of ``report`` is True.

    Int leaves (counts, ranks) do not count.  The one exception is a
    serialized kernel's ``lossy`` field, which the qc-report/1 schema fixes
    to False and which is no check.
    """
    if isinstance(report, bool):
        return report
    if isinstance(report, dict):
        return all(verdict(v) for k, v in report.items() if k != "lossy")
    if isinstance(report, (list, tuple)):
        return all(verdict(v) for v in report)
    return True


def run(subcommand: str, config: RunConfig):
    """Run one subcommand; returns (exit_status, report dict)."""
    config.validate()
    cfg = config.curve_config()
    base = {
        "schema": SCHEMA,
        "config": {
            "curve": config.curve,
            "K": config.K,
            "window": list(config.window),
            "max_mode": config.max_mode,
            "cartan": config.cartan,
        },
    }
    if config.cartan != RunConfig.cartan:
        if subcommand in FIXED_CARTAN:
            raise ConfigError(f"the {subcommand} suite does not read "
                              f"--cartan: it runs {FIXED_CARTAN[subcommand]}")
        if subcommand == "verify-all":
            raise ConfigError("verify-all does not read --cartan: the cartan "
                              "and shuffle suites run A1 and A2, and the "
                              "others their own types")
    lo, hi = config.window
    window_half = min(-lo, hi)

    def run_suite(name, cartan_name):
        kwargs = {"window_half": window_half} if name == "kernels" else {}
        try:
            report = SUITES[name](cfg, cartan_name, **kwargs)
        finally:
            clear_memos()
        report["pass"] = verdict(report)
        return report

    if subcommand in SUITES:
        report = run_suite(subcommand, config.cartan)
        base["suite"] = subcommand
        base["report"] = report
        return (0 if report["pass"] else 1), base
    if subcommand == "verify-all":
        names = sorted(SUITES)
        if config.suite != "all":
            if config.suite not in SUITES:
                raise ConfigError(f"unknown suite {config.suite!r}")
            names = [config.suite]
        suites = base["suites"] = {}
        for name in names:
            # the cartan and shuffle suites run for both built-in types
            if name in ("cartan", "shuffle"):
                suites[name] = {cn: run_suite(name, cn) for cn in ("A1", "A2")}
            else:
                suites[name] = run_suite(name, config.cartan)
        base["pass"] = verdict(suites)
        return (0 if base["pass"] else 1), base
    raise ConfigError(f"unknown subcommand {subcommand!r}")


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcurrents",
        description="Exact truncated kernel calculus and pairing checks",
    )
    p.add_argument("subcommand", choices=sorted(SUITES) + ["verify-all"])
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--K", type=int)
    p.add_argument("--window", help="LO:HI exponent window")
    p.add_argument("--max-mode", type=int, dest="max_mode")
    p.add_argument("--cartan", choices=sorted(BUILTIN_CARTAN))
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--suite", default="all",
                   help="restrict verify-all to one suite")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                config = RunConfig.from_json(json.load(fh))
        else:
            config = RunConfig()
        if args.K is not None:
            config.K = args.K
        if args.window:
            lo, hi = args.window.split(":")
            config.window = (int(lo), int(hi))
        if args.max_mode is not None:
            config.max_mode = args.max_mode
        if args.cartan:
            config.cartan = args.cartan
        config.suite = args.suite
        config.out = args.out
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # run() raises ConfigError on bad input; any other error inside a suite
    # is a failed computation, not bad input, so it is left to raise
    try:
        status, report = run(args.subcommand, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = dump_report(report)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
