#!/usr/bin/env python3
"""Synthesize the cubic-relation coefficient system and print it.

    python3 scripts/serre_demo.py [--K 5] [--window 8]

Shows the six coefficient kernels (in the rational instance: the constants
1, -2, 1, 1, -2, 1), the compatibility ledger, and the identity verdicts.
Exits 1 when any ledger, identity or pole verdict is False, and 2 on a
K below 2, a negative window, or a check box outside the system's windows.
"""

import argparse
import sys

from qcurrents.geometry import CurveConfig
from qcurrents.serre import (
    check_main_identity,
    check_pole_vanishing,
    report_name,
    synthesize,
)


def all_true(verdict) -> bool:
    """Every leaf of a verdict, or of a nested dict of verdicts, is True."""
    if isinstance(verdict, dict):
        return all(all_true(v) for v in verdict.values())
    return verdict is True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--K", type=int, default=5)
    ap.add_argument("--window", type=int, default=8)
    args = ap.parse_args(argv)
    if args.K < 2:
        ap.error("--K must be at least 2")
    if args.window < 0:
        ap.error("--window must be at least 0")
    cfg = CurveConfig(K=args.K, max_mode=10)
    out = synthesize(cfg, check=args.window)
    system = out["system"]
    print(f"coefficient system at K={args.K}, window {args.window}:")
    for key, kf in system.coeffs.items():
        terms = {e: [str(c) for c in hs.coeffs] for e, hs in kf.terms.items()}
        print(f"  {report_name(key):13s} {terms}")
    print("\nchecks:")
    for key, val in sorted(out["checks"].items()):
        print(f"  {key}: {val}")
    try:
        system.require_box(args.window)
    except ValueError as exc:
        print(f"serre_demo.py: error: {exc}", file=sys.stderr)
        return 2
    main_id = check_main_identity(system, cfg, check=args.window)
    half_id = check_main_identity(system, cfg, check=args.window,
                                  half_scale=True)
    poles = check_pole_vanishing(system, cfg, check=args.window)
    print(f"\nmaster identity zero: {main_id['deviation_zero']}")
    print(f"half-scale identity zero: {half_id['deviation_zero']}")
    print(f"pole checks: {poles}")
    verdicts = (out["checks"], main_id, half_id, poles)
    return 0 if all(map(all_true, verdicts)) else 1


if __name__ == "__main__":
    sys.exit(main())
