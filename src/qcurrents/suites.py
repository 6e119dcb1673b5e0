"""Verification suites behind the CLI subcommands.

Each suite returns a JSON-ready report dict whose leaves are primitives;
"pass" fields are booleans and a suite-level "pass" aggregates them.  The
scales mirror the package's acceptance grid (kernel identities at the
configured truncation, synthesis at K=5/window 8, algebraic suites at
K=4), so `verify-all` doubles as the acceptance run.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import canonical as can
from . import cartan as ct
from . import kernels as ker
from . import pairing as pr
from . import serre as sr
from . import shuffle as sh
from .geometry import (
    CurveConfig,
    check_delta_reproduces,
    check_derivation_preserves_R,
    check_dual_bases,
    check_pairing_derivation_invariance,
)
from .series import Window


def suite_kernels(config: CurveConfig, cartan_name: str = "A1",
                  window_half: int | None = None) -> dict:
    K = config.K
    half = window_half or 10
    geo = check_dual_bases(config)
    report = {
        "orientation": "plus",
        "geometry": {
            "dual_basis": geo["dual_basis"],
            "lagrangian": geo["lagrangian"],
            "derivation_preserves_R": check_derivation_preserves_R(config),
            "pairing_derivation_invariant":
                check_pairing_derivation_invariance(config),
            "delta_reproduces": check_delta_reproduces(
                config, Window.cube(-5, 5, 2)),
        },
    }
    defect = ker.green_defect(config, check=half)
    report["green_defect_regular"] = defect["regular"]
    report["green_defect_zero"] = defect["zero"]

    pair_ode = ker.solve_kernel_ode(max(K, 7))
    g0 = tuple([1] + [0] * (max(K, 7) - 1))
    zero_m = (0,) * max(K, 7)
    u = pair_ode.green_coeff
    v = pair_ode.prefactor_log
    report["ode"] = {
        "u1": {str(k): str(c) for k, c in u.hbar_coefficient(1).items()},
        "u2_zero": not u.hbar_coefficient(2),
        "u3": {str(k): str(c) for k, c in u.hbar_coefficient(3).items()},
        "v2": {str(k): str(c) for k, c in v.hbar_coefficient(2).items()},
        "coefficients_ok": (
            u.hbar_coefficient(1) == {zero_m: Fraction(-1)}
            and not u.hbar_coefficient(2)
            and u.hbar_coefficient(3) == {g0: Fraction(-1, 3)}
            and v.hbar_coefficient(2) == {g0: Fraction(1, 2)}
        ),
        "substitution_residual_zero": ker.ode_residual(pair_ode),
    }

    tau = ker.half_kernel_correction(2, config)
    report["correction"] = {
        "projection_vanishes": tau["projection_vanishes"],
        "constraint_satisfied": tau["constraint_satisfied"],
        "tau_zero": tau["tau"].is_zero(),
    }

    closed = {}
    for s in (-2, -1, 1, 2, 4):
        closed[str(s)] = ker.check_closed_form(s, config, check=half)["match"]
    report["closed_form_match"] = closed

    inverse = {}
    for s in (-2, 2, 4):
        inverse[str(s)] = ker.prolong_and_check_inverse(
            s, config, check=half)["deviation_zero"]
    report["inverse_identity"] = inverse

    reg = ker.regular_exchange_part(2, config, check=6)
    report["regular_part"] = {
        "is_one": reg["is_one"],
        "in_one_plus_hbar": reg["in_one_plus_hbar"],
    }
    half_fact = ker.check_half_factorization(2, config, check=6)
    report["half_factorization"] = {
        "closed_form_match": half_fact["closed_form_match"],
        "factorization_zero": half_fact["factorization_zero"],
    }
    log_cfg = CurveConfig(name=config.name, K=5, max_mode=config.max_mode)
    report["log_expansion_identity"] = ker.check_log_expansion_identity(
        log_cfg, check=8)["identity_zero"]
    report["regular_translates"] = ker.check_regular_translates(
        1, config, check=6)

    window = Window.cube(-6, 6, 2)
    q2 = ker.exchange_kernel(2, config, window)
    report["q_sigma"] = q2.restrict(Window.cube(-4, 4, 2)).to_json()
    report["psi"] = {
        str(k): {str(m): str(c) for m, c in u.hbar_coefficient(k).items()}
        for k in range(min(K, 5))
    }
    report["phi"] = {
        str(k): {str(m): str(c) for m, c in v.hbar_coefficient(k).items()}
        for k in range(min(K, 5))
    }
    report["checks"] = {
        "inverse": all(inverse.values()),
        "log_expansion": report["log_expansion_identity"],
        "closed_form": all(closed.values()),
        "defect_regular": defect["regular"],
        "ode": report["ode"]["coefficients_ok"]
               and report["ode"]["substitution_residual_zero"],
    }
    report["pass"] = (
        all(report["checks"].values())
        and all(report["geometry"].values())
        and report["correction"]["constraint_satisfied"]
        and reg["is_one"]
        and half_fact["factorization_zero"]
        and all(report["regular_translates"].values())
    )
    return report


def suite_cartan(config: CurveConfig, cartan_name: str) -> dict:
    cartan = ct.cartan_by_name(cartan_name)
    inv = ct.check_T_inverse(cartan, config)
    cfg4 = CurveConfig(name=config.name, K=4,
                       max_mode=min(config.max_mode, 5))
    cr = ct.c_r_elements(cartan, cfg4)
    T2 = ct.T_operator(2, config)
    report = {
        "cartan": cartan_name,
        "T_mod_hbar_scalar": str(ct.scalar_mod_hbar(T2)),
        "T0_zero": ct.T_operator(0, config).is_zero(),
        "inverse": inv,
        "solves": {
            "consistent": cr["solve_consistent"],
            "antisymmetry": cr["antisymmetry"],
            "alpha_antisymmetric": cr["alpha_antisymmetric"],
            "rho_zero": cr["rho_zero"],
            "C_zero": cr["C_zero"],
        },
        "r_elements": {
            f"{i}{j}": kf.to_json() for (i, j), kf in sorted(cr["r"].items())
        },
    }
    report["pass"] = (
        all(inv.values())
        and cr["solve_consistent"]
        and cr["antisymmetry"]
        and ct.scalar_mod_hbar(T2) == 2
    )
    return report


def suite_serre(config: CurveConfig, cartan_name: str = "A1") -> dict:
    cfg = CurveConfig(name=config.name, K=5, max_mode=config.max_mode)
    out = sr.synthesize(cfg, check=8)
    system = out["system"]
    checks = dict(out["checks"])
    main = sr.check_main_identity(system, cfg, check=8)
    main_half = sr.check_main_identity(system, cfg, check=8, half_scale=True)
    poles = sr.check_pole_vanishing(system, cfg, check=8)
    report = {
        "coefficients": {
            sr.report_name(key): kf.to_json()
            for key, kf in system.coeffs.items()
        },
        "checks": {
            "split_oracles": checks["split_oracles"],
            "denominator_valuations_one": checks["denominator_valuations_one"],
            "glue_compat": checks["glue_compat"],
            "two_frame_compat": checks["two_frame_compat"],
            "t_diagonal_is_one": checks["t_diagonal_is_one"],
            "swap_ratio_diagonal_agree": checks["swap_ratio_diagonal_agree"],
            "closing_membership": checks["closing_membership"],
            "ratio_locus_checks": {
                k: v for k, v in checks.items() if k.startswith("ratio_")
            },
            "membership": checks["membership"],
            "main_identity_zero": main["deviation_zero"],
            "main_identity_half_scale_zero": main_half["deviation_zero"],
            "pole_vanishing": poles,
            "diagonal_divisibility": sr.check_diagonal_divisibility(cfg),
        },
    }
    report["pass"] = (
        all(checks["membership"].values())
        and checks["glue_compat"]
        and checks["two_frame_compat"]
        and checks["t_diagonal_is_one"]
        and main["deviation_zero"]
        and main_half["deviation_zero"]
        and poles["all_zero"]
        and all(v for v in checks["split_oracles"].values())
        and all(v for k, v in checks.items() if k.startswith("ratio_"))
    )
    return report


def _associativity_samples(cartan, config, count, seed):
    rng = random.Random(seed)
    ok = True
    samples = []
    for _ in range(count):
        idx = [rng.randrange(cartan.rank) for _ in range(3)]
        ms = [rng.randrange(-3, 3) for _ in range(3)]
        x, y, z = (sh.embed_generator(i, m, cartan, config.K)
                   for i, m in zip(idx, ms))
        left = sh.star(sh.star(x, y, cartan), z, cartan)
        right = sh.star(x, sh.star(y, z, cartan), cartan)
        good = (left.num - right.num).is_zero()
        samples.append({"letters": idx, "modes": ms, "ok": good})
        ok = ok and good
    return ok, samples


def suite_shuffle(config: CurveConfig, cartan_name: str) -> dict:
    cfg = CurveConfig(name=config.name, K=4, max_mode=config.max_mode)
    cartan = ct.cartan_by_name(cartan_name)
    assoc_ok, samples = _associativity_samples(cartan, cfg, 20, seed=11)

    vertex_ok = True
    vertex_fail = []
    mode_list = list(range(-3, 3))
    pairs = [(i, j) for i in range(cartan.rank) for j in range(cartan.rank)]
    for i, j in pairs:
        for a in mode_list:
            for b in mode_list:
                if not sh.vertex_element(i, j, a, b, cartan, cfg).is_zero():
                    vertex_ok = False
                    vertex_fail.append((i, j, a, b))
    report = {
        "cartan": cartan_name,
        "associativity": {"pass": assoc_ok, "samples": len(samples)},
        "vertex_relations": {"pass": vertex_ok,
                             "failures": vertex_fail[:5]},
    }
    if cartan.rank >= 2:
        scfg = CurveConfig(name=config.name, K=5, max_mode=cfg.max_mode)
        system = sr.synthesize(scfg, check=6)["system"].truncate(cfg.K)
        half = system.rescale_hbar(Fraction(1, 2))
        serre_ok = True
        serre_count = 0
        for mz in mode_list:
            for k1 in range(len(mode_list)):
                for k2 in range(k1, len(mode_list)):
                    el = sh.serre_element(half, 0, 1, mz, mode_list[k1],
                                          mode_list[k2], cartan, cfg)
                    serre_count += 1
                    if not el.is_zero():
                        serre_ok = False
        report["serre_relations"] = {"pass": serre_ok, "checked": serre_count}
    report["pass"] = (
        assoc_ok and vertex_ok
        and report.get("serre_relations", {}).get("pass", True)
    )
    return report


def suite_gram(config: CurveConfig, cartan_name: str = "A1") -> dict:
    cfg = CurveConfig(name=config.name, K=4, max_mode=config.max_mode)
    cartan = ct.cartan_by_name("A1")
    # bidegree (alpha_1, -alpha_1): complement rows against regular words
    rows1 = [sh.embed_generator(0, -a, cartan, cfg.K) for a in range(1, 5)]
    cols1 = [((0, b),) for b in range(0, 4)]
    g1 = pr.gram(rows1, cols1, ((1,), (-1,)), cartan, cfg,
                 row_labels=[f"e[z^{-a}]" for a in range(1, 5)],
                 col_labels=[f"f[z^{b}]" for b in range(0, 4)])
    # bidegree (2 alpha_1, -2 alpha_1), modes bounded by 4
    modes = list(range(-4, 4))
    rows2 = []
    labels2 = []
    for p, q in itertools.combinations_with_replacement(modes, 2):
        rows2.append(sh.star(sh.embed_generator(0, p, cartan, cfg.K),
                             sh.embed_generator(0, q, cartan, cfg.K), cartan))
        labels2.append(f"e[{p}]*e[{q}]")
    cols2 = []
    clabels2 = []
    for r, s in itertools.combinations_with_replacement(modes, 2):
        cols2.append(((0, r), (0, s)))
        clabels2.append(f"f[{r}]f[{s}]")
    g2 = pr.gram(rows2, cols2, ((2,), (-2,)), cartan, cfg,
                 row_labels=labels2, col_labels=clabels2)
    hopf = pr.check_hopf_rules(cartan, cfg, samples=10, seed=7)
    ann = pr.annihilator_check(cartan, cfg)
    report = {
        "blocks": {
            "alpha1": g1.to_json(),
            "two_alpha1": g2.to_json(),
        },
        "unit_leading": {
            "alpha1": g1.nondegenerate and g1.det_valuation == 0,
            "two_alpha1": g2.nondegenerate and g2.det_valuation == 0,
        },
        "hopf_rules": hopf,
        "annihilator": {
            "deg1_zero": ann["out_pairings_zero_deg1"],
            "deg2_zero": ann["out_pairings_zero_deg2"],
            "complement_rank": ann["complement_rank"],
            "predicted_rank": ann["predicted_rank"],
            "rank_matches": ann["rank_matches"],
        },
    }
    report["pass"] = (
        report["unit_leading"]["alpha1"]
        and report["unit_leading"]["two_alpha1"]
        and all(hopf.values())
        and ann["out_pairings_zero_deg1"]
        and ann["out_pairings_zero_deg2"]
        and ann["rank_matches"]
    )
    return report


def suite_canonical(config: CurveConfig, cartan_name: str = "A1") -> dict:
    cfg = CurveConfig(name=config.name, K=4, max_mode=config.max_mode)
    a1 = ct.cartan_by_name("A1")
    a2 = ct.cartan_by_name("A2")
    modes = list(range(-3, 3))
    F1 = can.compute_F(can.a1_block(1, modes, a1, cfg), a1, cfg)
    F2 = can.compute_F(can.a1_block(2, modes, a1, cfg), a1, cfg)
    lead1 = can.leading_term_check(F1, a1, cfg)
    lead2 = can.leading_term_check(F2, a1, cfg)
    repro = {
        "alpha1": can.check_reproducing(F1, cfg),
        "two_alpha1": can.check_reproducing(F2, cfg),
    }
    modes_a2 = list(range(-2, 2))
    Fm = can.compute_F(can.a2_mixed_block(modes_a2, a2, cfg), a2, cfg)
    lead_m = can.leading_term_check(Fm, a2, cfg)
    repro["a2_mixed"] = can.check_reproducing(Fm, cfg)

    out_modes = [0, 1, 2]
    lam_modes = [-3, -2, -1]
    F2o1 = can.compute_F(
        can.a1_split_block(1, out_modes, lam_modes, a1, cfg), a1, cfg)
    F1o1 = can.compute_F(
        can.a1_split_block(1, lam_modes, out_modes, a1, cfg), a1, cfg)
    F2o2 = can.compute_F(
        can.a1_split_block(2, out_modes, lam_modes, a1, cfg), a1, cfg)
    F1o2 = can.compute_F(
        can.a1_split_block(2, lam_modes, out_modes, a1, cfg), a1, cfg)
    fact1 = can.factorization_check(
        F1, {(0,): (None, F1o1), (1,): (F2o1, None)}, a1, cfg)
    fact2 = can.factorization_check(
        F2, {(0,): (None, F1o2), (1,): (F2o1, F1o1), (2,): (F2o2, None)},
        a1, cfg)

    cfg3 = CurveConfig(name=config.name, K=3, max_mode=config.max_mode)
    Fb = {(0,): can.compute_F(can.unit_block(a1, cfg3), a1, cfg3),
          (1,): can.compute_F(can.a1_block(1, modes, a1, cfg3), a1, cfg3),
          (2,): can.compute_F(can.a1_block(2, modes, a1, cfg3), a1, cfg3)}
    cocycle = can.coproduct_identity_checks(
        Fb, [((1,), (0,)), ((0,), (1,)), ((1,), (1,))], a1, cfg3)

    report = {
        "reproducing": repro,
        "leading_term": {
            "alpha1": lead1,
            "two_alpha1": lead2,
            "a2_mixed": lead_m,
        },
        "factorization": {
            "alpha1": fact1,
            "two_alpha1": fact2,
        },
        "cocycle": cocycle,
    }
    report["pass"] = (
        all(repro.values())
        and lead1["valuation_ok"] and lead1["leading_slice_ok"]
        and lead2["valuation_ok"] and lead2["leading_slice_ok"]
        and lead_m["valuation_ok"] and lead_m["leading_slice_ok"]
        and fact1["factorization_zero_deviation"]
        and fact2["factorization_zero_deviation"]
        and cocycle["all"]
    )
    return report


SUITES = {
    "kernels": suite_kernels,
    "cartan": suite_cartan,
    "serre": suite_serre,
    "shuffle": suite_shuffle,
    "gram": suite_gram,
    "canonical": suite_canonical,
}
