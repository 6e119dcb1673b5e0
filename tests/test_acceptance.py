"""Acceptance suite: one test per criterion, each printing a PASS line.

Scales are pinned here, not deferred: truncation K = 6 and window
[-10, 10] for the kernel identities, K = 5 / window 8 for the coefficient
synthesis and the log-expansion identity, K = 4 for the algebraic suites,
K = 3 for the coproduct spot checks.  Every assertion is exact (rational
zero), there are no tolerances to tune.
"""

import itertools
import random
from fractions import Fraction as Q

from qcurrents import canonical as can
from qcurrents import cartan as ct
from qcurrents import kernels as ker
from qcurrents import pairing as pr
from qcurrents import serre as sr
from qcurrents import shuffle as sh
from qcurrents.cli import RunConfig, dump_report, run
from qcurrents.geometry import CurveConfig

CFG6 = CurveConfig(K=6, max_mode=10)
A1 = ct.cartan_by_name("A1")
A2 = ct.cartan_by_name("A2")


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_kernel_closed_form():
    ok = True
    for s in (-2, -1, 1, 2, 4):
        res = ker.check_closed_form(s, CFG6, check=10)
        ok = ok and res["match"] and res["orientation"] == "plus"
    _report("1 kernel closed form (sigma in {-2,-1,1,2,4}, K=6, window 10)", ok)


def test_criterion_02_inverse_identity():
    ok = True
    for s in (-2, 2, 4):
        ok = ok and ker.prolong_and_check_inverse(
            s, CFG6, check=10)["deviation_zero"]
    _report("2 inverse identity q q^swap = 1 (sigma in {-2,2,4}, K=6)", ok)


def test_criterion_03_green_defect_regular():
    res = ker.green_defect(CFG6, check=10)
    _report("3 derivative defect of the Green kernel is regular", res["regular"])


def test_criterion_04_ode_series():
    pair_ode = ker.solve_kernel_ode(7)   # coefficients through h^6
    zero = (0,) * 7
    g0 = tuple([1] + [0] * 6)
    u, v = pair_ode.green_coeff, pair_ode.prefactor_log
    ok = (
        u.hbar_coefficient(1) == {zero: Q(-1)}
        and not u.hbar_coefficient(2)
        and u.hbar_coefficient(3) == {g0: Q(-1, 3)}
        and v.hbar_coefficient(2) == {g0: Q(1, 2)}
        and ker.ode_residual(pair_ode)
    )
    _report("4 ODE series u1=-1, u2=0, u3=-g0/3, v2=g0/2 + residual oracle", ok)


def test_criterion_05_log_expansion_identity():
    cfg = CurveConfig(K=5, max_mode=10)
    res = ker.check_log_expansion_identity(cfg, check=8)
    _report("5 log-expansion identity exact (K=5, window 8)",
            res["identity_zero"])


def test_criterion_06_serre_synthesis():
    cfg = CurveConfig(K=5, max_mode=10)
    out = sr.synthesize(cfg, check=8)
    system = out["system"]
    checks = out["checks"]
    main = sr.check_main_identity(system, cfg, check=8)["deviation_zero"]
    main_half = sr.check_main_identity(system, cfg, check=8,
                                       half_scale=True)["deviation_zero"]
    poles = sr.check_pole_vanishing(system, cfg, check=8)
    ok = (
        all(checks["membership"].values())
        and checks["glue_compat"]
        and checks["two_frame_compat"]
        and checks["t_diagonal_is_one"]
        and main and main_half
        and poles["all_zero"]
    )
    _report("6 coefficient synthesis: memberships, compatibilities, "
            "t(z,z)=1, master identity, three pole checks (K=5)", ok)


def test_criterion_07_shuffle_associativity_and_relations():
    cfg = CurveConfig(K=4, max_mode=8)
    rng = random.Random(11)
    ok = True
    for cartan in (A1, A2):
        for _ in range(20):
            letters = [rng.randrange(cartan.rank) for _ in range(3)]
            modes = [rng.randrange(-3, 3) for _ in range(3)]
            x, y, z = (sh.embed_generator(i, m, cartan, cfg.K)
                       for i, m in zip(letters, modes))
            lhs = sh.star(sh.star(x, y, cartan), z, cartan)
            rhs = sh.star(x, sh.star(y, z, cartan), cartan)
            ok = ok and (lhs.num - rhs.num).is_zero()
    window6 = range(-3, 3)
    for cartan in (A1, A2):
        for i in range(cartan.rank):
            for j in range(cartan.rank):
                for a in window6:
                    for b in window6:
                        ok = ok and sh.vertex_element(
                            i, j, a, b, cartan, cfg).is_zero()
    scfg = CurveConfig(K=5, max_mode=8)
    system = sr.synthesize(scfg, check=6)["system"].truncate(cfg.K)
    half = system.rescale_hbar(Q(1, 2))
    modes = list(window6)
    for mz in modes:
        for k1 in range(len(modes)):
            for k2 in range(k1, len(modes)):
                el = sh.serre_element(half, 0, 1, mz, modes[k1], modes[k2],
                                      A2, cfg)
                ok = ok and el.is_zero()
    _report("7 shuffle: associativity on 20 random triples (A1, A2, K=4); "
            "vertex and cubic relation elements vanish on the mode box", ok)


def test_criterion_08_gram_and_hopf_rules():
    cfg = CurveConfig(K=4, max_mode=8)
    rows1 = [sh.embed_generator(0, -a, A1, cfg.K) for a in range(1, 5)]
    cols1 = [((0, b),) for b in range(0, 4)]
    g1 = pr.gram(rows1, cols1, ((1,), (-1,)), A1, cfg)
    modes = list(range(-4, 4))
    rows2 = [sh.star(sh.embed_generator(0, p, A1, cfg.K),
                     sh.embed_generator(0, q, A1, cfg.K), A1)
             for p, q in itertools.combinations_with_replacement(modes, 2)]
    cols2 = [((0, r), (0, s))
             for r, s in itertools.combinations_with_replacement(modes, 2)]
    g2 = pr.gram(rows2, cols2, ((2,), (-2,)), A1, cfg)
    hopf = pr.check_hopf_rules(A1, cfg, samples=10, seed=7)
    ok = (
        g1.nondegenerate and g1.det_valuation == 0 and g1.det_leading != 0
        and g2.nondegenerate and g2.det_valuation == 0 and g2.det_leading != 0
        and all(hopf.values())
    )
    _report("8 Gram blocks unit leading at (a1,-a1), (2a1,-2a1); Hopf rules "
            "on 10 samples (K=4)", ok)


def test_criterion_09_annihilator():
    cfg = CurveConfig(K=4, max_mode=8)
    res = pr.annihilator_check(A1, cfg)
    ok = (res["out_pairings_zero_deg1"] and res["out_pairings_zero_deg2"]
          and res["rank_matches"])
    _report("9 annihilator evidence: regular-mode pairings vanish "
            "exhaustively; complement block rank matches", ok)


def test_criterion_10_canonical_element():
    cfg = CurveConfig(K=4, max_mode=8)
    modes = list(range(-3, 3))
    F1 = can.compute_F(can.a1_block(1, modes, A1, cfg), A1, cfg)
    F2 = can.compute_F(can.a1_block(2, modes, A1, cfg), A1, cfg)
    Fm = can.compute_F(can.a2_mixed_block(list(range(-2, 2)), A2, cfg),
                       A2, cfg)
    lead1 = can.leading_term_check(F1, A1, cfg)
    lead2 = can.leading_term_check(F2, A1, cfg)
    leadm = can.leading_term_check(Fm, A2, cfg)
    out_modes = [0, 1, 2]
    lam_modes = [-3, -2, -1]
    F2o1 = can.compute_F(can.a1_split_block(1, out_modes, lam_modes, A1, cfg),
                         A1, cfg)
    F1o1 = can.compute_F(can.a1_split_block(1, lam_modes, out_modes, A1, cfg),
                         A1, cfg)
    F2o2 = can.compute_F(can.a1_split_block(2, out_modes, lam_modes, A1, cfg),
                         A1, cfg)
    F1o2 = can.compute_F(can.a1_split_block(2, lam_modes, out_modes, A1, cfg),
                         A1, cfg)
    fact1 = can.factorization_check(F1, {(0,): (None, F1o1), (1,): (F2o1, None)},
                                    A1, cfg)
    fact2 = can.factorization_check(
        F2, {(0,): (None, F1o2), (1,): (F2o1, F1o1), (2,): (F2o2, None)},
        A1, cfg)
    cfg3 = CurveConfig(K=3, max_mode=8)
    Fb = {(0,): can.compute_F(can.unit_block(A1, cfg3), A1, cfg3),
          (1,): can.compute_F(can.a1_block(1, modes, A1, cfg3), A1, cfg3),
          (2,): can.compute_F(can.a1_block(2, modes, A1, cfg3), A1, cfg3)}
    cocycle = can.coproduct_identity_checks(
        Fb, [((1,), (0,)), ((0,), (1,)), ((1,), (1,))], A1, cfg3)
    ok = (
        can.check_reproducing(F1, cfg) and can.check_reproducing(F2, cfg)
        and can.check_reproducing(Fm, cfg)
        and lead1["valuation_ok"] and lead1["leading_slice_ok"]
        and lead2["valuation_ok"] and lead2["leading_slice_ok"]
        and leadm["valuation_ok"] and leadm["leading_slice_ok"]
        and fact1["factorization_zero_deviation"]
        and fact2["factorization_zero_deviation"]
        and cocycle["all"]
    )
    _report("10 canonical tensor: reproducing, valuation law and leading "
            "slice (incl. composite root), factorization, cocycle", ok)


def test_criterion_11_cartan_tower():
    ok = True
    for cartan in (A1, A2):
        inv = ct.check_T_inverse(cartan, CFG6)
        ok = (ok and inv["left_inverse"] and inv["right_inverse"]
              and inv["mod_hbar_is_symmetrized_cartan"])
        cr = ct.c_r_elements(cartan, CurveConfig(K=4, max_mode=5))
        ok = ok and cr["solve_consistent"] and cr["antisymmetry"]
    _report("11 operator tower: T T^{-1} = id to h^6, mod-h blocks, "
            "tensor antisymmetry at K=4", ok)


def test_criterion_12_report_determinism():
    cfg = RunConfig()
    _, r1 = run("verify-all", cfg)
    _, r2 = run("verify-all", cfg)
    ok = dump_report(r1) == dump_report(r2) and r1["pass"]
    _report("12 two verify-all runs produce byte-identical passing reports", ok)
