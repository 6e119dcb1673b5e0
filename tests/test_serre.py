from fractions import Fraction as Q

import pytest

from qcurrents.geometry import CurveConfig
from qcurrents.serre import (
    ZW,
    build_rhs_ratios,
    check_diagonal_divisibility,
    check_main_identity,
    check_pole_vanishing,
    divide_val1,
    glue_lemma,
    synthesize,
)
from qcurrents.series import HSeries, KernelFn, Region, Window


@pytest.fixture(scope="module")
def cfg():
    return CurveConfig(K=5, max_mode=10)


@pytest.fixture(scope="module")
def synth(cfg):
    return synthesize(cfg, check=8)


def test_ratio_leading_values(cfg):
    ratios = build_rhs_ratios(cfg, check=6)
    assert all(ratios.split_oracles.values())
    assert all(v == 1 for v in ratios.denominator_valuations.values())
    half = HSeries.const(Q(-1, 2), cfg.K)
    for name in (
        "pre0_over_pre1s_at_w1",
        "pre0s_over_pre1s_at_w1",
        "pre0_over_pre1_at_w2",
        "pre0s_over_pre1_at_w2",
        "pre0_over_pre1_at_diag",
        "pre2_over_pre1_at_diag",
    ):
        kf = getattr(ratios, name)
        assert kf.coefficient((0, 0)).coeffs[0] == Q(-1, 2), name
        dev = kf.coefficient((0, 0)) - half
        v = dev.valuation()
        assert v is None or v >= 1


def test_divide_val1_errors(cfg):
    window = Window.cube(-4, 4, 2)
    num = KernelFn.const(1, ZW, window, cfg.K)
    den = KernelFn.const(0, ZW, window, cfg.K).copy_with(
        terms={(0, 0): HSeries.hbar(cfg.K, 1, 2)})
    with pytest.raises(ValueError):
        divide_val1(num, den, window)  # numerator valuation 0
    ok = divide_val1(num.scalar_mul(HSeries.hbar(cfg.K, 1)), den, window)
    assert ok.coefficient((0, 0)).coeffs[0] == Q(1, 2)


class TestGlueLemma:
    def _sample_h(self, K, window):
        region = Region(("z1", "z2", "z3"))
        terms = {
            (0, 0, 0): HSeries.one(K),
            (1, 0, 2): HSeries.hbar(K, 1, 2),
            (0, 2, 1): HSeries.hbar(K, 2, Q(1, 3)),
        }
        return KernelFn(region, terms, Window.cube(-9, 9, 3), K)

    def test_round_trip_sections(self, cfg):
        # derive compatible sections from a known h, re-glue, and verify
        # both section equations hold for the rebuilt function
        K = cfg.K
        sigma, sigma_p = 1, -2
        h = self._sample_h(K, 9)
        f = h.substitute_var("z2", "z1", sigma).rename(
            {"z1": "z", "z3": "w"}, region=ZW)
        g = h.substitute_var("z3", "z2", sigma_p).rename(
            {"z1": "z", "z2": "w"}, region=ZW)
        built = glue_lemma(f, g, sigma, sigma_p)
        box = Window.cube(-5, 5, 2)
        sec1 = built.substitute_var("z2", "z1", sigma).rename(
            {"z1": "z", "z3": "w"}, region=ZW)
        assert (sec1 - f).restrict(box).is_zero()
        sec2 = built.substitute_var("z3", "z2", sigma_p).rename(
            {"z1": "z", "z2": "w"}, region=ZW)
        assert (sec2 - g).restrict(box).is_zero()

    def test_trivial_sections(self, cfg):
        K = cfg.K
        window = Window.cube(-6, 6, 2)
        zero = KernelFn.zero(ZW, window, K)
        assert glue_lemma(zero, zero, 1, 1).is_zero()
        kappa = KernelFn.const(Q(5, 2), ZW, window, K)
        built = glue_lemma(kappa, kappa, 1, 1)
        assert built == KernelFn.const(
            Q(5, 2), Region(("z1", "z2", "z3")), built.window, K)

    def test_incompatible_sections_refused(self, cfg):
        K = cfg.K
        window = Window.cube(-6, 6, 2)
        f = KernelFn.const(1, ZW, window, K)
        g = KernelFn.const(2, ZW, window, K)
        with pytest.raises(ValueError):
            glue_lemma(f, g, 0, 0)


class TestSynthesis:
    def test_membership(self, synth):
        assert all(synth["checks"]["membership"].values())

    def test_compatibilities(self, synth):
        c = synth["checks"]
        assert c["glue_compat"] and c["two_frame_compat"]
        assert c["t_diagonal_is_one"]
        assert c["swap_ratio_diagonal_agree"]
        assert all(v for k, v in c.items() if k.startswith("ratio_"))

    def test_rational_instance_constants(self, synth):
        values = {"c_pre0": 1, "c_pre1": -2, "c_pre2": 1,
                  "c_pre0_swap": 1, "c_pre1_swap": -2, "c_pre2_swap": 1}
        system = synth["system"]
        for name, kf in zip(values, system.as_list()):
            K = kf.K
            assert kf.coefficient((0, 0, 0)) == HSeries.const(values[name], K)
            assert len(kf.terms) == 1

    def test_classical_limit_sums_to_zero(self, synth):
        total = 0
        for kf in synth["system"].as_list():
            total += kf.coefficient((0, 0, 0)).coeffs[0]
        assert total == 0

    def test_main_identity(self, synth, cfg):
        system = synth["system"]
        assert check_main_identity(system, cfg, check=8)["deviation_zero"]
        assert check_main_identity(system, cfg, check=8,
                                   half_scale=True)["deviation_zero"]

    def test_pole_vanishing(self, synth, cfg):
        out = check_pole_vanishing(synth["system"], cfg, check=8)
        assert out["all_zero"]


def test_diagonal_divisibility(cfg):
    assert check_diagonal_divisibility(cfg)


def test_general_family_reindexing(cfg, synth):
    # the six functions re-indexed as a (k, permutation) family satisfy the
    # general-m identity evaluator at m = 1
    from qcurrents.serre import check_general_identity, system_as_family

    fam = system_as_family(synth["system"])
    res = check_general_identity(fam, 1, cfg, check=6)
    assert res["deviation_zero"]


def test_divide_val1_nonconstant_round_trip(cfg):
    # quotient times denominator recovers the numerator for a denominator
    # with a genuine kernel tail
    window = Window.cube(-6, 6, 2)
    K = cfg.K
    den = KernelFn(ZW, {(0, 0): HSeries.hbar(K, 1, -4),
                        (1, 1): HSeries.hbar(K, 2, 2)}, window, K)
    num = KernelFn(ZW, {(1, 0): HSeries.hbar(K, 1, 2),
                        (0, 2): HSeries.hbar(K, 3, 5)}, window, K)
    q = divide_val1(num, den, window)
    back = q.mul(den, window)
    dev = (back - num).restrict(Window.cube(-3, 3, 2))
    # exact through one order below truncation (the division shifts once)
    assert all(all(c == 0 for c in hs.coeffs[:K - 1])
               for hs in dev.terms.values())
