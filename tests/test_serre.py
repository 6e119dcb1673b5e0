import random
from fractions import Fraction as Q

import pytest

from qcurrents.cartan import cartan_by_name
from qcurrents.geometry import CurveConfig
from qcurrents.kernels import build_window, exchange_kernel
from qcurrents.serre import (
    R3,
    ZW,
    SerreSystem,
    build_rhs_ratios,
    check_diagonal_divisibility,
    check_main_identity,
    check_pole_vanishing,
    divide_val1,
    kernel_factors,
    kernel_sum,
    membership_base,
    report_name,
    synthesize,
    word_slots,
)
from qcurrents.series import HSeries, KernelFn, Region, Window
from qcurrents.shuffle import serre_element

# the six (k, perm) keys of the m = 1 family, in report order
KEYS = ((0, (1, 2)), (1, (1, 2)), (2, (1, 2)),
        (0, (2, 1)), (1, (2, 1)), (2, (2, 1)))


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
        assert tuple(system.coeffs) == KEYS
        for key, kf in system.coeffs.items():
            name = report_name(key)
            K = kf.K
            assert kf.coefficient((0, 0, 0)) == HSeries.const(values[name], K)
            assert len(kf.terms) == 1

    def test_classical_limit_sums_to_zero(self, synth):
        total = 0
        for kf in synth["system"].coeffs.values():
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


def test_checks_refuse_a_box_past_the_windows():
    # a system synthesized on [-2, 2]^3 holds no term past that box; checked
    # on [-6, 6]^3 it read the missing terms as zero and passed both checks
    small = CurveConfig(K=3)
    system = synthesize(small, check=2)["system"]
    assert check_main_identity(system, small, check=2)["deviation_zero"]
    assert check_pole_vanishing(system, small, check=2)["all_zero"]
    for half_scale in (False, True):
        with pytest.raises(ValueError, match=r"\[-6, 6\] is not inside"):
            check_main_identity(system, small, check=6, half_scale=half_scale)
    with pytest.raises(ValueError, match=r"\[-3, 3\] is not inside"):
        check_pole_vanishing(system, small, check=3)


def test_diagonal_divisibility(cfg):
    assert check_diagonal_divisibility(cfg)


def test_general_family_reindexing(cfg, synth):
    # the (k, permutation) family satisfies the general-m kernel sum at m = 1
    family = synth["system"].coeffs
    total = kernel_sum(family, cfg, check=6)
    assert total.variables == ("z", "w1", "w2")
    assert total.window == Window.cube(-6, 6, 3)
    assert total.is_zero()


def test_key_derivations():
    # report name, membership base, word ordering and kernel factors of each
    # key, pinned as literals: the report bytes, the shuffle words and the
    # pole checks depend on them
    a, b, c = ("in", "z", "w1"), ("in", "z", "w2"), ("out", "w1", "w2")
    expected = (
        ("c_pre0", 1, ("z", "w1", "w2"), [a, b, c]),
        ("c_pre1", -2, ("w1", "z", "w2"), [b, c]),
        ("c_pre2", 1, ("w1", "w2", "z"), [c]),
        ("c_pre0_swap", 1, ("z", "w2", "w1"), [b, a]),
        ("c_pre1_swap", -2, ("w2", "z", "w1"), [a]),
        ("c_pre2_swap", 1, ("w2", "w1", "z"), []),
    )
    for key, (name, base, slots, factors) in zip(KEYS, expected):
        assert report_name(key) == name
        assert membership_base(key) == base
        assert word_slots(key) == slots
        assert kernel_factors(key) == factors


def test_kernel_sum_window_products(cfg, synth, monkeypatch):
    # with the exchange kernels memoized, one sum makes the nine window
    # products of its six terms and no more; each is kept where it can still
    # reach the check box, so the largest has 63 terms (592 on the full cube)
    family = synth["system"].coeffs
    kernel_sum(family, cfg, check=4)
    sizes = []
    mul = KernelFn.mul

    def counted(self, *a):
        out = mul(self, *a)
        sizes.append(len(out.terms))
        return out

    monkeypatch.setattr(KernelFn, "mul", counted)
    kernel_sum(family, cfg, check=4)
    assert len(sizes) == 9
    assert max(sizes) == 63


def kernel_sum_full_cube(coeffs, config, wide, s_in=-2, s_out=4):
    """The kernel sum with every product on the whole cube [-wide, wide]:
    the oracle for kernel_sum, which keeps only what can reach the box."""
    n = len(next(iter(coeffs))[1])
    names = [f"w{i}" for i in range(1, n + 1)]
    region = Region(("z", *names))
    window = Window.cube(-wide, wide, n + 1)

    def q(sigma, x, y):
        pair = exchange_kernel(sigma, config, Window.cube(-wide, wide, 2))
        pair = pair.rename({"z": x, "w": y}, region=Region((x, y)))
        return pair.embed(region, window)

    sigma = {"in": s_in, "out": s_out}
    total = None
    for key, coeff in coeffs.items():
        factors = [q(sigma[kind], x, y) for kind, x, y in kernel_factors(key)]
        term = coeff if coeff.region == region else coeff.embed(region, window)
        if factors:
            prod = factors[0]
            for f in factors[1:]:
                prod = prod.mul(f, window)
            term = term.mul(prod, window)
        total = term if total is None else total + term
    return total


@pytest.fixture(scope="module")
def oracle_systems(cfg, synth, small_synth, shuffle_system):
    """(config, check, system) of the K=5/check 8, K=4/check 6 and
    K=3/check 4 systems."""
    small, small_system = small_synth
    return {"K5": (cfg, 8, synth["system"]),
            "K4": (CurveConfig(K=4, max_mode=8), 6, shuffle_system),
            "K3": (small, 4, small_system)}


@pytest.mark.parametrize("sigmas", [(-2, 4), (-1, 2)], ids=str)
@pytest.mark.parametrize("name", ["K5", "K4", "K3"])
def test_kernel_sum_matches_full_cube(oracle_systems, name, sigmas):
    # the box sum equals the full-cube sum on the box, for the system and
    # for each key perturbed by h*w1; widening the cube by 7 moves nothing
    # (not repeated at K=5, where the widened oracle takes about 2 s a case)
    config, check, system = oracle_systems[name]
    wide = build_window(check, config.K)
    cubes = (wide,) if name == "K5" else (wide, wide + 7)
    box = Window.cube(-check, check, 3)
    families = [system.coeffs] + [_plus_hbar(system, key, (0, 1, 0)).coeffs
                                  for key in KEYS]
    for coeffs in families:
        total = kernel_sum(coeffs, config, check, *sigmas)
        assert total.window == box
        for cube in cubes:
            full = kernel_sum_full_cube(coeffs, config, cube, *sigmas)
            assert total == full.restrict(box)
    assert not total.is_zero()


@pytest.mark.parametrize("seed", range(4))
def test_kernel_sum_matches_full_cube_on_mixed_coefficients(seed):
    # random coefficients with terms of both signs in every variable across
    # the whole cube: the rule assumes no expansion direction
    rng = random.Random(seed)
    config, check = CurveConfig(K=3, max_mode=10), 2
    wide = build_window(check, config.K)
    window = Window.cube(-wide, wide, 3)

    def coeff():
        return KernelFn(R3, {
            tuple(rng.randint(-wide, wide) for _ in range(3)):
                HSeries([rng.randint(-3, 3) for _ in range(3)], config.K)
            for _ in range(25)}, window, config.K)

    coeffs = {key: coeff() for key in KEYS}
    total = kernel_sum(coeffs, config, check)
    full = kernel_sum_full_cube(coeffs, config, wide)
    assert not total.is_zero()
    assert total == full.restrict(Window.cube(-check, check, 3))


def test_kernel_sum_empty_family(cfg):
    with pytest.raises(ValueError, match="empty coefficient family"):
        kernel_sum({}, cfg, 4)


@pytest.mark.parametrize("far", [1, 3])
def test_kernel_sum_zero_when_every_term_misses_the_box(far):
    # every term sits at w2 exponent far*wide: the factors only raise the w2
    # exponent, so nothing reaches the box (far = 3 leaves no reach at all);
    # one coefficient is zero outright
    config, check = CurveConfig(K=3, max_mode=10), 2
    wide = build_window(check, config.K)
    window = Window.cube(-far * wide, far * wide, 3)
    coeffs = {key: KernelFn.monomial((0, 0, far * wide), 1, R3, window,
                                     config.K) for key in KEYS}
    coeffs[KEYS[1]] = KernelFn.zero(R3, window, config.K)
    box = Window.cube(-check, check, 3)
    total = kernel_sum(coeffs, config, check)
    assert total == KernelFn.zero(R3, box, config.K)
    assert kernel_sum_full_cube(coeffs, config, wide).restrict(box).is_zero()


def _plus_hbar(system, key, exps=(0, 0, 0)):
    """The system with h times the monomial at exps added to the coefficient
    of one key."""
    kf = system.coeffs[key]
    h = KernelFn.monomial(exps, HSeries.hbar(kf.K), kf.region, kf.window, kf.K)
    return SerreSystem({**system.coeffs, key: kf + h})


@pytest.mark.parametrize("key", KEYS, ids=report_name)
def test_main_identity_detects_perturbed_coefficient(cfg, synth, key):
    # the added h sits at the origin, inside every box
    system = _plus_hbar(synth["system"], key)
    assert not check_main_identity(system, cfg, check=4)["deviation_zero"]
    assert not check_main_identity(system, cfg, check=4,
                                   half_scale=True)["deviation_zero"]


# the residue checks that scaling each coefficient by (1 + h) breaks: one
# per pole of the coefficient's own kernel factors
POLE_LOCI = {"c_pre0": {"w1", "w2", "diag"}, "c_pre0_swap": {"w1", "w2"},
             "c_pre1": {"w2", "diag"}, "c_pre1_swap": {"w1"},
             "c_pre2": {"diag"}, "c_pre2_swap": set()}


@pytest.fixture(scope="module")
def small_synth():
    small = CurveConfig(K=3, max_mode=10)
    return small, synthesize(small, check=4)["system"]


@pytest.mark.parametrize("key", KEYS, ids=report_name)
def test_pole_checks_locate_scaled_coefficient(small_synth, key):
    # the product checks never fail: D vanishes on its own locus
    small, system = small_synth
    kf = system.coeffs[key]
    scaled = SerreSystem(
        {**system.coeffs, key: kf.scalar_mul(HSeries([1, 1], kf.K))})
    out = check_pole_vanishing(scaled, small, check=4)
    want = {f"residue_at_{locus}" for locus in POLE_LOCI[report_name(key)]}
    assert {name for name, ok in out.items() if not ok} == (
        want | {"all_zero"} if want else set())


def test_residue_at_w1_on_a_nonconstant_system():
    # c_pre0 = 1 + h(w1 - w2) and c_pre0_swap = 1 differ, so the w1 residue
    # c0 Nb Nc + c0s Nb Dc + c1s Db Dc vanishes only with the h^2 tail of
    # c_pre1_swap = -2 - h(w1 - w2) - 2h^2, where the three do not sum to 0
    K, check = 3, 4
    wide = build_window(check, K)
    window = Window.cube(-wide, wide, 3)

    def kf(terms):
        return KernelFn(R3, {e: HSeries(cs, K) for e, cs in terms.items()},
                        window, K)

    def with_tail(tail):
        return SerreSystem({
            (0, (1, 2)): kf({(0, 0, 0): [1], (0, 1, 0): [0, 1],
                             (0, 0, 1): [0, -1]}),
            (1, (1, 2)): kf({(0, 0, 0): [-2]}),
            (2, (1, 2)): kf({(0, 0, 0): [1]}),
            (0, (2, 1)): kf({(0, 0, 0): [1]}),
            (1, (2, 1)): kf({(0, 0, 0): [-2, 0, tail], (0, 1, 0): [0, -1],
                             (0, 0, 1): [0, 1]}),
            (2, (2, 1)): kf({(0, 0, 0): [1]}),
        })

    small = CurveConfig(K=K, max_mode=10)
    assert check_pole_vanishing(with_tail(-2), small, check)["residue_at_w1"]
    assert not check_pole_vanishing(with_tail(0), small, check)["residue_at_w1"]


@pytest.fixture(scope="module")
def shuffle_system():
    # the system the shuffle suite checks: synthesized at K=5, check 6, and
    # truncated to the suite's K=4
    return synthesize(CurveConfig(K=5, max_mode=8),
                      check=6)["system"].truncate(4)


@pytest.mark.parametrize("key", KEYS, ids=report_name)
def test_serre_element_detects_perturbed_coefficient(shuffle_system, key):
    # the shuffle suite's mode box: modes -3..2 with m1 <= m2
    a2 = cartan_by_name("A2")
    cfg = CurveConfig(K=4, max_mode=8)
    half = _plus_hbar(shuffle_system, key).rescale_hbar(Q(1, 2))
    modes = range(-3, 3)
    assert any(
        not serre_element(half, 0, 1, mz, m1, m2, a2, cfg).is_zero()
        for mz in modes for m1 in modes for m2 in modes if m1 <= m2)


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
