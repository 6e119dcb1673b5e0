from fractions import Fraction as Q

import pytest

from qcurrents.geometry import CurveConfig
from qcurrents.kernels import (
    ZW,
    check_closed_form,
    check_half_factorization,
    check_log_expansion_identity,
    check_regular_translates,
    eval_gamma,
    exchange_kernel,
    exchange_kernel_closed,
    green_defect,
    green_kernel,
    half_exchange_closed,
    half_exchange_kernel,
    half_kernel_correction,
    ode_residual,
    prolong_and_check_inverse,
    regular_exchange_part,
    shift_difference_series,
    shift_minus_one_series,
    solve_kernel_ode,
)
from qcurrents.series import (
    HSeries,
    KernelFn,
    Region,
    Window,
    clear_memos,
    expand_pole,
)


@pytest.fixture(scope="module")
def cfg():
    return CurveConfig(K=6, max_mode=10)


def test_green_matches_geometric_expansion(cfg):
    window = Window.cube(-6, 6, 2)
    G = green_kernel(cfg, window, Region(("w", "z")))
    assert G == expand_pole(Region(("w", "z")), "w", "z", window, cfg.K)


def test_green_defect_regular_and_window_stable(cfg):
    out = green_defect(cfg, check=10)
    assert out["regular"] and out["zero"]
    small = green_defect(cfg, check=6)["kernel"]
    big = green_defect(cfg, check=10)["kernel"].restrict(
        Window.cube(-6, 6, 2))
    assert small == big


class TestOdePair:
    def test_low_order_coefficients(self):
        K = 7
        pair = solve_kernel_ode(K)
        zero = (0,) * K
        g0 = tuple([1] + [0] * (K - 1))
        u, v = pair.green_coeff, pair.prefactor_log
        assert u.hbar_coefficient(1) == {zero: Q(-1)}
        assert not u.hbar_coefficient(2)
        assert u.hbar_coefficient(3) == {g0: Q(-1, 3)}
        assert v.hbar_coefficient(2) == {g0: Q(1, 2)}

    def test_substitution_residual(self):
        assert ode_residual(solve_kernel_ode(7))

    def test_eval_at_zero_scale_vanishes(self, cfg):
        pair = solve_kernel_ode(cfg.K)
        defect = green_defect(cfg, check=6)["kernel"].embed(
            ZW, Window.cube(-6, 6, 2))
        assert eval_gamma(pair.green_coeff, 0, defect).is_zero()

    def test_eval_leading_term_and_parity(self, cfg):
        pair = solve_kernel_ode(cfg.K)
        defect = green_defect(cfg, check=6)["kernel"].embed(
            ZW, Window.cube(-6, 6, 2))
        for s in (1, 2, -2):
            u = eval_gamma(pair.green_coeff, s, defect)
            assert u.coefficient((0, 0)) == HSeries.hbar(cfg.K, 1, -s)
        # two independent evaluations agree with the scale substitution
        u2 = eval_gamma(pair.green_coeff, 2, defect)
        um2 = eval_gamma(pair.green_coeff, -2, defect)
        assert u2.hbar_scale(-1) == um2


def test_correction_memo():
    clear_memos()
    cfg = CurveConfig(K=4, max_mode=2)
    out = half_kernel_correction(2, cfg)
    assert half_kernel_correction(Q(2), CurveConfig(K=4, max_mode=2)) is out
    assert half_kernel_correction(2, CurveConfig(K=5, max_mode=2)) is not out
    assert len(half_kernel_correction.memo) == 2
    clear_memos()
    assert not half_kernel_correction.memo
    assert half_kernel_correction(2, cfg)["tau"] == out["tau"]


def test_correction_constraint(cfg):
    for s in (0, 1, 2, -3):
        out = half_kernel_correction(s, cfg)
        assert out["projection_vanishes"]
        assert out["constraint_satisfied"]
        assert out["tau"].is_zero()


class TestExchangeKernel:
    def test_closed_forms(self, cfg):
        for s in (-2, -1, 1, 2, 4):
            assert check_closed_form(s, cfg, check=8)["match"]

    def test_order_zero_is_one(self, cfg):
        window = Window.cube(-6, 6, 2)
        q0 = exchange_kernel(0, cfg, window)
        assert q0 == KernelFn.const(1, ZW, window, cfg.K)

    def test_first_order_coefficient(self, cfg):
        # d/dh at h = 0 of the closed form is sigma * expand(1/(z-w))
        window = Window.cube(-8, 8, 2)
        for s in (1, 3):
            q = exchange_kernel(s, cfg, window)
            e = expand_pole(ZW, "z", "w", window, cfg.K)
            box = Window.cube(-5, 5, 2)
            lhs = {e2: hs.coeffs[1] for e2, hs in
                   q.restrict(box).terms.items()
                   if hs.coeffs[1]}
            rhs = {e2: hs.coeffs[0] * s for e2, hs in
                   e.restrict(box).terms.items()}
            assert lhs == rhs

    def test_inverse_identity(self, cfg):
        for s in (-2, 2, 4):
            out = prolong_and_check_inverse(s, cfg, check=8)
            assert out["deviation_zero"]

    def test_swap_symmetry_of_inverse_check(self, cfg):
        a = prolong_and_check_inverse(-1, cfg, check=6)
        b = prolong_and_check_inverse(1, cfg, check=6)
        assert a["deviation_zero"] and b["deviation_zero"]

    def test_regular_part(self, cfg):
        out = regular_exchange_part(2, cfg, check=6)
        assert out["is_one"] and out["in_one_plus_hbar"]
        out4 = regular_exchange_part(2, CurveConfig(K=4, max_mode=10), check=6)
        assert out4["is_one"]

    def test_regular_translates(self, cfg):
        res = check_regular_translates(1, cfg, check=6)
        assert all(res.values())


# the grid on which the kernels built in t are compared with the 2-D window
# construction; the windows include asymmetric ones and one where only the
# constant term survives
GRID_K = (1, 2, 3, 5, 8, 12)
GRID_WINDOWS = (
    Window.cube(-6, 6, 2),
    Window.cube(-1, 1, 2),
    Window(((-9, 2), (-3, 4))),
    Window(((-4, 8), (-7, 3))),
    Window(((0, 5), (-5, 0))),
)
GRID_SIGMA = (-2, -1, 0, 1, 2, 4, Q(1, 3))


def _window_exp(series, window, K):
    """exp(sum_k series[k] d_z^k) of 1/(z-w) by K-1 window products.

    The geometric expansion is written out term by term (the content of
    expand_pole), so the oracle shares no code with the map from t.
    """
    (zlo, _), (_, whi) = window.bounds
    pole = KernelFn(ZW, {(-1 - i, i): HSeries.one(K)
                         for i in range(whi + 1) if -1 - i >= zlo}, window, K)
    return pole.diff_op("z", series).exp(window)


def _prefix(kf, K):
    return KernelFn(kf.region, {e: hs.truncate(K) for e, hs in kf.terms.items()},
                    kf.window, K)


class TestKernelsInT:
    """exchange_kernel and half_exchange_kernel, built in t = z - w, against
    the two-variable window construction and under differential checks."""

    def test_equal_to_window_construction(self):
        cases = 0
        for K in GRID_K:
            cfg = CurveConfig(K=K, max_mode=2)
            for window in GRID_WINDOWS:
                for s in GRID_SIGMA:
                    assert exchange_kernel(s, cfg, window) == _window_exp(
                        shift_difference_series(s, K), window, K), (K, window, s)
                    assert half_exchange_kernel(s, cfg, window) == _window_exp(
                        shift_minus_one_series(Q(s) / 2, K), window, K), \
                        (K, window, s)
                    cases += 2
        assert cases == 420

    def test_truncation_is_h_prefix(self):
        window = Window(((-9, 2), (-3, 4)))
        for K in GRID_K[:-1]:
            lo = CurveConfig(K=K, max_mode=2)
            hi = CurveConfig(K=K + 1, max_mode=2)
            for s in GRID_SIGMA:
                assert exchange_kernel(s, lo, window) == _prefix(
                    exchange_kernel(s, hi, window), K)
                assert half_exchange_kernel(s, lo, window) == _prefix(
                    half_exchange_kernel(s, hi, window), K)

    def test_wider_window_restricts_to_narrower(self):
        cfg = CurveConfig(K=5, max_mode=2)
        wide = Window.cube(-12, 12, 2)
        for narrow in GRID_WINDOWS:
            for s in GRID_SIGMA:
                assert exchange_kernel(s, cfg, wide).restrict(narrow) == \
                    exchange_kernel(s, cfg, narrow)
                assert half_exchange_kernel(s, cfg, wide).restrict(narrow) == \
                    half_exchange_kernel(s, cfg, narrow)

    def test_exchange_kernel_memo(self):
        clear_memos()
        window = Window.cube(-6, 6, 2)
        cfg = CurveConfig(K=4, max_mode=2)
        q = exchange_kernel(2, cfg, window)
        assert exchange_kernel(Q(2), cfg, window) is q
        assert exchange_kernel(2, CurveConfig(K=4, max_mode=2), window) is q
        assert exchange_kernel(2, CurveConfig(K=5, max_mode=2), window).K == 5
        assert exchange_kernel(-2, cfg, window) != q
        assert len(exchange_kernel.memo) == 3
        clear_memos()
        assert not exchange_kernel.memo
        assert exchange_kernel(2, cfg, window) == q


class TestHalfKernel:
    def test_zero_scale(self, cfg):
        window = Window.cube(-6, 6, 2)
        assert half_exchange_kernel(0, cfg, window) == KernelFn.const(
            1, ZW, window, cfg.K)

    def test_first_order(self, cfg):
        window = Window.cube(-8, 8, 2)
        qp = half_exchange_kernel(2, cfg, window)
        closed = half_exchange_closed(2, cfg.K, window)
        box = Window.cube(-5, 5, 2)
        assert qp.restrict(box) == closed.restrict(box)

    def test_factorization(self, cfg):
        for s in (1, 2, 4):
            out = check_half_factorization(s, cfg, check=6)
            assert out["closed_form_match"] and out["factorization_zero"]


def test_log_expansion_identity():
    cfg = CurveConfig(K=5, max_mode=10)
    assert check_log_expansion_identity(cfg, check=8)["identity_zero"]


def test_log_expansion_first_order():
    # order-h coefficient of both sides is the swapped Green kernel
    cfg = CurveConfig(K=2, max_mode=10)
    assert check_log_expansion_identity(cfg, check=8)["identity_zero"]


def test_log_expansion_rescaled():
    # consistency persists at a different truncation (scale-substituted run)
    cfg = CurveConfig(K=4, max_mode=10)
    assert check_log_expansion_identity(cfg, check=6)["identity_zero"]


def test_closed_form_regions_are_prolongations(cfg):
    # the two region expansions multiply to 1 through the polynomial
    # cross identity; spot check the swapped-region expansion directly
    window = Window.cube(-8, 8, 2)
    q = exchange_kernel_closed(2, cfg.K, window, Region(("w", "z")))
    assert q.coefficient((0, 0)).coeffs[0] == 1


def test_zero_scale_regular_part_and_inverse(cfg):
    out = regular_exchange_part(0, cfg, check=6)
    assert out["is_one"]
    assert prolong_and_check_inverse(0, cfg, check=6)["deviation_zero"]


def test_eval_gamma_nonzero_substitution_oracle():
    # synthetic defect kernel z^2: g_0 -> z^2, g_1 -> 2z, g_2 -> 2
    from qcurrents.kernels import GammaSeries

    K = 5
    window = Window.cube(-8, 8, 2)
    gamma = KernelFn(ZW, {(2, 0): HSeries.one(K)}, window, K)
    mono_01 = tuple([1, 1] + [0] * (K - 2))        # g_0 g_1
    mono_22 = tuple([0, 0, 2] + [0] * (K - 3))     # g_2^2
    gs = GammaSeries({
        mono_01: HSeries.hbar(K, 2, 3),
        mono_22: HSeries.hbar(K, 1, 1),
    }, K)
    out = eval_gamma(gs, 2, gamma, window)
    # h -> 2h: 3 h^2 -> 12 h^2 on g_0 g_1 = 2 z^3; 1 h -> 2 h on g_2^2 = 4
    assert out.coefficient((3, 0)) == HSeries.hbar(K, 2, 24)
    assert out.coefficient((0, 0)) == HSeries.hbar(K, 1, 8)
    assert len(out.terms) == 2


def test_symmetric_split_correction_algebra():
    # the general-branch choice tau = -1/2 * constraint satisfies the
    # defining constraint whenever the constraint term is symmetric
    from fractions import Fraction

    K = 4
    window = Window.cube(-4, 4, 2)
    C = KernelFn(ZW, {(1, 2): HSeries.hbar(K, 1, 3),
                      (2, 1): HSeries.hbar(K, 1, 3),
                      (0, 0): HSeries.hbar(K, 2, -5)}, window, K)
    tau = C.scalar_mul(Fraction(-1, 2))
    defect = tau + tau.transpose_in_region() + C
    assert defect.is_zero()
