import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurrents.series import (
    HLaurent,
    HSeries,
    KernelFn,
    Region,
    Window,
    divide_linear,
    expand_linear_ratio,
    expand_pole,
    expand_shifted_pole_inv,
    hs_arith,
    kf_arith,
    linear_factor,
)

ZW = Region(("z", "w"))


def w2(h=6):
    return Window.cube(-h, h, 2)


class TestHSeries:
    def test_difference_of_squares(self):
        a = HSeries([1, 1], 3)
        b = HSeries([1, -1], 3)
        assert hs_arith(a, b, "mul") == HSeries([1, 0, -1], 3)

    def test_geometric_inverse(self):
        assert hs_arith(HSeries([1, -1], 3), None, "inv") == HSeries([1, 1, 1], 3)

    def test_exp_log_round_trip_against_composition_oracle(self):
        # oracle: compose the truncated log and exp series directly
        K = 4
        log_coeffs = [Q(0)] + [Q((-1) ** (k + 1), k) for k in range(1, K)]
        # evaluate exp(y) with y = log(1+h) by powers of the polynomial y
        acc = [Q(0)] * K
        acc[0] = Q(1)
        power = [Q(0)] * K
        power[0] = Q(1)
        fact = 1
        for j in range(1, K):
            nxt = [Q(0)] * K
            for i, c in enumerate(power):
                if not c:
                    continue
                for k, d in enumerate(log_coeffs):
                    if i + k < K and d:
                        nxt[i + k] += c * d
            power = nxt
            fact *= j
            for k in range(K):
                acc[k] += power[k] / fact
        oracle = HSeries(acc)
        lib = HSeries([1, 1], K).log().exp()
        assert lib == oracle == HSeries([1, 1, 0, 0], K)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            HSeries([0, 1], 3).inv()
        with pytest.raises(ValueError):
            HSeries([1, 1], 3).exp()
        with pytest.raises(ValueError):
            HSeries([2, 0], 3).log()

    def test_eq_requires_equal_K(self):
        a, b = HSeries([1, 0], 2), HSeries([1], 1)
        assert a != b
        assert len({a, b}) == 2
        assert HSeries([1, 2, 3]) != HSeries([1, 2])
        assert HSeries([1, 2], 3) == HSeries([1, 2, 0])

    def test_min_truncation_interop(self):
        a = HSeries([1, 2, 3], 3)
        b = HSeries([1, 1], 2)
        assert (a * b).K == 2

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_ring_axioms(self, xs, ys, zs):
        a, b, c = HSeries(xs, 4), HSeries(ys, 4), HSeries(zs, 4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a

    @given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def test_inv_mul_is_one(self, xs):
        if xs[0] == 0:
            xs[0] = 1
        a = HSeries(xs, 4)
        assert a * a.inv() == HSeries.one(4)


class TestHLaurent:
    def test_division_with_offsets(self):
        a = HLaurent(1, HSeries([2, 1], 4))
        b = HLaurent(-1, HSeries([4], 4))
        q = a / b
        assert q.offset + q.hs.valuation() == 2
        assert (q * b - a).is_zero()


class TestKernelFn:
    def test_additive_identity(self):
        f = KernelFn.monomial((1, -2), HSeries.one(4), ZW, w2(), 4)
        zero = KernelFn.zero(ZW, w2(), 4)
        assert kf_arith(f, zero, "add") == f

    def test_monomial_product_window(self):
        a = KernelFn.monomial((4, 0), HSeries.one(3), ZW, w2(), 3)
        b = KernelFn.monomial((3, 0), HSeries.one(3), ZW, w2(), 3)
        prod = a.mul(b)
        assert prod.is_zero() and prod.lossy  # 4 + 3 escapes a |6| window

    def test_geometric_series_oracle(self):
        # (z - w) * expand(1/(z-w)) = 1 inside the window
        window = Window.cube(-8, 8, 2)
        e = expand_pole(ZW, "z", "w", window, 4)
        f = linear_factor(ZW, "z", "w", 0, window, 4)
        prod = f.mul(e, window).restrict(Window.cube(-6, 6, 2), clear_loss=True)
        assert prod == KernelFn.const(1, ZW, Window.cube(-6, 6, 2), 4)

    def test_region_mismatch(self):
        a = KernelFn.const(1, ZW, w2(), 4)
        b = KernelFn.const(1, Region(("w", "z")), w2(), 4)
        with pytest.raises(ValueError):
            a.mul(b)

    def test_shift_subst_taylor(self):
        # z^2 -> z^2 + 2c h z + c^2 h^2
        f = KernelFn.monomial((2, 0), HSeries.one(4), ZW, w2(), 4)
        g = f.shift_subst("z", 3)
        assert g.coefficient((2, 0)) == HSeries.one(4)
        assert g.coefficient((1, 0)) == HSeries.hbar(4, 1, 6)
        assert g.coefficient((0, 0)) == HSeries.hbar(4, 2, 9)

    def test_shift_subst_binomial_oracle(self):
        # z^{-1} -> sum_k (-1)^k h^k z^{-1-k}, the binomial series
        K = 5
        f = KernelFn.monomial((-1, 0), HSeries.one(K), ZW, w2(8), K)
        g = f.shift_subst("z", 1)
        for k in range(K):
            assert g.coefficient((-1 - k, 0)) == HSeries.hbar(K, k, (-1) ** k)

    def test_zero_shift_identity(self):
        f = KernelFn.monomial((2, -1), HSeries([1, 2], 4), ZW, w2(), 4)
        assert f.shift_subst("z", 0) == f

    @given(st.integers(-3, 3), st.integers(1, 3))
    @settings(max_examples=25)
    def test_shift_inverse_property(self, c, e):
        K = 4
        f = KernelFn.monomial((e, 0), HSeries.one(K), ZW, Window.cube(-9, 9, 2), K)
        g = f.shift_subst("z", c).shift_subst("z", -c)
        assert (g - f).restrict(Window.cube(-5, 5, 2), clear_loss=True).is_zero()

    def test_diff_op_shift_minus_one_on_constant(self):
        # (e^{h d} - 1)/d applied to 1 gives h
        from qcurrents.kernels import shift_minus_one_series

        K = 4
        one = KernelFn.const(1, ZW, w2(), K)
        out = one.diff_op("z", shift_minus_one_series(1, K))
        assert out == KernelFn.const(0, ZW, w2(), K).copy_with(
            terms={(0, 0): HSeries.hbar(K, 1)})

    def test_diff_op_identity_and_derivative(self):
        K = 3
        f = KernelFn.monomial((3, 0), HSeries.one(K), ZW, w2(), K)
        ident = [HSeries.one(K)]
        assert f.diff_op("z", ident) == f
        d = f.diff("z")
        assert d.coefficient((2, 0)) == HSeries.const(3, K)

    def test_diff_op_even_in_shift_scale(self):
        from qcurrents.kernels import shift_difference_series

        K = 5
        f = expand_pole(ZW, "z", "w", Window.cube(-9, 9, 2), K)
        a = f.diff_op("z", shift_difference_series(2, K))
        b = f.diff_op("z", shift_difference_series(-2, K))
        assert (a + b).is_zero()  # odd operator: flips sign with the scale

    def test_substitute_diagonal(self):
        f = linear_factor(ZW, "z", "w", 0, w2(), 4)
        assert f.substitute_var("z", "w", 0).is_zero()

    def test_substitute_forced_root(self):
        # z - w + h vanishes at z = w - h
        f = linear_factor(ZW, "z", "w", 1, w2(), 4)
        assert f.substitute_var("z", "w", -1).is_zero()

    def test_substitute_collapses_expansion(self):
        # restrict the product to the certified interior before substituting:
        # the telescoping boundary term sits at the window edge
        window = Window.cube(-9, 9, 2)
        e = expand_pole(ZW, "z", "w", window, 4)
        f = linear_factor(ZW, "z", "w", 0, window, 4)
        prod = f.mul(e, window).restrict(Window.cube(-7, 7, 2), clear_loss=True)
        got = prod.substitute_var("w", "z", 0).restrict(
            Window.cube(-5, 5, 1), clear_loss=True)
        assert got == KernelFn.const(1, Region(("z",)), Window.cube(-5, 5, 1), 4)

    def test_swap21(self):
        f = KernelFn.monomial((2, -1), HSeries.one(3), ZW, w2(), 3)
        g = f.swap21()
        assert g.region.order == ("w", "z")
        assert g.coefficient((2, -1)) == HSeries.one(3)  # storage follows order
        assert g.swap21() == f

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
           st.integers(-4, 4))
    @settings(max_examples=20)
    def test_swap_linearity_and_involution(self, a, b, c, d):
        f = KernelFn.monomial((a, b), HSeries.one(3), ZW, w2(), 3)
        g = KernelFn.monomial((c, d), HSeries([0, 2], 3), ZW, w2(), 3)
        assert (f + g).swap21() == f.swap21() + g.swap21()
        assert (f + g).swap21().swap21() == f + g

    def test_relabel_commutes_with_arith(self):
        f = KernelFn.monomial((1, -1), HSeries.one(3), ZW, w2(), 3)
        g = KernelFn.monomial((0, 2), HSeries([0, 1], 3), ZW, w2(), 3)
        ren = {"z": "a", "w": "b"}
        lhs = f.mul(g).rename(ren)
        rhs = f.rename(ren).mul(g.rename(ren))
        assert lhs == rhs

    def test_divide_linear_exact_and_remainder(self):
        window = Window.cube(-6, 6, 2)
        h = KernelFn(ZW, {(2, -1): HSeries.one(4), (0, 1): HSeries.hbar(4, 1)},
                     window, 4)
        f = linear_factor(ZW, "z", "w", 0, Window.cube(-7, 7, 2), 4)
        prod = f.mul(h.restrict(window), Window.cube(-7, 7, 2))
        q = divide_linear(prod, "z", "w")
        assert (q - h.embed(q.region, q.window)).is_zero()
        with pytest.raises(ValueError):
            divide_linear(KernelFn.const(1, ZW, window, 4), "z", "w")

    def test_expand_linear_ratio_times_denominator(self):
        window = Window.cube(-9, 9, 2)
        K = 5
        r = expand_linear_ratio(ZW, "z", "w", 1, -1, window, K)
        den = linear_factor(ZW, "z", "w", -1, window, K)
        num = linear_factor(ZW, "z", "w", 1, window, K)
        prod = den.mul(r, window).restrict(Window.cube(-5, 5, 2), clear_loss=True)
        assert prod == num.restrict(Window.cube(-5, 5, 2))

    def test_json_round_trip(self):
        f = KernelFn(ZW, {(1, -2): HSeries([Q(1, 3), 0, 2], 3)}, w2(), 3)
        data = f.to_json()
        assert data["terms"][0]["hbar_coeffs"][0] == "1/3"
        assert KernelFn.from_json(data) == f


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-4, 4)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-4, 4)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-4, 4)), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_kernel_ring_axioms(ta, tb, tc):
    def mk(triples):
        terms = {}
        for p, q, c in triples:
            terms[(p, q)] = terms.get((p, q), HSeries.zero(3)) + \
                HSeries.const(c, 3)
        return KernelFn(ZW, terms, Window.cube(-12, 12, 2), 3)

    a, b, c = mk(ta), mk(tb), mk(tc)
    big = Window.cube(-12, 12, 2)
    assert a.mul(b, big).mul(c, big) == a.mul(b.mul(c, big), big)
    assert a.mul(b + c, big) == a.mul(b, big) + a.mul(c, big)
    assert a + b == b + a


def _product_shifted_pole_inv(region, large, small, a, window, K):
    """Reference construction of 1/(x_large - x_small - a*h): the window
    products E * sum_m (a h E)^m with E = expand_pole."""
    a = Q(a)
    E = expand_pole(region, large, small, window, K)
    if a == 0:
        return E
    out = E
    power = E
    ah = HSeries.hbar(K, 1, a)
    for _ in range(1, K):
        power = power.mul(E, window).scalar_mul(ah)
        if power.is_zero():
            break
        out = out + power
    return out


def test_shifted_pole_closed_form_matches_products():
    rng = random.Random(3)
    names = ("x1", "x2", "x3", "x4")
    shifts = [0, 1, -2, 3, Q(1, 2), Q(-3, 4), Q(5, 3)]
    cases = 0
    for n in (2, 3, 4):
        for K in range(1, 9):
            for _ in range(8):
                region = Region(tuple(rng.sample(names, n)))
                window = Window(tuple((-rng.randrange(0, 9), rng.randrange(0, 9))
                                      for _ in range(n)))
                il, is_ = sorted(rng.sample(range(n), 2))
                large, small = region.order[il], region.order[is_]
                a = rng.choice(shifts)
                got = expand_shifted_pole_inv(region, large, small, a, window, K)
                want = _product_shifted_pole_inv(region, large, small, a,
                                                 window, K)
                assert got.terms == want.terms
                assert (got.region, got.window, got.K, got.lossy) == \
                    (want.region, want.window, want.K, want.lossy)
                cases += 1
    assert cases == 192
