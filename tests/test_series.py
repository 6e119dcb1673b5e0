import copy
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurrents.series import (
    HLaurent,
    HSeries,
    KernelFn,
    T,
    Region,
    Window,
    _from_ints,
    divide_linear,
    expand_difference,
    expand_linear_ratio,
    expand_pole,
    expand_shifted_pole_inv,
    linear_factor,
    row_reduce,
)
from qcurrents.geometry import project
from qcurrents.pairing import _mod_hbar

ZW = Region(("z", "w"))


def w2(h=6):
    return Window.cube(-h, h, 2)


class TestHSeries:
    def test_difference_of_squares(self):
        a = HSeries([1, 1], 3)
        b = HSeries([1, -1], 3)
        assert a * b == HSeries([1, 0, -1], 3)

    def test_geometric_inverse(self):
        assert HSeries([1, -1], 3).inv() == HSeries([1, 1, 1], 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            HSeries([0, 1], 3).inv()

    def test_eq_requires_equal_K(self):
        a, b = HSeries([1, 0], 2), HSeries([1], 1)
        assert a != b
        assert len({a, b}) == 2
        assert HSeries([1, 2, 3]) != HSeries([1, 2])
        assert HSeries([1, 2], 3) == HSeries([1, 2, 0])

    def test_truncate(self):
        hs = HSeries([1, 2, 3])
        assert hs.truncate(hs.K) is hs
        assert hs.truncate(2) == HSeries([1, 2])
        assert hs.truncate(5) == HSeries([1, 2, 3, 0, 0])
        assert hs.truncate(5).K == 5

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
        q = a * b.inv()
        assert q.offset + q.hs.valuation() == 2
        assert (q * b - a).is_zero()


class TestKernelFn:
    def test_additive_identity(self):
        f = KernelFn.monomial((1, -2), HSeries.one(4), ZW, w2(), 4)
        zero = KernelFn.zero(ZW, w2(), 4)
        assert f + zero == f

    def test_monomial_product_window(self):
        a = KernelFn.monomial((4, 0), HSeries.one(3), ZW, w2(), 3)
        b = KernelFn.monomial((3, 0), HSeries.one(3), ZW, w2(), 3)
        prod = a.mul(b)
        assert prod.is_zero()  # 4 + 3 escapes a |6| window

    def test_geometric_series_oracle(self):
        # (z - w) * expand(1/(z-w)) = 1 inside the window
        window = Window.cube(-8, 8, 2)
        e = expand_pole(ZW, "z", "w", window, 4)
        f = linear_factor(ZW, "z", "w", 0, window, 4)
        prod = f.mul(e, window).restrict(Window.cube(-6, 6, 2))
        assert prod == KernelFn.const(1, ZW, Window.cube(-6, 6, 2), 4)

    def test_eq_requires_equal_window_and_K(self):
        # a z^5 term outside the smaller window must not compare equal to zero
        region = Region(("z",))
        small = Window.cube(-3, 3, 1)
        big = KernelFn.monomial((5,), 1, region, Window.cube(-6, 6, 1), 3)
        zero = KernelFn.zero(region, small, 3)
        assert big != zero and zero != big
        assert big.restrict(small) == zero
        assert KernelFn.zero(region, small, 4) != zero
        assert KernelFn.zero(region, big.window, 3) != zero

    def test_expand_difference_rejects_positive_powers(self):
        t = KernelFn.monomial((1,), 1, T, Window(((-2, 1),)), 3)
        with pytest.raises(ValueError):
            expand_difference(t, ZW, "z", "w", w2())

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
        assert (g - f).restrict(Window.cube(-5, 5, 2)).is_zero()

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
        prod = f.mul(e, window).restrict(Window.cube(-7, 7, 2))
        got = prod.substitute_var("w", "z", 0).restrict(
            Window.cube(-5, 5, 1))
        assert got == KernelFn.const(1, Region(("z",)), Window.cube(-5, 5, 1), 4)

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
        prod = den.mul(r, window).restrict(Window.cube(-5, 5, 2))
        assert prod == num.restrict(Window.cube(-5, 5, 2))

    def test_json_round_trip(self):
        f = KernelFn(ZW, {(1, -2): HSeries([Q(1, 3), 0, 2], 3)}, w2(), 3)
        data = f.to_json()
        assert data["terms"][0]["hbar_coeffs"][0] == "1/3"

    def test_power_series_identities_and_domain(self):
        # the h^k coefficient of every series below has z-degree <= 2k <= 6,
        # so each window product is exact on [0, 6]
        region, window, K = Region(("z",)), Window(((0, 6),)), 4
        x = KernelFn(region, {(1,): HSeries.hbar(K, 1),
                              (2,): HSeries.hbar(K, 2, Q(1, 3))}, window, K)
        one = KernelFn.const(1, region, window, K)
        z = KernelFn.monomial((1,), 1, region, window, K)
        assert (x.exp() - one).log1p() == x
        f = one.scalar_mul(HSeries([2, 1], K)) + x
        assert f.mul(f.inv()) == one
        for bad in (one, z):
            with pytest.raises(ValueError):
                bad.exp()
            with pytest.raises(ValueError):
                bad.log1p()
        with pytest.raises(ValueError):
            x.inv()  # no unit constant term
        with pytest.raises(ValueError):
            (one + z).inv()  # non-constant part of h-valuation 0


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
                assert (got.region, got.window, got.K) == \
                    (want.region, want.window, want.K)
                cases += 1
    assert cases == 192


# ---------------------------------------------------------------------------
# exact elimination: row_reduce against independent oracles
# ---------------------------------------------------------------------------


def _leibniz(a):
    """Determinant by the permutation expansion."""
    n = len(a)
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Q((-1) ** inversions)
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def _rank(a):
    """Size of the largest nonzero minor."""
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if _leibniz([[a[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _matmul(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _rational_matrix(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2).map(Q), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


def _laurent_identity(n, K):
    return [[HLaurent(0, HSeries.const(int(i == j), K)) for j in range(n)]
            for i in range(n)]


def _is_laurent_identity(m):
    return all((x - int(i == j)).is_zero()
               for i, row in enumerate(m) for j, x in enumerate(row))


@given(st.integers(1, 4).flatmap(lambda n: _rational_matrix(n, n)))
@settings(max_examples=60, deadline=None)
def test_row_reduce_rational_det_and_inverse(a):
    n = len(a)
    ident = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    a_before, ident_before = copy.deepcopy(a), copy.deepcopy(ident)
    rows, inv, pivots, det = row_reduce(a, ident)
    assert (a, ident) == (a_before, ident_before)
    want = _leibniz(a)
    assert det == (want if want else None)
    if want:
        assert pivots == list(range(n)) and rows == ident
        assert _matmul(a, inv) == ident


@given(st.tuples(st.integers(1, 3), st.integers(1, 4))
       .flatmap(lambda shape: _rational_matrix(*shape)),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_row_reduce_rank_and_nullspace(a, K):
    # the h^1.. orders are noise: rank and nullspace read the h^0 matrix
    matrix = [[HSeries([x, 1], K) for x in row] for row in a]
    _, _, pivots, det = row_reduce(a)
    rank, basis, det0 = _mod_hbar(matrix)
    assert det0 == det
    assert rank == len(pivots) == _rank(a)
    assert (det is None) == (len(pivots) < len(a[0]))
    assert len(basis) == len(a[0]) - len(pivots)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


def _invertible_leading(n):
    return _rational_matrix(n, n).filter(lambda a: _leibniz(a) != 0)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           _invertible_leading(n),
           st.lists(st.integers(-2, 2), min_size=n, max_size=n))),
       st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_row_reduce_laurent_row_scaled(a0_and_k, K):
    # row i of G is h^{k_i} times row i of an invertible rational A0
    a0, ks = a0_and_k
    n = len(a0)
    G = [[HLaurent(k, HSeries.const(x, K)) for x in row]
         for k, row in zip(ks, a0)]
    _, inv, _, det = row_reduce(G, _laurent_identity(n, K))
    det = det.normalized()
    assert det.valuation() == sum(ks)
    assert det.hs.coeffs[0] == _leibniz(a0)
    assert _is_laurent_identity(_matmul(G, inv))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           _invertible_leading(n),
           st.lists(st.integers(-2, 2), min_size=n, max_size=n),
           st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                    min_size=n * n, max_size=n * n))),
       st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_row_reduce_laurent_column_scaled(data, K):
    # column j of G is h^{l_j} times column j of A0 + h A1 + h^2 A2 + ...
    a0, ls, higher = data
    n = len(a0)
    G = [[HLaurent(ls[j], HSeries([a0[i][j]] + higher[i * n + j], K))
          for j in range(n)] for i in range(n)]
    _, inv, _, det = row_reduce(G, _laurent_identity(n, K))
    det = det.normalized()
    assert det.valuation() == sum(ls)
    assert det.hs.coeffs[0] == _leibniz(a0)
    assert _is_laurent_identity(_matmul(G, inv))
    assert _is_laurent_identity(_matmul(inv, G))


def test_row_reduce_pivots_on_least_valuation():
    # [[h, 1], [1, 0]]: column 0 pivots on row 1 (valuation 0), not on the
    # first nonzero row; pivoting on h would pass through 1/h and leave
    # entries with one known order fewer
    K = 3
    h, one, zero = (HLaurent(0, HSeries.hbar(K)), HLaurent(0, HSeries.one(K)),
                    HLaurent(0, HSeries.zero(K)))
    G = [[h, one], [one, zero]]
    _, inv, pivots, det = row_reduce(G, _laurent_identity(2, K))
    assert pivots == [0, 1]
    assert (det.offset, det.hs.coeffs) == (0, (Q(-1), Q(0), Q(0)))
    want = [[HSeries.zero(K), HSeries.one(K)], [HSeries.one(K), -h.hs]]
    assert [[(x.offset, x.hs) for x in row] for row in inv] == \
        [[(0, x) for x in row] for row in want]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a least-valuation pivot whose row starts with a zero coefficient has "
    "fewer known orders than HLaurent.normalized reports, so G G^-1 differs "
    "from I on an order the result claims to know"))
def test_row_reduce_laurent_row_scaled_with_higher_orders():
    K = 3
    ks = (2, 0, 1)
    coeffs = [[[2, -2, 1], [2, 0, 1], [0, 2, -1]],
              [[0, 1, -1], [1, 0, -2], [1, 0, 1]],
              [[2, 2, -2], [-1, 0, 0], [-1, 0, 0]]]
    G = [[HLaurent(k, HSeries(c, K)) for c in row]
         for k, row in zip(ks, coeffs)]
    _, inv, _, det = row_reduce(G, _laurent_identity(3, K))
    assert det.normalized().valuation() == sum(ks)
    assert _is_laurent_identity(_matmul(G, inv))


# -- the integer-numerator HSeries against plain Fraction lists -------------

_RATIONAL = st.builds(Q, st.integers(-40, 40), st.integers(1, 30))
_COEFF = st.one_of(st.just(Q(0)), _RATIONAL)


def _coeff_lists(K):
    return st.lists(_COEFF, min_size=K, max_size=K)


def _is_canonical(hs):
    return (type(hs.den) is int and hs.den > 0
            and all(type(n) is int for n in hs.nums)
            and math.gcd(hs.den, *hs.nums) == 1
            and (hs.den == 1 or any(hs.nums)))


def _fraction_product(xs, ys):
    K = min(len(xs), len(ys))
    return [sum((xs[i] * ys[k - i] for i in range(k + 1)), Q(0))
            for k in range(K)]


def _fraction_inverse(xs):
    out = [1 / xs[0]]
    for n in range(1, len(xs)):
        s = sum((xs[k] * out[n - k] for k in range(1, n + 1)), Q(0))
        out.append(-s / xs[0])
    return out


def _fraction_shift(xs, k):
    if k >= 0:
        return ([Q(0)] * k + xs)[:len(xs)]
    if any(xs[:-k]):
        return ValueError
    return (xs[-k:] + [Q(0)] * -k)[:len(xs)]


@given(st.integers(1, 6).flatmap(_coeff_lists),
       st.integers(1, 6).flatmap(_coeff_lists), _COEFF, st.integers(-7, 7))
@settings(max_examples=200, deadline=None)
def test_hseries_matches_fraction_reference(xs, ys, c, k):
    a, b = HSeries(xs), HSeries(ys)
    zero = [Q(0)] * len(xs)
    cases = [
        (lambda: a + b, [x + y for x, y in zip(xs, ys)]),
        (lambda: a - b, [x - y for x, y in zip(xs, ys)]),
        (lambda: a - a, zero),
        (lambda: -a, [-x for x in xs]),
        (lambda: a * b, _fraction_product(xs, ys)),
        (lambda: a * c, [c * x for x in xs]),
        (lambda: c * a, [c * x for x in xs]),
        (lambda: a * k, [k * x for x in xs]),
        (lambda: a + c, [xs[0] + c] + xs[1:]),
        (lambda: k - a, [k - xs[0]] + [-x for x in xs[1:]]),
        (a.inv, _fraction_inverse(xs) if xs[0] else ValueError),
        (lambda: a.shift(k), _fraction_shift(xs, k)),
        (lambda: a.truncate(len(ys)), (xs + [Q(0)] * len(ys))[:len(ys)]),
        (lambda: a.subst_scale(c), [x * c**n for n, x in enumerate(xs)]),
    ]
    for op, want in cases:
        if want is ValueError:
            with pytest.raises(ValueError):
                op()
            continue
        got = op()
        assert list(got.coeffs) == want
        assert _is_canonical(got)
        built = HSeries(want)
        assert got == built and hash(got) == hash(built)


@given(st.integers(1, 6).flatmap(_coeff_lists), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_internal_constructor_agrees_with_init(xs, scale):
    hs = HSeries(xs)
    assert _is_canonical(hs)
    assert hs.coeffs == tuple(xs)
    # the same value over an unreduced common denominator
    den = math.lcm(*(x.denominator for x in xs)) * scale
    internal = _from_ints(den, [x.numerator * (den // x.denominator)
                                for x in xs])
    assert _is_canonical(internal)
    assert internal == hs and hash(internal) == hash(hs)
    assert (internal.den, internal.nums) == (hs.den, hs.nums)


def test_zero_series_has_denominator_one():
    third = HSeries([Q(1, 3), Q(-2, 3)])
    for zero in (third - third, third * 0, HSeries([0, 0]),
                 _from_ints(6, [0, 0]), HSeries.zero(2)):
        assert (zero.den, zero.nums) == (1, (0, 0))
        assert zero.coeffs == (Q(0), Q(0))


def _fraction_kernel_product(f, g, window):
    """The product as ``KernelFn.mul`` computed it over Fraction
    coefficients: the triple loop over terms, h-orders and the flattened
    nonzero coefficients of the second factor."""
    K = min(f.K, g.K)
    flat_b = []
    for e, hs in g.terms.items():
        for k, c in enumerate(hs.coeffs[:K]):
            if c:
                flat_b.append((e, k, c))
    acc = {}
    for ea, hsa in f.terms.items():
        for ka, ca in enumerate(hsa.coeffs[:K]):
            if not ca:
                continue
            for eb, kb, cb in flat_b:
                if kb >= K - ka:
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
                if window.contains(e):
                    row = acc.setdefault(e, [Q(0)] * K)
                    row[ka + kb] += ca * cb
    return {e: row for e, row in acc.items() if any(row)}


@st.composite
def _kernel_products(draw):
    n = draw(st.integers(1, 3))
    region = Region(("x", "y", "z")[:n])
    box = Window.cube(-3, 3, n)

    def kernel():
        K = draw(st.integers(1, 5))
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(-3, 3)] * n), _coeff_lists(K),
            max_size=6))
        return KernelFn(region, {e: HSeries(cs) for e, cs in terms.items()},
                        box, K)

    f, g = kernel(), kernel()
    # a target window narrower than the product's reach clips terms
    window = Window(tuple(draw(st.tuples(st.integers(-6, 0),
                                         st.integers(0, 6)))
                          for _ in range(n)))
    return f, g, window


@given(_kernel_products())
@settings(max_examples=150, deadline=None)
def test_kernel_mul_matches_fraction_triple_loop(case):
    f, g, window = case
    for target, got in ((window, f.mul(g, window)), (f.window, f.mul(g))):
        want = _fraction_kernel_product(f, g, target)
        assert got.window == target and got.K == min(f.K, g.K)
        assert {e: list(hs.coeffs) for e, hs in got.terms.items()} == want
        assert all(_is_canonical(hs) for hs in got.terms.values())


@st.composite
def _kernel_operands(draw):
    """Two kernels on different windows and truncations, the second holding
    the negatives of some terms of the first, and a clipping window."""
    n = draw(st.integers(1, 3))
    region = Region(("x", "y", "z")[:n])

    def window():
        return Window(tuple(draw(st.tuples(st.integers(-4, 0),
                                           st.integers(0, 4)))
                            for _ in range(n)))

    def terms(box, K):
        exps = st.tuples(*[st.integers(lo, hi) for lo, hi in box.bounds])
        drawn = draw(st.dictionaries(exps, _coeff_lists(K), max_size=6))
        return {e: HSeries(cs) for e, cs in drawn.items()}

    wf, wg = window(), window()
    kf, kg = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    f = KernelFn(region, terms(wf, kf), wf, kf)
    g_terms = terms(wg, kg)
    for e, hs in f.terms.items():
        if wg.contains(e) and draw(st.booleans()):
            g_terms[e] = -hs
    return f, KernelFn(region, g_terms, wg, kg), window()


@given(_kernel_operands(), st.fractions(-3, 3, max_denominator=4))
@settings(max_examples=150, deadline=None)
def test_internal_results_match_public_constructor(case, c):
    # mul, + , - and restrict build their results without re-checking the
    # terms, and copy_with (negation, scalar products, diff, hbar_scale,
    # divide_hbar, project) without re-checking the window; rebuilt through
    # the validating constructor they must not move
    f, g, clip = case
    results = (f.mul(g, clip), f.mul(g), g.mul(f), f + g, f - g, g - f,
               f - f, f.restrict(clip), (f + g).restrict(clip),
               -f, f.scalar_mul(c), f.scalar_mul(HSeries([c, 1, -c], g.K)),
               f.hbar_scale(c),
               f.scalar_mul(HSeries.hbar(f.K, 1, c)).divide_hbar(1),
               *(f.diff(v) for v in f.variables))
    if len(f.variables) == 1:
        results += (project(f, "R"), project(f, "L"))
    for r in results:
        assert r == KernelFn(r.region, dict(r.terms), r.window, r.K)
        assert not any(hs.is_zero() for hs in r.terms.values())
        assert all(hs.K == r.K for hs in r.terms.values())
    assert (f - f).is_zero()


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        KernelFn(ZW, {(7, 0): HSeries.one(2)}, w2(6), 2)
    with pytest.raises(ValueError):
        KernelFn(ZW, {}, Window.cube(-1, 1, 3), 2)
    f = KernelFn.monomial((1, 0), 1, ZW, w2(6), 2)
    with pytest.raises(ValueError):
        f.restrict(Window.cube(-1, 1, 3))
