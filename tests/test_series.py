import copy
import itertools
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
    linear_factor,
    row_reduce,
)
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
