import itertools
import random
from pathlib import Path
from fractions import Fraction as Q

import pytest

from qcurrents import cli, pairing, series, shuffle
from qcurrents.cartan import cartan_by_name
from qcurrents.geometry import CurveConfig, pair_K
from qcurrents.pairing import (
    annihilator_check,
    check_coproduct_rule,
    check_hopf_rules,
    check_product_rule,
    delta_B,
    gram,
    pair,
    word_degree,
)
from qcurrents.series import HSeries, Region, Window, clear_memos, expand_pole
from qcurrents.shuffle import FOElement, embed_generator, fo_zero, star

A1 = cartan_by_name("A1")
A2 = cartan_by_name("A2")
CFG = CurveConfig(K=4, max_mode=8)
K = CFG.K


def test_degree_mismatch_is_zero():
    e = embed_generator(0, 1, A1, K)
    assert pair(e, ((0, 1), (0, 2)), A1, CFG).is_zero()
    assert pair(e, (), A1, CFG).is_zero()


def test_single_letter_matches_residue_pairing():
    for a in range(-4, 4):
        for b in range(-4, 4):
            lhs = pair(embed_generator(0, a, A1, K), ((0, b),), A1, CFG)
            rhs = pair_K(CFG.mode(a), CFG.mode(b))
            assert lhs == rhs


def _oracle_two_residue(P, word):
    """Independent two-variable residue computation: expand the inverse
    half-exchange weight by hand as a plain dict series and extract the
    (-1, -1) coefficient."""
    (i1, b), (i2, c) = word
    s = Q(A1.pairing(0, 0), 2)
    # weight (u1-u2)/(u1-u2+s h) = 1 + sum_{j>=1} (-s h)^j (u1-u2)^{-j},
    # each (u1-u2)^{-j} = sum_i C(j-1+i, i) u1^{-j-i} u2^{i}
    depth = 40
    weight = {(0, 0): {0: Q(1)}}
    from math import comb

    for j in range(1, K):
        coeff = (-s) ** j
        for i in range(depth):
            key = (-j - i, i)
            row = weight.setdefault(key, {})
            row[j] = row.get(j, Q(0)) + comb(j - 1 + i, i) * coeff
    total = HSeries.zero(K)
    for (p, q_), hs in P.num.terms.items():
        for (wa, wb), ks in weight.items():
            if p + wa + b == -1 and q_ + wb + c == -1:
                for k, cf in ks.items():
                    total = total + hs * HSeries.hbar(K, k, cf)
    return total


def test_two_residue_oracle():
    for (p, q_, b, c) in [(0, -1, -1, 0), (1, -2, 0, 0), (-1, -1, 0, 0),
                          (2, 0, -2, -3), (0, 0, -1, -2)]:
        P = star(embed_generator(0, p, A1, K),
                 embed_generator(0, q_, A1, K), A1)
        word = ((0, b), (0, c))
        assert pair(P, word, A1, CFG) == _oracle_two_residue(P, word)


def test_length_two_has_first_order_correction():
    P = star(embed_generator(0, 0, A1, K), embed_generator(0, 0, A1, K), A1)
    v = pair(P, ((0, 0), (0, -1)), A1, CFG)
    assert v.coeffs[0] == 0 and v.coeffs[1] == Q(-2)


def test_bilinearity_and_grading():
    a = embed_generator(0, 1, A1, K)
    b = embed_generator(0, -2, A1, K)
    w = ((0, -2),)
    lhs = pair(a + b, w, A1, CFG)
    assert lhs == pair(a, w, A1, CFG) + pair(b, w, A1, CFG)


class TestDeltaB:
    def test_counit_components(self):
        w = ((0, 2), (0, -1))
        comps = delta_B(w, A1, CFG)
        full_left = [c for c in comps if not c[1]]
        full_right = [c for c in comps if not c[0]]
        assert len(full_left) == 1 and full_left[0][0] == w
        assert len(full_right) == 1 and full_right[0][1] == w
        assert full_left[0][2] == HSeries.one(K)

    def test_degree_bookkeeping(self):
        w = ((0, 1), (1, 0))
        for w1, w2, hs in delta_B(w, A2, CFG):
            d1 = word_degree(w1, 2)
            d2 = word_degree(w2, 2)
            assert tuple(x + y for x, y in zip(d1, d2)) == (1, 1)


class TestHopfRules:
    def test_exhaustive_small_grid_a1(self):
        for m, mp, b, c in itertools.product(range(-2, 2), repeat=4):
            a = embed_generator(0, m, A1, K)
            a2 = embed_generator(0, mp, A1, K)
            assert check_product_rule(a, a2, ((0, b), (0, c)), A1, CFG)

    def test_exhaustive_coproduct_a1(self):
        for m, mp, b, c in itertools.product(range(-2, 1), repeat=4):
            big = star(embed_generator(0, m, A1, K),
                       embed_generator(0, mp, A1, K), A1)
            assert check_coproduct_rule(big, ((0, b),), ((0, c),), A1, CFG)

    def test_cross_group_samples(self):
        rng = random.Random(5)
        for _ in range(6):
            m, mp, b, c = (rng.randrange(-2, 2) for _ in range(4))
            a = embed_generator(0, m, A2, K)
            a2 = embed_generator(1, mp, A2, K)
            assert check_product_rule(a, a2, ((0, b), (1, c)), A2, CFG)
            assert check_product_rule(a, a2, ((1, c), (0, b)), A2, CFG)

    def test_cross_group_sign(self):
        # a product whose pairing reads the element's cross-group
        # denominator on both sides of the word order; flipping that
        # factor's sign breaks the first two rules for both words
        cfg = CurveConfig(K=3, max_mode=8)
        a = embed_generator(0, 1, A2, cfg.K)
        b = embed_generator(1, -2, A2, cfg.K)
        ab = star(a, b, A2)
        for word in (((0, -2), (1, 1)), ((1, 1), (0, -2))):
            assert check_product_rule(a, b, word, A2, cfg)
            assert check_product_rule(b, a, word, A2, cfg)
            assert check_coproduct_rule(ab, word[:1], word[1:], A2, cfg)
            assert pair(ab, word, A2, cfg) == HSeries.one(cfg.K)

    def test_suite(self):
        res = check_hopf_rules(A1, CFG, samples=10, seed=7)
        assert all(res.values())


class TestGram:
    def test_alpha1_dual_permutation(self):
        # complement rows z^{-1}..z^{-4} against regular words z^0..z^3 pair
        # as the unit permutation (antidiagonal in dual-sorted order)
        rows = [embed_generator(0, -a, A1, K) for a in range(1, 5)]
        cols = [((0, b),) for b in range(0, 4)]
        rep = gram(rows, cols, ((1,), (-1,)), A1, CFG)
        assert rep.nondegenerate and rep.det_valuation == 0
        assert abs(rep.det_leading) == 1
        for i in range(4):
            for j in range(4):
                want = HSeries.const(1 if i == j else 0, K)
                assert rep.matrix[i][j] == want

    def test_two_alpha1_unit_leading(self):
        modes = list(range(-3, 3))
        rows = []
        for p, q_ in itertools.combinations_with_replacement(modes, 2):
            rows.append(star(embed_generator(0, p, A1, K),
                             embed_generator(0, q_, A1, K), A1))
        cols = [((0, r), (0, s))
                for r, s in itertools.combinations_with_replacement(modes, 2)]
        rep = gram(rows, cols, ((2,), (-2,)), A1, CFG)
        assert rep.nondegenerate
        assert rep.det_valuation == 0 and rep.det_leading != 0
        assert rep.valuation_offset == 2

    def test_det_sign_under_row_swap(self):
        rows = [embed_generator(0, -a, A1, K) for a in range(1, 4)]
        cols = [((0, b),) for b in range(0, 3)]
        rep = gram(rows, cols, ((1,), (-1,)), A1, CFG)
        rows2 = [rows[1], rows[0], rows[2]]
        rep2 = gram(rows2, cols, ((1,), (-1,)), A1, CFG)
        assert rep.det_valuation == rep2.det_valuation
        assert rep.det_leading == -rep2.det_leading

    def test_empty_block(self):
        rep = gram([], [], ((0,), (0,)), A1, CFG)
        assert rep.matrix == [] and not rep.kernel_basis

    def test_report_json_round_trip_fields(self):
        rows = [embed_generator(0, -1, A1, K)]
        cols = [((0, 0),)]
        rep = gram(rows, cols, ((1,), (-1,)), A1, CFG)
        data = rep.to_json()
        assert data["nondegenerate"] and data["valuation_offset"] == 1


class TestAnnihilator:
    def test_full_report(self):
        res = annihilator_check(A1, CFG)
        assert res["out_pairings_zero_deg1"]
        assert res["out_pairings_zero_deg2"]
        assert res["rank_matches"]

    def test_out_by_out_block_vanishes(self):
        # regular modes against regular modes die by residue of a polynomial
        for a in range(0, 3):
            for b in range(0, 3):
                v = pair(embed_generator(0, a, A1, K), ((0, b),), A1, CFG)
                assert v.is_zero()


def test_gram_determinant_recompute_matches():
    rows = [embed_generator(0, -a, A1, K) for a in range(1, 4)]
    cols = [((0, b),) for b in range(0, 3)]
    rep1 = gram(rows, cols, ((1,), (-1,)), A1, CFG)
    rep2 = gram(rows, cols, ((1,), (-1,)), A1, CFG)
    assert rep1.det_valuation == rep2.det_valuation
    assert rep1.det_leading == rep2.det_leading
    assert all(a == b for r1, r2 in zip(rep1.matrix, rep2.matrix)
               for a, b in zip(r1, r2))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "pair clamps its window at PAIR_HALF_WIDTH, so the read exponent -27 "
    "falls outside it and the residue silently reads 0"))
def test_pair_beyond_half_width():
    # the coefficient of u1^-27 u2^24 in the u1 >> u2 expansion of
    # (u1 - u2 - h)/(u1 - u2 + h) is -650 h^3
    P = star(embed_generator(0, 0, A1, K), embed_generator(0, 0, A1, K), A1)
    assert pair(P, ((0, 26), (0, -25)), A1, CFG) == HSeries.hbar(K, 3, -650)


def test_degenerate_gram_reports_kernel():
    # a repeated row makes the block singular; the report carries a
    # leading-order nullspace vector
    rows = [embed_generator(0, -1, A1, K), embed_generator(0, -1, A1, K)]
    cols = [((0, 0),), ((0, 1),)]
    rep = gram(rows, cols, ((1,), (-1,)), A1, CFG)
    assert not rep.nondegenerate
    assert rep.kernel_basis


class TestMemo:
    def test_equal_content_shares_value(self):
        clear_memos()
        w = ((0, 0), (0, -1))
        a = star(embed_generator(0, 0, A1, K), embed_generator(0, 1, A1, K), A1)
        b = FOElement(a.degrees, a.num.copy_with())
        assert a is not b
        first = pair(a, w, A1, CFG)
        entries = len(pair.memo)
        assert pair(b, w, A1, CFG) is first
        assert len(pair.memo) == entries

    def test_rebuilt_element_gets_its_own_value(self):
        # each element is freed right before the next one is built, with
        # nothing allocated in between, so CPython gives every element the
        # same id(); a memo keyed on identity returns the first one's value
        clear_memos()
        w = ((0, -1),)
        cases = [(embed_generator(0, m, A1, K).num,
                  pair_K(CFG.mode(m), CFG.mode(-1))) for m in range(-3, 3)]
        assert sum(not want.is_zero() for _, want in cases) == 1
        for num, want in cases:
            P = FOElement((1,), num)
            assert pair(P, w, A1, CFG) == want
            del P

    def test_truncation_orders_get_separate_entries(self):
        clear_memos()
        cfg = CurveConfig(K=4, max_mode=8)
        # zero numerators of different K have the same (empty) terms
        v3 = pair(fo_zero((0,), 3), (), A1, cfg)
        v4 = pair(fo_zero((0,), 4), (), A1, cfg)
        assert (v3.K, v4.K) == (3, 4)
        P = star(embed_generator(0, 0, A1, 4), embed_generator(0, 0, A1, 4), A1)
        w = ((0, 0), (0, -1))
        assert pair(P, w, A1, CurveConfig(K=3, max_mode=8)).K == 3
        assert pair(P, w, A1, cfg).K == 4
        assert len(pair.memo) == 4

    def test_cli_run_empties_every_memo(self):
        expand_pole(Region(("z", "w")), "z", "w", Window.cube(-4, 4, 2), 3)
        pair(embed_generator(0, 0, A1, K), ((0, -1),), A1, CFG)
        assert any(series._MEMOS)
        status, _ = cli.run("kernels", cli.RunConfig())
        assert status == 0
        assert series._MEMOS and not any(series._MEMOS)

    def test_tracer_counts_memoized_functions(self, monkeypatch):
        # the per-layer benchmark metrics read these groups; the tracer wraps
        # only plain functions, so a C-level cache would read 0 calls here
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracer

        clear_memos()
        cfg = CurveConfig(K=3, max_mode=8)
        traced = tracer.Tracer().install()
        try:
            def e(m):
                return shuffle.embed_generator(0, m, A1, cfg.K)
            rows = [shuffle.star(e(0), e(1), A1),
                    shuffle.star(e(-1), e(-2), A1)]
            cols = [((0, 0), (0, -1)), ((0, -2), (0, 1))]
            pairing.gram(rows, cols, ((2,), (-2,)), A1, cfg)
        finally:
            traced.uninstall()
        assert traced.group("pairing.pair").calls == 4
        assert traced.group("shuffle.star").calls == 2
        assert traced.group("series.expand").calls == 6
        memoized = (pair, star, series.expand_shifted_pole_inv,
                    series.expand_linear_ratio)
        assert all(fn.memo for fn in memoized)
        clear_memos()
        assert not any(fn.memo for fn in memoized)
        assert not any(series._MEMOS)
