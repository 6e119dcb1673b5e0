from fractions import Fraction as Q

import pytest

from qcurrents.canonical import (
    a1_block,
    a1_split_block,
    a2_mixed_block,
    check_reproducing,
    compute_F,
    coproduct_identity_checks,
    factorization_check,
    leading_term_check,
    min_root_summands,
    tensor_terms,
)
import qcurrents.pairing as pairing
from qcurrents.canonical import unit_block
from qcurrents.cartan import cartan_by_name
from qcurrents.geometry import CurveConfig
from qcurrents.pairing import concat, delta_B, pair, pair_combo, word_degree
from qcurrents.series import HSeries
from qcurrents.shuffle import embed_generator, split_pairs, star

A1 = cartan_by_name("A1")
A2 = cartan_by_name("A2")
CFG = CurveConfig(K=4, max_mode=8)
MODES = list(range(-3, 3))


def test_min_root_summands():
    assert min_root_summands((0,), A1) == 0
    assert min_root_summands((1,), A1) == 1
    assert min_root_summands((2,), A1) == 2
    assert min_root_summands((1, 1), A2) == 1
    assert min_root_summands((2, 1), A2) == 2
    assert min_root_summands((2, 2), A2) == 2


@pytest.fixture(scope="module")
def F1():
    return compute_F(a1_block(1, MODES, A1, CFG), A1, CFG)


@pytest.fixture(scope="module")
def F2():
    return compute_F(a1_block(2, MODES, A1, CFG), A1, CFG)


def test_degree_one_is_dual_mode_sum(F1):
    # F at the simple-root block is exactly sum_l e[dual l] (x) f[l]
    for i, row in enumerate(F1.C):
        for j, c in enumerate(row):
            mrow = F1.basis.row_labels[i][1]
            mcol = F1.basis.col_labels[j][1]
            if mrow + mcol == -1:
                assert not c.is_zero() and c.valuation() == 0
                assert c.normalized().hs.coeffs[0] == 1
            else:
                assert c.is_zero()


def test_reproducing(F1, F2):
    assert check_reproducing(F1, CFG)
    assert check_reproducing(F2, CFG)


def test_reproducing_against_sampled_word(F1):
    # <F, b (x) id> paired back against a row reproduces the Gram column
    from qcurrents.series import HLaurent

    b = ((0, 2),)
    acc = None
    probe = embed_generator(0, -3, A1, CFG.K)
    for x, y, c in tensor_terms(F1):
        t = c * HLaurent.from_hseries(
            pair(x, b, A1, CFG) * pair(probe, y, A1, CFG))
        acc = t if acc is None else acc + t
    want = HLaurent.from_hseries(pair(probe, b, A1, CFG))
    assert (acc - want).is_zero()


def test_leading_terms(F1, F2):
    r1 = leading_term_check(F1, A1, CFG)
    assert r1["ell"] == 1 and r1["valuation_ok"] and r1["leading_slice_ok"]
    r2 = leading_term_check(F2, A1, CFG)
    assert r2["ell"] == 2 and r2["valuation_ok"] and r2["leading_slice_ok"]


def test_a2_composite_block():
    modes = list(range(-2, 2))
    Fm = compute_F(a2_mixed_block(modes, A2, CFG), A2, CFG)
    assert check_reproducing(Fm, CFG)
    res = leading_term_check(Fm, A2, CFG)
    assert res["ell"] == 1
    assert res["valuation"] == -1  # ell - principal degree
    assert res["valuation_ok"] and res["leading_slice_ok"]
    assert Fm.offset == 1


def test_a2_composite_dual_oracle():
    # classical dual-basis oracle: the leading pairing of the bracket rows
    # against the bracket word combinations is -h * (dual permutation)
    K = CFG.K
    for p in (-2, -1, 0):
        m = -1 - p
        com = star(embed_generator(0, 0, A2, K),
                   embed_generator(1, p, A2, K), A2) - star(
            embed_generator(1, p, A2, K), embed_generator(0, 0, A2, K), A2)
        v = pair(com, ((0, 0), (1, m)), A2, CFG) - pair(
            com, ((1, m), (0, 0)), A2, CFG)
        assert v.coeffs[0] == 0 and v.coeffs[1] == Q(-1)


def test_factorization_alpha1(F1):
    out_modes = [0, 1, 2]
    lam_modes = [-3, -2, -1]
    F2o = compute_F(a1_split_block(1, out_modes, lam_modes, A1, CFG), A1, CFG)
    F1o = compute_F(a1_split_block(1, lam_modes, out_modes, A1, CFG), A1, CFG)
    res = factorization_check(F1, {(0,): (None, F1o), (1,): (F2o, None)},
                              A1, CFG)
    assert res["factorization_zero_deviation"]
    assert res["out_leg_structure"]


def test_bidegree_zero_trivial():
    # the degree-zero component of each factor is the unit tensor; covered
    # structurally by the factorization sub-block map using None
    assert min_root_summands((0,), A1) == 0


def test_cocycle_identities():
    cfg3 = CurveConfig(K=3, max_mode=8)
    Fb = {(1,): compute_F(a1_block(1, MODES, A1, cfg3), A1, cfg3),
          (2,): compute_F(a1_block(2, MODES, A1, cfg3), A1, cfg3)}
    res = coproduct_identity_checks(Fb, [((1,), (1,))], A1, cfg3)
    assert res["all"]


def test_singular_block_raises():
    # a block whose rows cannot see the columns is singular
    rows = [embed_generator(0, 0, A1, CFG.K)]
    from qcurrents.canonical import BlockBasis

    basis = BlockBasis((1,), rows, [("e", 0)], [(( ((0, 5),), Q(1)),)],
                       [("f", 5)])
    with pytest.raises(ValueError):
        compute_F(basis, A1, CFG)

def test_cocycle_includes_trivial_splits():
    from qcurrents.canonical import unit_block

    cfg3 = CurveConfig(K=3, max_mode=8)
    Fb = {(0,): compute_F(unit_block(A1, cfg3), A1, cfg3),
          (1,): compute_F(a1_block(1, MODES, A1, cfg3), A1, cfg3)}
    res = coproduct_identity_checks(
        Fb, [((1,), (0,)), ((0,), (1,))], A1, cfg3)
    assert res["all"]


# ---------------------------------------------------------------------------
# the cocycle checks against their dense form
# ---------------------------------------------------------------------------

CFG3 = CurveConfig(K=3, max_mode=8)
SUITE_SPLITS = [((1,), (0,)), ((0,), (1,)), ((1,), (1,))]


def dense_coproduct_identity_checks(F_blocks, splits, cartan, config):
    """The checks as first written: both sides of every component summed
    term by term, zero pairings included, for every (l, m) and (k2, k3)."""
    results = {}
    for (beta, gamma) in splits:
        alpha = tuple(x + y for x, y in zip(beta, gamma))
        Fa = F_blocks[alpha]
        Fb = F_blocks[beta]
        Fg = F_blocks[gamma]
        okA = True
        for k, a_k in enumerate(Fa.basis.rows):
            pairs_split = split_pairs(a_k, (beta, gamma), cartan)
            for l, col_l in enumerate(Fb.basis.cols):
                for m, col_m in enumerate(Fg.basis.cols):
                    lhs = HSeries.zero(config.K)
                    for f1, f2 in pairs_split:
                        lhs = lhs + pair_combo(f1, col_l, cartan, config) * \
                            pair_combo(f2, col_m, cartan, config)
                    rhs = HSeries.zero(config.K)
                    for w1, c1 in col_l:
                        for w2, c2 in col_m:
                            rhs = rhs + pair(a_k, concat(w1, w2), cartan,
                                             config) * (c1 * c2)
                    if lhs != rhs:
                        okA = False
        okB = True
        for l, col_l in enumerate(Fa.basis.cols):
            split_vals = {}
            for w, cw in col_l:
                for w1, w2, hs in delta_B(w, cartan, config):
                    if (word_degree(w1, cartan.rank) == beta
                            and word_degree(w2, cartan.rank) == gamma):
                        key = (w1, w2)
                        cur = split_vals.get(key, HSeries.zero(config.K))
                        split_vals[key] = cur + hs * cw
            for k2, row_b in enumerate(Fb.basis.rows):
                for k3, row_g in enumerate(Fg.basis.rows):
                    lhs = HSeries.zero(config.K)
                    for (w1, w2), hs in split_vals.items():
                        lhs = lhs + hs * pair(row_b, w1, cartan, config) * \
                            pair(row_g, w2, cartan, config)
                    rhs = pair_combo(star(row_b, row_g, cartan), col_l,
                                     cartan, config)
                    if lhs != rhs:
                        okB = False
        results[str((beta, gamma))] = {"A_side": okA, "B_side": okB}
    results["all"] = all(v["A_side"] and v["B_side"]
                         for k, v in results.items() if k != "all")
    return results


@pytest.fixture(scope="module")
def suite_blocks():
    """The canonical suite's cocycle blocks at K=3."""
    return {(0,): compute_F(unit_block(A1, CFG3), A1, CFG3),
            (1,): compute_F(a1_block(1, MODES, A1, CFG3), A1, CFG3),
            (2,): compute_F(a1_block(2, MODES, A1, CFG3), A1, CFG3)}


ONE_PLUS_H = HSeries([1, 1, 0])


def test_cocycle_checks_match_dense_oracle(suite_blocks):
    got = coproduct_identity_checks(suite_blocks, SUITE_SPLITS, A1, CFG3)
    assert got == dense_coproduct_identity_checks(
        suite_blocks, SUITE_SPLITS, A1, CFG3)
    assert got["all"]


def test_cocycle_a_side_sees_a_scaled_split_component(suite_blocks,
                                                      monkeypatch):
    def scaled(P, split, cartan):
        (f1, f2), *rest = split_pairs(P, split, cartan)
        return [(f1.scalar_mul(ONE_PLUS_H), f2)] + rest

    monkeypatch.setattr(pairing, "split_pairs", scaled)
    res = coproduct_identity_checks(suite_blocks, SUITE_SPLITS, A1, CFG3)
    for split in map(str, SUITE_SPLITS):
        assert res[split] == {"A_side": False, "B_side": True}


def _scaled_delta_B(first_only):
    def scaled(word, cartan, config):
        return [(w1, w2, hs * ONE_PLUS_H if i == 0 or not first_only else hs)
                for i, (w1, w2, hs) in enumerate(delta_B(word, cartan, config))]
    return scaled


def test_cocycle_b_side_sees_scaled_word_weights(suite_blocks, monkeypatch):
    monkeypatch.setattr(pairing, "delta_B", _scaled_delta_B(False))
    res = coproduct_identity_checks(suite_blocks, SUITE_SPLITS, A1, CFG3)
    for split in map(str, SUITE_SPLITS):
        assert res[split] == {"A_side": True, "B_side": False}
    # the first component keeps every letter on the right: only the split
    # with an empty left degree reads it
    monkeypatch.setattr(pairing, "delta_B", _scaled_delta_B(True))
    res = coproduct_identity_checks(suite_blocks, SUITE_SPLITS, A1, CFG3)
    assert [res[s]["B_side"] for s in map(str, SUITE_SPLITS)] == [
        True, False, True]
    assert all(res[s]["A_side"] for s in map(str, SUITE_SPLITS))
