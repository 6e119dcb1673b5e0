from fractions import Fraction as Q

import pytest

from qcurrents.cartan import (
    A_operator,
    T_operator,
    U_operator,
    block_T,
    c_r_elements,
    cartan_by_name,
    check_T_inverse,
    compose,
    invert_T,
    rho_C_solve,
    scalar_mod_hbar,
)
from qcurrents.geometry import CurveConfig
from qcurrents.kernels import ZW
from qcurrents.series import HSeries, KernelFn, Window, clear_memos, row_reduce


@pytest.fixture(scope="module")
def cfg():
    return CurveConfig(K=6, max_mode=6)


def test_cartan_data():
    a2 = cartan_by_name("A2")
    assert a2.pairing(0, 0) == 2 and a2.pairing(0, 1) == -1
    assert a2.positive_roots() == [(1, 0), (0, 1), (1, 1)]
    with pytest.raises(ValueError):
        cartan_by_name("B2")


def test_T_mod_hbar_is_scalar(cfg):
    for s in (2, -1, 3):
        assert scalar_mod_hbar(T_operator(s, cfg)) == s
    assert T_operator(0, cfg).is_zero()


def test_T_on_linear_mode_has_no_corrections(cfg):
    # d^2 z = 0, so T(2) z = 2 z exactly
    T2 = T_operator(2, cfg)
    col = [T2.coefficient((r, 1)) for r in range(cfg.max_mode + 1)]
    for r, hs in enumerate(col):
        if r == 1:
            assert hs.coeffs[0] == 2 and all(c == 0 for c in hs.coeffs[1:])
        else:
            assert hs.is_zero()


def test_block_inverse_two_sided(cfg):
    for name in ("A1", "A2"):
        res = check_T_inverse(cartan_by_name(name), cfg)
        assert res["left_inverse"] and res["right_inverse"]
        assert res["mod_hbar_is_symmetrized_cartan"]


def test_A2_leading_inverse_block(cfg):
    # classical inverse Cartan: (1/3) [[2,1],[1,2]] tensor identity
    a2 = cartan_by_name("A2")
    S = invert_T(a2, cfg)
    M1 = cfg.max_mode + 1
    expected = [[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]]
    for j in range(2):
        for k in range(2):
            for r in range(M1):
                for c in range(M1):
                    want = expected[j][k] if r == c else Q(0)
                    assert S[(j, k)].coefficient((r, c)).coeffs[0] == want


def test_A1_leading_inverse(cfg):
    a1 = cartan_by_name("A1")
    S = invert_T(a1, cfg)
    assert S[(0, 0)].coefficient((0, 0)).coeffs[0] == Q(1, 2)


def test_invert_T_memo():
    clear_memos()
    small = CurveConfig(K=3, max_mode=2)
    first = invert_T(cartan_by_name("A2"), small)
    assert invert_T(cartan_by_name("A2"), CurveConfig(K=3, max_mode=2)) is first
    assert len(invert_T.memo) == 1
    # T(2) and T(-1), each built once for A2's four blocks
    assert len(T_operator.memo) == 2
    assert block_T(cartan_by_name("A2"), small)[(0, 0)] is T_operator(2, small)
    clear_memos()
    assert not invert_T.memo and not T_operator.memo


def test_derived_operators_vanish(cfg):
    assert A_operator(2, cfg).is_zero()
    assert A_operator(0, cfg).is_zero()
    assert U_operator(2, cfg).is_zero()


def test_rho_C_solve_consistent(cfg):
    for name in ("A1", "A2"):
        out = rho_C_solve(cartan_by_name(name), CurveConfig(K=4, max_mode=4))
        assert out["consistent"]
        assert all(op.is_zero() for op in out["rho"].values())
        assert all(op.is_zero() for op in out["C"].values())


def test_c_r_elements(cfg):
    for name in ("A1", "A2"):
        out = c_r_elements(cartan_by_name(name), CurveConfig(K=4, max_mode=5))
        assert out["solve_consistent"]
        assert out["antisymmetry"]
        assert out["alpha_antisymmetric"]
        assert all(kf.is_zero() for kf in out["c"].values())
        assert all(kf.is_zero() for kf in out["r"].values())


def test_solve_block_nonzero_rhs():
    # the triangular-solve machinery against a synthetic nonzero system:
    # sum_k T_{kj} o X_{ik} = RHS_{ij} must hold after solving
    import random

    from qcurrents.cartan import _solve_block

    cfg = CurveConfig(K=4, max_mode=4)
    cartan = cartan_by_name("A2")
    rng = random.Random(17)
    n = cartan.rank
    dim = cfg.max_mode + 1
    window = Window(((0, cfg.max_mode), (0, cfg.max_mode)))
    rhs = {}
    for i in range(n):
        for j in range(n):
            grades = [[[Q(rng.randrange(-2, 3)) for _ in range(dim)]
                       for _ in range(dim)] for _ in (0, 1, 2)]
            terms = {(r, c): HSeries([g[r][c] for g in grades], cfg.K)
                     for r in range(dim) for c in range(dim)}
            rhs[(i, j)] = KernelFn(ZW, terms, window, cfg.K)
    X = _solve_block(cartan, cfg, rhs)
    T = block_T(cartan, cfg)
    for i in range(n):
        for j in range(n):
            acc = KernelFn.zero(ZW, window, cfg.K)
            for k in range(n):
                acc = acc + compose(T[(k, j)], X[(i, k)])
            assert (acc - rhs[(i, j)]).is_zero()


def test_solve_second_slot_nonzero_rhs():
    # mirrored honesty check for the tensor-element solver: T_{li} acts on
    # the w slot by composing with its transpose
    import random

    from qcurrents.cartan import solve_second_slot

    cfg = CurveConfig(K=4, max_mode=4)
    cartan = cartan_by_name("A2")
    rng = random.Random(29)
    n = cartan.rank
    M = cfg.max_mode
    window = Window(((0, M), (0, M)))
    c = {}
    for i in range(n):
        for j in range(n):
            terms = {}
            for _ in range(5):
                e = (rng.randrange(0, M + 1), rng.randrange(0, M + 1))
                terms[e] = HSeries.hbar(cfg.K, rng.randrange(0, 3),
                                        Q(rng.randrange(-2, 3)))
            c[(i, j)] = KernelFn(ZW, terms, window, cfg.K)
    r = solve_second_slot(cartan, cfg, c)
    T = block_T(cartan, cfg)
    for i in range(n):
        for j in range(n):
            acc = KernelFn.zero(ZW, window, cfg.K)
            for l in range(n):
                acc = acc + compose(r[(j, l)], T[(l, i)].transpose_in_region())
            assert (acc - c[(i, j)]).is_zero()


# -- reference inverse: the dense grade-by-grade Neumann recurrence ---------


def _mat_zero(dim):
    return [[Q(0)] * dim for _ in range(dim)]


def _mat_id(dim):
    m = _mat_zero(dim)
    for i in range(dim):
        m[i][i] = Q(1)
    return m


def _mat_mul(a, b):
    dim = len(a)
    out = _mat_zero(dim)
    for i in range(dim):
        for k in range(dim):
            if a[i][k]:
                for j in range(dim):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def _reference_inverse(cartan, cfg):
    """Grades {m: matrix} of the inverse of the block operator whose block
    (j, k) is T_{kj}, laid out densely: entry (k*M1 + r, j*M1 + c) of grade
    m is the h^m coefficient of S_{(k, j)} at (r, c).  The h^0 grade is
    inverted by elimination, and S_m = -S_0 sum_{g=1..m} T_g S_{m-g}."""
    n, M1, K = cartan.rank, cfg.max_mode + 1, cfg.K
    dim = n * M1
    big = {g: _mat_zero(dim) for g in range(K)}
    for (k, j), op in block_T(cartan, cfg).items():
        for (r, c), hs in op.terms.items():
            for g, x in enumerate(hs.coeffs):
                big[g][j * M1 + r][k * M1 + c] = x
    _, S0, pivots, _ = row_reduce(big[0], _mat_id(dim))
    assert len(pivots) == dim
    S = {0: S0}
    for m in range(1, K):
        acc = _mat_zero(dim)
        for g in range(1, m + 1):
            piece = _mat_mul(big[g], S[m - g])
            acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, piece)]
        S[m] = [[-x for x in row] for row in _mat_mul(S0, acc)]
    return S


@pytest.mark.parametrize("K,max_mode", [(6, 10), (4, 4)])
@pytest.mark.parametrize("name", ["A1", "A2"])
def test_inverse_blocks_match_reference(name, K, max_mode):
    cartan = cartan_by_name(name)
    cfg = CurveConfig(K=K, max_mode=max_mode)
    ref = _reference_inverse(cartan, cfg)
    S = invert_T(cartan, cfg)
    M1 = max_mode + 1
    assert set(S) == {(k, j) for k in range(cartan.rank)
                      for j in range(cartan.rank)}
    for (k, j), op in S.items():
        assert op.window == Window(((0, max_mode), (0, max_mode)))
        assert op.K == K
        for r in range(M1):
            for c in range(M1):
                want = tuple(ref[m][k * M1 + r][j * M1 + c] for m in range(K))
                assert op.coefficient((r, c)).coeffs == want


def test_check_T_inverse_sees_one_perturbed_entry():
    # one S entry moved at the last h-order the truncation keeps
    a2 = cartan_by_name("A2")
    cfg = CurveConfig(K=4, max_mode=4)
    clear_memos()
    S = dict(invert_T(a2, cfg))
    op = S[(0, 1)]
    S[(0, 1)] = op + KernelFn.monomial((2, 3), HSeries.hbar(cfg.K, cfg.K - 1),
                                       ZW, op.window, cfg.K)
    invert_T.memo[(a2, cfg)] = S
    try:
        res = check_T_inverse(a2, cfg)
    finally:
        clear_memos()
    assert not res["left_inverse"] and not res["right_inverse"]
    assert res["mod_hbar_is_symmetrized_cartan"]
    assert all(check_T_inverse(a2, cfg).values())
