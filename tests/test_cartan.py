from fractions import Fraction as Q

import pytest

from qcurrents.cartan import (
    A_operator,
    T_operator,
    U_operator,
    c_r_elements,
    cartan_by_name,
    check_T_inverse,
    invert_T,
    rho_C_solve,
)
from qcurrents.geometry import CurveConfig


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
        assert T_operator(s, cfg).scalar_mod_hbar() == s
    assert T_operator(0, cfg).is_zero()


def test_T_on_linear_mode_has_no_corrections(cfg):
    # d^2 z = 0, so T(2) z = 2 z exactly
    T2 = T_operator(2, cfg)
    col = [T2.entry(r, 1) for r in range(T2.dim)]
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
    _, S = invert_T(a2, cfg)
    lead = S.mod_hbar()
    M1 = cfg.max_mode + 1
    expected = [[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]]
    for j in range(2):
        for k in range(2):
            for r in range(M1):
                for c in range(M1):
                    want = expected[j][k] if r == c else Q(0)
                    assert lead[j * M1 + r][k * M1 + c] == want


def test_A1_leading_inverse(cfg):
    a1 = cartan_by_name("A1")
    _, S = invert_T(a1, cfg)
    assert S.mod_hbar()[0][0] == Q(1, 2)


def test_invert_T_memo():
    from qcurrents import cartan as cartan_mod
    from qcurrents.series import clear_memos

    clear_memos()
    small = CurveConfig(K=3, max_mode=2)
    first = invert_T(cartan_by_name("A2"), small)
    assert invert_T(cartan_by_name("A2"), CurveConfig(K=3, max_mode=2)) is first
    assert len(cartan_mod._INVERSES) == 1
    clear_memos()
    assert not cartan_mod._INVERSES


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

    from qcurrents.cartan import ModeOperator, _solve_block, block_T

    cfg = CurveConfig(K=4, max_mode=4)
    cartan = cartan_by_name("A2")
    rng = random.Random(17)
    n = cartan.rank
    dim = cfg.max_mode + 1
    rhs = {}
    for i in range(n):
        for j in range(n):
            grades = {}
            for g in (0, 1, 2):
                mat = [[Q(rng.randrange(-2, 3)) for _ in range(dim)]
                       for _ in range(dim)]
                grades[g] = mat
            rhs[(i, j)] = ModeOperator(dim, cfg.K, grades)
    X = _solve_block(cartan, cfg, rhs)
    T = block_T(cartan, cfg)
    for i in range(n):
        for j in range(n):
            acc = ModeOperator.zero(dim, cfg.K)
            for k in range(n):
                acc = acc + T[(k, j)].compose(X[(i, k)])
            assert (acc - rhs[(i, j)]).is_zero()


def test_solve_second_slot_nonzero_rhs():
    # mirrored honesty check for the tensor-element solver
    import random

    from qcurrents.cartan import _apply_to_slot, block_T, solve_second_slot
    from qcurrents.kernels import ZW
    from qcurrents.series import HSeries, KernelFn, Window

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
                acc = acc + _apply_to_slot(T[(l, i)], r[(j, l)], "w")
            assert (acc - c[(i, j)]).is_zero()
