"""Cartan operator tower: shift-difference operators on mode spaces.

A mode operator on modes 0..M is its R (x) R kernel: a ``KernelFn`` over
(z, w) on the window ((0, M), (0, M)) whose z exponent is the output (row)
mode and whose w exponent is the input (column) mode, so that
sum_a Op(lam_a) (x) r^a is the operator itself.  ``compose`` is the sparse
product of two operators.  Every operator is built from its columns by
``_from_columns``: column m is a one-variable kernel, the image of the m-th
mode.  T(s) is the shift difference over h d applied to r^m plus the
correction-term pairing; its block matrix over the Cartan index is
invertible order by order in h, and ``invert_T`` returns the blocks
S_{(k, j)} of that one inverse, through which every block system is
solved.  The derived operators (the log-derivative pairing A, the
correction pairing U, and the solved families rho, C and the tensor
elements c/r) all vanish identically in the rational instance; they are
still produced by honest linear solves so the machinery is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .geometry import CurveConfig, pair_against
from .series import (
    HSeries,
    KernelFn,
    Q,
    Q0,
    Window,
    expand_pole,
    memoized,
    row_reduce,
)
from .kernels import (
    ZW,
    build_window,
    cartan_shift_series,
    half_kernel_correction,
    shift_difference_series,
)


@dataclass(frozen=True)
class CartanData:
    """Finite-type Cartan matrix with symmetrizers."""

    name: str
    a: tuple  # rows of the Cartan matrix
    d: tuple  # symmetrizers d_i

    def __post_init__(self):
        n = len(self.a)
        for i in range(n):
            for j in range(n):
                if self.d[i] * self.a[i][j] != self.d[j] * self.a[j][i]:
                    raise ValueError("d_i a_ij is not symmetric")

    @property
    def rank(self) -> int:
        return len(self.a)

    def pairing(self, i: int, j: int) -> int:
        """<alpha_i, alpha_j> = d_i a_ij."""
        return self.d[i] * self.a[i][j]

    def symmetrized(self):
        n = self.rank
        return [[Q(self.pairing(i, j)) for j in range(n)] for i in range(n)]

    def positive_roots(self):
        """Positive roots as coordinate tuples over the simple roots."""
        if self.name == "A1":
            return [(1,)]
        if self.name == "A2":
            return [(1, 0), (0, 1), (1, 1)]
        raise ValueError(f"no root table for {self.name}")


BUILTIN_CARTAN = {
    "A1": CartanData("A1", ((2,),), (1,)),
    "A2": CartanData("A2", ((2, -1), (-1, 2)), (1, 1)),
}


def cartan_by_name(name: str) -> CartanData:
    try:
        return BUILTIN_CARTAN[name]
    except KeyError:
        raise ValueError(f"unknown cartan name {name!r}") from None


# ---------------------------------------------------------------------------
# mode operators
# ---------------------------------------------------------------------------


def _modes(M: int) -> Window:
    """The window of an operator on modes 0..M: (output, input) modes."""
    return Window(((0, M), (0, M)))


def _h0_entries(op: KernelFn) -> dict:
    """The nonzero h^0 entries of an operator, {(row, col): Fraction}."""
    return {e: c for e, hs in op.terms.items() if (c := hs.coeffs[0])}


def scalar_mod_hbar(op: KernelFn):
    """c if op is c * Id mod h, else None."""
    (lo, hi), _ = op.window.bounds
    lead = _h0_entries(op)
    c = lead.get((lo, lo), Q0)
    return c if lead == {(m, m): c for m in range(lo, hi + 1) if c} else None


def compose(a: KernelFn, b: KernelFn) -> KernelFn:
    """The operator a o b: (a o b)[i, j] = sum_k a[i, k] b[k, j]."""
    rows: dict = {}
    for (k, j), hs in b.terms.items():
        rows.setdefault(k, []).append((j, hs))
    out: dict = {}
    for (i, k), x in a.terms.items():
        for j, y in rows.get(k, ()):
            xy = x * y
            cur = out.get((i, j))
            out[(i, j)] = xy if cur is None else cur + xy
    window = Window((a.window.bounds[0], b.window.bounds[1]))
    return KernelFn(a.region, out, window, min(a.K, b.K))


def _flip(blocks: dict) -> dict:
    """Swap the block indices: {(b, a): op for (a, b), op}."""
    return {(b, a): op for (a, b), op in blocks.items()}


def _transpose(blocks: dict) -> dict:
    """The transpose of a block operator: blocks and kernels both swapped."""
    return {(b, a): op.transpose_in_region() for (a, b), op in blocks.items()}


def _block_product(a: dict, b: dict, n: int) -> dict:
    """(a b)_{(i, j)} = sum_k a_{(i, k)} o b_{(k, j)} for n x n blocks."""
    return {(i, j): reduce(add, (compose(a[(i, k)], b[(k, j)])
                                 for k in range(n)))
            for i in range(n) for j in range(n)}


def _eye(n: int, config: CurveConfig) -> dict:
    """The n x n identity block operator on modes 0..max_mode."""
    M, K = config.max_mode, config.K
    one = KernelFn(ZW, {(m, m): HSeries.one(K) for m in range(M + 1)},
                   _modes(M), K)
    zero = KernelFn.zero(ZW, _modes(M), K)
    return {(i, j): one if i == j else zero for i in range(n) for j in range(n)}


def _equal(blocks: dict, other: dict) -> bool:
    return all((blocks[b] - op).is_zero() for b, op in other.items())


def _from_columns(columns, M: int, K: int) -> KernelFn:
    """The operator on modes 0..M whose column m is the one-variable kernel
    columns[m], read on exponents 0..M."""
    terms = {(e, m): hs for m, col in enumerate(columns)
             for (e,), hs in col.terms.items() if 0 <= e <= M}
    return KernelFn(ZW, terms, _modes(M), K)


def _tau_columns(sigma, config: CurveConfig, mode_exp) -> list:
    """Columns (1/h) <tau(s), id (x) mode_m>: tau paired in its second slot
    against the mode of exponent mode_exp(m), for m = 0..max_mode."""
    tau = half_kernel_correction(sigma, config)["tau"]
    return [pair_against(tau, "w", config.mode(mode_exp(m), var="w"))
            .divide_hbar(1) for m in range(config.max_mode + 1)]


def T_operator(sigma, config: CurveConfig) -> KernelFn:
    """T(s) on R modes 0..max_mode: ((q^{s d/2}-q^{-s d/2})/(h d)) r
    + (1/h) <tau(s), id (x) r>.  Mod h this is s * Id."""
    M, K = config.max_mode, config.K
    series = cartan_shift_series(sigma, K)
    shift = _from_columns([config.mode(config.r_mode_exp(m)).diff_op("z", series)
                           for m in range(M + 1)], M, K)
    return shift + _from_columns(_tau_columns(sigma, config, config.r_mode_exp),
                                 M, K)


def _by_pairing(cartan: CartanData, make) -> dict:
    """{(i, j): make(<alpha_i, alpha_j>)}, one make call per distinct pairing."""
    pairs = [(i, j) for i in range(cartan.rank) for j in range(cartan.rank)]
    made = {s: make(s) for s in {cartan.pairing(i, j) for i, j in pairs}}
    return {(i, j): made[cartan.pairing(i, j)] for i, j in pairs}


def block_T(cartan: CartanData, config: CurveConfig) -> dict:
    """All T_{ij} = T(d_i a_ij), keyed by (i, j)."""
    return _by_pairing(cartan, lambda s: T_operator(s, config))


@memoized
def invert_T(cartan: CartanData, config: CurveConfig) -> dict:
    """Two-sided inverse S of the block operator (r_i) -> (sum_k T_{ki} r_k).

    Block (j, k) of that operator is T_{kj}.  S is returned as its blocks
    {(k, j): kernel}, so sum_j S_{(k, j)} o RHS_j solves
    sum_k T_{kj} o X_k = RHS_j.  The h^0 block matrix is inverted by
    ``row_reduce``; it is not assumed to be the symmetrized Cartan matrix
    tensor the identity, since the correction term can reach h^0.  With
    S0 that inverse and P = S0 T - Id, the Neumann recursion S <- S0 - P S
    gains one h-order per step.  Callers only read the memoized blocks.
    """
    n, M, K = cartan.rank, config.max_mode, config.K
    big = _flip(block_T(cartan, config))
    lead = {b: _h0_entries(op) for b, op in big.items()}
    index = [(b, r) for b in range(n) for r in range(M + 1)]
    matrix = [[lead[(j, k)].get((r, c), Q0) for k, c in index]
              for j, r in index]
    _, inv, pivots, _ = row_reduce(
        matrix, [[Q(int(x == y)) for y in index] for x in index])
    if len(pivots) < len(index):
        raise ValueError("singular matrix")
    terms = {(k, j): {} for k in range(n) for j in range(n)}
    for (k, r), row in zip(index, inv):
        for (j, c), x in zip(index, row):
            if x:
                terms[(k, j)][(r, c)] = HSeries.const(x, K)
    S0 = {b: KernelFn(ZW, t, _modes(M), K) for b, t in terms.items()}
    eye = _eye(n, config)
    P = {b: op - eye[b] for b, op in _block_product(S0, big, n).items()}
    S = S0
    for _ in range(K - 1):
        PS = _block_product(P, S, n)
        S = {b: S0[b] - PS[b] for b in S0}
    return S


def check_T_inverse(cartan: CartanData, config: CurveConfig) -> dict:
    n = cartan.rank
    T = block_T(cartan, config)
    big = _flip(T)
    S = invert_T(cartan, config)
    eye = _eye(n, config)
    sym = cartan.symmetrized()
    return {
        "left_inverse": _equal(_block_product(S, big, n), eye),
        "right_inverse": _equal(_block_product(big, S, n), eye),
        "mod_hbar_is_symmetrized_cartan": all(
            scalar_mod_hbar(op) == sym[k][j] for (k, j), op in T.items()),
    }


# ---------------------------------------------------------------------------
# derived operators: A, U, rho, C and the c/r tensor elements
# ---------------------------------------------------------------------------


def exchange_log(sigma, config: CurveConfig, window: Window) -> KernelFn:
    """log q(s): the operator-series image of the swapped Green kernel."""
    base = expand_pole(ZW, "z", "w", window, config.K)
    arg = base.diff_op("z", shift_difference_series(sigma, config.K))
    tau = half_kernel_correction(sigma, config)["tau"]
    if not tau.is_zero():
        arg = arg + tau.embed(ZW, window)
    return arg


def A_operator(sigma, config: CurveConfig) -> KernelFn:
    """A(s): lam -> <lam (x) id, (1/2)(d_z + d_w) log q(s)>, Lambda to R."""
    M = config.max_mode
    K = config.K
    wide = build_window(M, K)
    window = Window.cube(-wide, wide, 2)
    logq = exchange_log(sigma, config, window)
    F = (logq.diff("z") + logq.diff("w")).scalar_mul(Fraction(1, 2))
    lam_window = Window(window.bounds[:1])
    lams = [config.mode(config.lam_mode_exp(m), var="z", window=lam_window)
            for m in range(M + 1)]
    return _from_columns([pair_against(F, "z", lam) for lam in lams], M, K)


def U_operator(sigma, config: CurveConfig) -> KernelFn:
    """U(s): lam -> -(1/h) <tau(s), id (x) lam>, Lambda to R."""
    return -_from_columns(_tau_columns(sigma, config, config.lam_mode_exp),
                          config.max_mode, config.K)


def _solve_block(cartan: CartanData, config: CurveConfig, rhs: dict) -> dict:
    """Solve sum_k T_{kj} o X_{ik} = RHS_{ij} for the operators X_{ik}.

    rhs is keyed by (i, j); for each fixed i the k-tuple (X_{ik})_k is
    X_{ik} = sum_j S_{(k, j)} o RHS_{ij} with S the block inverse of T.
    """
    S = invert_T(cartan, config)
    return _flip(_block_product(S, _flip(rhs), cartan.rank))


def rho_C_solve(cartan: CartanData, config: CurveConfig) -> dict:
    """Solve U_{ij} = sum_k T_{kj} rho_{ik} and A_{ij} = sum_k T_{kj} C_{ik}."""
    n = cartan.rank
    U = _by_pairing(cartan, lambda s: U_operator(s, config))
    A = _by_pairing(cartan, lambda s: A_operator(s, config))
    rho = _solve_block(cartan, config, U)
    C = _solve_block(cartan, config, A)
    # residual check: the solves reproduce their right sides
    big = _flip(block_T(cartan, config))

    def reproduces(X, rhs):
        return _equal(_flip(_block_product(big, _flip(X), n)), rhs)

    ok = reproduces(rho, U) and reproduces(C, A)
    return {"rho": rho, "C": C, "U": U, "A": A, "consistent": ok}


def solve_second_slot(cartan: CartanData, config: CurveConfig, c: dict) -> dict:
    """The unique r^{jl} with sum_l (id (x) T_{li})(r^{jl}) = c^{ij}.

    c maps (i, j) to an R (x) R kernel over (z, w); fixing j, the l-tuple
    satisfies the block system in the second tensor slot, where T_{li} acts
    by composing with its transpose, so
    r^{jl} = sum_i c^{ij} o transpose(S_{(l, i)}) with S the block inverse
    of T."""
    S = invert_T(cartan, config)
    return _block_product(_flip(c), _transpose(S), cartan.rank)


def c_r_elements(cartan: CartanData, config: CurveConfig) -> dict:
    """c^{ij} = sum_a C_{ij}(lam_a) (x) r^a, which is the operator C_{ij}
    itself, and the unique r^{ij} with sum_l (id (x) T_{li})(r^{jl}) = c^{ij};
    asserts the companion identity sum_l (T_{li} (x) id)(r^{lj}) =
    -(c^{ij})^(21) exactly."""
    n = cartan.rank
    solved = rho_C_solve(cartan, config)
    c = solved["C"]
    r = solve_second_slot(cartan, config, c)
    big = _flip(block_T(cartan, config))
    forward = _equal(_block_product(r, _transpose(big), n), _flip(c))
    antisym = _equal(_block_product(big, r, n),
                     {b: -op.transpose_in_region() for b, op in c.items()})
    # alpha^{ij} antisymmetry used in the uniqueness argument
    alpha_ok = all((al + al.transpose_in_region()).is_zero()
                   for al in solved["A"].values())
    return {
        "c": c,
        "r": r,
        "solve_consistent": solved["consistent"] and forward,
        "antisymmetry": antisym,
        "alpha_antisymmetric": alpha_ok,
        "rho_zero": all(op.is_zero() for op in solved["rho"].values()),
        "C_zero": all(op.is_zero() for op in c.values()),
    }
