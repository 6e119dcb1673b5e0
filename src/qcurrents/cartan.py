"""Cartan operator tower: shift-difference operators on mode spaces.

Operators act on finite mode windows as matrices of exact h-graded
rational entries (``ModeOperator``).  Every mode operator is built from
its columns by ``_from_columns``: column m is a one-variable kernel, the
image of the m-th mode.  T(s) is the shift difference over h d applied to
r^m plus the correction-term pairing; its block matrix over the Cartan
index reduces mod h to the symmetrized Cartan matrix and is therefore
invertible order by order in h (``invert_T``).  Every block system is
solved through blocks of that one inverse (``_block``).  The derived
operators (the log-derivative pairing A, the correction pairing U, and the
solved families rho, C and the tensor elements c/r) all vanish identically
in the rational instance; they are still produced by honest linear solves
so the machinery is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import CurveConfig, pair_against
from .series import (
    HSeries,
    KernelFn,
    Q,
    Q0,
    Window,
    expand_pole,
    memo_table,
    row_reduce,
)
from .kernels import (
    ZW,
    build_window,
    cartan_shift_series,
    half_kernel_correction,
    shift_difference_series,
)

# invert_T values by the Cartan data and config
_INVERSES = memo_table()


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


def _mat_zero(dim):
    return [[Q0] * dim for _ in range(dim)]


def _mat_id(dim):
    m = _mat_zero(dim)
    for i in range(dim):
        m[i][i] = Q(1)
    return m


def _mat_mul(a, b):
    dim = len(a)
    out = _mat_zero(dim)
    for i in range(dim):
        ai = a[i]
        oi = out[i]
        for k in range(dim):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(dim):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


class ModeOperator:
    """h-graded matrix on a truncated mode space.

    grades[k] is the rational matrix multiplying h^k.
    """

    def __init__(self, dim: int, K: int, grades: dict):
        self.dim = dim
        self.K = K
        self.grades = {k: g for k, g in grades.items()
                       if 0 <= k < K and any(any(row) for row in g)}

    @staticmethod
    def zero(dim, K):
        return ModeOperator(dim, K, {})

    @staticmethod
    def identity(dim, K):
        return ModeOperator(dim, K, {0: _mat_id(dim)})

    def entry(self, i, j) -> HSeries:
        cs = [Q0] * self.K
        for k, g in self.grades.items():
            cs[k] = g[i][j]
        return HSeries(cs)

    def __add__(self, other):
        grades = {}
        for k in set(self.grades) | set(other.grades):
            a = self.grades.get(k)
            b = other.grades.get(k)
            if a is None:
                grades[k] = [row[:] for row in b]
            elif b is None:
                grades[k] = [row[:] for row in a]
            else:
                grades[k] = [[x + y for x, y in zip(ra, rb)]
                             for ra, rb in zip(a, b)]
        return ModeOperator(self.dim, min(self.K, other.K), grades)

    def __neg__(self):
        return ModeOperator(self.dim, self.K, {
            k: [[-x for x in row] for row in g] for k, g in self.grades.items()})

    def __sub__(self, other):
        return self + (-other)

    def compose(self, other: "ModeOperator") -> "ModeOperator":
        """self after other (matrix product self * other)."""
        grades = {}
        for ka, ga in self.grades.items():
            for kb, gb in other.grades.items():
                k = ka + kb
                if k >= min(self.K, other.K):
                    continue
                prod = _mat_mul(ga, gb)
                if k in grades:
                    grades[k] = [[x + y for x, y in zip(ra, rb)]
                                 for ra, rb in zip(grades[k], prod)]
                else:
                    grades[k] = prod
        return ModeOperator(self.dim, min(self.K, other.K), grades)

    def is_zero(self) -> bool:
        return not self.grades

    def mod_hbar(self):
        return self.grades.get(0, _mat_zero(self.dim))

    def scalar_mod_hbar(self):
        """If the leading grade is c*Id, return c."""
        g = self.mod_hbar()
        c = g[0][0]
        for i in range(self.dim):
            for j in range(self.dim):
                if g[i][j] != (c if i == j else 0):
                    return None
        return c


def _block(op: ModeOperator, r: int, c: int, size: int) -> ModeOperator:
    """Block (r, c) of a block operator whose blocks are size x size."""
    return ModeOperator(size, op.K, {
        k: [row[c * size:(c + 1) * size] for row in g[r * size:(r + 1) * size]]
        for k, g in op.grades.items()})


def _from_columns(columns, M: int, K: int) -> ModeOperator:
    """The operator on modes 0..M whose column m is the one-variable kernel
    columns[m], read on exponents 0..M."""
    grades: dict = {}
    for m, col in enumerate(columns):
        for (e,), hs in col.terms.items():
            if 0 <= e <= M:
                for k, c in enumerate(hs.coeffs):
                    if c:
                        grades.setdefault(k, _mat_zero(M + 1))[e][m] += c
    return ModeOperator(M + 1, K, grades)


def _tau_columns(sigma, config: CurveConfig, mode_exp) -> list:
    """Columns (1/h) <tau(s), id (x) mode_m>: tau paired in its second slot
    against the mode of exponent mode_exp(m), for m = 0..max_mode."""
    tau = half_kernel_correction(sigma, config)["tau"]
    return [pair_against(tau, "w", config.mode(mode_exp(m), var="w"))
            .divide_hbar(1) for m in range(config.max_mode + 1)]


def T_operator(sigma, config: CurveConfig) -> ModeOperator:
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


def invert_T(cartan: CartanData, config: CurveConfig):
    """Two-sided inverse of the block operator (r_i) -> (sum_k T_{ki} r_k).

    Returns the pair (T, S) of ModeOperators on rank*(max_mode+1) modes.
    Block (j, k) of T is T_{kj}; its leading grade is the symmetrized Cartan
    matrix tensor the identity.  S = T^{-1} is the h-graded Neumann inverse,
    so sum_j S_{(k, j)} o RHS_j solves sum_k T_{kj} o X_k = RHS_j; _block
    reads the blocks.  Memoized on (cartan, config): callers only read the
    operators.
    """
    key = (cartan, config)
    out = _INVERSES.get(key)
    if out is None:
        out = _INVERSES[key] = _invert_T(cartan, config)
    return out


def _invert_T(cartan: CartanData, config: CurveConfig):
    n = cartan.rank
    M1 = config.max_mode + 1
    K = config.K
    T = block_T(cartan, config)
    dim = n * M1
    zero = _mat_zero(M1)
    big = {g: [[x for k in range(n) for x in T[(k, j)].grades.get(g, zero)[r]]
               for j in range(n) for r in range(M1)]
           for g in {g for op in T.values() for g in op.grades}}
    _, S0, pivots, _ = row_reduce(big.get(0), _mat_id(dim))
    if len(pivots) < dim:
        raise ValueError("singular matrix")
    S: dict = {0: S0}
    for m in range(1, K):
        acc = _mat_zero(dim)
        for g in range(1, m + 1):
            Tg = big.get(g)
            if Tg is None:
                continue
            piece = _mat_mul(Tg, S[m - g])
            acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, piece)]
        Sm = _mat_mul(S0, acc)
        S[m] = [[-x for x in row] for row in Sm]
    Sop = ModeOperator(dim, K, S)
    Top = ModeOperator(dim, K, big)
    return Top, Sop


def check_T_inverse(cartan: CartanData, config: CurveConfig) -> dict:
    Top, Sop = invert_T(cartan, config)
    dim = Top.dim
    ident = ModeOperator.identity(dim, config.K)
    left = Sop.compose(Top) - ident
    right = Top.compose(Sop) - ident
    lead = Top.mod_hbar()
    n = cartan.rank
    M1 = config.max_mode + 1
    sym = cartan.symmetrized()
    lead_ok = True
    for j in range(n):
        for k in range(n):
            for r in range(M1):
                for c in range(M1):
                    want = sym[k][j] if r == c else Q0
                    if lead[j * M1 + r][k * M1 + c] != want:
                        lead_ok = False
    return {
        "left_inverse": left.is_zero(),
        "right_inverse": right.is_zero(),
        "mod_hbar_is_symmetrized_cartan": lead_ok,
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


def A_operator(sigma, config: CurveConfig) -> ModeOperator:
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


def U_operator(sigma, config: CurveConfig) -> ModeOperator:
    """U(s): lam -> -(1/h) <tau(s), id (x) lam>, Lambda to R."""
    return -_from_columns(_tau_columns(sigma, config, config.lam_mode_exp),
                          config.max_mode, config.K)


def _solve_block(cartan: CartanData, config: CurveConfig, rhs: dict) -> dict:
    """Solve sum_k T_{kj} o X_{ik} = RHS_{ij} for the operators X_{ik}.

    rhs is keyed by (i, j); for each fixed i the k-tuple (X_{ik})_k is
    X_{ik} = sum_j S_{(k, j)} o RHS_{ij} with S the block inverse of T.
    """
    n = cartan.rank
    M1 = config.max_mode + 1
    _, S = invert_T(cartan, config)
    out = {}
    for i in range(n):
        for k in range(n):
            acc = ModeOperator.zero(M1, config.K)
            for j in range(n):
                acc = acc + _block(S, k, j, M1).compose(rhs[(i, j)])
            out[(i, k)] = acc
    return out


def rho_C_solve(cartan: CartanData, config: CurveConfig) -> dict:
    """Solve U_{ij} = sum_k T_{kj} rho_{ik} and A_{ij} = sum_k T_{kj} C_{ik}."""
    n = cartan.rank
    U = _by_pairing(cartan, lambda s: U_operator(s, config))
    A = _by_pairing(cartan, lambda s: A_operator(s, config))
    rho = _solve_block(cartan, config, U)
    C = _solve_block(cartan, config, A)
    # residual check: the solves reproduce their right sides
    T = block_T(cartan, config)
    ok = True
    for i in range(n):
        for j in range(n):
            accU = ModeOperator.zero(config.max_mode + 1, config.K)
            accA = ModeOperator.zero(config.max_mode + 1, config.K)
            for k in range(n):
                accU = accU + T[(k, j)].compose(rho[(i, k)])
                accA = accA + T[(k, j)].compose(C[(i, k)])
            if not (accU - U[(i, j)]).is_zero():
                ok = False
            if not (accA - A[(i, j)]).is_zero():
                ok = False
    return {"rho": rho, "C": C, "U": U, "A": A, "consistent": ok}


def _tensor_from_operator(op: ModeOperator, config: CurveConfig,
                          window: Window) -> KernelFn:
    """sum_a Op(lam_a) (x) r^a as an R (x) R kernel over (z, w)."""
    terms: dict = {}
    M = config.max_mode
    for a in range(M + 1):
        for e in range(op.dim):
            hs = op.entry(e, a)
            if hs.is_zero():
                continue
            terms[(e, a)] = hs
    return KernelFn(ZW, terms, window, config.K)


def _apply_to_slot(op: ModeOperator, f: KernelFn, var: str) -> KernelFn:
    """Apply a mode operator (on R modes) to one slot of an R (x) R kernel."""
    i = f.region.index(var)
    out: dict = {}
    for e, hs in f.terms.items():
        m = e[i]
        if not 0 <= m < op.dim:
            raise ValueError("slot exponent outside operator mode window")
        for r in range(op.dim):
            w = op.entry(r, m)
            if w.is_zero():
                continue
            e2 = e[:i] + (r,) + e[i + 1 :]
            add = hs * w
            cur = out.get(e2)
            out[e2] = add if cur is None else cur + add
    return f.copy_with(terms=out)


def solve_second_slot(cartan: CartanData, config: CurveConfig, c: dict) -> dict:
    """The unique r^{jl} with sum_l (id (x) T_{li})(r^{jl}) = c^{ij}.

    c maps (i, j) to an R (x) R kernel over (z, w); fixing j, the l-tuple
    satisfies the block system in the second tensor slot, so
    r^{jl} = sum_i (id (x) S_{(l, i)})(c^{ij}) with S the block inverse of T."""
    n = cartan.rank
    M1 = config.max_mode + 1
    window = Window(((0, config.max_mode), (0, config.max_mode)))
    _, S = invert_T(cartan, config)
    r = {}
    for j in range(n):
        for l in range(n):
            acc = KernelFn.zero(ZW, window, config.K)
            for i in range(n):
                acc = acc + _apply_to_slot(_block(S, l, i, M1), c[(i, j)], "w")
            r[(j, l)] = acc
    return r


def c_r_elements(cartan: CartanData, config: CurveConfig) -> dict:
    """c^{ij} = sum_a C_{ij}(lam_a) (x) r^a and the unique r^{ij} with
    sum_l (id (x) T_{li})(r^{jl}) = c^{ij}; asserts the companion identity
    sum_l (T_{li} (x) id)(r^{lj}) = -(c^{ij})^(21) exactly."""
    n = cartan.rank
    M = config.max_mode
    K = config.K
    window = Window(((0, M), (0, M)))
    solved = rho_C_solve(cartan, config)
    C = solved["C"]
    c = {}
    for i in range(n):
        for j in range(n):
            # C_{ij} = C[(i, j)] in the solve's keying (i, k)
            c[(i, j)] = _tensor_from_operator(C[(i, j)], config, window)
    r = solve_second_slot(cartan, config, c)
    T = block_T(cartan, config)
    forward = True
    antisym = True
    for i in range(n):
        for j in range(n):
            acc = KernelFn.zero(ZW, window, K)
            for l in range(n):
                acc = acc + _apply_to_slot(T[(l, i)], r[(j, l)], "w")
            if not (acc - c[(i, j)]).is_zero():
                forward = False
            acc2 = KernelFn.zero(ZW, window, K)
            for l in range(n):
                acc2 = acc2 + _apply_to_slot(T[(l, i)], r[(l, j)], "z")
            target = -c[(i, j)].transpose_in_region()
            if not (acc2 - target).is_zero():
                antisym = False
    # alpha^{ij} antisymmetry used in the uniqueness argument
    A = solved["A"]
    alpha_ok = True
    for i in range(n):
        for j in range(n):
            al = _tensor_from_operator(A[(i, j)], config, window)
            if not (al + al.transpose_in_region()).is_zero():
                alpha_ok = False
    return {
        "c": c,
        "r": r,
        "solve_consistent": solved["consistent"] and forward,
        "antisymmetry": antisym,
        "alpha_antisymmetric": alpha_ok,
        "rho_zero": all(op.is_zero() for op in solved["rho"].values()),
        "C_zero": all(op.is_zero() for op in C.values()),
    }
