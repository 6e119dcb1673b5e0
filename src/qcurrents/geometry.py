"""Curve configuration: function modes, residue pairing, projections.

The built-in instance is the rational one: the affine line with the global
differential dz and the single marked point at infinity.  Function modes
split into the regular ring R spanned by z^a (a >= 0) and the complement
Lambda spanned by z^{-a-1} (a >= 0).  The derivation is d/dz and the
h-shift automorphisms act by z -> z + s*h.

The residue functional at infinity is normalized so that
res(z^{-1} dz) = +1, which makes (z^a) and (z^{-a-1}) exactly dual bases
and puts the Green kernel at +1/(w-z); the dual-basis invariant is what
pins this sign, the checks below enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import HSeries, KernelFn, Region, Window


@dataclass(frozen=True)
class CurveConfig:
    """Rational curve configuration.

    max_mode bounds the mode index a in both families z^a and z^{-a-1};
    K is the h-truncation order shared by everything built on top.
    """

    name: str = "rational"
    K: int = 6
    max_mode: int = 10

    def r_mode_exp(self, a: int) -> int:
        if not 0 <= a <= self.max_mode:
            raise ValueError(f"mode index {a} beyond max_mode")
        return a

    def lam_mode_exp(self, a: int) -> int:
        if not 0 <= a <= self.max_mode:
            raise ValueError(f"mode index {a} beyond max_mode")
        return -a - 1

    # one-variable mode expansions are KernelFn objects in a single variable

    def mode(self, exp: int, var: str = "z", window: Window | None = None) -> KernelFn:
        region = Region((var,))
        window = window or Window(((-self.max_mode - 1, self.max_mode),))
        return KernelFn.monomial((exp,), HSeries.one(self.K), region, window, self.K)


def residue(f: KernelFn) -> HSeries:
    """Residue sum over the marked points of f * dz: + the z^{-1} coefficient."""
    if len(f.variables) != 1:
        raise ValueError("residue expects a one-variable expansion")
    return f.coefficient((-1,))


def pair_K(f: KernelFn, g: KernelFn) -> HSeries:
    """<f, g> = res(f g dz) on one-variable mode expansions."""
    if f.variables != g.variables:
        g = g.rename({g.variables[0]: f.variables[0]})
    prod = f.mul(g, f.window)
    return residue(prod)


def project(f: KernelFn, side: str) -> KernelFn:
    """Split by exponent sign: R keeps exponents >= 0, Lambda the rest."""
    if side not in ("R", "L"):
        raise ValueError("side must be 'R' or 'L'")
    keep = (lambda e: e >= 0) if side == "R" else (lambda e: e < 0)
    terms = {e: hs for e, hs in f.terms.items() if keep(e[0])}
    return f.copy_with(terms=terms)


def delta_kernel(config: CurveConfig, window: Window,
                 vars=("z", "w")) -> KernelFn:
    """Formal delta distribution sum_a r^a(z) lam_a(w) + lam_a(z) r^a(w).

    On the window this is sum_n z^n w^{-n-1} over all n the window admits.
    """
    region = Region(tuple(vars))
    (zlo, zhi), (wlo, whi) = window.bounds
    terms = {}
    one = HSeries.one(config.K)
    for n in range(max(zlo, -whi - 1), min(zhi, -wlo - 1) + 1):
        terms[(n, -n - 1)] = one
    return KernelFn(region, terms, window, config.K)


def pair_against(kernel: KernelFn, var: str, mode: KernelFn) -> KernelFn:
    """Pair a one-variable mode expansion into one slot of a kernel.

    <mode (x) id, kernel> contracted in ``var``: multiply in that slot and
    take the residue there, leaving a kernel in the remaining variables.
    """
    i = kernel.region.index(var)
    region2 = kernel.region.drop(var)
    window2 = kernel.window.drop(i)
    out: dict = {}
    for e, hs in kernel.terms.items():
        m = mode.coefficient((-1 - e[i],))
        if m.is_zero():
            continue
        e2 = e[:i] + e[i + 1 :]
        add = hs * m
        cur = out.get(e2)
        out[e2] = add if cur is None else cur + add
    return KernelFn(region2, out, window2, kernel.K)


def check_dual_bases(config: CurveConfig) -> dict:
    """<r^a, lam_b> = delta_ab and <r^a, r^b> = 0 on the mode window."""
    M = config.max_mode
    ok_dual = True
    ok_lagrangian = True
    for a in range(M + 1):
        ra = config.mode(config.r_mode_exp(a))
        for b in range(M + 1):
            lb = config.mode(config.lam_mode_exp(b))
            val = pair_K(ra, lb)
            want = HSeries.const(1 if a == b else 0, config.K)
            if val != want:
                ok_dual = False
            rb = config.mode(config.r_mode_exp(b))
            if not pair_K(ra, rb).is_zero():
                ok_lagrangian = False
    return {"dual_basis": ok_dual, "lagrangian": ok_lagrangian}


def check_derivation_preserves_R(config: CurveConfig) -> bool:
    """d/dz maps the truncated R window into itself (degree shift one)."""
    for a in range(config.max_mode + 1):
        d = config.mode(config.r_mode_exp(a)).diff("z")
        if any(e[0] < 0 for e in d.terms):
            return False
    return True


def check_pairing_derivation_invariance(config: CurveConfig) -> bool:
    """<df, g> + <f, dg> = 0 on all window mode pairs."""
    M = config.max_mode
    exps = [config.r_mode_exp(a) for a in range(M + 1)]
    exps += [config.lam_mode_exp(a) for a in range(M + 1)]
    for ea in exps:
        fa = config.mode(ea)
        for eb in exps:
            fb = config.mode(eb)
            s = pair_K(fa.diff("z"), fb) + pair_K(fa, fb.diff("z"))
            if not s.is_zero():
                return False
    return True


def check_delta_reproduces(config: CurveConfig, window: Window) -> bool:
    """Pairing the delta kernel in w against any window mode returns it in z."""
    delta = delta_kernel(config, window)
    (zlo, zhi), (wlo, whi) = window.bounds
    # reproducing holds for modes whose dual partner exponent is in window
    for e in range(max(zlo, -whi - 1), min(zhi, -wlo - 1) + 1):
        mode = config.mode(e, var="w", window=Window((window.bounds[1],)))
        got = pair_against(delta, "w", mode)
        want = KernelFn.monomial((e,), HSeries.one(config.K), Region(("z",)),
                                 Window((window.bounds[0],)), config.K)
        if got != want:
            return False
    return True
