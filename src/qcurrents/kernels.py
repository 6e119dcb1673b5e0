"""Structural two-point kernels and their identities.

Everything is driven by the Green kernel G(z,w) = sum_a z^a w^{-a-1}
(the half of the formal delta built from dual mode bases; it window-matches
the expansion of 1/(w-z) for z << w).  From it:

* the derivative defect (d_z G) - G^2, which must land in the regular
  ring tensor square (it vanishes identically in the rational instance);
* the exchange kernels q(s) = exp(O_s G^(21)), O_s the even shift-difference
  operator series in d/dz, which window-match (z-w+s*h/2)/(z-w-s*h/2);
* their one-sided halves q+(s) with q+(s)(z,w)/q+(s)(w,z) = q(s);
* the regular part of q(s) after dividing off the canonical pole factor;
* the pair (u, v) of gamma-polynomial series solving the first-order
  h-ODEs that control residues of the exponential kernels, and the
  log-expansion identity tying the operator picture to them.  The pair are
  ``KernelFn`` polynomials over the region (g0, ..., g{K-1}), found by
  Picard iteration in h, and g_i is evaluated as d_z^i of the defect.

The exchange kernels and their closed forms depend only on t = z - w in
the rational instance; they are built as one-variable series in t and
expanded into the (z, w) window once.  All identity checks construct on a
widened window and assert on an interior box, so every asserted coefficient
is exact (see series module notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .geometry import CurveConfig, project
from .series import (
    HSeries,
    KernelFn,
    Q,
    Region,
    Window,
    _from_ints,
    expand_difference,
    expand_linear_ratio,
    expand_pole,
    linear_factor,
    memoized,
    shifted_pole_t,
)

ZW = Region(("z", "w"))  # w << z

# half-width of the (z, w) box on which half_kernel_correction builds tau
CORRECTION_HALF_WIDTH = 10


def build_window(check: int, K: int) -> int:
    """Widened half-width so products are exact on the check box.

    A window product of one-direction expansions (z exponents <= 0 and w
    exponents >= 0 for w << z) is exact on the whole window and needs no
    widening.  Mixed-direction products pull source exponents up to the sum
    of two output exponents plus the h-order, hence 2*check + K.
    """
    return 2 * check + K


# ---------------------------------------------------------------------------
# operator series in d/dz (entry k = HSeries coefficient of d^k)
# ---------------------------------------------------------------------------


def shift_difference_series(sigma, K: int):
    """(q^{s d/2} - q^{-s d/2})/d = sum_{k even} 2 (s/2)^{k+1} h^{k+1} d^k/(k+1)!"""
    a = Q(sigma) / 2
    out = []
    for k in range(K):
        if k % 2 == 0:
            out.append(HSeries.hbar(K, k + 1, 2 * a ** (k + 1) / factorial(k + 1)))
        else:
            out.append(HSeries.zero(K))
    return out


def shift_minus_one_series(a, K: int):
    """(q^{a d} - 1)/d = sum_k a^{k+1} h^{k+1} d^k/(k+1)!"""
    a = Q(a)
    return [HSeries.hbar(K, k + 1, a ** (k + 1) / factorial(k + 1)) for k in range(K)]


def cartan_shift_series(sigma, K: int):
    """(q^{s d/2} - q^{-s d/2})/(h d): the shift-difference series over h."""
    return [s.shift(-1) for s in shift_difference_series(sigma, K)]


# ---------------------------------------------------------------------------
# Green kernel and its defect
# ---------------------------------------------------------------------------


def green_kernel(config: CurveConfig, window: Window,
                 region: Region = ZW) -> KernelFn:
    """Mode sum of dual bases across the two slots, clipped to the window.

    In region ("w","z") (z small) this is G(z,w) = sum_a z^a w^{-a-1};
    in region ("z","w") it is the swapped kernel sum_a z^{-a-1} w^a.
    """
    large, small = region.order
    return expand_pole(region, large, small, window, config.K)


def green_defect(config: CurveConfig, check: int = 10) -> dict:
    """(d (x) id)G - G^2, asserted to have no negative exponents.

    The first tensor slot is z; G lives in the region z << w.
    """
    K = config.K
    wide = build_window(check, K)
    region = Region(("w", "z"))
    window = Window.cube(-wide, wide, 2)
    G = green_kernel(config, window, region)
    defect = G.diff("z") - G.mul(G, window)
    box = Window.cube(-check, check, 2)
    inside = defect.restrict(box)
    return {
        "kernel": inside,
        "regular": not any(any(x < 0 for x in e) for e in inside.terms),
        "zero": inside.is_zero(),
    }


# ---------------------------------------------------------------------------
# gamma-polynomial ODE series
# ---------------------------------------------------------------------------


def _apply_D(f: KernelFn) -> KernelFn:
    """D = sum_i g_{i+1} d/dg_i in one pass; raising past g_{K-1} is an error.
    The result goes through the checking constructor, so a term past the
    window raises instead of being dropped."""
    last = len(f.region.order) - 1
    out: dict = {}
    for m, hs in f.terms.items():
        for i, e in enumerate(m):
            if not e:
                continue
            if i == last:
                raise ValueError("gamma index overflow under D")
            m2 = m[:i] + (e - 1, m[i + 1] + 1) + m[i + 2:]
            add = hs * e
            cur = out.get(m2)
            out[m2] = add if cur is None else cur + add
    return KernelFn(f.region, out, f.window, f.K)


def _times_g0(f: KernelFn) -> KernelFn:
    g0 = (1,) + (0,) * (len(f.region.order) - 1)
    return f.mul(KernelFn.monomial(g0, 1, f.region, f.window, f.K))


def _integrate_hbar(f: KernelFn) -> KernelFn:
    """Termwise h-integral from 0, truncated at h^K, on integer numerators:
    c_k h^k -> c_k h^{k+1}/(k+1) over the common denominator lcm(1..K-1)."""
    K = f.K
    scale = lcm(*range(1, K))
    steps = [scale // (k + 1) for k in range(K - 1)]
    return f.copy_with({
        m: _from_ints(hs.den * scale,
                      [0] + [n * s for n, s in zip(hs.nums, steps)])
        for m, hs in f.terms.items()})


@dataclass
class KernelOdePair:
    """Solutions of d_h u = D u - 1 - g_0 u^2 and d_h v = D v - g_0 u.

    Both are polynomials in g_0..g_{K-1} with coefficients in Q[[h]]/h^K:
    kernels over the region (g0, ..., g{K-1}) on the window [0, K]^K.
    """

    green_coeff: KernelFn   # u: leading term -h
    prefactor_log: KernelFn  # v: leading term (1/2) h^2 g_0


def solve_kernel_ode(K: int) -> KernelOdePair:
    """Picard iteration from zero: u <- int_h(Du - 1 - g_0 u^2) and
    v <- int_h(Dv - g_0 u), K - 1 times; each step fixes one more h-order.

    The window is exact.  Give g_i the weight i + 2.  Every term of u at
    h-order n has weight <= n - 1 and every term of v weight <= n: the
    integral raises the h-order by one, D raises the weight by one and
    g_0 u^2 adds 2 to a product of weight <= n - 2, and these bounds hold
    for every iterate.  So an exponent is at most (K - 1)/2, the window
    [0, K] never drops a term, and D never reaches past g_{K-1}.
    """
    region = Region(tuple(f"g{i}" for i in range(K)))
    u = v = KernelFn.zero(region, Window.cube(0, K, K), K)
    for _ in range(K - 1):
        u, v = (_integrate_hbar(_apply_D(u) - 1 - _times_g0(u.mul(u))),
                _integrate_hbar(_apply_D(v) - _times_g0(u)))
    return KernelOdePair(u, v)


def ode_residual(pair: KernelOdePair) -> bool:
    """Independent substitution oracle: plug the solutions back into the ODEs
    and check both residuals vanish through h^{K-2}, the last order the
    termwise h-derivative of a series cut at h^K still knows."""
    u, v = pair.green_coeff, pair.prefactor_log
    K = u.K

    def d_hbar(f):
        return f.copy_with({
            m: _from_ints(hs.den, [n * k for k, n in enumerate(hs.nums)][1:])
            for m, hs in f.terms.items()})

    res_u = d_hbar(u) - _apply_D(u) + 1 + _times_g0(u.mul(u))
    res_v = d_hbar(v) - _apply_D(v) + _times_g0(u)
    return not any(f.hbar_coefficient(n)
                   for f in (res_u, res_v) for n in range(K - 1))


def eval_gamma(gs: KernelFn, sigma, gamma_kernel: KernelFn,
               window: Window | None = None) -> KernelFn:
    """Substitute h -> sigma*h and g_i -> d_z^i gamma_kernel(z, w)."""
    scaled = gs.hbar_scale(sigma)
    region = gamma_kernel.region
    window = window or gamma_kernel.window
    K = gs.K
    zvar = region.order[region.order.index("z")] if "z" in region.order else region.order[0]
    derivs = [gamma_kernel]
    for _ in range(1, K):
        derivs.append(derivs[-1].diff(zvar))
    out = KernelFn.zero(region, window, K)
    for m, hs in scaled.terms.items():
        term = KernelFn.const(1, region, window, K)
        for i, e in enumerate(m):
            for _ in range(e):
                term = term.mul(derivs[i], window)
        out = out + term.scalar_mul(hs)
    return out


# ---------------------------------------------------------------------------
# half-kernel correction (the antisymmetrizer constraint term)
# ---------------------------------------------------------------------------


@memoized
def half_kernel_correction(sigma, config: CurveConfig) -> dict:
    """The correction tau(s) with tau + tau^(21) + sum_i r^i (x) (O_s lam_i)_R = 0.

    In the rational instance every operator image of a Lambda mode stays in
    Lambda, the constraint term vanishes and tau = 0 is the pinned choice;
    in general the symmetric split -1/2 * constraint is returned.

    Equal inputs share one memoized dict, which callers only read.
    """
    K = config.K
    window1 = Window(((-config.max_mode - 1 - K, config.max_mode),))
    series = shift_difference_series(sigma, K)
    region = ZW
    window2 = Window.cube(-CORRECTION_HALF_WIDTH, CORRECTION_HALF_WIDTH, 2)
    constraint = KernelFn.zero(region, window2, K)
    all_projections_vanish = True
    for i in range(config.max_mode + 1):
        lam = config.mode(config.lam_mode_exp(i), var="z", window=window1)
        image = lam.diff_op("z", series)
        proj = project(image, "R")
        if not proj.is_zero():
            all_projections_vanish = False
            for (e,), hs in proj.terms.items():
                mono = KernelFn.monomial((i, e), hs, region, window2, K)
                constraint = constraint + mono
    if all_projections_vanish:
        tau = KernelFn.zero(region, window2, K)
    else:
        tau = constraint.scalar_mul(Fraction(-1, 2))
    defect = tau + tau.transpose_in_region() + constraint
    return {
        "tau": tau,
        "projection_vanishes": all_projections_vanish,
        "constraint_satisfied": defect.is_zero(),
    }


# ---------------------------------------------------------------------------
# exchange kernels
# ---------------------------------------------------------------------------


def _exp_of_pole_t(series, K: int) -> KernelFn:
    """exp(sum_k series[k] d^k (1/t)) in t = z - w, where d = d/dz = d/dt."""
    return shifted_pole_t(0, K).diff_op("t", series).exp()


def _with_correction(q: KernelFn, sigma, config: CurveConfig,
                     window: Window) -> KernelFn:
    """q * exp(tau(s)) on the window; tau(s) is not translation invariant on
    a general curve, so it multiplies in on the (z, w) window."""
    tau = half_kernel_correction(sigma, config)["tau"]
    if tau.is_zero():
        return q
    return q.mul(tau.embed(ZW, window).exp(window), window)


@memoized
def exchange_kernel(sigma, config: CurveConfig, window: Window) -> KernelFn:
    """q(s)(z,w) = exp(O_s applied to sum_a lam_a(z) r^a(w)), region w << z.

    The mode sum is never materialized basis by basis: it is the expansion
    of 1/t, t = z - w, so exp(O_s 1/t) is built in t and expanded into the
    window once.
    """
    q_t = _exp_of_pole_t(shift_difference_series(sigma, config.K), config.K)
    return _with_correction(expand_difference(q_t, ZW, "z", "w", window),
                            sigma, config, window)


def exchange_kernel_closed(sigma, K: int, window: Window,
                           region: Region = ZW) -> KernelFn:
    """Window expansion of (z-w+s*h/2)/(z-w-s*h/2) in the given region."""
    a = Q(sigma) / 2
    if region.order == ("z", "w"):
        return expand_linear_ratio(region, "z", "w", a, -a, window, K)
    if region.order == ("w", "z"):
        # rewrite over w-z: (w-z-a h)/(w-z+a h)
        return expand_linear_ratio(region, "w", "z", -a, a, window, K)
    raise ValueError("expected variables z, w")


def half_exchange_kernel(sigma, config: CurveConfig, window: Window) -> KernelFn:
    """q+(s)(z,w) = exp((q^{s d/2}-1)/d applied to the kernel), region w << z,
    built in t = z - w and expanded into the window once."""
    K = config.K
    q_t = _exp_of_pole_t(shift_minus_one_series(Q(sigma) / 2, K), K)
    return expand_difference(q_t, ZW, "z", "w", window)


def half_exchange_closed(sigma, K: int, window: Window) -> KernelFn:
    """Window expansion of (z-w+s*h/2)/(z-w), z dominant."""
    return expand_linear_ratio(ZW, "z", "w", Q(sigma) / 2, 0, window, K)


def check_closed_form(sigma, config: CurveConfig, check: int = 10) -> dict:
    """Constructed q(s) equals the expanded rational closed form."""
    K = config.K
    wide = build_window(check, K)
    window = Window.cube(-wide, wide, 2)
    box = Window.cube(-check, check, 2)
    q = exchange_kernel(sigma, config, window).restrict(box)
    closed = exchange_kernel_closed(sigma, K, window).restrict(box)
    return {"match": q == closed, "orientation": "plus"}


def regular_exchange_part(sigma, config: CurveConfig, check: int = 8) -> dict:
    """i(s) = q(s) / [(w - q^{s d/2} z)/(q^{s d/2} w - z)]; must be pole free.

    In the rational instance the pole factor equals the closed form of q(s),
    so i(s) = 1 exactly.  The quotient is formed in t = z - w, with the
    closed form (t + s*h/2)/(t - s*h/2) = 1 + s*h/(t - s*h/2).
    """
    K = config.K
    wide = build_window(check, K)
    window = Window.cube(-wide, wide, 2)
    a = Q(sigma) / 2
    closed_t = shifted_pole_t(a, K).scalar_mul(HSeries.hbar(K, 1, 2 * a)) + 1
    i_t = _exp_of_pole_t(shift_difference_series(sigma, K), K).mul(
        closed_t.inv())
    i = _with_correction(expand_difference(i_t, ZW, "z", "w", window), sigma,
                         config, window)
    box = Window.cube(-check, check, 2)
    i = i.restrict(box)
    one = KernelFn.const(1, ZW, box, K)
    dev = i - one
    dev_val = dev.hbar_valuation()
    return {
        "kernel": i,
        "is_one": dev.is_zero(),
        "in_one_plus_hbar": dev.is_zero() or (dev_val is not None and dev_val >= 1),
    }


def prolong_and_check_inverse(sigma, config: CurveConfig, check: int = 8) -> dict:
    """q(s)(z,w) q(s)(w,z)|_{z<<w} = 1.

    Executed through the closed-form pole factors: the constructed kernel
    must match its closed form (so the analytic prolongation of the swap is
    the swapped closed form), and the product of the two rational forms is
    1 iff the exact Laurent-polynomial cross identity
    N(z,w) N(w,z) = D(z,w) D(w,z) holds for N = z-w+s*h/2, D = z-w-s*h/2.
    The residual regular parts multiply to i(s)(z,w) i(s)(w,z) = 1.
    """
    K = config.K
    a = Q(sigma) / 2
    match = check_closed_form(sigma, config, check)["match"]
    reg = regular_exchange_part(sigma, config, check)
    poly_window = Window.cube(-2, 2, 2)
    N = linear_factor(ZW, "z", "w", a, poly_window, K)
    D = linear_factor(ZW, "z", "w", -a, poly_window, K)
    N21 = linear_factor(ZW, "w", "z", a, poly_window, K)
    D21 = linear_factor(ZW, "w", "z", -a, poly_window, K)
    cross = N.mul(N21, poly_window) - D.mul(D21, poly_window)
    return {"deviation_zero": match and reg["is_one"] and cross.is_zero()}


def check_half_factorization(sigma, config: CurveConfig, check: int = 8) -> dict:
    """q+(s)(z,w) / q+(s)(w,z)|_{w<<z} = q(s)(z,w).

    The swapped factor re-expanded in w << z is (w-z)/(w-z+s*h/2); checked
    as q+(s) * that = q(s), all in one region.
    """
    K = config.K
    wide = build_window(check, K)
    window = Window.cube(-wide, wide, 2)
    qp = half_exchange_kernel(sigma, config, window)
    closed = half_exchange_closed(sigma, K, window)
    closed_match = (
        qp.restrict(Window.cube(-check, check, 2))
        == closed.restrict(Window.cube(-check, check, 2))
    )
    a = Q(sigma) / 2
    # (w-z)/(w-z+a h) expanded for w << z equals (z-w)/(z-w-a h)
    swap_factor = expand_linear_ratio(ZW, "z", "w", 0, -a, window, K)
    lhs = qp.mul(swap_factor, window)
    q = exchange_kernel(sigma, config, window)
    box = Window.cube(-check, check, 2)
    dev = (lhs - q).restrict(box)
    return {
        "closed_form_match": closed_match,
        "factorization_zero": dev.is_zero(),
    }


def check_log_expansion_identity(config: CurveConfig, check: int = 8) -> dict:
    """sum_a ((q^d - 1)/d) lam_a(z) r^a(w) = -v(h) + log(1 - G21 u(h)).

    u, v are the ODE pair evaluated at the gamma defect (zero here, so the
    evaluation machinery runs with the genuine defect kernel).
    """
    K = config.K
    wide = build_window(check, K)
    window = Window.cube(-wide, wide, 2)
    base = expand_pole(ZW, "z", "w", window, K)
    lhs = base.diff_op("z", shift_minus_one_series(1, K))

    defect = green_defect(config, check=check)["kernel"].embed(ZW, window)
    pair = solve_kernel_ode(K)
    u = eval_gamma(pair.green_coeff, 1, defect, window)
    v = eval_gamma(pair.prefactor_log, 1, defect, window)
    inner = -base.mul(u, window)
    rhs = inner.log1p(window) - v
    box = Window.cube(-check, check, 2)
    dev = (lhs - rhs).restrict(box)
    return {"identity_zero": dev.is_zero()}


def check_regular_translates(sigma, config: CurveConfig, check: int = 6) -> dict:
    """(a(q^{-s d}z) - a(w)) q(2s)(z,w) has no negative exponents, a in {z, z^2};
    and (a(z)-a(w)) G is regular for a = z^2."""
    K = config.K
    wide = build_window(check, K)
    window = Window.cube(-wide, wide, 2)
    q2s = exchange_kernel(2 * sigma, config, window)
    box = Window.cube(-check, check, 2)
    results = {}
    s = Q(sigma)
    # a = z: factor z - s h - w
    f1 = linear_factor(ZW, "z", "w", -s, window, K)
    p1 = f1.mul(q2s, window).restrict(box)
    results["linear"] = not any(any(x < 0 for x in e) for e in p1.terms)
    # a = z^2: (z - s h)^2 - w^2
    terms = {
        (2, 0): HSeries.one(K),
        (1, 0): HSeries.hbar(K, 1, -2 * s),
        (0, 0): HSeries.hbar(K, 2, s * s),
        (0, 2): HSeries.const(-1, K),
    }
    f2 = KernelFn(ZW, terms, window, K)
    p2 = f2.mul(q2s, window).restrict(box)
    results["quadratic"] = not any(any(x < 0 for x in e) for e in p2.terms)
    # (z^2 - w^2) G regular, G in region z << w (storage order is (w, z))
    regionG = Region(("w", "z"))
    G = green_kernel(config, window, regionG)
    g2 = KernelFn(
        regionG,
        {(0, 2): HSeries.one(K), (2, 0): HSeries.const(-1, K)},
        window,
        K,
    )
    pG = g2.mul(G, window).restrict(box)
    results["green_quadratic"] = not any(any(x < 0 for x in e) for e in pG.terms)
    return results
