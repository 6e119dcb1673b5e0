"""Synthesis of the deformed cubic-relation coefficient system (m = 1).

Six three-variable coefficient functions over (z, w1, w2) make the
six-term kernel combination

    c0 * q(-2)(z,w1) q(-2)(z,w2) q(4)(w1,w2)
  + c1 * q(-2)(z,w2) q(4)(w1,w2)
  + c2 * q(4)(w1,w2)
  + c0s * q(-2)(z,w1) q(-2)(z,w2)
  + c1s * q(-2)(z,w1)
  + c2s

identically zero, with c0, c2, c0s, c2s in 1 + h*(regular) and c1, c1s in
-2 + h*(regular).  The names record the number of a-currents preceding the
b-current in the matching word ordering (c_pre{k}, with _swap for the
reversed pair of a-slots).

The build follows the sufficient-condition recipe: the six right-hand-side
ratios come from the shift-difference ODE series evaluated at the
derivative defect; c_pre1 = -2 is imposed; c_pre2 and the two gluing
constructions produce c_pre0 and c_pre0_swap from their boundary sections;
c_pre1_swap is a ratio division; and c_pre2_swap closes the identity and
must be pole free, which the three substitution checks certify.

The executable pole checks clear denominators first: each residue
condition is multiplied by the exact linear pole factors, giving a
polynomial identity of regular kernels that can be substituted safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import CurveConfig
from .kernels import (
    ZW,
    build_window,
    eval_gamma,
    exchange_kernel,
    green_defect,
    half_kernel_correction,
    solve_kernel_ode,
)
from .series import (
    HSeries,
    KernelFn,
    Region,
    Window,
    expand_pole,
    linear_factor,
)

R3 = Region(("z", "w1", "w2"))
W1W2 = Region(("w1", "w2"))
ZW2 = Region(("z", "w2"))


@dataclass
class SerreSystem:
    """The six coefficient kernels, all over variables (z, w1, w2)."""

    c_pre0: KernelFn
    c_pre1: KernelFn
    c_pre2: KernelFn
    c_pre0_swap: KernelFn
    c_pre1_swap: KernelFn
    c_pre2_swap: KernelFn

    def as_list(self):
        return [
            self.c_pre0,
            self.c_pre1,
            self.c_pre2,
            self.c_pre0_swap,
            self.c_pre1_swap,
            self.c_pre2_swap,
        ]

    def membership(self) -> dict:
        """c_pre0/2 families in 1 + h*regular, c_pre1 families in -2 + h*."""
        out = {}
        for name, kf, base in (
            ("c_pre0", self.c_pre0, 1),
            ("c_pre1", self.c_pre1, -2),
            ("c_pre2", self.c_pre2, 1),
            ("c_pre0_swap", self.c_pre0_swap, 1),
            ("c_pre1_swap", self.c_pre1_swap, -2),
            ("c_pre2_swap", self.c_pre2_swap, 1),
        ):
            dev = kf - base
            v = dev.hbar_valuation()
            regular = not any(any(x < 0 for x in e) for e in kf.terms)
            out[name] = (v is None or v >= 1) and regular
        return out

    def rescale_hbar(self, c) -> "SerreSystem":
        return SerreSystem(*[k.hbar_scale(c) for k in self.as_list()])

    def truncate(self, K: int) -> "SerreSystem":
        def t(kf):
            return KernelFn(
                kf.region,
                {e: hs.truncate(K) for e, hs in kf.terms.items()},
                kf.window,
                K,
            )

        return SerreSystem(*[t(k) for k in self.as_list()])


# ---------------------------------------------------------------------------
# the divided-kernel helpers
# ---------------------------------------------------------------------------


def divide_val1(num: KernelFn, den: KernelFn, window: Window) -> KernelFn:
    """num/den where den = h * unit; num must have h-valuation >= 1."""
    dv = den.hbar_valuation()
    if dv != 1:
        raise ValueError("denominator h-valuation must be exactly 1")
    lead = den.divide_hbar(1)
    zero_exp = (0,) * len(den.variables)
    u = lead.terms.get(zero_exp)
    if u is None or u.coeffs[0] == 0:
        raise ValueError("denominator leading coefficient is not a unit")
    nv = num.hbar_valuation()
    if num.terms and (nv is None or nv < 1):
        raise ValueError("numerator h-valuation must be >= 1")
    return num.divide_hbar(1).mul(lead.inv(window), window)


# ---------------------------------------------------------------------------
# split data: q-kernel combinations written over the Green kernel
# ---------------------------------------------------------------------------


@dataclass
class SplitData:
    """Regular split X = U + V * G21 of a shifted exchange-kernel product."""

    U: KernelFn
    V: KernelFn


def _exp_minus_phi(scale, pair, defect, window) -> KernelFn:
    phi = eval_gamma(pair.prefactor_log, scale, defect, window)
    return (-phi).exp(window)


def split_shifted(scale, pair, defect, taus, window, K) -> SplitData:
    """U = exp(sum of shifted corrections) * exp(-phi(scale*h)),
    V = -U * psi(scale*h).

    taus is a list of (correction kernel, first-slot shift); all vanish in
    the rational instance but are folded in exactly when present.
    """
    U = _exp_minus_phi(scale, pair, defect, window)
    for tau, shift in taus:
        if tau.is_zero():
            continue
        t = tau.embed(ZW, window)
        if shift:
            t = t.shift_subst("z", shift)
        U = U.mul(t.exp(window), window)
    psi = eval_gamma(pair.green_coeff, scale, defect, window)
    V = -U.mul(psi, window)
    return SplitData(U, V)


def verify_split(split: SplitData, product: KernelFn, config: CurveConfig,
                 window: Window, check: int) -> bool:
    """product == U + V * G21 on the check box (oracle for the splits)."""
    G21 = expand_pole(ZW, "z", "w", window, config.K)
    rhs = split.U + split.V.mul(G21, window)
    box = Window.cube(-check, check, 2)
    return (product - rhs).restrict(box).is_zero()


# ---------------------------------------------------------------------------
# right-hand-side ratios
# ---------------------------------------------------------------------------


@dataclass
class RhsRatios:
    """The six locus ratios, each of the form -1/2 + h*(regular).

    at_w1 ratios live on the locus z = q^{-d}w1 (variables (w1, w2)),
    at_w2 on z = q^{-d}w2 (variables (w1, w2)),
    at_diag on w1 = q^{2d}w2 evaluated in the shifted frame (variables
    (z, w2)).  ratio1/ratio2 are the two c_pre0_swap/c_pre0 ratios
    (elements of 1 + h*(regular)).
    """

    pre0_over_pre1s_at_w1: KernelFn
    pre0s_over_pre1s_at_w1: KernelFn
    pre0_over_pre1_at_w2: KernelFn
    pre0s_over_pre1_at_w2: KernelFn
    pre0_over_pre1_at_diag: KernelFn
    pre2_over_pre1_at_diag: KernelFn
    ratio1: KernelFn
    ratio2: KernelFn
    split_oracles: dict
    denominator_valuations: dict


def build_rhs_ratios(config: CurveConfig, check: int = 8) -> RhsRatios:
    K = config.K
    wide = build_window(check, K)
    window = Window.cube(-wide, wide, 2)
    pair = solve_kernel_ode(K)
    defect = green_defect(config, check=check)["kernel"].embed(ZW, window)
    tau2 = half_kernel_correction(2, config)["tau"]
    tau_m1 = half_kernel_correction(-1, config)["tau"]

    # q(-2)(q^{-d}z, w) and q(-2)(q^{-d}z, w) q(4)(z, w)
    s_m2 = split_shifted(-2, pair, defect, [(tau_m1, -1)], window, K)
    s_p2 = split_shifted(2, pair, defect, [(tau2, 0), (tau_m1, -1)], window, K)
    # the double product q(-2)(z, q^{3d}w) q(-2)(z, q^{d}w)
    s_m4 = split_shifted(-4, pair, defect, [(tau_m1, -3), (tau_m1, -1)], window, K)

    q_m2 = exchange_kernel(-2, config, window)
    q_4 = exchange_kernel(4, config, window)
    oracles = {
        "shift_m2": verify_split(s_m2, q_m2.shift_subst("z", -1), config,
                                 window, check),
        "shift_p2": verify_split(
            s_p2, q_m2.shift_subst("z", -1).mul(q_4, window), config, window,
            check),
        "shift_m4": verify_split(
            s_m4,
            q_m2.shift_subst("w", 3).mul(q_m2.shift_subst("w", 1), window),
            config, window, check),
    }

    U, V = s_m2.U, s_m2.V
    Up, Vp = s_p2.U, s_p2.V
    # locus z = q^{-d}w1: [c0*Up + c0s*U + c1s] + [c0*Vp + c0s*V] G = 0
    den_a = Up.mul(V, window) - U.mul(Vp, window)
    ra1 = divide_val1(-V, den_a, window)
    ra2 = divide_val1(-Vp, -den_a, window)
    # locus z = q^{-d}w2: kernels transpose; l = U^t, m = -V^t, etc.
    l = U.transpose_in_region()
    m = (-V).transpose_in_region()
    lp = Up.transpose_in_region()
    mp = (-Vp).transpose_in_region()
    den_k = m.mul(lp, window) - l.mul(mp, window)
    rk1 = divide_val1(mp, den_k, window)
    rk2 = divide_val1(-m, den_k, window)
    # locus w1 = q^{2d}w2 in the q^{d}-shifted frame (variables (z, w2))
    r_, s_ = s_m2.U, s_m2.V
    rp_, sp_ = s_m4.U, s_m4.V
    rs1 = divide_val1(-s_, sp_, window)
    rs2 = divide_val1(rp_.mul(s_, window) - r_.mul(sp_, window), sp_, window)

    psi_p = eval_gamma(pair.green_coeff, 2, defect, window)
    psi_m = eval_gamma(pair.green_coeff, -2, defect, window)
    # the two c_pre0_swap/c_pre0 locus ratios; the exp-prefactor combination
    # is fixed to the same element u' on both sides, so it cancels
    ratio1 = divide_val1(-psi_m, psi_p, window).transpose_in_region()
    ratio2 = divide_val1(-psi_p, psi_m, window)

    def to_w1w2(kf):
        return kf.rename({"z": "w1", "w": "w2"}, region=W1W2)

    def to_zw2(kf):
        return kf.rename({"w": "w2"}, region=ZW2)

    vals = {
        "at_w1": den_a.hbar_valuation(),
        "at_w2": den_k.hbar_valuation(),
        "at_diag": sp_.hbar_valuation(),
    }
    return RhsRatios(
        pre0_over_pre1s_at_w1=to_w1w2(ra1),
        pre0s_over_pre1s_at_w1=to_w1w2(ra2),
        pre0_over_pre1_at_w2=to_w1w2(rk1),
        pre0s_over_pre1_at_w2=to_w1w2(rk2),
        pre0_over_pre1_at_diag=to_zw2(rs1),
        pre2_over_pre1_at_diag=to_zw2(rs2),
        ratio1=to_w1w2(ratio1),
        ratio2=to_w1w2(ratio2),
        split_oracles=oracles,
        denominator_valuations=vals,
    )


# ---------------------------------------------------------------------------
# the gluing lemma
# ---------------------------------------------------------------------------


def glue_lemma(f: KernelFn, g: KernelFn, sigma, sigma_p,
               window3: Window | None = None) -> KernelFn:
    """Build h(z1,z2,z3) with h(z, q^{s d}z, w) = f(z,w) and
    h(z, w, q^{s' d}w) = g(z,w).

    Requires the compatibility f(z, q^{(s+s')d}z) = g(z, q^{s d}z); the
    construction is g(z1, q^{-s' d}z3) + f(q^{-s d}z2, z3)
    - g(q^{-s d}z2, q^{-s' d}z3).
    """
    fa = f.substitute_var("w", "z", sigma + sigma_p)
    ga = g.substitute_var("w", "z", sigma)
    if not (fa - ga).is_zero():
        raise ValueError("incompatible sections, no glue exists")
    region = Region(("z1", "z2", "z3"))
    window3 = window3 or Window(
        (f.window.bounds[0], f.window.bounds[0], f.window.bounds[1])
    )
    t1 = g.rename({"z": "z1", "w": "z3"}, region=Region(("z1", "z3")))
    t1 = t1.shift_subst("z3", -sigma_p).embed(region, window3)
    t2 = f.rename({"z": "z2", "w": "z3"}, region=Region(("z2", "z3")))
    t2 = t2.shift_subst("z2", -sigma).embed(region, window3)
    t3 = g.rename({"z": "z2", "w": "z3"}, region=Region(("z2", "z3")))
    t3 = t3.shift_subst("z2", -sigma).shift_subst("z3", -sigma_p)
    t3 = t3.embed(region, window3)
    return t1 + t2 - t3


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _q3(sigma, config, window3, which) -> KernelFn:
    """Exchange kernel on one variable pair, embedded into (z, w1, w2)."""
    two = Window((window3.bounds[0], window3.bounds[1]))
    q = exchange_kernel(sigma, config, Window.cube(
        min(b[0] for b in window3.bounds), max(b[1] for b in window3.bounds), 2))
    if which == "zw1":
        q = q.rename({"w": "w1"}, region=Region(("z", "w1")))
    elif which == "zw2":
        q = q.rename({"w": "w2"}, region=Region(("z", "w2")))
    elif which == "w1w2":
        q = q.rename({"z": "w1", "w": "w2"}, region=W1W2)
    return q.embed(R3, window3)


def synthesize(config: CurveConfig, check: int = 8) -> dict:
    """Run the full m = 1 recipe; returns the system and its check ledger.

    Internally one extra h-order is carried so the valuation-1 divisions
    keep full precision at the requested truncation.
    """
    K = config.K
    cfg_hi = CurveConfig(name=config.name, K=K + 1, max_mode=config.max_mode)
    ratios = build_rhs_ratios(cfg_hi, check=check)
    Kp = K + 1
    wide = build_window(check, Kp)
    w2d = Window.cube(-wide, wide, 2)
    w1d = Window.cube(-wide, wide, 1)
    w3d = Window.cube(-wide, wide, 3)

    minus2 = HSeries.const(-2, Kp)

    # c_pre1 = -2; c_pre2 from the diagonal-locus ratio, de-shifted
    c1 = KernelFn.const(-2, R3, w3d, Kp)
    g2 = ratios.pre2_over_pre1_at_diag.shift_subst("w2", -1).scalar_mul(minus2)
    c2 = g2.embed(R3, w3d)

    # c_pre0 glue: section A on z = q^{-d}w2, section B on w1 = q^{2d}w2
    A = ratios.pre0_over_pre1_at_w2.scalar_mul(minus2)
    B = ratios.pre0_over_pre1_at_diag.shift_subst("w2", -1).scalar_mul(minus2)
    A_diag = A.substitute_var("w1", "w2", 2)      # A(q^{2d}w2, w2)
    B_diag = B.substitute_var("z", "w2", -1)      # B(q^{-d}w2, w2)
    compat_glue = (A_diag - B_diag).is_zero()
    D = A_diag.embed(R3, w3d)
    c0 = B.embed(R3, w3d) + A.embed(R3, w3d) - D

    # the literal two-frame consistency: both determinations of the ratio
    # at (w2, q^{3d}w2, q^{d}w2) coincide; evaluating the w2-locus ratio at
    # (w2+3h, w2+h) is substitute w1 = w2+2h followed by the frame shift
    lhs_frame = ratios.pre0_over_pre1_at_w2.substitute_var("w1", "w2", 2)
    lhs_frame = lhs_frame.shift_subst("w2", 1)
    rhs_frame = ratios.pre0_over_pre1_at_diag.substitute_var("z", "w2", 0)
    compat_frames = (lhs_frame - rhs_frame).is_zero()

    # t(z,z) = 1 and the diagonal agreement of the two swap ratios
    t_diag = ratios.ratio2.substitute_var("w1", "w2", 0)
    one1 = KernelFn.const(1, Region(("w2",)), w1d, Kp)
    t_is_one = (t_diag - one1).is_zero()
    r1_diag = ratios.ratio1.substitute_var("w1", "w2", 0)
    swap_compat = (r1_diag - t_diag).is_zero()

    # c_pre0_swap glue from the two ratio sections
    alpha_at_w2 = c0.substitute_var("z", "w2", -1)
    alpha_at_w1 = c0.substitute_var("z", "w1", -1)
    Ap = ratios.ratio1.mul(alpha_at_w2, w2d)
    Bp = ratios.ratio2.mul(alpha_at_w1, w2d)
    Ap_z = Ap.rename({"w1": "z"}, region=ZW2).shift_subst("z", 1)
    Bp_z = Bp.rename({"w1": "z"}, region=ZW2).shift_subst("z", 1)
    c0s = Ap.embed(R3, w3d) + Bp_z.embed(R3, w3d) - Ap_z.embed(R3, w3d)

    # c_pre1_swap = c_pre0_swap / ratio(at_w1 swap row)
    ra2_3 = ratios.pre0s_over_pre1s_at_w1.embed(R3, w3d)
    c1s = c0s.mul(ra2_3.inv(w3d), w3d)

    # c_pre2_swap closes the identity
    a = _q3(-2, cfg_hi, w3d, "zw1")
    b = _q3(-2, cfg_hi, w3d, "zw2")
    c = _q3(4, cfg_hi, w3d, "w1w2")
    ab = a.mul(b, w3d)
    bc = b.mul(c, w3d)
    c2s = -(
        c0.mul(ab.mul(c, w3d), w3d)
        + c1.mul(bc, w3d)
        + c2.mul(c, w3d)
        + c0s.mul(ab, w3d)
        + c1s.mul(a, w3d)
    )

    # the construction windows carry boundary junk beyond the certified box;
    # the system is handed out restricted to the box where it is exact
    box3 = Window.cube(-check, check, 3)
    system = SerreSystem(
        *[k.restrict(box3) for k in (c0, c1, c2, c0s, c1s, c2s)]
    ).truncate(K)

    inside = c2s.restrict(box3)
    regular = not any(any(x < 0 for x in e) for e in inside.terms)
    dev = (inside - 1).hbar_valuation()
    closing_membership = regular and (dev is None or dev >= 1)

    # post-hoc locus checks for the ratio equations
    def locus_ok(coeff, ratio, denom_coeff, var, shift):
        lhs = coeff.substitute_var("z", var, shift)
        rhs = ratio.mul(denom_coeff.substitute_var("z", var, shift), lhs.window)
        return (lhs - rhs).restrict(Window.cube(-check, check, 2)).is_zero()

    def frame3(coeff):
        # evaluate at (z, w2+3h, w2+h)
        return coeff.substitute_var("w1", "w2", 2).shift_subst("w2", 1)

    def diag_ok(coeff, ratio, denom_coeff):
        lhs = frame3(coeff)
        rhs = ratio.mul(frame3(denom_coeff), lhs.window)
        return (lhs - rhs).restrict(Window.cube(-check, check, 2)).is_zero()

    checks = {
        "split_oracles": ratios.split_oracles,
        "denominator_valuations_one": all(
            v == 1 for v in ratios.denominator_valuations.values()),
        "glue_compat": compat_glue,
        "two_frame_compat": compat_frames,
        "t_diagonal_is_one": t_is_one,
        "swap_ratio_diagonal_agree": swap_compat,
        "closing_coefficient_regular": regular,
        "closing_membership": closing_membership,
        "ratio_at_w1_pre0": locus_ok(
            c0, ratios.pre0_over_pre1s_at_w1, c1s, "w1", -1),
        "ratio_at_w1_pre0s": locus_ok(
            c0s, ratios.pre0s_over_pre1s_at_w1, c1s, "w1", -1),
        "ratio_at_w2_pre0": locus_ok(
            c0, ratios.pre0_over_pre1_at_w2, c1, "w2", -1),
        "ratio_at_w2_pre0s": locus_ok(
            c0s, ratios.pre0s_over_pre1_at_w2, c1, "w2", -1),
        "ratio_at_diag_pre0": diag_ok(c0, ratios.pre0_over_pre1_at_diag, c1),
        "ratio_at_diag_pre2": diag_ok(c2, ratios.pre2_over_pre1_at_diag, c1),
        "membership": system.membership(),
    }
    return {"system": system, "checks": checks, "config": config}


# ---------------------------------------------------------------------------
# identity and pole checks
# ---------------------------------------------------------------------------


def check_main_identity(system: SerreSystem, config: CurveConfig,
                        check: int = 8, half_scale: bool = False) -> dict:
    """The six-term kernel combination vanishes identically on the box.

    With half_scale=True the h -> h/2 rescaled system is checked against
    the q(-1)/q(2) kernels (the normalization the shuffle model consumes).
    """
    K = config.K
    wide = build_window(check, K)
    w3d = Window.cube(-wide, wide, 3)
    if half_scale:
        system = system.rescale_hbar(Fraction(1, 2))
        s_in, s_out = -1, 2
    else:
        s_in, s_out = -2, 4
    a = _q3(s_in, config, w3d, "zw1")
    b = _q3(s_in, config, w3d, "zw2")
    c = _q3(s_out, config, w3d, "w1w2")
    emb = [k.embed(R3, w3d) if k.region != R3 else k for k in system.as_list()]
    c0, c1, c2, c0s, c1s, c2s = emb
    total = (
        c0.mul(a.mul(b, w3d).mul(c, w3d), w3d)
        + c1.mul(b.mul(c, w3d), w3d)
        + c2.mul(c, w3d)
        + c0s.mul(a.mul(b, w3d), w3d)
        + c1s.mul(a, w3d)
        + c2s
    )
    box = Window.cube(-check, check, 3)
    dev = total.restrict(box)
    return {"deviation_zero": dev.is_zero(), "half_scale": half_scale}


def check_general_identity(coeffs: dict, m: int, config: CurveConfig,
                           check: int = 6, s_in: int = -2,
                           s_out: int = 4) -> dict:
    """Evaluate the general-m form of the identity for an externally
    supplied coefficient family.

    coeffs maps (k, perm) with k in 0..m+1 and perm a permutation tuple of
    (1..m+1) to a KernelFn over (z, w1, ..., w_{m+1}); the combination

      sum_{k, perm} coeff * prod_{i>k} q(s_in)(z, w_{perm(i)})
                          * prod_{i<j, perm(i)<perm(j)} q(s_out)(w_i, w_j)

    must vanish.  Only m = 1 is synthesized in-package; this entry point
    checks any supplied family.
    """
    import itertools as _it

    K = config.K
    n = m + 1
    names = ("z",) + tuple(f"w{i}" for i in range(1, n + 1))
    region = Region(names)
    wide = build_window(check, K)
    wnd = Window.cube(-wide, wide, n + 1)

    def q_pair(sigma, x, y):
        q = exchange_kernel(sigma, config, Window.cube(-wide, wide, 2))
        q = q.rename({"z": x, "w": y}, region=Region((x, y)))
        return q.embed(region, wnd)

    cache = {}

    def q_cached(sigma, x, y):
        key = (sigma, x, y)
        if key not in cache:
            cache[key] = q_pair(sigma, x, y)
        return cache[key]

    total = KernelFn.zero(region, wnd, K)
    for (k, perm), coeff in coeffs.items():
        term = coeff.embed(region, wnd) if coeff.region != region else coeff
        for i in range(k + 1, n + 1):
            term = term.mul(q_cached(s_in, "z", f"w{perm[i - 1]}"), wnd)
        for i, j in _it.combinations(range(1, n + 1), 2):
            if perm[i - 1] < perm[j - 1]:
                term = term.mul(q_cached(s_out, f"w{i}", f"w{j}"), wnd)
        total = total + term
    box = Window.cube(-check, check, n + 1)
    dev = total.restrict(box)
    return {"m": m, "deviation_zero": dev.is_zero()}


def system_as_family(system: SerreSystem) -> dict:
    """Re-index the six coefficients as the (k, permutation) family."""
    return {
        (0, (1, 2)): system.c_pre0,
        (1, (1, 2)): system.c_pre1,
        (2, (1, 2)): system.c_pre2,
        (0, (2, 1)): system.c_pre0_swap,
        (1, (2, 1)): system.c_pre1_swap,
        (2, (2, 1)): system.c_pre2_swap,
    }


def check_pole_vanishing(system: SerreSystem, config: CurveConfig,
                         check: int = 8) -> dict:
    """The three pole conditions, in two executable forms.

    (a) literal products: (pole factor) * c_pre2_swap vanishes under the
        matching substitution (c_pre2_swap is regular, so this is safe);
    (b) denominator-cleared residue conditions at each pole locus, using
        the exact linear factors N/D of the rational kernels:
        N_a = z-w1-h, D_a = z-w1+h, N_b = z-w2-h, D_b = z-w2+h,
        N_c = w1-w2+2h, D_c = w1-w2-2h.
    """
    K = config.K
    wide = build_window(check, K)
    w3d = Window.cube(-wide, wide, 3)
    emb = [k.embed(R3, w3d) if k.region != R3 else k for k in system.as_list()]
    c0, c1, c2, c0s, c1s, c2s = emb
    box2 = Window.cube(-check, check, 2)

    def is_zero_sub(kf, var_from, var_to, shift):
        sub = kf.substitute_var(var_from, var_to, shift)
        return sub.restrict(
            Window.cube(-check, check, len(sub.variables))).is_zero()

    out = {}
    # (a) literal pole products on the closing coefficient
    f1 = linear_factor(R3, "z", "w1", 1, w3d, K)
    f2 = linear_factor(R3, "z", "w2", 1, w3d, K)
    f3 = linear_factor(R3, "w1", "w2", -2, w3d, K)
    out["product_at_w1"] = is_zero_sub(f1.mul(c2s, w3d), "z", "w1", -1)
    out["product_at_w2"] = is_zero_sub(f2.mul(c2s, w3d), "z", "w2", -1)
    out["product_at_diag"] = is_zero_sub(f3.mul(c2s, w3d), "w1", "w2", 2)

    Na = linear_factor(R3, "z", "w1", -1, w3d, K)
    Da = linear_factor(R3, "z", "w1", 1, w3d, K)
    Nb = linear_factor(R3, "z", "w2", -1, w3d, K)
    Db = linear_factor(R3, "z", "w2", 1, w3d, K)
    Nc = linear_factor(R3, "w1", "w2", 2, w3d, K)
    Dc = linear_factor(R3, "w1", "w2", -2, w3d, K)

    # residue at z = q^{-d}w1: c0*b*c + c0s*b + c1s = 0, cleared by Db*Dc
    e1 = (
        c0.mul(Nb, w3d).mul(Nc, w3d)
        + c0s.mul(Nb, w3d).mul(Dc, w3d)
        + c1s.mul(Db, w3d).mul(Dc, w3d)
    )
    out["residue_at_w1"] = is_zero_sub(e1, "z", "w1", -1)
    # residue at z = q^{-d}w2: c0*a*c + c1*c + c0s*a = 0, cleared by Da*Dc
    e2 = (
        c0.mul(Na, w3d).mul(Nc, w3d)
        + c1.mul(Da, w3d).mul(Nc, w3d)
        + c0s.mul(Na, w3d).mul(Dc, w3d)
    )
    out["residue_at_w2"] = is_zero_sub(e2, "z", "w2", -1)
    # residue at w1 = q^{2d}w2: c0*a*b + c1*b + c2 = 0, cleared by Da*Db
    e3 = (
        c0.mul(Na, w3d).mul(Nb, w3d)
        + c1.mul(Da, w3d).mul(Nb, w3d)
        + c2.mul(Da, w3d).mul(Db, w3d)
    )
    out["residue_at_diag"] = is_zero_sub(e3, "w1", "w2", 2)
    out["all_zero"] = all(out.values())
    return out


def check_diagonal_divisibility(config: CurveConfig, check: int = 6) -> bool:
    """Exact-division certificate on Laurent polynomials: anything vanishing
    at w = z is divisible by (z - w) with zero remainder, and a
    non-vanishing sample is rejected."""
    from .series import divide_linear

    K = config.K
    window = Window.cube(-check, check, 2)
    # deterministic sample h, f = (z-w) h
    terms = {}
    for i, (p, q_) in enumerate([(0, 0), (2, -1), (-2, 1), (1, 3)]):
        terms[(p, q_)] = HSeries.hbar(K, i % K, Fraction(i + 1, 3))
    h = KernelFn(ZW, terms, window, K)
    f = linear_factor(ZW, "z", "w", 0, Window.cube(-check - 1, check + 1, 2), K)
    prod = f.mul(h.restrict(window), Window.cube(-check - 1, check + 1, 2))
    quotient = divide_linear(prod, "z", "w")
    ok = (quotient - h.embed(quotient.region, quotient.window)).is_zero()
    try:
        divide_linear(KernelFn.const(1, ZW, window, K), "z", "w")
        rejected = False
    except ValueError:
        rejected = True
    return ok and rejected
