"""Synthesis of the deformed cubic-relation coefficient system (m = 1).

The system is a family of coefficient functions c_{k,perm} over
(z, w1, ..., w_{m+1}), keyed by (k, perm): k counts the a-currents before
the b-current and perm orders the a-slots.  The kernel sum

    sum_{k, perm} c_{k,perm} * prod_{i>k} q(-2)(z, w_perm(i))
                             * prod_{i<j, perm(i)<perm(j)} q(4)(w_i, w_j)

must vanish identically (the Enriquez-Rubtsov form of the cubic relation),
with c_{k,perm} in (-1)^k C(m+1, k) + h*(regular).  Everything else a key
names is derived from it: the report name c_pre{k}, with _swap for
perm = (2, 1), and the ordering of the word it weights.  At m = 1 these are
c_pre0, c_pre1, c_pre2, c_pre0_swap, c_pre1_swap and c_pre2_swap.

The build follows the sufficient-condition recipe: the six right-hand-side
ratios come from the shift-difference ODE series evaluated at the
derivative defect; c_pre1 = -2 is imposed; c_pre2 and the two gluing
constructions produce c_pre0 and c_pre0_swap from their boundary sections;
c_pre1_swap is a ratio division; and c_pre2_swap closes the identity and
must be pole free, which the three substitution checks certify.

The pole checks are read off the keys too: ``kernel_factors`` lists the
exchange-kernel factors of each term, and the residue at each factor's
pole is cleared by the exact linear factors of the others, giving a
polynomial identity of regular kernels that can be substituted safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

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


def report_name(key) -> str:
    """The report name: c_pre{k}, with _swap when perm = (2, 1)."""
    k, perm = key
    return f"c_pre{k}" + ("_swap" if perm == (2, 1) else "")


def membership_base(key) -> int:
    """(-1)^k C(m+1, k), the h^0 value of the coefficient c_{k,perm}."""
    k, perm = key
    return (-1) ** k * comb(len(perm), k)


def word_slots(key) -> tuple:
    """Carrier variables of the key's word, letter by letter: the a-slots
    w_perm(1), ..., w_perm(m+1), with the b-slot z inserted at position k."""
    k, perm = key
    slots = tuple(f"w{p}" for p in perm)
    return slots[:k] + ("z",) + slots[k:]


def kernel_factors(key) -> list:
    """The exchange-kernel factors of the key's term, as (kind, x, y):
    ("in", "z", w_p) for each p in perm[k:], then ("out", w_i, w_j) for each
    i < j with perm(i) < perm(j).  An "in" factor is q(s_in)(x, y), an "out"
    factor q(s_out)(x, y)."""
    k, perm = key
    names = [f"w{i}" for i in range(1, len(perm) + 1)]
    return ([("in", "z", names[p - 1]) for p in perm[k:]]
            + [("out", names[i], names[j])
               for i, j in combinations(range(len(perm)), 2)
               if perm[i] < perm[j]])


def _regular(kf: KernelFn) -> bool:
    return not any(any(x < 0 for x in e) for e in kf.terms)


def _in_base(kf: KernelFn, base) -> bool:
    """kf lies in base + h*(regular)."""
    v = (kf - base).hbar_valuation()
    return _regular(kf) and (v is None or v >= 1)


@dataclass
class SerreSystem:
    """The coefficient family {(k, perm): KernelFn} over (z, w1, ..., w_{m+1})."""

    coeffs: dict

    def membership(self) -> dict:
        """Each coefficient in its membership base + h*regular, by report name."""
        return {report_name(key): _in_base(kf, membership_base(key))
                for key, kf in self.coeffs.items()}

    def _map(self, f) -> "SerreSystem":
        return SerreSystem({key: f(kf) for key, kf in self.coeffs.items()})

    def rescale_hbar(self, c) -> "SerreSystem":
        return self._map(lambda kf: kf.hbar_scale(c))

    def truncate(self, K: int) -> "SerreSystem":
        return self._map(lambda kf: KernelFn(kf.region, kf.terms, kf.window, K))

    def require_box(self, check: int):
        """Raise ValueError unless [-check, check] lies inside every
        coefficient's window in every variable: past a window the checks
        would read the missing terms as zero."""
        for key, kf in self.coeffs.items():
            if any(lo > -check or hi < check for lo, hi in kf.window.bounds):
                raise ValueError(
                    f"check box [-{check}, {check}] is not inside the window "
                    f"{kf.window.bounds} of {report_name(key)}")


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
# synthesis
# ---------------------------------------------------------------------------


def kernel_sum(coeffs: dict, config: CurveConfig, check: int,
               s_in=-2, s_out=4) -> KernelFn:
    """sum_{k, perm} c_{k,perm} * prod_{i>k} q(s_in)(z, w_perm(i))
                                * prod_{i<j, perm(i)<perm(j)} q(s_out)(w_i, w_j)

    over the family's keys (the factors of each term are kernel_factors(key)),
    on the check box [-check, check]; m = len(perm) - 1 is read from the keys.

    Each term multiplies the chain [factors..., coefficient] left to right,
    and partial product i is kept on wide & [-check - sum_{j>i} max_j,
    check - sum_{j>i} min_j] per variable, wide = build_window(check, K) and
    min_j/max_j the exponent span of the terms of the later member j.  This
    is exact: every partial is filtered to wide as on the full cube, and a
    term dropped on top of that cannot reach the box through the remaining
    members, so the box values are the full-cube ones without any
    assumption on the direction of the expansions.
    """
    if not coeffs:
        raise ValueError("empty coefficient family")
    n = len(next(iter(coeffs))[1])
    names = [f"w{i}" for i in range(1, n + 1)]
    region = Region(("z", *names))
    wide = build_window(check, config.K)
    window = Window.cube(-wide, wide, n + 1)

    def q(sigma, x, y):
        """The exchange kernel q(sigma)(x, y), embedded into the region."""
        pair = exchange_kernel(sigma, config, Window.cube(-wide, wide, 2))
        pair = pair.rename({"z": x, "w": y}, region=Region((x, y)))
        return pair.embed(region, window)

    sigma = {"in": s_in, "out": s_out}
    total = KernelFn.zero(region, Window.cube(-check, check, n + 1), config.K)
    for key, coeff in coeffs.items():
        chain = [q(sigma[kind], x, y) for kind, x, y in kernel_factors(key)]
        chain.append(coeff if coeff.region == region
                     else coeff.embed(region, window))
        if any(member.is_zero() for member in chain):
            continue
        # reach[i]: the bounds of partial product i, built from the back
        reach, span = [], [(0, 0)] * (n + 1)
        for member in reversed(chain):
            reach.insert(0, tuple((max(-wide, -check - hi),
                                   min(wide, check - lo)) for lo, hi in span))
            span = [(lo + min(es), hi + max(es))
                    for (lo, hi), es in zip(span, zip(*member.terms))]
        if any(lo > hi for bounds in reach for lo, hi in bounds):
            continue  # the term cannot reach the box
        term = chain[0].restrict(Window(reach[0]))
        for member, bounds in zip(chain[1:], reach[1:]):
            term = term.mul(member, Window(bounds))
        total = total + term
    return total


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

    # c_pre2_swap closes the identity: minus the sum of the other five terms
    family = {(0, (1, 2)): c0, (1, (1, 2)): c1, (2, (1, 2)): c2,
              (0, (2, 1)): c0s, (1, (2, 1)): c1s}
    c2s = -kernel_sum(family, cfg_hi, check)
    family[(2, (2, 1))] = c2s

    # the construction windows carry boundary junk beyond the certified box;
    # the system is handed out restricted to the box where it is exact
    box3 = Window.cube(-check, check, 3)
    system = SerreSystem(
        {key: kf.restrict(box3) for key, kf in family.items()}).truncate(K)

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
        "closing_membership": _in_base(c2s, 1),
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
    return {"system": system, "checks": checks}


# ---------------------------------------------------------------------------
# identity and pole checks
# ---------------------------------------------------------------------------


def check_main_identity(system: SerreSystem, config: CurveConfig,
                        check: int = 8, half_scale: bool = False) -> dict:
    """The kernel sum of the family vanishes identically on the box.

    With half_scale=True the h -> h/2 rescaled system is checked against
    the q(-1)/q(2) kernels (the normalization the shuffle model consumes).
    Raises ValueError when the box is not inside the coefficients' windows.
    """
    system.require_box(check)
    sigmas = (-2, 4)
    if half_scale:
        system = system.rescale_hbar(Fraction(1, 2))
        sigmas = (-1, 2)
    total = kernel_sum(system.coeffs, config, check, *sigmas)
    return {"deviation_zero": total.is_zero()}


def check_pole_vanishing(system: SerreSystem, config: CurveConfig,
                         check: int = 8) -> dict:
    """The pole conditions of the kernel sum, in two executable forms.

    Each factor (kind, x, y) of kernel_factors is q(sigma) = N/D with
    N = x - y + (sigma/2)h and D = x - y - (sigma/2)h, sigma = -2 for "in"
    and 4 for "out"; its pole is the locus D = 0, x = y + (sigma/2)h.  The
    loci are named w1 and w2 for the "in" factors and diag for the "out"
    factor.

    (a) product_at_L: D_L times the coefficient of the key with no factor
        (c_pre2_swap) vanishes at D_L = 0 (that coefficient is regular, so
        this is safe);
    (b) residue_at_L: the residue at D_L = 0 with the other denominators
        cleared, sum over the keys holding L of
        c_key * prod_{f != L} (N_f if the key holds f, else D_f),
        vanishes at D_L = 0.

    Raises ValueError when the box is not inside the coefficients' windows.
    """
    system.require_box(check)
    K = config.K
    wide = build_window(check, K)
    w3d = Window.cube(-wide, wide, 3)
    sigma = {"in": -2, "out": 4}
    coeffs = {key: kf if kf.region == R3 else kf.embed(R3, w3d)
              for key, kf in sorted(system.coeffs.items())}
    held = {key: kernel_factors(key) for key in coeffs}
    factors = list(dict.fromkeys(f for fs in held.values() for f in fs))
    (free,) = [key for key, fs in held.items() if not fs]

    def linear(f, sign):
        kind, x, y = f
        return linear_factor(R3, x, y, sign * Fraction(sigma[kind], 2), w3d, K)

    N = {f: linear(f, 1) for f in factors}
    D = {f: linear(f, -1) for f in factors}

    def vanishes_at_pole(kf, f):
        kind, x, y = f
        sub = kf.substitute_var(x, y, Fraction(sigma[kind], 2))
        return sub.restrict(
            Window.cube(-check, check, len(sub.variables))).is_zero()

    def locus(f):
        kind, _, y = f
        return y if kind == "in" else "diag"

    out = {}
    for f in factors:
        out[f"product_at_{locus(f)}"] = vanishes_at_pole(
            D[f].mul(coeffs[free], w3d), f)
    for pole in factors:
        residue = None
        for key, fs in held.items():
            if pole not in fs:
                continue
            term = coeffs[key]
            for f in factors:
                if f != pole:
                    term = term.mul(N[f] if f in fs else D[f], w3d)
            residue = term if residue is None else residue + term
        out[f"residue_at_{locus(pole)}"] = vanishes_at_pole(residue, pole)
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
