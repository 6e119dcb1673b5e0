"""Functional shuffle model of the positive current half.

Elements of multidegree k = (k_1, ..., k_n) are symmetric-per-group
numerators in variables t_1..t_N (N = sum k_s, grouped by Cartan index,
chain region t_1 >> t_2 >> ...); the cross-group denominator
prod_{i<j, group(i) != group(j)} (t_i - t_j) is implicit and never
expanded.  The product weights one factor against the other with the
half exchange kernels q+_{<a_i,a_j>}(t_i, t_j) = (t_i - t_j + c h/2)/(t_i - t_j)
and sums over per-group shuffles (the orbit sum without 1/|orbit|
normalization: the unit law and associativity pin that convention).

Pole bookkeeping: cross-group q+ denominators fold into the implicit
denominator slots (with the orientation sign); same-group ones join a
common Vandermonde that the symmetrized numerator is exactly divisible
by -- any residual remainder is a hard error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cartan import CartanData
from .geometry import CurveConfig
from .series import (
    ContentKey,
    HSeries,
    KernelFn,
    Region,
    Window,
    divide_linear,
    expand_linear_ratio,
    expand_pole,
    linear_factor,
    memo_table,
)
from .serre import word_slots

FO_HALF_WIDTH = 32
# exponent half-width of the expansions in the splitting coproduct
SPLIT_HALF_WIDTH = 16

# star() values by the content keys of both factors and the Cartan data
_STARS = memo_table()


def chain_region(n: int) -> Region:
    return Region(tuple(f"t{i + 1}" for i in range(n)))


def fo_window(n: int) -> Window:
    return Window.cube(-FO_HALF_WIDTH, FO_HALF_WIDTH, n)


@dataclass(frozen=True)
class FOElement:
    """Multidegree-graded shuffle element: numerator over grouped variables."""

    degrees: tuple
    num: KernelFn

    @cached_property
    def key(self) -> ContentKey:
        """Everything the element holds, as the memo key of ``star`` and
        ``pair``; built once per element.  The terms are a sorted tuple, not
        a frozenset, so the key is nested tuples throughout, which content
        walkers such as ``perfbench/tracer.py`` read."""
        num = self.num
        terms = tuple(sorted((e, hs.coeffs) for e, hs in num.terms.items()))
        return ContentKey((self.degrees, num.region, num.window, num.K, terms))

    @property
    def nvars(self) -> int:
        return sum(self.degrees)

    def group_offsets(self):
        offs = []
        total = 0
        for k in self.degrees:
            offs.append(total)
            total += k
        return offs

    def slot_group(self, slot: int) -> int:
        total = 0
        for g, k in enumerate(self.degrees):
            if slot < total + k:
                return g
            total += k
        raise IndexError(slot)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "FOElement") -> "FOElement":
        if self.degrees != other.degrees:
            raise ValueError("multidegree mismatch")
        return FOElement(self.degrees, self.num + other.num)

    def __sub__(self, other: "FOElement") -> "FOElement":
        if self.degrees != other.degrees:
            raise ValueError("multidegree mismatch")
        return FOElement(self.degrees, self.num - other.num)

    def scalar_mul(self, c) -> "FOElement":
        return FOElement(self.degrees, self.num.scalar_mul(c))

    def is_symmetric(self) -> bool:
        """Numerator symmetry within each group (adjacent transpositions)."""
        offs = self.group_offsets()
        for g, k in enumerate(self.degrees):
            for j in range(k - 1):
                a, b = offs[g] + j, offs[g] + j + 1
                swapped = {}
                for e, hs in self.num.terms.items():
                    e2 = list(e)
                    e2[a], e2[b] = e2[b], e2[a]
                    swapped[tuple(e2)] = hs
                if KernelFn(self.num.region, swapped, self.num.window,
                            self.num.K) != self.num:
                    return False
        return True


def fo_zero(degrees, K: int) -> FOElement:
    n = sum(degrees)
    if n == 0:
        region = Region(("t1",))
        return FOElement(tuple(degrees),
                         KernelFn.zero(region, fo_window(1), K))
    return FOElement(tuple(degrees),
                     KernelFn.zero(chain_region(n), fo_window(n), K))


def fo_unit(rank: int, K: int) -> FOElement:
    """The unit of the shuffle algebra: empty degree, numerator 1."""
    region = Region(("t1",))
    return FOElement((0,) * rank,
                     KernelFn.const(1, region, fo_window(1), K))


def embed_generator(i: int, mode_exp: int, cartan: CartanData,
                    K: int) -> FOElement:
    """The degree-alpha_i element with numerator t_1^mode."""
    degrees = tuple(1 if s == i else 0 for s in range(cartan.rank))
    num = KernelFn.monomial((mode_exp,), HSeries.one(K), chain_region(1),
                            fo_window(1), K)
    return FOElement(degrees, num)


def _place(num: KernelFn, positions, N: int, K: int) -> KernelFn:
    """Put a numerator's variables at the given merged positions."""
    region = chain_region(N)
    window = fo_window(N)
    terms = {}
    for e, hs in num.terms.items():
        e2 = [0] * N
        for x, p in zip(e, positions):
            e2[p] = x
        terms[tuple(e2)] = hs
    return KernelFn(region, terms, window, K)


def star(a: FOElement, b: FOElement, cartan: CartanData) -> FOElement:
    """Shuffle product; the result numerator stays a Laurent polynomial.

    Memoized on the content keys of both factors and the Cartan data.
    """
    key = (a.key, b.key, cartan)
    out = _STARS.get(key)
    if out is None:
        out = _STARS[key] = _star(a, b, cartan)
    return out


def _star(a: FOElement, b: FOElement, cartan: CartanData) -> FOElement:
    n = cartan.rank
    if a.nvars == 0:
        return FOElement(
            tuple(x + y for x, y in zip(a.degrees, b.degrees)),
            b.num.scalar_mul(a.num.coefficient((0,) * max(1, a.nvars))),
        )
    if b.nvars == 0:
        return FOElement(
            tuple(x + y for x, y in zip(a.degrees, b.degrees)),
            a.num.scalar_mul(b.num.coefficient((0,) * max(1, b.nvars))),
        )
    K = min(a.num.K, b.num.K)
    degrees = tuple(x + y for x, y in zip(a.degrees, b.degrees))
    N = sum(degrees)
    region = chain_region(N)
    window = fo_window(N)
    offs = []
    total = 0
    for k in degrees:
        offs.append(total)
        total += k
    names = region.order

    group_choices = [
        list(itertools.combinations(range(a.degrees[g] + b.degrees[g]),
                                    a.degrees[g]))
        for g in range(n)
    ]
    total_kf = KernelFn.zero(region, window, K)
    for choice in itertools.product(*group_choices):
        pos_a = []
        pos_b = []
        for g in range(n):
            chosen = set(choice[g])
            loc_a = [offs[g] + c for c in choice[g]]
            loc_b = [offs[g] + c for c in
                     range(a.degrees[g] + b.degrees[g]) if c not in chosen]
            pos_a.extend(loc_a)
            pos_b.extend(loc_b)
        term = _place(a.num, pos_a, N, K).mul(_place(b.num, pos_b, N, K),
                                              window)
        sign = 1
        vandermonde_extra = []
        for fa, pa in enumerate(pos_a):
            ga = a.slot_group(fa)
            for fb, pb in enumerate(pos_b):
                gb = b.slot_group(fb)
                c = Fraction(cartan.pairing(ga, gb), 2)
                term = term.mul(
                    linear_factor(region, names[pa], names[pb], c, window, K),
                    window,
                )
                if pa > pb:
                    sign = -sign
        # same-group pairs not split between the factors
        for g in range(n):
            block = range(offs[g], offs[g] + degrees[g])
            aset = set(p for p in pos_a if p in block)
            for p, q_ in itertools.combinations(block, 2):
                if (p in aset) == (q_ in aset):
                    vandermonde_extra.append((p, q_))
        for p, q_ in vandermonde_extra:
            term = term.mul(
                linear_factor(region, names[p], names[q_], 0, window, K),
                window,
            )
        total_kf = total_kf + term.scalar_mul(sign)
    # divide out the full same-group Vandermonde
    for g in range(n):
        block = range(offs[g], offs[g] + degrees[g])
        for p, q_ in itertools.combinations(block, 2):
            total_kf = divide_linear(total_kf, names[p], names[q_])
    total_kf = total_kf.restrict(window)
    return FOElement(degrees, total_kf)


def star_word(factors, cartan: CartanData) -> FOElement:
    out = factors[0]
    for f in factors[1:]:
        out = star(out, f, cartan)
    return out


# ---------------------------------------------------------------------------
# relation elements
# ---------------------------------------------------------------------------


def vertex_element(i: int, j: int, mode_a: int, mode_b: int,
                   cartan: CartanData, config: CurveConfig,
                   regular_part: KernelFn | None = None) -> FOElement:
    """Image of the two-current exchange relation paired with test modes.

    (w + c h/2 - z) e_i(z) e_j(w) - i_c(z,w) (w - z - c h/2) e_j(w) e_i(z),
    c = <alpha_i, alpha_j>, paired against z^a w^b; here i_c is the regular
    part of the exchange kernel (identically 1 in the rational instance but
    folded in from its computed form).
    """
    K = config.K
    c = Fraction(cartan.pairing(i, j), 2)
    window = Window.cube(-FO_HALF_WIDTH, FO_HALF_WIDTH, 2)
    region = Region(("z", "w"))
    mono = KernelFn.monomial((mode_a, mode_b), HSeries.one(K), region, window, K)
    F = linear_factor(region, "w", "z", c, window, K).mul(mono, window)
    G = linear_factor(region, "w", "z", -c, window, K).mul(mono, window)
    if regular_part is not None:
        G = G.mul(regular_part.embed(region, window), window)
    out = fo_zero(tuple(
        (1 if s == i else 0) + (1 if s == j else 0) for s in range(cartan.rank)
    ), K)
    for (p, q_), hs in F.terms.items():
        w1 = star(embed_generator(i, p, cartan, K),
                  embed_generator(j, q_, cartan, K), cartan)
        out = out + w1.scalar_mul(hs)
    for (p, q_), hs in G.terms.items():
        w2 = star(embed_generator(j, q_, cartan, K),
                  embed_generator(i, p, cartan, K), cartan)
        out = out - w2.scalar_mul(hs)
    return out


def serre_element(system, i: int, j: int, mode_j: int, mode_i1: int,
                  mode_i2: int, cartan: CartanData, config: CurveConfig
                  ) -> FOElement:
    """Image of the cubic relation at the given test modes; must vanish.

    ``system`` is a SerreSystem in the normalization matching the exchange
    kernels q_{<a_i,a_j>} (for the synthesized system that is the h -> h/2
    rescaling).  Each coefficient c_{k,perm} is multiplied by the test
    monomial z^mode_j w1^mode_i1 w2^mode_i2, and every resulting mode word
    is evaluated through the product.  The word of key (k, perm) has the
    i-letters on w_perm(1), w_perm(2) and the j-letter on z at position k
    (``serre.word_slots``).
    """
    K = config.K
    degrees = tuple(
        2 * (1 if s == i else 0) + (1 if s == j else 0)
        for s in range(cartan.rank)
    )
    out = fo_zero(degrees, K)
    mono = {"z": mode_j, "w1": mode_i1, "w2": mode_i2}
    for key, ckf in system.coeffs.items():
        slots = word_slots(key)
        for e, hs in ckf.terms.items():
            modes = {v: x + mono[v] for v, x in zip(ckf.variables, e)}
            val = star_word([
                embed_generator(j if v == "z" else i, modes[v], cartan, K)
                for v in slots], cartan)
            out = out + val.scalar_mul(hs)
    return out


# ---------------------------------------------------------------------------
# variable-splitting coproduct
# ---------------------------------------------------------------------------


@dataclass
class FOSplit:
    """One (k', k'') component of the splitting coproduct.

    ``kernel`` carries all N variables re-regioned so every first-block
    variable dominates every second-block variable; splitting its
    monomials yields the finite sum of tensor pairs.
    """

    split: tuple
    block1: tuple  # merged slot indices going to the first tensor factor
    block2: tuple
    kernel: KernelFn

    def tensor_terms(self):
        """Finite list of (numerator1 exps, numerator2 exps, HSeries)."""
        n1 = len(self.block1)
        out = []
        for e, hs in self.kernel.terms.items():
            out.append((e[:n1], e[n1:], hs))
        return out


def coproduct_A(P: FOElement, split, cartan: CartanData) -> FOSplit:
    """The (k', k'') splitting of P: multiply by the inverse half-exchange
    kernels across the blocks, expand the cross-block denominator factors,
    and re-region with the first block dominant."""
    kp, kpp = tuple(split[0]), tuple(split[1])
    if tuple(x + y for x, y in zip(kp, kpp)) != P.degrees:
        raise ValueError("split does not sum to the multidegree")
    K = P.num.K
    offs = P.group_offsets()
    block1 = []
    block2 = []
    for g in range(cartan.rank):
        block1.extend(range(offs[g], offs[g] + kp[g]))
        block2.extend(range(offs[g] + kp[g], offs[g] + P.degrees[g]))
    order = [P.num.region.order[s] for s in block1 + block2]
    region = Region(tuple(order))
    window = Window.cube(-SPLIT_HALF_WIDTH, SPLIT_HALF_WIDTH, len(order))
    base = P.num.rename({}, region=region, window=fo_window(len(order)))
    kernel = base
    names = P.num.region.order
    # inverse half-exchange kernels across blocks
    for s1 in block1:
        g1 = P.slot_group(s1)
        for s2 in block2:
            g2 = P.slot_group(s2)
            c = Fraction(cartan.pairing(g1, g2), 2)
            x, y = names[s1], names[s2]
            # q+(x,y)^{-1} = (x-y)/(x-y+c h), expanded y << x
            f = expand_linear_ratio(region, x, y, 0, c, window, K)
            kernel = kernel.mul(f, window)
    # cross-block implicit denominator factors (different groups only)
    for s1 in block1:
        g1 = P.slot_group(s1)
        for s2 in block2:
            if P.slot_group(s2) == g1:
                continue
            lo, hi = min(s1, s2), max(s1, s2)
            x, y = names[s1], names[s2]
            e = expand_pole(region, x, y, window, K)
            if lo == s2:
                # global factor is (t_lo - t_hi) = -(x - y) with x dominant
                e = e.scalar_mul(-1)
            kernel = kernel.mul(e, window)
    return FOSplit((kp, kpp), tuple(block1), tuple(block2), kernel)


def split_pairs(P: FOElement, split, cartan: CartanData):
    """The splitting as an explicit finite sum of FOElement pairs."""
    sp = coproduct_A(P, split, cartan)
    kp, kpp = sp.split
    n1, n2 = len(sp.block1), len(sp.block2)
    grouped: dict = {}
    for e1, e2, hs in sp.tensor_terms():
        grouped.setdefault(e2, {})[e1] = hs
    out = []
    K = P.num.K
    for e2, terms1 in grouped.items():
        if n1:
            num1 = KernelFn(chain_region(n1), terms1, fo_window(n1), K)
            f1 = FOElement(kp, num1)
        else:
            f1 = fo_unit(cartan.rank, K).scalar_mul(
                terms1.get((), HSeries.one(K)))
            f1 = FOElement(kp, f1.num)
        if n2:
            num2 = KernelFn(chain_region(n2), {e2: HSeries.one(K)},
                            fo_window(n2), K)
            f2 = FOElement(kpp, num2)
        else:
            f2 = FOElement(kpp, fo_unit(cartan.rank, K).num)
        out.append((f1, f2))
    return out
