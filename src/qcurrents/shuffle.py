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

A degree-zero element (the unit and its multiples) has no variables: its
numerator is a constant over the empty region.  ``dress`` builds the
factors that the residue pairing and the splitting coproduct share: with
the numerator placed in a region, it multiplies in the inverse
half-exchange kernel and, across groups, the implicit denominator of
every slot pair, expanded with the pair's first slot dominant.
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
        """The first slot of each group, in a new list."""
        return [sum(self.degrees[:g]) for g in range(len(self.degrees))]

    @cached_property
    def groups(self) -> tuple:
        """The Cartan index of each variable slot, in slot order."""
        return tuple(g for g, k in enumerate(self.degrees) for _ in range(k))

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
    return FOElement(tuple(degrees),
                     KernelFn.zero(chain_region(n), fo_window(n), K))


def fo_unit(rank: int, K: int) -> FOElement:
    """The unit of the shuffle algebra: empty degree, no variables,
    numerator 1."""
    return FOElement((0,) * rank, KernelFn.const(1, chain_region(0),
                                                 fo_window(0), K))


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
    K = min(a.num.K, b.num.K)
    degrees = tuple(x + y for x, y in zip(a.degrees, b.degrees))
    N = sum(degrees)
    region = chain_region(N)
    window = fo_window(N)
    offs = [sum(degrees[:g]) for g in range(n)]
    names = region.order

    group_choices = [
        list(itertools.combinations(range(a.degrees[g] + b.degrees[g]),
                                    a.degrees[g]))
        for g in range(n)
    ]
    total_kf = KernelFn.zero(region, window, K)
    for choice in itertools.product(*group_choices):
        pos_a = [offs[g] + c for g in range(n) for c in choice[g]]
        pos_b = [offs[g] + c for g in range(n) for c in range(degrees[g])
                 if c not in choice[g]]
        term = _place(a.num, pos_a, N, K).mul(_place(b.num, pos_b, N, K),
                                              window)
        sign = 1
        for ga, pa in zip(a.groups, pos_a):
            for gb, pb in zip(b.groups, pos_b):
                c = Fraction(cartan.pairing(ga, gb), 2)
                term = term.mul(
                    linear_factor(region, names[pa], names[pb], c, window, K),
                    window,
                )
                if pa > pb:
                    sign = -sign
        # same-group pairs not split between the factors
        aset = set(pos_a)
        for g in range(n):
            block = range(offs[g], offs[g] + degrees[g])
            for p, q_ in itertools.combinations(block, 2):
                if (p in aset) == (q_ in aset):
                    term = term.mul(linear_factor(region, names[p], names[q_],
                                                  0, window, K), window)
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
# slot-pair factors and the variable-splitting coproduct
# ---------------------------------------------------------------------------


def dress(num: KernelFn, pairs, groups, cartan: CartanData,
          window: Window) -> KernelFn:
    """Multiply a placed numerator by the factors between its slot pairs.

    ``num`` holds an element's variables t1..tN (slot s is t{s+1}) in some
    region; ``groups`` gives each slot's Cartan index.  For each slot pair
    (a, b), slot a's variable dominant, the factors are the inverse half
    exchange kernel (x_a - x_b)/(x_a - x_b + <g_a, g_b> h/2) and, when the
    groups differ, the implicit denominator 1/(t_a - t_b), negated when
    a > b since the element's factor is t_lo - t_hi.  Every product lands
    on ``window``.
    """
    names = chain_region(len(groups)).order
    region, K = num.region, num.K
    pairs = list(pairs)
    for a, b in pairs:
        c = Fraction(cartan.pairing(groups[a], groups[b]), 2)
        if c:
            num = num.mul(expand_linear_ratio(region, names[a], names[b], 0,
                                              c, window, K), window)
    for a, b in pairs:
        if groups[a] != groups[b]:
            pole = expand_pole(region, names[a], names[b], window, K)
            num = num.mul(pole if a < b else pole.scalar_mul(-1), window)
    return num


def split_pairs(P: FOElement, split, cartan: CartanData):
    """The (k', k'') component of the splitting coproduct of P, as a finite
    sum of FOElement pairs.

    The numerator is re-regioned with every first-block variable dominant,
    dressed across the blocks, and its monomials split between the blocks.
    """
    kp, kpp = tuple(split[0]), tuple(split[1])
    if tuple(x + y for x, y in zip(kp, kpp)) != P.degrees:
        raise ValueError("split does not sum to the multidegree")
    K = P.num.K
    offs = P.group_offsets()
    block1, block2 = [], []
    for g, o in enumerate(offs):
        block1.extend(range(o, o + kp[g]))
        block2.extend(range(o + kp[g], o + P.degrees[g]))
    N, n1, n2 = P.nvars, len(block1), len(block2)
    names = chain_region(N).order
    region = Region(tuple(names[s] for s in block1 + block2))
    kernel = dress(P.num.rename({}, region=region, window=fo_window(N)),
                   itertools.product(block1, block2), P.groups, cartan,
                   Window.cube(-SPLIT_HALF_WIDTH, SPLIT_HALF_WIDTH, N))
    grouped: dict = {}
    for e, hs in kernel.terms.items():
        grouped.setdefault(e[n1:], {})[e[:n1]] = hs
    return [
        (FOElement(kp, KernelFn(chain_region(n1), terms1, fo_window(n1), K)),
         FOElement(kpp, KernelFn.monomial(e2, HSeries.one(K), chain_region(n2),
                                          fo_window(n2), K)))
        for e2, terms1 in grouped.items()
    ]
