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
by -- any residual remainder is a hard error.  So a product of generators
is sum_sigma L_sigma prod_l t_sigma(l)^{n_l} over that Vandermonde, with
L_sigma the mode-free q+ numerators of the slot assignment sigma
(``placements``); ``word_sum`` builds each relation element so, dividing
once.  Both it and ``star`` raise on a numerator term past
``FO_HALF_WIDTH`` rather than drop it.

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
from math import lcm

from .cartan import CartanData
from .geometry import CurveConfig
from .series import (
    HSeries,
    KernelFn,
    Region,
    Window,
    _from_ints,
    divide_linear,
    expand_linear_ratio,
    expand_pole,
    linear_factor,
    memoized,
)
from .serre import word_slots

FO_HALF_WIDTH = 32
# exponent half-width of the expansions in the splitting coproduct
SPLIT_HALF_WIDTH = 16


def chain_region(n: int) -> Region:
    return Region(tuple(f"t{i + 1}" for i in range(n)))


def fo_window(n: int) -> Window:
    return Window.cube(-FO_HALF_WIDTH, FO_HALF_WIDTH, n)


@dataclass(frozen=True, eq=False)
class FOElement:
    """Multidegree-graded shuffle element: numerator over grouped variables.

    Equal and hashed by content (``key``), so an element is itself a memo
    key of ``star`` and ``pair``.
    """

    degrees: tuple
    num: KernelFn

    @cached_property
    def key(self) -> tuple:
        """Everything the element holds, built once per element.  The terms
        are a sorted tuple, not a frozenset, so the key is nested tuples
        throughout, which content walkers such as ``perfbench/tracer.py``
        read."""
        num = self.num
        terms = tuple(sorted((e, hs.den, hs.nums)
                             for e, hs in num.terms.items()))
        return (self.degrees, num.region, num.window, num.K, terms)

    @cached_property
    def _hash(self) -> int:
        # a memo lookup hashes its key on every call; the key can hold every
        # coefficient of the element, so its hash is computed once
        return hash(self.key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, FOElement):
            return NotImplemented
        return self.key == other.key

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
        terms = self.num.terms
        for o, k in zip(self.group_offsets(), self.degrees):
            for a in range(o, o + k - 1):
                if {e[:a] + (e[a + 1], e[a]) + e[a + 2:]: hs
                        for e, hs in terms.items()} != terms:
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


@memoized
def star(a: FOElement, b: FOElement, cartan: CartanData) -> FOElement:
    """Shuffle product; the result numerator stays a Laurent polynomial.

    The products run on a window that holds every product term: the
    factors' exponents widened by N, as a variable meets at most N - 1
    linear factors.  A quotient term past ``FO_HALF_WIDTH`` raises, never
    clamps."""
    n = cartan.rank
    K = min(a.num.K, b.num.K)
    degrees = tuple(x + y for x, y in zip(a.degrees, b.degrees))
    N = sum(degrees)
    region = chain_region(N)
    reach = max((abs(x) for f in (a, b) for e in f.num.terms for x in e),
                default=0)
    window = Window.cube(-reach, reach + N, N)
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
    num = _divide_vandermonde(total_kf, degrees)
    return FOElement(degrees, _fo_num(num.terms, N, K))


def _divide_vandermonde(num: KernelFn, degrees) -> KernelFn:
    """Exact division by the full same-group Vandermonde."""
    names = num.region.order
    groups = [g for g, d in enumerate(degrees) for _ in range(d)]
    for p, q_ in itertools.combinations(range(len(groups)), 2):
        if groups[p] == groups[q_]:
            num = divide_linear(num, names[p], names[q_])
    return num


def _fo_num(terms: dict, N: int, K: int) -> KernelFn:
    """A numerator on ``fo_window(N)``; a term outside raises, not clamps."""
    bad = [e for e in terms if max(map(abs, e), default=0) > FO_HALF_WIDTH]
    if bad:
        raise ValueError(f"shuffle exponent {bad[0]} exceeds FO_HALF_WIDTH")
    return KernelFn(chain_region(N), terms, fo_window(N), K)


@memoized
def placements(letters: tuple, cartan: CartanData, K: int):
    """The mode-free factors of a product of generators of the given groups:
    its degrees and one (sigma, L_sigma) per slot assignment sigma, which
    sends letter l to a slot of its group, with
    L_sigma = sign * prod_{l<l'} (t_sigma(l) - t_sigma(l') + <a_l, a_l'> h/2)
    and sign = (-1)^#{l < l' : sigma(l) > sigma(l')}."""
    N = len(letters)
    region, window = chain_region(N), fo_window(N)
    names, groups = region.order, sorted(letters)  # slot s holds groups[s]
    out = []
    for sigma in itertools.permutations(range(N)):
        if any(groups[s] != g for s, g in zip(sigma, letters)):
            continue
        L = KernelFn.const(1, region, window, K)
        for l, m in itertools.combinations(range(N), 2):
            c = Fraction(cartan.pairing(letters[l], letters[m]), 2)
            L = L.mul(linear_factor(region, names[sigma[l]], names[sigma[m]],
                                    c, window, K), window)
            L = -L if sigma[l] > sigma[m] else L
        out.append((sigma, L))
    return tuple(map(letters.count, range(cartan.rank))), tuple(out)


def word_sum(degrees, words, cartan: CartanData, K: int) -> FOElement:
    """sum of weight * e_{g_1}[n_1] * ... * e_{g_m}[n_m] over the
    (letters, modes, weight) of ``words``, all of the given degrees: the
    placed factors of every word summed, then one Vandermonde division."""
    placed = []
    for letters, modes, weight in words:
        word_degrees, entries = placements(letters, cartan, K)
        if word_degrees != degrees:
            raise ValueError("multidegree mismatch")
        placed.append((entries, modes, weight))
    # every product over one common denominator: the rows sum integers
    den = lcm(*{w.den * hs.den for entries, _, w in placed
                for _, L in entries for hs in L.terms.values()})
    acc: dict = {}
    for entries, modes, weight in placed:
        for sigma, L in entries:
            # sigma is a bijection, so the slots in order carry these modes
            shift = [n for _, n in sorted(zip(sigma, modes))]
            for e, hs in L.terms.items():
                row = acc.setdefault(tuple(x + y for x, y in zip(e, shift)),
                                     [0] * K)
                f = den // (weight.den * hs.den)
                for a, x in enumerate(weight.nums[:K]):
                    if x:
                        x *= f
                        for b, y in enumerate(hs.nums[:K - a]):
                            if y:
                                row[a + b] += x * y
    num = _fo_num({e: _from_ints(den, row) for e, row in acc.items()},
                  sum(degrees), K)
    num = _divide_vandermonde(num, degrees)
    return FOElement(degrees, _fo_num(num.terms, sum(degrees), K))


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
    region = Region(("z", "w"))
    if regular_part is None:
        regular_part = KernelFn.const(1, region, Window.cube(0, 0, 2), K)
    r = max(max(-lo, hi) for lo, hi in regular_part.window.bounds)
    window = Window.cube(-r, r + 1, 2)  # holds every product term: no clamp
    F = linear_factor(region, "w", "z", c, window, K)
    G = linear_factor(region, "w", "z", -c, window, K).mul(
        regular_part.embed(region, window))
    words = [((i, j), (mode_a + p, mode_b + q_), hs)
             for (p, q_), hs in F.terms.items()]
    words += [((j, i), (mode_b + q_, mode_a + p), -hs)
              for (p, q_), hs in G.terms.items()]
    return word_sum(placements((i, j), cartan, K)[0], words, cartan, K)


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
    mono = {"z": mode_j, "w1": mode_i1, "w2": mode_i2}
    words = []
    for key, ckf in system.coeffs.items():
        slots = word_slots(key)
        letters = tuple(j if v == "z" else i for v in slots)
        for e, hs in ckf.terms.items():
            modes = {v: x + mono[v] for v, x in zip(ckf.variables, e)}
            words.append((letters, tuple(modes[v] for v in slots), hs))
    return word_sum(placements((i, i, j), cartan, K)[0], words, cartan, K)


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
