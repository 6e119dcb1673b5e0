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
by -- any residual remainder is a hard error.  So a product is a sum of
mode-free factors, shifted by placed exponents, over that Vandermonde:
one per shuffle choice for ``star`` (``_shuffle_factors``), one per slot
assignment of a product of generators for ``word_sum`` (``placements``).
One accumulator, ``_shuffle_sum``, sums either in integer rows and divides
once; a term past ``FO_HALF_WIDTH`` raises rather than being dropped.

A degree-zero element (the unit and its multiples) has no variables: its
numerator is a constant over the empty region.  ``dress`` builds the
factors that the residue pairing and the splitting coproduct share: with
the numerator placed in a region, it multiplies in the inverse
half-exchange kernel of every slot pair, expanded with the pair's first
slot dominant; across groups that kernel and the implicit denominator
are one shifted pole.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add

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
    expand_shifted_pole_inv,
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


def _pair_factor(N: int, pairs, K: int) -> KernelFn:
    """prod (t_p - t_q + c h) over the (p, q, c) of ``pairs``, negated once
    for each p > q."""
    region, window = chain_region(N), fo_window(N)
    L = KernelFn.const(1, region, window, K)
    for p, q, c in pairs:
        L = L.mul(linear_factor(region, region.order[p], region.order[q], c,
                                window, K), window)
        L = -L if p > q else L
    return L


@memoized
def _shuffle_factors(da: tuple, db: tuple, cartan: CartanData, K: int):
    """The mode-free factor of each per-group shuffle choice of a product of
    elements of degrees da and db: (pos_a + pos_b, L), where pos_a and pos_b
    are the merged slots of the two factors' variables and
    L = sign * prod_{p in pos_a, q in pos_b} (t_p - t_q + <a_p, a_q> h/2)
    * prod (t_p - t_q) over the same-group slots p < q of one factor,
    where sign = (-1)^#{(p, q) : p > q} over the cross pairs."""
    degrees = tuple(map(add, da, db))
    N = sum(degrees)
    groups = [g for g, k in enumerate(degrees) for _ in range(k)]
    offs = [sum(degrees[:g]) for g in range(len(degrees))]
    out = []
    for choice in itertools.product(*(itertools.combinations(range(k), d)
                                      for k, d in zip(degrees, da))):
        pos_a = tuple(o + c for o, cs in zip(offs, choice) for c in cs)
        pos_b = tuple(p for p in range(N) if p not in pos_a)
        pairs = [(p, q, Fraction(cartan.pairing(groups[p], groups[q]), 2))
                 for p, q in itertools.product(pos_a, pos_b)]
        pairs += [(p, q, 0) for p, q in itertools.combinations(range(N), 2)
                  if groups[p] == groups[q] and (p in pos_a) == (q in pos_a)]
        out.append((pos_a + pos_b, _pair_factor(N, pairs, K)))
    return tuple(out)


@memoized
def star(a: FOElement, b: FOElement, cartan: CartanData) -> FOElement:
    """Shuffle product: each term pair of the factors, placed by each shuffle
    choice, times that choice's mode-free factor, summed and divided once
    by ``_shuffle_sum``."""
    K = min(a.num.K, b.num.K)
    degrees = tuple(map(add, a.degrees, b.degrees))
    factors = _shuffle_factors(a.degrees, b.degrees, cartan, K)
    shift = [0] * sum(degrees)
    placed = []
    for ea, wa in a.num.terms.items():
        for eb, wb in b.num.terms.items():
            w, e = wa * wb, ea + eb
            for slots, L in factors:
                for p, x in zip(slots, e):
                    shift[p] = x
                placed.append((w, tuple(shift), L))
    return _shuffle_sum(degrees, placed, K)


def _shuffle_sum(degrees, placed, K: int) -> FOElement:
    """The element sum of weight * t^shift * L over the (weight, shift, L) of
    ``placed``, all of the given degrees: the products summed in integer
    rows over one common denominator, then divided once by the same-group
    Vandermonde.  A summed term outside [-FO_HALF_WIDTH, FO_HALF_WIDTH +
    N - 1], which holds every product of elements on ``fo_window``, raises,
    as does a quotient term outside ``fo_window``."""
    N = sum(degrees)
    den = lcm(*{w.den * hs.den for w, _, L in placed
                for hs in L.terms.values()})
    acc: dict = {}
    for w, shift, L in placed:
        fw = den // w.den
        for e, hs in L.terms.items():
            row = acc.setdefault(tuple(map(add, e, shift)), [0] * K)
            f = fw // hs.den
            for a, x in enumerate(w.nums[:K]):
                if x:
                    x *= f
                    for b, y in enumerate(hs.nums[:K - a]):
                        if y:
                            row[a + b] += x * y
    _check_window(acc, -FO_HALF_WIDTH, FO_HALF_WIDTH + N - 1)
    region = chain_region(N)
    num = KernelFn._filtered(region, {
        e: _from_ints(den, row) for e, row in acc.items()},
        Window.cube(-FO_HALF_WIDTH, FO_HALF_WIDTH + N - 1, N), K)
    groups = [g for g, k in enumerate(degrees) for _ in range(k)]
    for p, q in itertools.combinations(range(N), 2):
        if groups[p] == groups[q]:
            num = divide_linear(num, region.order[p], region.order[q])
    _check_window(num.terms, -FO_HALF_WIDTH, FO_HALF_WIDTH)
    return FOElement(degrees,
                     KernelFn._filtered(region, num.terms, fo_window(N), K))


def _check_window(terms, lo: int, hi: int) -> None:
    for e in terms:
        if e and (min(e) < lo or max(e) > hi):
            raise ValueError(f"shuffle exponent {e} exceeds FO_HALF_WIDTH")


@memoized
def placements(letters: tuple, cartan: CartanData, K: int):
    """The mode-free factors of a product of generators of the given groups:
    its degrees and one (sigma, L_sigma) per slot assignment sigma, which
    sends letter l to a slot of its group, with
    L_sigma = sign * prod_{l<l'} (t_sigma(l) - t_sigma(l') + <a_l, a_l'> h/2)
    and sign = (-1)^#{l < l' : sigma(l) > sigma(l')}."""
    N = len(letters)
    groups = sorted(letters)  # slot s holds groups[s]
    out = []
    for sigma in itertools.permutations(range(N)):
        if any(groups[s] != g for s, g in zip(sigma, letters)):
            continue
        pairs = [(sigma[l], sigma[m],
                  Fraction(cartan.pairing(letters[l], letters[m]), 2))
                 for l, m in itertools.combinations(range(N), 2)]
        out.append((sigma, _pair_factor(N, pairs, K)))
    return tuple(map(letters.count, range(cartan.rank))), tuple(out)


def word_sum(degrees, words, cartan: CartanData, K: int) -> FOElement:
    """sum of weight * e_{g_1}[n_1] * ... * e_{g_m}[n_m] over the
    (letters, modes, weight) of ``words``, all of the given degrees: the
    placed factors of every word, summed and divided once by
    ``_shuffle_sum``."""
    placed = []
    for letters, modes, weight in words:
        word_degrees, entries = placements(letters, cartan, K)
        if word_degrees != degrees:
            raise ValueError("multidegree mismatch")
        for sigma, L in entries:
            # sigma is a bijection, so the slots in order carry these modes
            shift = tuple(n for _, n in sorted(zip(sigma, modes)))
            placed.append((weight, shift, L))
    return _shuffle_sum(degrees, placed, K)


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
    (a, b), slot a's variable dominant, the factor is the inverse half
    exchange kernel (x_a - x_b)/(x_a - x_b + c h), c = <g_a, g_b>/2, when
    the groups agree.  When they differ it is that kernel times the
    implicit denominator 1/(t_a - t_b), one shifted pole
    1/(x_a - x_b + c h), negated when a > b since the element's factor is
    t_lo - t_hi.  Every product lands on ``window``.
    """
    names = chain_region(len(groups)).order
    region, K = num.region, num.K
    for a, b in pairs:
        c = Fraction(cartan.pairing(groups[a], groups[b]), 2)
        if groups[a] != groups[b]:
            f = expand_shifted_pole_inv(region, names[a], names[b], -c,
                                        window, K)
            num = num.mul(f if a < b else -f, window)
        else:
            num = num.mul(expand_linear_ratio(region, names[a], names[b], 0,
                                              c, window, K), window)
    return num


def _split_blocks(P: FOElement, kp) -> tuple:
    """The slots of P's first and second splitting blocks at the split
    (kp, P.degrees - kp): the first kp[g] slots of each group g, then the
    rest."""
    block1, block2 = [], []
    for g, o in enumerate(P.group_offsets()):
        block1.extend(range(o, o + kp[g]))
        block2.extend(range(o + kp[g], o + P.degrees[g]))
    return block1, block2


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
    block1, block2 = _split_blocks(P, kp)
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


def check_split_cube(a: FOElement, kp, lows1, lows2, K: int) -> None:
    """Raise if a term of ``split_pairs(a)`` at the split (kp, rest) that
    pairs nonzero at truncation K with words of ``pairing.weight_low`` in
    lows1 (first factor) and lows2 (second factor) may lie past
    SPLIT_HALF_WIDTH, where ``split_pairs`` drops it.

    From a numerator term u^e, block 2 only gains exponent and block 1
    only loses it, and the loss is the gain plus the h-order (below K) plus
    one per cross-group slot pair across the blocks.  The second factor, a
    unit monomial, reaches a word only if the gain is at most
    max(lows2) + K - 1 - sum(e on block 2), and the first factor only if
    the loss is at most sum(e on block 1) - min(lows1).  The expansions are
    cut at the cube too, so a move past it also drops a term."""
    block1, block2 = _split_blocks(a, kp)
    g = a.groups
    poles = sum(g[x] != g[y] for x in block1 for y in block2)
    for e in a.num.terms:
        gain = max(lows2) + K - 1 - sum(e[y] for y in block2)
        loss = sum(e[x] for x in block1) - min(lows1)
        if gain < 0 or loss < 0:
            continue
        move = min(loss, gain + K - 1 + poles)
        lo = min([e[x] - move for x in block1] + [e[y] for y in block2])
        hi = max([e[x] for x in block1] + [e[y] + move for y in block2])
        if max(move, -lo, hi) > SPLIT_HALF_WIDTH:
            raise ValueError(f"split_pairs of {a.degrees} at {kp} reads "
                             f"exponents in [{lo}, {hi}] moved by up to "
                             f"{move}, past SPLIT_HALF_WIDTH")
