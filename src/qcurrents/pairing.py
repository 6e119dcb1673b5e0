"""Residue Hopf pairing between the shuffle model and free mode words.

A word f_{i_1}[m_1]...f_{i_N}[m_N] pairs with a shuffle element of the
opposite multidegree through an iterated residue: the element's numerator
(denominators expanded in the chain region u_1 >> ... >> u_N, u_s the
variable of the s-th letter: the element's variable of the next unused
slot of that letter's group), weighted by the half-exchange kernels
q+_{<i_l, i_l'>}(u_{l'}, u_l) for l < l', against the mode monomial.

The pairing keeps the residue formula's normalization: values live in
Q[[h]]/h^K and reconstruct the Laurent-valued pairing through the integer
valuation offset equal to the principal degree, which GramReport records.

The word-side splitting coproduct mirrors the element-side one with the
full exchange-kernel inverses; together they satisfy the two Hopf rules
<a a', w> = <a (x) a', Delta_B w> and <a, w w'> = <Delta_A a, w (x) w'>.
``product_rule`` and ``coproduct_rule`` check them exactly at truncation,
on sampled generators here and on the block bases of the canonical tensors
in ``canonical``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .cartan import CartanData
from .geometry import CurveConfig
from .series import (
    HLaurent,
    HSeries,
    KernelFn,
    Q,
    Region,
    Window,
    expand_linear_ratio,
    memoized,
    row_reduce,
)
from .shuffle import (
    FOElement,
    chain_region,
    check_split_cube,
    dress,
    embed_generator,
    fo_unit,
    split_pairs,
    star,
)

PAIR_HALF_WIDTH = 26


def word_degree(word, rank: int):
    out = [0] * rank
    for i, _ in word:
        out[i] += 1
    return tuple(out)


def weight_low(word) -> int:
    """The low of ``pair``'s weight rule, which reads a numerator term u^e
    against the word from h-order sum(e) - low on: sum(-1 - mode) plus one
    for each pair of letters of different groups (a pole each)."""
    return (sum(-1 - m for _, m in word)
            + sum(i != j for (i, _), (j, _) in itertools.combinations(word, 2)))


def reachable_lows(P: FOElement, K: int) -> set:
    """The ``weight_low`` of every word that P can pair with nonzero at
    truncation K: a term u^e of h-valuation j passes the weight rule for
    sum(e) - K + j < low <= sum(e)."""
    out = set()
    for e, hs in P.num.terms.items():
        s = sum(e)
        out.update(range(s - K + 1 + hs.valuation(), s + 1))
    return out


@memoized
def pair(P: FOElement, word, cartan: CartanData, config: CurveConfig) -> HSeries:
    """<P, word>: exact residue value; degree mismatch gives zero.  A word
    is a tuple of (letter index, mode exponent).

    Weight rule, exact: ``dress`` is linear and every term of its factors
    has sum(e) + k = 0 (half-exchange ratio) or -1 (cross-group pole), so
    a numerator term u^e whose coefficient has h-valuation j reaches
    u^read (read = -1 - mode) only at h-orders j + lift and up, where
    lift = sum(e) - sum(read) - poles = sum(e) - ``weight_low(word)``.
    Terms with lift < 0 or >= K - j are not dressed; with none left the
    value is zero."""
    K = config.K
    if word_degree(word, cartan.rank) != P.degrees:
        return HSeries.zero(K)
    N = len(word)
    if N == 0:
        return P.num.coefficient(())
    # sources feeding the all-(-1) coefficient are bounded by the mode
    # sizes plus one h-graded shift per kernel factor
    spread = max([abs(m) for _, m in word]
                 + [max(abs(x) for x in e) for e in P.num.terms]
                 + [1])
    half = spread + N * K + 2
    window = Window.cube(-half, half, N)
    # each letter takes the next unused slot of its group
    nxt = P.group_offsets()
    slots = []
    for i, _ in word:
        slots.append(nxt[i])
        nxt[i] += 1
    # the numerator in word order, first letter dominant, dressed with the
    # inverse half-exchange weights q+_c(u_l, u_l')^{-1} between letters
    # l < l' (the orientation the product rule against the word coproduct
    # pins) and the element's cross-group denominators
    names = chain_region(N).order
    region = Region(tuple(names[s] for s in slots))
    # against the mode monomial: the residue reads u^(-1 - mode)
    read = tuple(-1 - m for _, m in word)
    low = weight_low(word)
    terms = {tuple(e[s] for s in slots): hs
             for e, hs in P.num.terms.items()
             if 0 <= sum(e) - low < K - hs.valuation()}
    if not terms:
        return HSeries.zero(K)
    integrand = dress(KernelFn(region, terms, window, K),
                      itertools.combinations(slots, 2), P.groups, cartan,
                      window)
    return integrand.coefficient(read)


# ---------------------------------------------------------------------------
# word-side splitting coproduct
# ---------------------------------------------------------------------------


def delta_B(word, cartan: CartanData, config: CurveConfig):
    """All splitting components of a word: list of (word1, word2, HSeries).

    Component I keeps the letters of I (in order) in the first factor,
    weighted by prod_{j in I, j' not in I, j > j'}
    q_{<i_j, i_j'>}(z_{j'}, z_j)^{-1} paired against the word's modes.
    """
    K = config.K
    N = len(word)
    out = []
    region = Region(tuple(f"z{s + 1}" for s in range(N)))
    window = Window.cube(-PAIR_HALF_WIDTH, PAIR_HALF_WIDTH, N)
    names = region.order
    for bits in itertools.product((0, 1), repeat=N):
        I = [s for s in range(N) if bits[s]]
        Ic = [s for s in range(N) if not bits[s]]
        kernel = KernelFn.const(1, region, window, K)
        for j in I:
            for jp in Ic:
                if j > jp:
                    c = Fraction(cartan.pairing(word[j][0], word[jp][0]), 2)
                    # q_c(z_jp, z_j)^{-1}, z_jp dominant
                    f = expand_linear_ratio(region, names[jp], names[j],
                                            -c, c, window, K)
                    kernel = kernel.mul(f, window)
        mono = tuple(m for _, m in word)
        for e, hs in kernel.terms.items():
            p = tuple(x + m for x, m in zip(e, mono))
            w1 = tuple((word[s][0], p[s]) for s in I)
            w2 = tuple((word[s][0], p[s]) for s in Ic)
            out.append((w1, w2, hs))
    return out


def concat(w1, w2):
    return tuple(w1) + tuple(w2)


# columns are combinations of free words: tuple of (word, Fraction)
def pair_combo(P: FOElement, combo, cartan, config) -> HSeries:
    out = HSeries.zero(config.K)
    for word, coeff in combo:
        out = out + pair(P, word, cartan, config) * coeff
    return out


# ---------------------------------------------------------------------------
# Gram blocks
# ---------------------------------------------------------------------------


@dataclass
class GramReport:
    bidegree: tuple
    row_labels: list
    col_labels: list
    matrix: list                      # rows of HSeries
    valuation_offset: int             # principal degree, reconstructs the
                                      # Laurent-valued pairing h^{-offset}
    det_valuation: int | None
    det_leading: Fraction | None
    nondegenerate: bool
    kernel_dim: int                   # h^0 nullity if degenerate, else 0

    def to_json(self):
        return {
            "bidegree": list(self.bidegree),
            "rows": [str(r) for r in self.row_labels],
            "cols": [str(c) for c in self.col_labels],
            "matrix": [[hs.to_json() for hs in row] for row in self.matrix],
            "valuation_offset": self.valuation_offset,
            "det_valuation": self.det_valuation,
            "det_leading": (None if self.det_leading is None
                            else f"{self.det_leading.numerator}/"
                                 f"{self.det_leading.denominator}"),
            "nondegenerate": self.nondegenerate,
            "kernel_dim": self.kernel_dim,
        }


def _mod_hbar(matrix):
    """Rank and determinant of the leading (h^0) rational matrix."""
    _, _, pivots, det = row_reduce([[hs.coeffs[0] for hs in row]
                                    for row in matrix])
    return len(pivots), det


def gram(row_elements, col_words, bidegree, cartan: CartanData,
         config: CurveConfig, row_labels=None, col_labels=None) -> GramReport:
    matrix = [
        [pair(P, w, cartan, config) for w in col_words] for P in row_elements
    ]
    offset = sum(abs(x) for x in bidegree[1])
    det_val = det_lead = None
    nondeg = False
    kernel_dim = 0
    if matrix:
        rank, det0 = _mod_hbar(matrix)
        if len(matrix) != len(matrix[0]):
            nondeg = rank == min(len(matrix), len(matrix[0]))
        elif det0:
            # invertible mod h: the determinant is det(G0) + O(h)
            nondeg, det_val, det_lead = True, 0, det0
        else:
            det = row_reduce([[HLaurent.from_hseries(hs) for hs in row]
                              for row in matrix])[3]
            det = None if det is None else det.normalized()
            nondeg = det is not None and not det.is_zero()
            if nondeg:
                det_val, det_lead = det.valuation(), det.hs.coeffs[0]
        if not nondeg:
            kernel_dim = len(matrix[0]) - rank
    return GramReport(
        bidegree=bidegree,
        row_labels=row_labels or [f"row{i}" for i in range(len(row_elements))],
        col_labels=col_labels or [str(w) for w in col_words],
        matrix=matrix,
        valuation_offset=offset,
        det_valuation=det_val,
        det_leading=det_lead,
        nondegenerate=nondeg,
        kernel_dim=kernel_dim,
    )


# ---------------------------------------------------------------------------
# Hopf-rule and annihilator checks
# ---------------------------------------------------------------------------


def _outer_sum(factors) -> dict:
    """sum over (u, v) in factors of u[i] * v[j], keyed by (i, j); u and v
    are lists of HSeries or HLaurent, and only their nonzero entries are
    multiplied."""
    out = {}
    for u, v in factors:
        v = [(j, y) for j, y in enumerate(v) if not y.is_zero()]
        for i, x in enumerate(u):
            if v and not x.is_zero():
                for j, y in v:
                    out[i, j] = out[i, j] + x * y if (i, j) in out else x * y
    return out


def product_rule(rows1, rows2, col, cartan, config) -> bool:
    """<r1 * r2, col> = sum c <r1, w1> <r2, w2> over the components
    (w1, w2, c) of Delta_B col, for every r1 in rows1 and r2 in rows2.

    ``col`` is a word combination; each list of rows has one multidegree,
    which selects the components.  A component is kept only if its words'
    ``weight_low`` lie in the rows' ``reachable_lows``: every other one
    pairs to zero with every row.  Each kept component is paired with the
    rows once and its nonzero pairings are multiplied out (``_outer_sum``);
    a row pair that no product reaches reads zero."""
    K = config.K
    zero = HSeries.zero(K)
    degrees = (rows1[0].degrees, rows2[0].degrees)
    reach1, reach2 = (set().union(*(reachable_lows(r, K) for r in rows))
                      for rows in (rows1, rows2))
    split = {}
    for w, cw in col:
        _check_pair_cube(w, degrees[0], reach1, reach2, K)
        for w1, w2, hs in delta_B(w, cartan, config):
            if ((word_degree(w1, cartan.rank),
                 word_degree(w2, cartan.rank)) == degrees
                    and weight_low(w1) in reach1
                    and weight_low(w2) in reach2):
                split[w1, w2] = split.get((w1, w2), zero) + hs * cw
    rhs = _outer_sum(([hs * pair(r, w1, cartan, config) for r in rows1],
                      [pair(r, w2, cartan, config) for r in rows2])
                     for (w1, w2), hs in split.items())
    return all(rhs.get((k1, k2), zero)
               == pair_combo(star(r1, r2, cartan), col, cartan, config)
               for k1, r1 in enumerate(rows1) for k2, r2 in enumerate(rows2))


def coproduct_rule(a: FOElement, cols1, cols2, cartan, config) -> bool:
    """<a, w w'> = sum <a', w> <a'', w'> over (a', a'') in split_pairs(a),
    for every combination w in cols1 and w' in cols2.

    Each list of combinations has one word degree, which gives the split.
    A split pair is kept only if a' reaches some word of cols1 and a'' some
    word of cols2 (``reachable_lows``), and each kept pair is paired with
    the columns once, as in ``product_rule``."""
    K = config.K
    zero = HSeries.zero(K)
    split = tuple(word_degree(cols[0][0][0], cartan.rank)
                  for cols in (cols1, cols2))
    lows1, lows2 = ({weight_low(w) for c in cols for w, _ in c}
                    for cols in (cols1, cols2))
    check_split_cube(a, split[0], lows1, lows2, K)
    rhs = _outer_sum(([pair_combo(f1, c, cartan, config) for c in cols1],
                      [pair_combo(f2, c, cartan, config) for c in cols2])
                     for f1, f2 in split_pairs(a, split, cartan)
                     if reachable_lows(f1, K) & lows1
                     and reachable_lows(f2, K) & lows2)
    return all(rhs.get((l, m), zero) == sum(
        (pair(a, concat(w1, w2), cartan, config) * (c1 * c2)
         for w1, c1 in col1 for w2, c2 in col2), zero)
        for l, col1 in enumerate(cols1) for m, col2 in enumerate(cols2))


def _check_pair_cube(word, degrees1, reach1, reach2, K: int) -> None:
    """Raise if a component of Delta_B word that ``product_rule`` reads may
    lie past PAIR_HALF_WIDTH, where ``delta_B`` drops it.

    In component I the kept-left letters only gain exponent and the others
    only lose it, and the loss is the gain plus the h-order (below K).
    Read against rows reaching the lows reach1 and reach2, the gain is at
    most weight_low(word on I) - min(reach1) and the loss at most
    max(reach2) - weight_low(word off I), so no letter moves farther than
    the smaller of that loss bound and the gain bound plus K - 1."""
    N = len(word)
    if not (reach1 and reach2):
        return
    for I in itertools.combinations(range(N), sum(degrees1)):
        w1 = [word[s] for s in I]
        w2 = [word[s] for s in range(N) if s not in I]
        if not w1 or not w2 or word_degree(w1, len(degrees1)) != degrees1:
            continue
        move = min(weight_low(w1) - min(reach1) + K - 1,
                   max(reach2) - weight_low(w2))
        if move > PAIR_HALF_WIDTH:
            raise ValueError(f"delta_B of {word} reads exponent shifts up to "
                             f"{move}, past PAIR_HALF_WIDTH")


def check_hopf_rules(cartan: CartanData, config: CurveConfig, samples: int = 10,
                     seed: int = 7) -> dict:
    """The product, coproduct and counit rules on sampled generator pairs.

    Each sample draws two generators e_i[m], e_i'[m'] independently and
    pairs them with the letters f_i[-1 - m], f_i'[-1 - m'] of the dual
    modes, so every sampled pairing is nonzero and the rules compare
    nonzero values."""
    K = config.K
    rng = random.Random(seed)
    modes = list(range(-3, 3))
    unit = [fo_unit(cartan.rank, K)]
    ok = dict.fromkeys(("product_rule", "coproduct_rule", "counit_reduction"),
                       True)
    for _ in range(samples):
        gens = [(rng.randrange(cartan.rank), rng.choice(modes))
                for _ in range(2)]
        a, a2 = (embed_generator(i, m, cartan, K) for i, m in gens)
        w, w2 = (((i, -1 - m),) for i, m in gens)
        ok["product_rule"] &= product_rule(
            [a], [a2], ((concat(w, w2), Q(1)),), cartan, config)
        ok["coproduct_rule"] &= coproduct_rule(
            star(a, a2, cartan), [((w, Q(1)),)], [((w2, Q(1)),)], cartan,
            config)
        # the product rule against the unit pairs a single letter with the
        # empty word factor
        ok["counit_reduction"] &= product_rule(
            [a], unit, ((w, Q(1)),), cartan, config)
    return ok


def annihilator_check(cartan: CartanData, config: CurveConfig) -> dict:
    """Evidence for the mutual-annihilator statement at bidegree <= 2 alpha_1.

    (a) every element e_0[r] * x with r a regular mode pairs to zero with
        every regular-mode word at the matched bidegree (exhaustive);
    (b) the complement block (Lambda-mode rows against regular-mode words)
        has full rank, matching the dimension of the truncated
        regular-word space.

    Regular modes run over 0..2 and Lambda modes over -1..-3.
    """
    K = config.K
    i = 0
    out_modes = [0, 1, 2]
    lam_modes = [-1, -2, -3]
    zeros_deg1 = True
    for a in out_modes:
        for b in out_modes:
            v = pair(embed_generator(i, a, cartan, K), ((i, b),), cartan, config)
            if not v.is_zero():
                zeros_deg1 = False
    zeros_deg2 = True
    x_modes = lam_modes + out_modes
    for r in out_modes:
        for p in x_modes:
            elt = star(embed_generator(i, r, cartan, K),
                       embed_generator(i, p, cartan, K), cartan)
            for b in out_modes:
                for c in out_modes:
                    v = pair(elt, ((i, b), (i, c)), cartan, config)
                    if not v.is_zero():
                        zeros_deg2 = False
    # complement block rank
    rows = []
    row_labels = []
    for a in range(len(lam_modes)):
        for b in range(a, len(lam_modes)):
            rows.append(star(embed_generator(i, lam_modes[a], cartan, K),
                             embed_generator(i, lam_modes[b], cartan, K),
                             cartan))
            row_labels.append((lam_modes[a], lam_modes[b]))
    cols = []
    for b in out_modes:
        for c in out_modes:
            if b <= c:
                cols.append(((i, b), (i, c)))
    matrix = [[pair(P, w, cartan, config) for w in cols] for P in rows]
    rank = _mod_hbar(matrix)[0]
    predicted = len(cols)
    # out x out block of the degree-1 pairing is identically zero as well
    return {
        "out_pairings_zero_deg1": zeros_deg1,
        "out_pairings_zero_deg2": zeros_deg2,
        "complement_rank": rank,
        "predicted_rank": predicted,
        "rank_matches": rank == predicted,
    }
