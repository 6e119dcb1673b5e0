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
<a a', w> = <a (x) a', Delta_B w> and <a, w w'> = <Delta_A a, w (x) w'>,
checked exactly at truncation on samples.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .cartan import CartanData
from .geometry import CurveConfig
from .series import (
    HLaurent,
    HSeries,
    KernelFn,
    Q,
    Q0,
    Region,
    Window,
    expand_linear_ratio,
    memoized,
    row_reduce,
)
from .shuffle import (
    FOElement,
    chain_region,
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


@memoized
def pair(P: FOElement, word, cartan: CartanData, config: CurveConfig) -> HSeries:
    """<P, word>: exact residue value; degree mismatch gives zero.  A word
    is a tuple of (letter index, mode exponent)."""
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
    half = min(PAIR_HALF_WIDTH, spread + N * K + 2)
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
    terms = {tuple(e[s] for s in slots): hs for e, hs in P.num.terms.items()}
    integrand = dress(KernelFn(region, terms, window, K),
                      itertools.combinations(slots, 2), P.groups, cartan,
                      window)
    # against the mode monomial: the residue reads u^(-1 - mode)
    return integrand.coefficient(tuple(-1 - m for _, m in word))


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
    kernel_basis: list = field(default_factory=list)

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
            "kernel_dim": len(self.kernel_basis),
        }


def _mod_hbar(matrix):
    """Rank, nullspace basis (column vectors) and ``row_reduce``
    determinant of the leading (h^0) rational matrix."""
    rows, _, pivots, det = row_reduce([[hs.coeffs[0] for hs in row]
                                       for row in matrix])
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Q0] * ncols
        v[fc] = Q(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -rows[pr][fc]
        basis.append(v)
    return len(pivots), basis, det


def gram(row_elements, col_words, bidegree, cartan: CartanData,
         config: CurveConfig, row_labels=None, col_labels=None) -> GramReport:
    matrix = [
        [pair(P, w, cartan, config) for w in col_words] for P in row_elements
    ]
    offset = sum(abs(x) for x in bidegree[1])
    det_val = det_lead = None
    nondeg = False
    kernel = []
    if matrix:
        rank, kernel, det0 = _mod_hbar(matrix)
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
        if nondeg:
            kernel = []
    return GramReport(
        bidegree=bidegree,
        row_labels=row_labels or [f"row{i}" for i in range(len(row_elements))],
        col_labels=col_labels or [str(w) for w in col_words],
        matrix=matrix,
        valuation_offset=offset,
        det_valuation=det_val,
        det_leading=det_lead,
        nondegenerate=nondeg,
        kernel_basis=kernel,
    )


# ---------------------------------------------------------------------------
# Hopf-rule and annihilator checks
# ---------------------------------------------------------------------------


def _sample_elements(cartan: CartanData, config: CurveConfig, rng, modes):
    """Small deterministic sample pool of shuffle elements."""
    K = config.K
    pool = []
    for i in range(cartan.rank):
        pool.append(embed_generator(i, rng.choice(modes), cartan, K))
    a = embed_generator(0, rng.choice(modes), cartan, K)
    b = embed_generator(0, rng.choice(modes), cartan, K)
    pool.append(star(a, b, cartan).scalar_mul(Fraction(rng.choice([1, 2, 3]), 2)))
    return pool


def check_product_rule(a: FOElement, a2: FOElement, word, cartan, config) -> bool:
    """<a * a', w> = sum <a, w^(1)> <a', w^(2)>."""
    lhs = pair(star(a, a2, cartan), word, cartan, config)
    rhs = HSeries.zero(config.K)
    for w1, w2, hs in delta_B(word, cartan, config):
        if word_degree(w1, cartan.rank) != a.degrees:
            continue
        if word_degree(w2, cartan.rank) != a2.degrees:
            continue
        rhs = rhs + hs * pair(a, w1, cartan, config) * pair(a2, w2, cartan, config)
    return lhs == rhs


def check_coproduct_rule(a: FOElement, word1, word2, cartan, config) -> bool:
    """<a, w w'> = sum <a^(1), w> <a^(2), w'> over the matching split."""
    lhs = pair(a, concat(word1, word2), cartan, config)
    kp = word_degree(word1, cartan.rank)
    kpp = word_degree(word2, cartan.rank)
    if tuple(x + y for x, y in zip(kp, kpp)) != a.degrees:
        return lhs.is_zero()
    rhs = HSeries.zero(config.K)
    for f1, f2 in split_pairs(a, (kp, kpp), cartan):
        rhs = rhs + pair(f1, word1, cartan, config) * pair(f2, word2, cartan, config)
    return lhs == rhs


def check_hopf_rules(cartan: CartanData, config: CurveConfig, samples: int = 10,
                     seed: int = 7) -> dict:
    rng = random.Random(seed)
    modes = list(range(-3, 3))
    ok_product = ok_coproduct = True
    ok_counit = True
    for _ in range(samples):
        pool = _sample_elements(cartan, config, rng, modes)
        a = rng.choice(pool[: cartan.rank])
        a2 = rng.choice(pool[: cartan.rank])
        i1 = a.degrees.index(1)
        i2 = a2.degrees.index(1)
        word = ((i1, rng.choice(modes)), (i2, rng.choice(modes)))
        if not check_product_rule(a, a2, word, cartan, config):
            ok_product = False
        big = star(a, a2, cartan)
        if not check_coproduct_rule(big, (word[0],), (word[1],), cartan, config):
            ok_coproduct = False
        # counit reduction: the product rule against the unit pairs a
        # single letter with the empty word factor
        if not check_product_rule(a, fo_unit(cartan.rank, config.K),
                                  (word[0],), cartan, config):
            ok_counit = False
    return {
        "product_rule": ok_product,
        "coproduct_rule": ok_coproduct,
        "counit_reduction": ok_counit,
    }


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
