"""Degree-truncated canonical tensors of the residue pairing.

Per opposite bidegree pair, the canonical tensor F is the Gram-inverse
element of chosen square block bases: it reproduces every basis vector
under pairing on either leg.  Blocks are inverted over truncated Laurent
series in h (valuation-pivoted elimination), so composite-root blocks with
h-graded Gram valuations come out exactly; the coefficient valuations are
asserted against the minimal-root-summand length, and the leading slice
against the classical dual-basis tensor built from iterated-bracket root
vectors.

In the rational instance the mode complement is closed under products, so
the canonical tensor factorizes as F = F2 * F1 with F2 supported on
(regular (x) full) and F1 on (full (x) regular) blocks; the factorization
and the two coproduct identities (Delta_A (x) id)F = F^13 F^23 and
(id (x) Delta_B)F = F^13 F^12 (the pairing-level form of the cocycle) are
checked through tensor fingerprints -- contractions against the block
bases -- which are basis-choice invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cartan import CartanData
from .geometry import CurveConfig
from .pairing import concat, delta_B, pair, word_degree
from .series import HLaurent, HSeries, Q, Q0, row_reduce
from .shuffle import FOElement, embed_generator, fo_unit, split_pairs, star


def min_root_summands(alpha, cartan: CartanData) -> int:
    """Least number of positive roots (with repetition) summing to alpha."""
    roots = cartan.positive_roots()
    target = tuple(alpha)
    if all(x == 0 for x in target):
        return 0
    frontier = {target}
    for k in range(1, sum(target) + 1):
        nxt = set()
        for v in frontier:
            for r in roots:
                w = tuple(x - y for x, y in zip(v, r))
                if any(x < 0 for x in w):
                    continue
                if all(x == 0 for x in w):
                    return k
                nxt.add(w)
        frontier = nxt
    raise ValueError(f"{alpha} is not a positive-root sum")


# columns are combinations of free words: tuple of (word, Fraction)
def pair_combo(P: FOElement, combo, cartan, config) -> HSeries:
    out = HSeries.zero(config.K)
    for word, coeff in combo:
        out = out + pair(P, word, cartan, config) * coeff
    return out


@dataclass
class BlockBasis:
    degrees: tuple
    rows: list          # FOElement
    row_labels: list
    cols: list          # list of (word, Fraction) combos
    col_labels: list


def a1_block(count: int, modes, cartan: CartanData, config: CurveConfig,
             i: int = 0) -> BlockBasis:
    return a1_split_block(count, modes, modes, cartan, config, i)


def unit_block(cartan: CartanData, config: CurveConfig) -> BlockBasis:
    """The degree-zero block: the unit element against the empty word."""
    return BlockBasis((0,) * cartan.rank, [fo_unit(cartan.rank, config.K)],
                      [("1",)], [(((), Q(1)),)], [("empty",)])


def a1_split_block(count: int, row_modes, col_modes, cartan: CartanData,
                   config: CurveConfig, i: int = 0) -> BlockBasis:
    """Block with independent row/column mode ranges (for the out/complement
    factor tensors: regular rows against complement words and mirrored)."""
    K = config.K
    degrees = tuple(count if s == i else 0 for s in range(cartan.rank))
    rows, rl, cols, cl = [], [], [], []
    if count == 1:
        for m in row_modes:
            rows.append(embed_generator(i, m, cartan, K))
            rl.append(("e", m))
        for r in col_modes:
            cols.append(((((i, r),), Q(1)),))
            cl.append(("f", r))
    elif count == 2:
        for p, q_ in itertools.combinations_with_replacement(row_modes, 2):
            rows.append(star(embed_generator(i, p, cartan, K),
                             embed_generator(i, q_, cartan, K), cartan))
            rl.append(("e*e", p, q_))
        for r, s_ in itertools.combinations_with_replacement(col_modes, 2):
            cols.append(((((i, r), (i, s_)), Q(1)),))
            cl.append(("ff", r, s_))
    else:
        raise ValueError("only counts 1 and 2 are wired")
    return BlockBasis(degrees, rows, rl, cols, cl)


def a2_mixed_block(modes, cartan: CartanData, config: CurveConfig) -> BlockBasis:
    """Bidegree alpha_1 + alpha_2 with explicit commutator directions."""
    K = config.K
    degrees = (1, 1)
    rows, row_labels, cols, col_labels = [], [], [], []
    for p in modes:
        for q_ in modes:
            rows.append(star(embed_generator(0, p, cartan, K),
                             embed_generator(1, q_, cartan, K), cartan))
            row_labels.append(("e0*e1", p, q_))
            cols.append(((((0, p), (1, q_)), Q(1)),))
            col_labels.append(("f0f1", p, q_))
    for m in modes:
        com = star(embed_generator(0, 0, cartan, K),
                   embed_generator(1, m, cartan, K), cartan) - star(
            embed_generator(1, m, cartan, K),
            embed_generator(0, 0, cartan, K), cartan)
        rows.append(com)
        row_labels.append(("[e0,e1]", m))
        cols.append(((((0, 0), (1, m)), Q(1)), (((1, m), (0, 0)), Q(-1))))
        col_labels.append(("[f0,f1]", m))
    return BlockBasis(degrees, rows, row_labels, cols, col_labels)


@dataclass
class BiDegreeTensor:
    """F = sum_ij C[i][j] * rows[i] (x) cols[j], C entries HLaurent."""

    basis: BlockBasis
    gram: list                 # HSeries matrix
    C: list                    # HLaurent matrix
    offset: int                # max h-denominator appearing in C

    @property
    def bidegree(self):
        d = self.basis.degrees
        return (d, tuple(-x for x in d))

    def min_valuation(self):
        vals = [c.valuation() for row in self.C for c in row]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None


def compute_F(basis: BlockBasis, cartan: CartanData,
              config: CurveConfig) -> BiDegreeTensor:
    gram = [
        [pair_combo(P, combo, cartan, config) for combo in basis.cols]
        for P in basis.rows
    ]
    n = len(gram)
    one, zero = HSeries.one(config.K), HSeries.zero(config.K)
    _, Ct, pivots, _ = row_reduce(   # Ct = G^{-1}: C[i][j] = Ct[j][i]
        [[HLaurent.from_hseries(h) for h in row] for row in gram],
        [[HLaurent.from_hseries(one if i == j else zero) for j in range(n)]
         for i in range(n)])
    if len(pivots) < n:
        raise ValueError("gram block singular at this truncation")
    C = [[Ct[j][i] for j in range(n)] for i in range(n)]
    offs = [-c.normalized().offset for row in C for c in row if not c.is_zero()]
    return BiDegreeTensor(basis, gram, C, max(offs) if offs else 0)


def check_reproducing(F: BiDegreeTensor, config: CurveConfig) -> bool:
    """<F, b_l (x) id> = b_l for every column, exactly at the available
    truncation: G C^T G = G entrywise."""
    G = [[HLaurent.from_hseries(h) for h in row] for row in F.gram]
    n = len(G)

    def matmul(A, B):
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    if A[i][k].is_zero() or B[k][j].is_zero():
                        continue
                    t = A[i][k] * B[k][j]
                    acc = t if acc is None else acc + t
                row.append(acc if acc is not None else
                           HLaurent.from_hseries(HSeries.zero(config.K)))
            out.append(row)
        return out

    Ct = [[F.C[i][j] for i in range(n)] for j in range(n)]
    M = matmul(matmul(G, Ct), G)
    return all((M[k][l] - G[k][l]).is_zero()
               for k in range(n) for l in range(n))


# ---------------------------------------------------------------------------
# leading-term law
# ---------------------------------------------------------------------------


def _expected_slice(F: BiDegreeTensor, cartan: CartanData):
    """The classical dual tensor expressed in the square block bases.

    Simple-root blocks: the antidiagonal of dual mode pairs.  Doubled
    blocks: (1/2)(sum_l e[dual] (x) f[mode])^2 collapsed onto the sorted
    bases, i.e. 1 off the repeated-mode rows and 1/2 on them.  Composite
    block: the bracket rows against the pairing-dual word combinations;
    the same-nesting bracket on the word side pairs to -1 (the classical
    invariant-form value), so the dual coefficient is -1.
    """
    alpha = F.basis.degrees
    rows = F.basis.row_labels
    cols = F.basis.col_labels
    n = len(rows)
    pred = [[Q0] * n for _ in range(n)]
    nonzero = [s for s in range(cartan.rank) if alpha[s]]
    if sum(alpha) == 1:
        for a, la in enumerate(rows):
            for b, lb in enumerate(cols):
                if la[1] + lb[1] == -1:
                    pred[a][b] = Q(1)
    elif len(nonzero) == 1 and alpha[nonzero[0]] == 2:
        for a, la in enumerate(rows):
            _, p, q_ = la
            for b, lb in enumerate(cols):
                _, r, s_ = lb
                if tuple(sorted((-1 - r, -1 - s_))) == (p, q_):
                    pred[a][b] = Q(1) if r != s_ else Fraction(1, 2)
    elif alpha == (1, 1):
        for a, la in enumerate(rows):
            if la[0] != "[e0,e1]":
                continue
            for b, lb in enumerate(cols):
                if lb[0] != "[f0,f1]":
                    continue
                if la[1] + lb[1] == -1:
                    pred[a][b] = Q(-1)
    else:
        raise ValueError("no leading-term table for this bidegree")
    return pred


def leading_term_check(F: BiDegreeTensor, cartan: CartanData,
                       config: CurveConfig) -> dict:
    """Valuation = ell(alpha) - principal degree (offset normalization) and
    the leading coefficient slice equals the classical dual tensor.

    The block bases are square, so the coefficient matrix is unique and
    the comparison is entrywise at the minimal valuation.
    """
    alpha = F.basis.degrees
    ell = min_root_summands(alpha, cartan)
    deg = sum(alpha)
    want = ell - deg
    got = F.min_valuation()
    val_ok = got == want
    pred = _expected_slice(F, cartan)
    n = len(F.gram)
    slice_ok = True
    for a in range(n):
        for b in range(n):
            c = F.C[a][b]
            lead = Q0
            if not c.is_zero() and c.valuation() == want:
                cn = c.normalized()
                lead = cn.hs.coeffs[0]
            if lead != pred[a][b]:
                slice_ok = False
    return {
        "ell": ell,
        "valuation": got,
        "valuation_ok": val_ok,
        "leading_slice_ok": slice_ok,
    }


# ---------------------------------------------------------------------------
# fingerprints, factorization and coproduct identities
# ---------------------------------------------------------------------------


def _fingerprint(terms, basis: BlockBasis, cartan, config):
    """Matrix <x_nu, col_l> <row_k, y_nu> summed over tensor terms.

    terms: list of (FOElement, word, HLaurent-or-HSeries coefficient).
    Equals the Gram transpose-contraction of the tensor; basis invariant.
    """
    n = len(basis.rows)
    out = [[None] * n for _ in range(n)]
    for x, y, coeff in terms:
        cvals = [pair_combo(x, combo, cartan, config) for combo in basis.cols]
        rvals = [pair(rk, y, cartan, config) for rk in basis.rows]
        for l in range(n):
            if cvals[l].is_zero():
                continue
            for k in range(n):
                if rvals[k].is_zero():
                    continue
                t = coeff * HLaurent.from_hseries(cvals[l] * rvals[k])
                out[l][k] = t if out[l][k] is None else out[l][k] + t
    zero = HLaurent.from_hseries(HSeries.zero(config.K))
    return [[c if c is not None else zero for c in row] for row in out]


def tensor_terms(F: BiDegreeTensor):
    out = []
    for i, row in enumerate(F.C):
        for j, c in enumerate(row):
            if c.is_zero():
                continue
            for word, w in F.basis.cols[j]:
                out.append((F.basis.rows[i], word, c * w))
    return out


def factorization_check(full: BiDegreeTensor, sub_blocks, cartan: CartanData,
                        config: CurveConfig) -> dict:
    """F = F2 F1 at the full block's bidegree.

    sub_blocks maps each split beta + gamma = alpha to the pair
    (F2 at (out rows x complement words), F1 at (complement rows x out
    words)); bidegree-zero factors are the unit.  Compared through the
    fingerprint against the full block, which must equal the Gram.
    """
    alpha = full.basis.degrees
    unit = fo_unit(cartan.rank, config.K)
    empty_word = ()
    terms = []
    for beta, (F2b, F1g) in sub_blocks.items():
        t2 = ([(unit, empty_word, HLaurent.from_hseries(HSeries.one(config.K)))]
              if F2b is None else tensor_terms(F2b))
        t1 = ([(unit, empty_word, HLaurent.from_hseries(HSeries.one(config.K)))]
              if F1g is None else tensor_terms(F1g))
        for x2, y2, c2 in t2:
            for x1, y1, c1 in t1:
                terms.append((star(x2, x1, cartan), concat(y2, y1), c2 * c1))
    fp = _fingerprint(terms, full.basis, cartan, config)
    G = full.gram
    ok = True
    for l in range(len(G)):
        for k in range(len(G)):
            if not (fp[l][k] - HLaurent.from_hseries(G[k][l])).is_zero():
                ok = False
    # structural leg checks: F2 first legs in the regular span, F1 second
    # legs carry non-negative modes only
    legs_ok = True
    for beta, (F2b, F1g) in sub_blocks.items():
        if F2b is not None:
            for x, y, c in tensor_terms(F2b):
                if any(any(v < 0 for v in e) for e in x.num.terms):
                    legs_ok = False
        if F1g is not None:
            for x, y, c in tensor_terms(F1g):
                if any(m < 0 for _, m in y):
                    legs_ok = False
    return {"factorization_zero_deviation": ok, "out_leg_structure": legs_ok}


def coproduct_identity_checks(F_blocks, splits, cartan: CartanData,
                              config: CurveConfig) -> dict:
    """(Delta_A (x) id)(F) = F^13 F^23 and (id (x) Delta_B)(F) = F^12 F^13,
    componentwise at the given splits; the pairing-level cocycle content.

    Contracted against the square block bases (slot by slot), both sides
    collapse through the reproducing property into closed forms: the A-side
    component (l, m, k) reads

        sum over splittings of a_k:  <a_k^(1), col_l> <a_k^(2), col_m>
        =  <a_k, concat(col_l, col_m)>,

    and the B-side component mirrors it with the word coproduct against
    the product of dual elements.  These are checked exactly for every
    basis index triple.
    """
    results = {}
    for (beta, gamma) in splits:
        alpha = tuple(x + y for x, y in zip(beta, gamma))
        Fa = F_blocks[alpha]
        Fb = F_blocks[beta]
        Fg = F_blocks[gamma]
        okA = True
        for k, a_k in enumerate(Fa.basis.rows):
            pairs_split = split_pairs(a_k, (beta, gamma), cartan)
            for l, col_l in enumerate(Fb.basis.cols):
                for m, col_m in enumerate(Fg.basis.cols):
                    lhs = HSeries.zero(config.K)
                    for f1, f2 in pairs_split:
                        lhs = lhs + pair_combo(f1, col_l, cartan, config) * \
                            pair_combo(f2, col_m, cartan, config)
                    rhs = HSeries.zero(config.K)
                    for w1, c1 in col_l:
                        for w2, c2 in col_m:
                            rhs = rhs + pair(a_k, concat(w1, w2), cartan,
                                             config) * (c1 * c2)
                    if lhs != rhs:
                        okA = False
        okB = True
        for l, col_l in enumerate(Fa.basis.cols):
            # word-coproduct components of the column combination
            split_vals = {}
            for w, cw in col_l:
                for w1, w2, hs in delta_B(w, cartan, config):
                    if (word_degree(w1, cartan.rank) == beta
                            and word_degree(w2, cartan.rank) == gamma):
                        key = (w1, w2)
                        cur = split_vals.get(key, HSeries.zero(config.K))
                        split_vals[key] = cur + hs * cw
            for k2, row_b in enumerate(Fb.basis.rows):
                for k3, row_g in enumerate(Fg.basis.rows):
                    lhs = HSeries.zero(config.K)
                    for (w1, w2), hs in split_vals.items():
                        lhs = lhs + hs * pair(row_b, w1, cartan, config) * \
                            pair(row_g, w2, cartan, config)
                    rhs = pair_combo(star(row_b, row_g, cartan), col_l,
                                     cartan, config)
                    if lhs != rhs:
                        okB = False
        results[str((beta, gamma))] = {"A_side": okA, "B_side": okB}
    results["all"] = all(v["A_side"] and v["B_side"]
                         for k, v in results.items() if k != "all")
    return results
