import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcurrents import cli, shuffle, suites
from qcurrents.cartan import CartanData, cartan_by_name
from qcurrents.geometry import CurveConfig
from qcurrents.serre import synthesize
from qcurrents.series import clear_memos
from qcurrents.shuffle import (
    FOElement,
    chain_region,
    embed_generator,
    fo_unit,
    fo_window,
    fo_zero,
    placements,
    serre_element,
    split_pairs,
    star,
    vertex_element,
    word_sum,
)
from qcurrents.series import (
    HSeries,
    KernelFn,
    Window,
    divide_linear,
    linear_factor,
)

A1 = cartan_by_name("A1")
A2 = cartan_by_name("A2")
CFG = CurveConfig(K=4, max_mode=8)
K = CFG.K


def test_embed_monomial():
    e = embed_generator(0, 3, A1, K)
    assert e.degrees == (1,)
    assert e.num.coefficient((3,)) == HSeries.one(K)
    e0 = embed_generator(0, 0, A1, K)
    assert e0.num.coefficient((0,)) == HSeries.one(K)


def test_embed_linearity_over_modes():
    a = embed_generator(0, 1, A1, K)
    b = embed_generator(0, 2, A1, K)
    s = a + b
    assert s.num.coefficient((1,)) == HSeries.one(K)
    assert s.num.coefficient((2,)) == HSeries.one(K)


def test_unit_law():
    one = fo_unit(1, K)
    f = embed_generator(0, 2, A1, K)
    assert star(one, f, A1).num == f.num
    assert star(f, one, A1).num == f.num
    ff = star(f, embed_generator(0, -1, A1, K), A1)
    assert star(ff, fo_unit(1, K), A1).num == ff.num


def test_unit_has_no_variables():
    one = fo_unit(2, K)
    assert one.num.variables == ()
    e = star(embed_generator(0, 0, A2, K), embed_generator(1, 1, A2, K), A2)
    assert star(one, e, A2) == e
    assert star(e, one, A2) == e


def test_classical_limit_is_symmetrization():
    s = star(embed_generator(0, 2, A1, K), embed_generator(0, 0, A1, K), A1)
    assert s.num.coefficient((2, 0)).coeffs[0] == 1
    assert s.num.coefficient((0, 2)).coeffs[0] == 1
    assert s.is_symmetric()


def test_degree_additivity():
    a = star(embed_generator(0, 1, A2, K), embed_generator(1, 0, A2, K), A2)
    assert a.degrees == (1, 1)
    b = star(a, embed_generator(0, -2, A2, K), A2)
    assert b.degrees == (2, 1)
    assert b.is_symmetric()


@given(st.integers(-3, 2), st.integers(-3, 2), st.integers(-3, 2))
@settings(max_examples=15, deadline=None)
def test_associativity_a1(ma, mb, mc):
    x = embed_generator(0, ma, A1, K)
    y = embed_generator(0, mb, A1, K)
    z = embed_generator(0, mc, A1, K)
    lhs = star(star(x, y, A1), z, A1)
    rhs = star(x, star(y, z, A1), A1)
    assert (lhs.num - rhs.num).is_zero()


def test_associativity_a2_seeded():
    rng = random.Random(23)
    for _ in range(20):
        letters = [rng.randrange(2) for _ in range(3)]
        modes = [rng.randrange(-3, 3) for _ in range(3)]
        x, y, z = (embed_generator(i, m, A2, K)
                   for i, m in zip(letters, modes))
        lhs = star(star(x, y, A2), z, A2)
        rhs = star(x, star(y, z, A2), A2)
        assert (lhs.num - rhs.num).is_zero()


class TestRelationElements:
    def test_vertex_a1(self):
        for a in range(-3, 3):
            for b in range(-3, 3):
                assert vertex_element(0, 0, a, b, A1, CFG).is_zero()

    def test_vertex_a2_cross(self):
        for i, j in ((0, 1), (1, 0), (0, 0)):
            for a in (-2, 0, 1):
                for b in (-1, 0, 2):
                    assert vertex_element(i, j, a, b, A2, CFG).is_zero()

    def test_vertex_with_regular_part_folded(self):
        from qcurrents.kernels import regular_exchange_part

        reg = regular_exchange_part(2, CFG, check=6)["kernel"]
        assert vertex_element(0, 0, 0, 1, A1, CFG,
                              regular_part=reg).is_zero()

    def test_vertex_detects_perturbed_regular_part(self):
        from qcurrents.kernels import regular_exchange_part

        reg = regular_exchange_part(2, CFG, check=6)["kernel"]
        bad = reg.scalar_mul(HSeries([1, 1], K))
        assert not vertex_element(0, 0, 0, 1, A1, CFG,
                                  regular_part=bad).is_zero()

    def test_vertex_beyond_window_is_an_error(self):
        # the z^33 word's numerator has t1^34, outside the +-32 window
        with pytest.raises(ValueError, match="FO_HALF_WIDTH"):
            vertex_element(0, 0, 32, 0, A1, CFG)

    def test_serre_elements_a2(self):
        scfg = CurveConfig(K=5, max_mode=8)
        system = synthesize(scfg, check=6)["system"].truncate(K)
        half = system.rescale_hbar(Q(1, 2))
        for mz in (-2, 0, 1):
            for m1 in (-1, 0):
                for m2 in (0, 2):
                    el = serre_element(half, 0, 1, mz, m1, m2, A2, CFG)
                    assert el.is_zero()

    def test_serre_element_classical_limit(self):
        # mod h the element is the classical Serre combination, zero already
        # coefficient-by-coefficient at h^0; covered by is_zero above, spot
        # check one h^0 slice explicitly
        scfg = CurveConfig(K=5, max_mode=8)
        system = synthesize(scfg, check=6)["system"].truncate(K)
        half = system.rescale_hbar(Q(1, 2))
        el = serre_element(half, 0, 1, 0, 0, 0, A2, CFG)
        assert not any(hs.coeffs[0] for hs in el.num.terms.values())


def _place(num, positions, N, K):
    """Put a numerator's variables at the given merged positions."""
    terms = {}
    for e, hs in num.terms.items():
        e2 = [0] * N
        for x, p in zip(e, positions):
            e2[p] = x
        terms[tuple(e2)] = hs
    return KernelFn(chain_region(N), terms, fo_window(N), K)


def star_reference(a, b, cartan):
    """``star`` as it was before the mode-free factors: every linear factor
    of every shuffle choice multiplied in, one window product at a time,
    then the Vandermonde divided pair by pair.  The oracle for ``star``."""
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
    total = KernelFn.zero(region, window, K)
    for choice in itertools.product(*group_choices):
        pos_a = [offs[g] + c for g in range(n) for c in choice[g]]
        pos_b = [offs[g] + c for g in range(n) for c in range(degrees[g])
                 if c not in choice[g]]
        term = _place(a.num, pos_a, N, K).mul(_place(b.num, pos_b, N, K),
                                              window)
        sign = 1
        for ga, pa in zip(a.groups, pos_a):
            for gb, pb in zip(b.groups, pos_b):
                c = Q(cartan.pairing(ga, gb), 2)
                term = term.mul(
                    linear_factor(region, names[pa], names[pb], c, window, K),
                    window)
                if pa > pb:
                    sign = -sign
        aset = set(pos_a)
        for g in range(n):
            block = range(offs[g], offs[g] + degrees[g])
            for p, q_ in itertools.combinations(block, 2):
                if (p in aset) == (q_ in aset):
                    term = term.mul(linear_factor(region, names[p], names[q_],
                                                  0, window, K), window)
        total = total + term.scalar_mul(sign)
    groups = [g for g, d in enumerate(degrees) for _ in range(d)]
    for p, q_ in itertools.combinations(range(N), 2):
        if groups[p] == groups[q_]:
            total = divide_linear(total, names[p], names[q_])
    if any(abs(x) > shuffle.FO_HALF_WIDTH for e in total.terms for x in e):
        raise ValueError("shuffle exponent exceeds FO_HALF_WIDTH")
    return FOElement(degrees, KernelFn(region, total.terms, fo_window(N), K))


class TestStarReference:
    MODES = range(-3, 3)

    def check(self, a, b, cartan):
        # FOElement equality: degrees, region, window, K and terms
        assert star(a, b, cartan) == star_reference(a, b, cartan)

    def test_every_product_of_length_two(self):
        for cartan in (A1, A2):
            for i, j in itertools.product(range(cartan.rank), repeat=2):
                for m, n in itertools.product(self.MODES, repeat=2):
                    self.check(embed_generator(i, m, cartan, K),
                               embed_generator(j, n, cartan, K), cartan)

    def test_every_product_of_length_three(self):
        # both bracketings of every letter sequence; modes -3..2 on every
        # letter for A1, seeded per sequence for A2
        rng = random.Random(29)
        for cartan, count in ((A1, None), (A2, 24)):
            for letters in itertools.product(range(cartan.rank), repeat=3):
                modes = list(itertools.product(self.MODES, repeat=3))
                for ms in modes if count is None else rng.sample(modes, count):
                    x, y, z = (embed_generator(g, m, cartan, K)
                               for g, m in zip(letters, ms))
                    self.check(star(x, y, cartan), z, cartan)
                    self.check(x, star(y, z, cartan), cartan)

    def test_unit_and_zero(self):
        e = star(embed_generator(0, 1, A2, K), embed_generator(1, -2, A2, K),
                 A2)
        for a, b in ((fo_unit(2, K), e), (e, fo_unit(2, K)),
                     (fo_zero((1, 0), K), e)):
            self.check(a, b, A2)

    def test_window_edge(self):
        for cartan in (A1, A2):
            for m in (32, -32):
                x = embed_generator(0, m, cartan, K)
                self.check(x, embed_generator(0, 0, cartan, K), cartan)
                self.check(embed_generator(0, -1, cartan, K), x, cartan)
        clear_memos()


def star_word(factors, cartan):
    """The product of the factors by iterated ``star``, left to right: the
    oracle for ``word_sum``."""
    out = factors[0]
    for f in factors[1:]:
        out = star(out, f, cartan)
    return out


def degrees_of(letters, cartan):
    return tuple(letters.count(g) for g in range(cartan.rank))


class TestPlacements:
    MODES = range(-3, 3)

    def check_word(self, letters, modes, cartan):
        got = word_sum(degrees_of(letters, cartan),
                       [(letters, modes, HSeries.one(K))], cartan, K)
        want = star_word([embed_generator(g, n, cartan, K)
                          for g, n in zip(letters, modes)], cartan)
        # FOElement equality: degrees, region, window, K and terms
        assert got == want, (letters, modes)

    def test_every_word_of_length_one_and_two(self):
        for cartan in (A1, A2):
            for n in (1, 2):
                for letters in itertools.product(range(cartan.rank), repeat=n):
                    for modes in itertools.product(self.MODES, repeat=n):
                        self.check_word(letters, modes, cartan)

    def test_seeded_words_of_length_three(self):
        rng = random.Random(13)
        for cartan, per_sequence in ((A1, 16), (A2, 8)):
            for letters in itertools.product(range(cartan.rank), repeat=3):
                for _ in range(per_sequence):
                    modes = tuple(rng.choice(self.MODES) for _ in range(3))
                    self.check_word(letters, modes, cartan)

    def test_weighted_sum_is_one_division(self):
        # words with different letter orders and h-dependent weights sum
        # into one element; the oracle sums the iterated products
        rng = random.Random(3)
        sequences = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        words = []
        want = fo_zero((2, 1), K)
        for _ in range(12):
            letters = rng.choice(sequences)
            modes = tuple(rng.choice(self.MODES) for _ in range(3))
            weight = HSeries([rng.randint(-3, 3) for _ in range(K)])
            words.append((letters, modes, weight))
            want = want + star_word([embed_generator(g, n, A2, K)
                                     for g, n in zip(letters, modes)],
                                    A2).scalar_mul(weight)
        assert word_sum((2, 1), words, A2, K) == want

    def test_placements_of_a_repeated_letter(self):
        degrees, entries = placements((0, 0), A1, K)
        assert degrees == (2,)
        (s1, L1), (s2, L2) = entries
        assert (s1, s2) == ((0, 1), (1, 0))
        # t1 - t2 + h, and the swap -(t2 - t1 + h) = t1 - t2 - h
        region, window = chain_region(2), fo_window(2)
        assert L1 == linear_factor(region, "t1", "t2", 1, window, K)
        assert L2 == linear_factor(region, "t1", "t2", -1, window, K)
        # one letter: the empty product
        one = KernelFn.const(1, chain_region(1), fo_window(1), K)
        assert placements((0,), A1, K)[1] == (((0,), one),)

    def test_word_at_the_window_edge_matches_star(self):
        # word_sum and star share one accumulator, so they accept the same
        # words: every letter on fo_window, as at the edge of TestStarWindow
        clear_memos()
        for letters, modes in (((0, 0), (32, 0)), ((0, 0, 0), (0, -32, 32))):
            self.check_word(letters, modes, A1)
        with pytest.raises(ValueError, match="FO_HALF_WIDTH"):
            word_sum((2,), [((0, 0), (33, 0), HSeries.one(K))], A1, K)
        clear_memos()

    def test_mixed_degrees_are_an_error(self):
        with pytest.raises(ValueError, match="multidegree"):
            word_sum((2,), [((0,), (0,), HSeries.one(K))], A1, K)


class TestCoproduct:
    def test_full_split_is_identity_side(self):
        P = star(embed_generator(0, 1, A1, K), embed_generator(0, -1, A1, K),
                 A1)
        [(f1, f2)] = split_pairs(P, ((2,), (0,)), A1)
        assert f1.num == P.num
        assert f2.num == fo_unit(1, K).num

    def test_primitive_mod_hbar(self):
        e = embed_generator(0, 2, A1, K)
        pairs0 = split_pairs(e, ((1,), (0,)), A1)
        pairs1 = split_pairs(e, ((0,), (1,)), A1)
        assert len(pairs0) == 1 and len(pairs1) == 1
        f1, f2 = pairs0[0]
        assert f1.num == e.num and f2.degrees == (0,)
        assert f2.num == fo_unit(1, K).num
        g1, g2 = pairs1[0]
        assert g2.num == e.num and g1.degrees == (0,)

    def test_coassociativity_two_way_resplit(self):
        # (Delta (x) id) Delta = (id (x) Delta) Delta on the fully split
        # component of a degree-2 current product, oracle by re-splitting
        cfg3 = CurveConfig(K=3, max_mode=8)
        K3 = cfg3.K
        P = star(star(embed_generator(0, 0, A1, K3),
                      embed_generator(0, -2, A1, K3), A1),
                 embed_generator(0, 1, A1, K3), A1)

        def collapse(triples, interior=8):
            # compare on the certified interior box; the nested splitting
            # expansions carry boundary junk near the working window edge
            acc = {}
            for x, y, z in triples:
                for ex, hx in x.num.terms.items():
                    for ey, hy in y.num.terms.items():
                        for ez, hz in z.num.terms.items():
                            key = (ex, ey, ez)
                            if any(abs(e[0]) > interior for e in key):
                                continue
                            acc[key] = acc.get(key, HSeries.zero(K3)) + \
                                hx * hy * hz
            return {k: v for k, v in acc.items() if not v.is_zero()}

        path_a = []
        for f12, f3 in split_pairs(P, ((2,), (1,)), A1):
            for f1, f2 in split_pairs(f12, ((1,), (1,)), A1):
                path_a.append((f1, f2, f3))
        path_b = []
        for f1, f23 in split_pairs(P, ((1,), (2,)), A1):
            for f2, f3 in split_pairs(f23, ((1,), (1,)), A1):
                path_b.append((f1, f2, f3))
        assert collapse(path_a) == collapse(path_b)


def test_serre_elements_other_orientation():
    from qcurrents.serre import synthesize

    scfg = CurveConfig(K=5, max_mode=8)
    system = synthesize(scfg, check=6)["system"].truncate(K)
    half = system.rescale_hbar(Q(1, 2))
    for mz, m1, m2 in ((-1, 0, 0), (0, -2, 1)):
        assert serre_element(half, 1, 0, mz, m1, m2, A2, CFG).is_zero()


class TestStarWindow:
    def test_star_at_window_edge_is_exact(self, monkeypatch):
        # the numerator before the Vandermonde division reaches t1^33; the
        # 34 quotient terms lie inside +-32, so a wider bound changes none
        def edge_product():
            clear_memos()
            return star(embed_generator(0, 32, A1, K),
                        embed_generator(0, 0, A1, K), A1)

        edge = edge_product()
        monkeypatch.setattr(shuffle, "FO_HALF_WIDTH", 40)
        wide = edge_product()
        clear_memos()
        assert len(edge.num.terms) == 34
        assert edge.num.terms == wide.num.terms
        assert edge.num.window == Window.cube(-32, 32, 2)

    def test_star_beyond_window_is_an_error(self):
        # across groups nothing is divided: t1^32 (t1 - t2 - h/2) has t1^33
        clear_memos()
        with pytest.raises(ValueError, match="FO_HALF_WIDTH"):
            star(embed_generator(0, 32, A2, K), embed_generator(1, 0, A2, K),
                 A2)


class TestStarMemo:
    def test_equal_content_hits(self):
        clear_memos()
        x = embed_generator(0, 0, A1, K)
        y = embed_generator(0, 1, A1, K)
        first = star(x, y, A1)
        rebuilt = FOElement(y.degrees, y.num.copy_with())
        assert rebuilt is not y
        assert star(x, rebuilt, A1) is first
        assert len(star.memo) == 1

    def test_element_equality_and_hash(self):
        clear_memos()
        x = embed_generator(0, 0, A1, K)
        a = star(x, embed_generator(0, 1, A1, K), A1)
        rebuilt = FOElement(a.degrees, a.num.copy_with())
        assert rebuilt is not a
        assert rebuilt == a and hash(rebuilt) == hash(a)
        first = star(a, x, A1)
        assert star(rebuilt, x, A1) is first
        assert len(star.memo) == 2
        # the key holds K and the window, not only the terms
        assert fo_zero((1,), 3) != fo_zero((1,), 4)
        narrow = KernelFn(a.num.region, a.num.terms, Window.cube(-5, 5, 2), K)
        assert FOElement(a.degrees, narrow) != a

    def test_cartan_data_get_separate_entries(self):
        clear_memos()
        a1 = star(embed_generator(0, 0, A1, K), embed_generator(0, 1, A1, K),
                  A1)
        a2 = star(embed_generator(0, 0, A2, K), embed_generator(0, 1, A2, K),
                  A2)
        assert (a1.degrees, a2.degrees) == ((2,), (2, 0))
        # same rank and element content as A1, but <alpha, alpha> = 4
        long_a1 = CartanData("A1", ((2,),), (2,))
        long = star(embed_generator(0, 0, A1, K), embed_generator(0, 1, A1, K),
                    long_a1)
        assert long.num != a1.num
        assert len(star.memo) == 3

    def test_cli_run_empties_star_memo(self):
        star(embed_generator(0, 0, A1, K), embed_generator(0, 1, A1, K), A1)
        assert star.memo
        status, _ = cli.run("shuffle", cli.RunConfig())
        assert status == 0
        assert not star.memo
        assert not placements.memo


class TestAssociativityLeaf:
    def test_a_dropped_sign_fails_the_leaf(self, monkeypatch):
        # the first choice whose cross pairs have an odd number of
        # inversions keeps its factor but loses the sign
        real = shuffle._shuffle_factors

        def dropped(da, db, cartan, K):
            out = list(real(da, db, cartan, K))
            n = sum(da)
            for k, (slots, L) in enumerate(out):
                if sum(p > q for p in slots[:n] for q in slots[n:]) % 2:
                    out[k] = (slots, -L)
                    break
            return tuple(out)

        clear_memos()
        monkeypatch.setattr(shuffle, "_shuffle_factors", dropped)
        try:
            for name in ("A1", "A2"):
                report = suites.suite_shuffle(CFG, name)
                assert report["associativity"]["pass"] is False, name
                clear_memos()
        finally:
            clear_memos()


B2 = CartanData("B2", ((2, -2), (-1, 2)), (1, 2))
# star is commutative mod h, so each commutator carries a factor h and the
# relation with n letters x_i starts at h^n: B2 (0, 1), with n = 3, needs
# K = 4 to be more than 0 = 0
K4 = 4
YANGIAN_MODES = range(-1, 2)


def bracket(x, y, cartan, scale=None):
    """[x, y] = x*y - y*x, its first term scaled by ``scale`` if given."""
    xy = star(x, y, cartan)
    return (xy if scale is None else xy.scalar_mul(scale)) - star(y, x,
                                                                 cartan)


def nested(i, j, modes, p, cartan, scale=None):
    """[x_i[m_1], [... [x_i[m_n], x_j[p]] ...]]; with ``scale``, the first
    term of the innermost commutator is scaled."""
    el = embed_generator(j, p, cartan, K4)
    for depth, m in enumerate(reversed(modes)):
        el = bracket(embed_generator(i, m, cartan, K4), el, cartan,
                     scale if depth == 0 else None)
    return el


def yangian_serre(i, j, modes, p, cartan, scale=None):
    """The sum of ``nested`` over the orderings of ``modes``, ``scale``
    applied to the first ordering only."""
    orders = list(itertools.permutations(modes))
    total = nested(i, j, orders[0], p, cartan, scale)
    for ms in orders[1:]:
        total = total + nested(i, j, ms, p, cartan)
    return total


class TestYangianSerre:
    """The Serre relation in Yangian form, with n = 1 - a_ij letters x_i,
    on the e side through ``star``: it vanishes on the mode box, while its
    unsymmetrized terms and the relation one order lower do not, and a
    perturbed commutator breaks it."""

    CASES = [(A2, 0, 1), (A2, 1, 0), (B2, 0, 1), (B2, 1, 0)]
    IDS = ["A2-01", "A2-10", "B2-01", "B2-10"]

    def box(self, n):
        for modes in itertools.combinations_with_replacement(YANGIAN_MODES,
                                                             n):
            for p in YANGIAN_MODES:
                yield modes, p

    @pytest.mark.parametrize("cartan, i, j", CASES, ids=IDS)
    def test_relation_vanishes_and_is_not_vacuous(self, cartan, i, j):
        clear_memos()
        n = 1 - cartan.a[i][j]
        points = list(self.box(n))
        assert len(points) == (30 if n == 3 else 18)
        for modes, p in points:
            assert yangian_serre(i, j, modes, p, cartan).is_zero(), (modes, p)
        assert any(not nested(i, j, modes, p, cartan).is_zero()
                   for modes in itertools.product(YANGIAN_MODES, repeat=n)
                   for p in YANGIAN_MODES)
        assert any(not yangian_serre(i, j, modes, p, cartan).is_zero()
                   for modes, p in self.box(n - 1))
        clear_memos()

    @pytest.mark.parametrize("cartan, i, j", CASES, ids=IDS)
    def test_a_scaled_commutator_term_breaks_it(self, cartan, i, j):
        clear_memos()
        n = 1 - cartan.a[i][j]
        scale = HSeries([1, 1], K4)
        assert all(not yangian_serre(i, j, modes, p, cartan, scale).is_zero()
                   for modes, p in self.box(n))
        clear_memos()
