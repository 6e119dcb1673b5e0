import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from qcurrents import cli
from qcurrents.cartan import CartanData, cartan_by_name
from qcurrents.geometry import CurveConfig
from qcurrents.serre import synthesize
from qcurrents.series import clear_memos
from qcurrents.shuffle import (
    FOElement,
    embed_generator,
    fo_unit,
    fo_zero,
    serre_element,
    split_pairs,
    star,
    vertex_element,
)
from qcurrents.series import HSeries, KernelFn, Window

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
