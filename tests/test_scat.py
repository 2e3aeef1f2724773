from necklace_calculus import shapes
from necklace_calculus.scat import (ch_simplex, enumerate_nat_trans, glue_end,
                                    representable, sigma_m, suspension,
                                    terminal_presheaf)
from necklace_calculus.sset import nd

d = shapes.simplex


def test_suspension():
    s = suspension(d(0))
    s.verify()
    assert s.hom[("0", "1")].nd_counts() == (1,)
    assert s.hom[("1", "0")].is_empty()
    assert s.is_directed()


def test_sigma_m_free_composites():
    # the pushout of directed categories along endpoints creates free composites:
    # hom(0,2) is X x X, not empty
    s2 = sigma_m(d(1), 2)
    s2.verify(bound=2)
    assert s2.hom[("0", "2")].nd_counts() == (4, 5, 2)
    assert all(s2.hom[(str(i - 1), str(i))] == d(1) for i in (1, 2))
    s3 = sigma_m(d(0), 3)
    s3.verify(bound=1)
    assert s3.hom[("0", "3")].nd_counts() == (1,)


def test_ch_simplex():
    for m in range(4):
        ch = ch_simplex(m)
        ch.verify(bound=2)
    ch2 = ch_simplex(2)
    assert ch2.hom[("0", "2")].nd_counts() == (2, 1)
    assert ch_simplex(3).hom[("0", "3")].nd_counts() == (4, 5, 2)
    assert ch2.hom[("0", "1")].nd_counts() == (1,)
    g = nd(ch2.hom[("1", "2")].by_dim[0][0])
    f = nd(ch2.hom[("0", "1")].by_dim[0][0])
    res = ch2.comp("0", "1", "2", g, f)
    assert ch2.cubes[("0", "2")].chain_of[res.gen] == ((0, 1, 2),)


def test_glue_end_cross_homs():
    base = ch_simplex(1)
    glue = glue_end(base, suspension(d(1)), {"0": "1", "1": "2"})
    glue.verify(bound=1)
    assert glue.hom[("0", "2")].nd_counts() == (2, 1)  # pt x D1
    assert glue.hom[("1", "2")] == d(1)


def test_representable_yoneda_count():
    arrow = suspension(d(0))
    F = representable(arrow, "1")
    F.verify()
    assert len(list(enumerate_nat_trans(F, F))) == 1
    T = terminal_presheaf(arrow)
    assert len(list(enumerate_nat_trans(F, T))) == 1
    assert len(list(enumerate_nat_trans(T, F))) == 1  # hits the identity at 1


def test_presheaf_tensor():
    arrow = suspension(d(0))
    F = representable(arrow, "1")
    FX = F.tensor(d(1))
    FX.verify()
    assert FX.value["0"].nd_counts() == (2, 1)
