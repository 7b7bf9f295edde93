import pytest

from cartanforge import chart as ch
from cartanforge import expr as ex
from cartanforge.errors import DuplicateName, EmptyAxis, UnknownCoordinate

import randgen


def mechanics():
    return ch.make_chart(["t"], ["q"])


def wave():
    return ch.make_chart(["x0", "x1"], ["u"])


def test_make_chart_mechanics():
    c = mechanics()
    assert c.n_plus_1 == 1 and c.n_fields == 1
    assert c.v_names() == ("d(q,t)",)
    assert c.jet_coords() == ("t", "q", "d(q,t)")


def test_make_chart_wave():
    c = wave()
    assert c.v_names() == ("d(u,x0)", "d(u,x1)")


def test_make_chart_rejects_duplicates():
    with pytest.raises(DuplicateName):
        ch.make_chart(["x"], ["x"])
    with pytest.raises(DuplicateName):
        ch.make_chart(["t", "t"], ["q"])
    with pytest.raises(DuplicateName):
        ch.make_chart(["sin"], ["q"])
    with pytest.raises(EmptyAxis):
        ch.make_chart([], ["q"])


def test_w_accessor_symmetrizes():
    c = wave()
    assert c.w("u", "x1", "x0") == "dd(u,x0,x1)"
    assert c.w("u", "x0", "x1") == "dd(u,x0,x1)"


def test_b_not_symmetrized():
    c = wave()
    assert c.canonical_name("b(u,x1,x0)") == "b(u,x1,x0)"
    assert c.canonical_name("b(u,x0,x1)") == "b(u,x0,x1)"


def test_chart_parse_validates():
    c = mechanics()
    assert c.parse("d(q,t)") == ex.var("d(q,t)")
    with pytest.raises(UnknownCoordinate):
        c.parse("z + t")
    with pytest.raises(UnknownCoordinate):
        c.parse("d(z,t)")
    cw = wave()
    assert cw.parse("dd(u,x1,x0)") == ex.var("dd(u,x0,x1)")


def test_prolong_parabola():
    c = mechanics()
    phi = ch.SectionE(c, (c.parse("t^2"),))
    psi = ch.prolong_section(phi)
    assert psi.f == (c.parse("t^2"),)
    assert psi.g["d(q,t)"] == c.parse("2*t")


def test_prolong_product_section():
    c = wave()
    phi = ch.SectionE(c, (c.parse("x0*x1"),))
    psi = ch.prolong_section(phi)
    assert psi.g["d(u,x0)"] == ex.var("x1")
    assert psi.g["d(u,x1)"] == ex.var("x0")


def test_prolong_constant_section():
    c = mechanics()
    psi = ch.prolong_section(ch.SectionE(c, (ex.rat(5),)))
    assert psi.g["d(q,t)"].is_zero()


def test_prolong_sectionJ1_holonomic():
    c = mechanics()
    psi = ch.prolong_section(ch.SectionE(c, (c.parse("t^2"),)))
    rep = ch.prolong_sectionJ1(psi)
    assert rep["a(q,t)"] == c.parse("2*t")
    assert rep["b(q,t,t)"] == ex.rat(2)


def test_prolong_sectionJ1_non_holonomic():
    c = mechanics()
    psi = ch.SectionJ1(c, (c.parse("t^2"),), {"d(q,t)": c.parse("3*t")})
    rep = ch.prolong_sectionJ1(psi)
    assert rep["a(q,t)"] == c.parse("2*t")
    assert rep["b(q,t,t)"] == ex.rat(3)


def test_prolong_sectionJ1_constant():
    c = mechanics()
    psi = ch.SectionJ1(c, (ex.rat(1),), {"d(q,t)": ex.ZERO})
    rep = ch.prolong_sectionJ1(psi)
    assert all(v.is_zero() for v in rep.values())


def test_repeated_jet_projection_identity():
    # a-slots of j^1(psi) match the v-slots of j^1(pi^1 o psi)
    r = randgen.rng(314)
    c = wave()
    for _ in range(10):
        f = (randgen.poly(r, list(c.base_names)),)
        g = {n: randgen.poly(r, list(c.base_names)) for n in c.v_names()}
        psi = ch.SectionJ1(c, f, g)
        rep = ch.prolong_sectionJ1(psi)
        again = ch.prolong_section(psi.base_section())
        for y in c.fiber_names:
            for x in c.base_names:
                assert rep[ch.a_name(y, x)] == again.g[ch.v_name(y, x)]


def test_prolongation_round_trip():
    r = randgen.rng(315)
    c = wave()
    for _ in range(10):
        phi = ch.SectionE(c, (randgen.poly(r, list(c.base_names)),))
        psi = ch.prolong_section(phi)
        assert ch.prolong_section(psi.base_section()) == psi


def test_section_rejects_fiber_variables():
    c = mechanics()
    with pytest.raises(UnknownCoordinate):
        ch.SectionE(c, (ex.var("q"),))
