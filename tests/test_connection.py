import pytest

from cartanforge import chart as ch
from cartanforge import connection as cn
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge.errors import ChartMismatch

import randgen


MECH = ch.make_chart(["t"], ["q"])
PLANE = ch.make_chart(["x0", "x1"], ["y"])
XCH = ch.make_chart(["x"], ["y"])


def conn(chart, table):
    return cn.Connection(chart, {k: chart.parse(v) for k, v in table.items()})


def test_horizontal_split_vertical_field():
    c = conn(MECH, {("q", "t"): "3"})
    X = fm.VectorField(fm.total_space(MECH), {"q": ex.ONE})
    hor, ver = cn.horizontal_split(c, X)
    assert not hor.comps
    assert ver == X


def test_horizontal_split_base_field():
    c = conn(MECH, {("q", "t"): "3"})
    X = fm.coordinate_field(fm.total_space(MECH), "t")
    hor, ver = cn.horizontal_split(c, X)
    assert hor.component("t") == ex.ONE
    assert hor.component("q") == ex.rat(3)
    assert ver.component("q") == ex.rat(-3)
    assert (hor + ver) == X


def test_horizontal_split_flat():
    c = conn(MECH, {})
    X = fm.VectorField(fm.total_space(MECH), {"t": ex.var("t"), "q": ex.var("q")})
    hor, ver = cn.horizontal_split(c, X)
    assert hor == fm.VectorField(fm.total_space(MECH), {"t": ex.var("t")})
    assert ver == fm.VectorField(fm.total_space(MECH), {"q": ex.var("q")})


def test_curvature_constant_gamma():
    c = conn(PLANE, {("y", "x0"): "2", ("y", "x1"): "-5"})
    assert cn.curvature(c).is_zero()


def test_curvature_shear_example():
    c = conn(PLANE, {("y", "x0"): "x1", ("y", "x1"): "0"})
    R = cn.curvature(c)
    assert R.coefficient("y", "x0", "x1") == ex.MINUS_ONE
    assert R.coefficient("y", "x1", "x0") == ex.ONE


def test_curvature_cancelling_example():
    c = conn(PLANE, {("y", "x0"): "y", ("y", "x1"): "0"})
    assert cn.curvature(c).is_zero()


def test_curvature_matches_bracket_of_lifts():
    r = randgen.rng(700)
    names = list(PLANE.e_coords())
    for _ in range(10):
        c = cn.Connection(PLANE, {
            ("y", "x0"): randgen.poly(r, names, 2, 3),
            ("y", "x1"): randgen.poly(r, names, 2, 3)})
        frame = c.horizontal_frame()
        br = fm.bracket(frame[0], frame[1])
        R = cn.curvature(c)
        assert br.component("x0").is_zero() and br.component("x1").is_zero()
        assert R.coefficient("y", "x0", "x1") == br.component("y")


def test_integral_residual_linear():
    c = conn(XCH, {("y", "x"): "3"})
    phi = ch.SectionE(XCH, (XCH.parse("3*x"),))
    res = cn.integral_residual(c, phi)
    assert res[("y", "x")].is_zero()


def test_integral_residual_exponential():
    c = conn(PLANE, {("y", "x0"): "y", ("y", "x1"): "0"})
    phi = ch.SectionE(PLANE, (PLANE.parse("exp(x0)"),))
    res = cn.integral_residual(c, phi)
    assert res[("y", "x0")].is_zero()
    assert res[("y", "x1")].is_zero()


def test_integral_residual_failure():
    c = conn(XCH, {("y", "x"): "y"})
    phi = ch.SectionE(XCH, (XCH.parse("x^2"),))
    res = cn.integral_residual(c, phi)
    assert res[("y", "x")] == XCH.parse("2*x - x^2")


def test_mixed_partial_obstruction_witness():
    c = conn(PLANE, {("y", "x0"): "x1", ("y", "x1"): "0"})
    phi = ch.SectionE(PLANE, (PLANE.parse("x0*x1"),))
    obs = cn.mixed_partial_obstruction(c, phi)
    # d_1(Gamma_0 o phi) - d_0(Gamma_1 o phi) = 1 != 0, whatever phi is
    assert obs[("y", "x0", "x1")] == ex.ONE


def test_connection_difference_structure():
    r = randgen.rng(701)
    names = list(PLANE.e_coords())
    a = cn.Connection(PLANE, {("y", "x0"): randgen.poly(r, names),
                              ("y", "x1"): randgen.poly(r, names)})
    gamma = {("y", "x0"): randgen.poly(r, names),
             ("y", "x1"): randgen.poly(r, names)}
    b = a.shift(gamma)
    diff = b.difference(a)
    for k, g in gamma.items():
        assert diff[k] == g
        assert ex.free_vars(diff[k]) <= set(PLANE.e_coords())


def test_connection_rejects_jet_variables():
    with pytest.raises(Exception):
        cn.Connection(MECH, {("q", "t"): ex.var("d(q,t)")})


# -- jet fields ---------------------------------------------------------------

def jetfield(chart, F=None, G=None):
    F = {k: chart.parse(v) for k, v in (F or {}).items()}
    G = {k: chart.parse(v) for k, v in (G or {}).items()}
    return cn.JetField2(chart, F, G)


def test_sopde_project():
    yf = jetfield(MECH, {("q", "t"): "d(q,t)"}, {("q", "t", "t"): "-q"})
    assert cn.sopde_project(yf)
    yf2 = jetfield(MECH, {("q", "t"): "2*d(q,t)"})
    assert not cn.sopde_project(yf2)
    yf3 = jetfield(MECH, {("q", "t"): "d(q,t) + 0*q"})
    assert cn.sopde_project(yf3)


def test_integral_residual2_free_particle():
    yf = jetfield(MECH, {("q", "t"): "d(q,t)"})
    psi = ch.SectionJ1(MECH, (MECH.parse("2*t + 3"),), {"d(q,t)": ex.rat(2)})
    f_res, g_res = cn.integral_residual2(yf, psi)
    assert all(v.is_zero() for v in f_res.values())
    assert all(v.is_zero() for v in g_res.values())


def test_integral_residual2_oscillator():
    yf = jetfield(MECH, {("q", "t"): "d(q,t)"}, {("q", "t", "t"): "-q"})
    psi = ch.SectionJ1(MECH, (MECH.parse("sin(t)"),), {"d(q,t)": MECH.parse("cos(t)")})
    f_res, g_res = cn.integral_residual2(yf, psi)
    assert all(v.is_zero() for v in f_res.values())
    assert all(v.is_zero() for v in g_res.values())


def test_integral_residual2_failure():
    yf = jetfield(MECH, {("q", "t"): "d(q,t)"})
    psi = ch.prolong_section(ch.SectionE(MECH, (MECH.parse("t^2"),)))
    _, g_res = cn.integral_residual2(yf, psi)
    assert g_res[("q", "t", "t")] == ex.rat(2)


def omega_free_particle():
    # -dv^dy + v dv^dx for L = v^2/2, assembled by hand
    js = fm.jet_space(MECH)
    dv, dy, dx = (fm.d_coord(js, n) for n in ("d(q,t)", "q", "t"))
    return (fm.wedge(dv, dy).scale(ex.MINUS_ONE)
            + fm.wedge(dv, dx).scale(ex.var("d(q,t)")))


def test_jetfield_contract_free_particle():
    js = fm.jet_space(MECH)
    yf = jetfield(MECH, {("q", "t"): "d(q,t)"}, {("q", "t", "t"): "-q"})
    got = cn.jetfield_contract(yf, omega_free_particle())
    # with F = v this is -G*theta = q*(dy - v dx)
    want = (fm.d_coord(js, "q") - fm.d_coord(js, "t").scale(ex.var("d(q,t)"))).scale(
        ex.var("q"))
    assert (got - want).is_zero()


def test_jetfield_contract_general_f():
    js = fm.jet_space(MECH)
    yf = jetfield(MECH, {("q", "t"): "2*d(q,t)"}, {("q", "t", "t"): "t"})
    got = cn.jetfield_contract(yf, omega_free_particle())
    v = ex.var("d(q,t)")
    want = (fm.d_coord(js, "t").scale(ex.mul(v, ex.var("t")))
            - fm.d_coord(js, "q").scale(ex.var("t"))
            + fm.d_coord(js, "d(q,t)").scale(v))  # (F - v) = v here
    assert (got - want).is_zero()


def test_jetfield_contract_low_degree_is_zero():
    yf = jetfield(PLANE, {("y", "x0"): "d(y,x0)", ("y", "x1"): "d(y,x1)"})
    one_form = fm.d_coord(fm.jet_space(PLANE), "y")
    assert cn.jetfield_contract(yf, one_form).is_zero()


def test_jetfield_contract_linear_over_functions():
    r = randgen.rng(702)
    js = fm.jet_space(MECH)
    yf = jetfield(MECH, {("q", "t"): "d(q,t)"}, {("q", "t", "t"): "t*q"})
    for _ in range(5):
        f = randgen.poly(r, list(js.coords), 2, 2)
        xi = omega_free_particle()
        lhs = cn.jetfield_contract(yf, xi.scale(f))
        rhs = cn.jetfield_contract(yf, xi).scale(f)
        assert (lhs - rhs).is_zero()


def test_sopde_kills_contact_ideal():
    # wedge contact forms against arbitrary forms; SOPDE fields contract to 0
    r = randgen.rng(703)
    from cartanforge.canonical import contact_form
    for chart in (MECH, PLANE):
        js = fm.jet_space(chart)
        n1 = chart.n_plus_1
        G = {(y, xr, xm): randgen.poly(r, list(js.coords), 1, 2)
             for y in chart.fiber_names
             for xr in chart.base_names for xm in chart.base_names}
        yf = cn.JetField2(chart, {(y, x): ex.var(ch.v_name(y, x))
                                  for y in chart.fiber_names
                                  for x in chart.base_names}, G)
        th = contact_form(chart, chart.fiber_names[0])
        for _ in range(4):
            if n1 == 1:
                zeta = th.scale(randgen.poly(r, list(js.coords), 2, 2))
            else:
                pick = r.choice(list(js.coords))
                zeta = fm.wedge(th, fm.d_coord(js, pick).scale(
                    randgen.poly(r, list(js.coords), 2, 2)))
            assert cn.jetfield_contract(yf, zeta).is_zero()


def test_jetfield_curvature_residuals():
    flat = jetfield(PLANE, {("y", "x0"): "d(y,x0)", ("y", "x1"): "d(y,x1)"})
    assert all(v.is_zero() for v in cn.jetfield_curvature_residuals(flat).values())
    twisted = jetfield(PLANE,
                       {("y", "x0"): "d(y,x0)", ("y", "x1"): "d(y,x1)"},
                       {("y", "x0", "x0"): "x1"})
    res = cn.jetfield_curvature_residuals(twisted)
    assert any(not v.is_zero() for v in res.values())


def test_chart_mismatch():
    yf = jetfield(MECH, {("q", "t"): "d(q,t)"})
    xi = fm.volume_form(fm.jet_space(PLANE))
    with pytest.raises(ChartMismatch):
        cn.jetfield_contract(yf, xi)
