import copy

import pytest

from cartanforge import chart as ch
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge.errors import ChartMismatch, DegreeZero, MissingInverse

import randgen


CH = ch.make_chart(["x0", "x1"], ["u"])
JS = fm.jet_space(CH)
TS = fm.total_space(CH)
BS = fm.base_space(CH)

MECH = ch.make_chart(["t"], ["q"])
MJS = fm.jet_space(MECH)


def dz(space, name):
    return fm.d_coord(space, name)


def random_form(r, space, degree, terms=3):
    names = list(space.coords)
    out = fm.zero_form(space, degree)
    for _ in range(terms):
        picks = sorted(r.sample(range(len(names)), degree))
        coeff = randgen.poly(r, names, max_degree=2, terms=2)
        out = out + fm.Form(space, degree, {tuple(picks): coeff})
    return out


def test_wedge_basis():
    a = dz(TS, "x0")
    b = dz(TS, "u")
    w = fm.wedge(a, b)
    assert w.coefficient("x0", "u") == ex.ONE
    assert fm.wedge(b, a) == w.scale(ex.MINUS_ONE)
    assert fm.wedge(a, a).is_zero()


def test_wedge_chart_mismatch():
    with pytest.raises(ChartMismatch):
        fm.wedge(dz(TS, "x0"), dz(JS, "x0"))


def test_exterior_d_product():
    # d(x0 du) = dx0 ^ du
    a = dz(TS, "u").scale(ex.var("x0"))
    da = fm.exterior_d(a)
    assert da == fm.wedge(dz(TS, "x0"), dz(TS, "u"))
    # d(u dx0) = du ^ dx0 = -(dx0 ^ du)
    b = dz(TS, "x0").scale(ex.var("u"))
    assert fm.exterior_d(b) == fm.wedge(dz(TS, "x0"), dz(TS, "u")).scale(ex.MINUS_ONE)


def test_d_squared_zero():
    f = fm.scalar_form(TS, ex.mul(ex.var("x0"), ex.pow_(ex.var("u"), 2)))
    assert fm.exterior_d(fm.exterior_d(f)).is_zero()


def test_d_squared_zero_random_corpus():
    r = randgen.rng(500)
    for deg in (0, 1, 2):
        for _ in range(6):
            a = random_form(r, JS, deg)
            assert fm.exterior_d(fm.exterior_d(a)).is_zero()


def test_interior_basics():
    dx0_du = fm.wedge(dz(TS, "x0"), dz(TS, "u"))
    assert fm.interior(fm.coordinate_field(TS, "x0"), dx0_du) == dz(TS, "u")
    assert fm.interior(fm.coordinate_field(TS, "u"), dx0_du) == dz(TS, "x0").scale(ex.MINUS_ONE)
    v = fm.VectorField(MJS, {"q": ex.var("d(q,t)")})
    got = fm.interior(v, dz(MJS, "q"))
    assert got.as_scalar() == ex.var("d(q,t)")


def test_interior_degree_zero_raises():
    with pytest.raises(DegreeZero):
        fm.interior(fm.coordinate_field(TS, "x0"), fm.scalar_form(TS, ex.ONE))


def test_interior_squares_to_zero():
    r = randgen.rng(501)
    X = fm.VectorField(JS, {n: randgen.poly(r, list(JS.coords), 1, 2)
                            for n in JS.coords})
    for _ in range(6):
        a = random_form(r, JS, 2)
        assert fm.interior(X, fm.interior(X, a)).is_zero()


def test_lie_derivative_examples():
    # L(d/dx)(x dx) = dx
    a = dz(MJS, "t").scale(ex.var("t"))
    assert fm.lie_derivative(fm.coordinate_field(MJS, "t"), a) == dz(MJS, "t")
    # on 0-forms: X(f)
    f = fm.scalar_form(MJS, ex.pow_(ex.var("t"), 2))
    got = fm.lie_derivative(fm.coordinate_field(MJS, "t"), f)
    assert got.as_scalar() == ex.mul(ex.rat(2), ex.var("t"))
    # L(y d/dy)(dy) = dy
    Y = fm.VectorField(MJS, {"q": ex.var("q")})
    assert fm.lie_derivative(Y, dz(MJS, "q")) == dz(MJS, "q")


def test_lie_commutes_with_d():
    r = randgen.rng(502)
    X = fm.VectorField(JS, {n: randgen.poly(r, list(JS.coords), 1, 2)
                            for n in JS.coords})
    for deg in (0, 1):
        for _ in range(5):
            a = random_form(r, JS, deg)
            lhs = fm.lie_derivative(X, fm.exterior_d(a))
            rhs = fm.exterior_d(fm.lie_derivative(X, a))
            assert (lhs - rhs).is_zero()


def contact_form(chart):
    js = fm.jet_space(chart)
    th = fm.d_coord(js, chart.fiber_names[0])
    for x in chart.base_names:
        th = th - fm.d_coord(js, x).scale(ex.var(ch.v_name(chart.fiber_names[0], x)))
    return th


def test_pullback_contact_along_prolongation():
    phi = ch.SectionE(MECH, (MECH.parse("t^2"),))
    psi = ch.prolong_section(phi)
    theta = contact_form(MECH)
    assert fm.pullback_by_section(psi, theta).is_zero()


def test_pullback_contact_non_holonomic():
    psi = ch.SectionJ1(MECH, (MECH.parse("t^2"),), {"d(q,t)": MECH.parse("3*t")})
    theta = contact_form(MECH)
    got = fm.pullback_by_section(psi, theta)
    # d(t^2) - 3t dt = -t dt
    assert got == fm.d_coord(fm.base_space(MECH), "t").scale(MECH.parse("-t"))


def test_pullback_dx_unchanged():
    psi = ch.prolong_section(ch.SectionE(MECH, (MECH.parse("t^3"),)))
    got = fm.pullback_by_section(psi, dz(MJS, "t"))
    assert got == fm.d_coord(fm.base_space(MECH), "t")


def test_pullback_by_map_examples():
    sp = fm.total_space(MECH)
    ident = fm.FiberedMap(MECH, {"t": ex.var("t")}, {"q": ex.var("q")})
    a = fm.wedge(dz(sp, "t"), dz(sp, "q")).scale(ex.var("q"))
    assert fm.pullback(ident.total_map(), a) == a

    double = fm.FiberedMap(MECH, {"t": ex.var("t")}, {"q": ex.mul(ex.rat(2), ex.var("q"))})
    assert fm.pullback(double.total_map(), dz(sp, "q")) == dz(sp, "q").scale(ex.rat(2))

    shear = fm.FiberedMap(MECH, {"t": ex.var("t")},
                          {"q": MECH.parse("q + t^2")})
    got = fm.pullback(shear.total_map(), dz(sp, "q"))
    want = dz(sp, "q") + dz(sp, "t").scale(MECH.parse("2*t"))
    assert got == want


def test_pullback_is_algebra_morphism():
    r = randgen.rng(503)
    phi = ch.SectionE(CH, (randgen.poly(r, ["x0", "x1"]),))
    psi = ch.prolong_section(phi)
    cm = fm.section_map(psi)
    for _ in range(5):
        a = random_form(r, JS, 1)
        b = random_form(r, JS, 1)
        lhs = fm.pullback(cm, fm.wedge(a, b))
        rhs = fm.wedge(fm.pullback(cm, a), fm.pullback(cm, b))
        assert (lhs - rhs).is_zero()
        lhs_d = fm.pullback(cm, fm.exterior_d(a))
        rhs_d = fm.exterior_d(fm.pullback(cm, a))
        assert (lhs_d - rhs_d).is_zero()


def test_inverse_jacobian_checks_inverse():
    bad = fm.FiberedMap(MECH, {"t": MECH.parse("2*t")}, {"q": ex.var("q")},
                        base_inverse={"t": MECH.parse("t")})
    with pytest.raises(MissingInverse):
        bad.inverse_base_jacobian()
    none = fm.FiberedMap(MECH, {"t": MECH.parse("2*t")}, {"q": ex.var("q")})
    with pytest.raises(MissingInverse):
        none.inverse_base_jacobian()
    good = fm.FiberedMap(MECH, {"t": MECH.parse("2*t")}, {"q": ex.var("q")},
                         base_inverse={"t": MECH.parse("1/2*t")})
    jac = good.inverse_base_jacobian()
    assert jac[("t", "t")] == ex.rat(1, 2)


def test_volume_form():
    vol = fm.volume_form(JS)
    assert vol.degree == 2
    assert vol.coefficient("x0", "x1") == ex.ONE


def test_deepcopy_of_a_form_shares_its_coefficients():
    a = random_form(randgen.rng(502), JS, 2)
    b = copy.deepcopy(a)
    assert b == a and b is not a
    assert all(b.coeffs[k] is c for k, c in a.coeffs.items())


def test_bracket():
    X = fm.VectorField(TS, {"x0": ex.ONE, "u": ex.var("x1")})
    Y = fm.VectorField(TS, {"u": ex.var("x0")})
    got = fm.bracket(X, Y)
    assert got == fm.VectorField(TS, {"u": ex.ONE})


@pytest.mark.parametrize("seed", range(700, 712))
def test_graded_leibniz_rule(seed):
    # d(a ^ b) = da ^ b + (-1)^p a ^ db for a p-form a
    r = randgen.rng(seed)
    for p, q in ((0, 1), (1, 1), (1, 2)):
        a, b = random_form(r, JS, p), random_form(r, JS, q)
        lhs = fm.exterior_d(fm.wedge(a, b))
        rhs = (fm.wedge(fm.exterior_d(a), b)
               + fm.wedge(a, fm.exterior_d(b)).scale(ex.rat((-1) ** p)))
        assert lhs == rhs
