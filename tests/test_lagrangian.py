import gc
import os
from types import SimpleNamespace

import pytest

from cartanforge import chart as ch
from cartanforge import connection as cn
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import harness as hz
from cartanforge import lagrangian as lg
from cartanforge.errors import ExpressionTooLarge
from cartanforge.problem import parse_problem

import oracle
import randgen


MECH = ch.make_chart(["t"], ["q"])
WAVE = ch.make_chart(["x0", "x1"], ["u"])
MJS = fm.jet_space(MECH)
WJS = fm.jet_space(WAVE)

FREE = lg.Lagrangian(MECH, MECH.parse("1/2*d(q,t)^2"))
OSC = lg.Lagrangian(MECH, MECH.parse("1/2*d(q,t)^2 - 1/2*q^2"))
WAVE_L = lg.Lagrangian(WAVE, WAVE.parse("1/2*(d(u,x0)^2 - d(u,x1)^2)"))


def test_cartan_forms_free_particle():
    cf = lg.cartan_forms(FREE)
    v = ex.var("d(q,t)")
    dv, dy, dx = (fm.d_coord(MJS, n) for n in ("d(q,t)", "q", "t"))
    assert cf.vartheta == fm.wedge(dy, fm.Form(MJS, 0, {(): ex.ONE})).scale(v) \
        - dx.scale(ex.pow_(v, 2)) + dy.scale(v) - dy.scale(v)  # v dy - v^2 dt
    assert cf.vartheta == dy.scale(v) - dx.scale(ex.pow_(v, 2))
    assert cf.theta == dy.scale(v) - dx.scale(MECH.parse("1/2*d(q,t)^2"))
    want_omega = fm.wedge(dv, dy).scale(ex.MINUS_ONE) + fm.wedge(dv, dx).scale(v)
    assert cf.omega == want_omega


def test_cartan_forms_zero():
    cf = lg.cartan_forms(lg.Lagrangian(MECH, ex.ZERO))
    assert cf.vartheta.is_zero() and cf.theta.is_zero() and cf.omega.is_zero()


def test_cartan_forms_wave():
    cf = lg.cartan_forms(WAVE_L)
    v0, v1 = ex.var("d(u,x0)"), ex.var("d(u,x1)")
    assert cf.theta.coefficient("x1", "u") == ex.mul(ex.MINUS_ONE, v0)
    assert cf.theta.coefficient("x0", "u") == ex.mul(ex.MINUS_ONE, v1)
    assert cf.theta.coefficient("x0", "x1") == WAVE.parse(
        "-1/2*(d(u,x0)^2 - d(u,x1)^2)")


def test_vartheta_intrinsic_matches_display_random():
    r = randgen.rng(800)
    names = list(WJS.coords)
    for _ in range(5):
        lag = lg.Lagrangian(WAVE, randgen.poly(r, names, 2, 4))
        disp = lg.cartan_forms(lag).vartheta  # the display route
        assert (disp - lg.vartheta_intrinsic(lag)).is_zero()


def test_prolonged_sections_kill_vartheta():
    r = randgen.rng(801)
    for lag in (FREE, OSC):
        cf = lg.cartan_forms(lag)
        for _ in range(4):
            phi = ch.SectionE(MECH, (randgen.poly(r, ["t"]),))
            psi = ch.prolong_section(phi)
            cm = fm.section_map(psi)
            assert fm.pullback(cm, cf.vartheta).is_zero()
            lhs = fm.pullback(cm, cf.theta)
            rhs = fm.pullback(cm, fm.volume_form(MJS).scale(lag.L))
            assert (lhs - rhs).is_zero()


# -- Euler-Lagrange -----------------------------------------------------------

def test_el_free_particle():
    sys = lg.derive_el(FREE)
    assert sys.components["q"] == MECH.parse("-dd(q,t,t)")


def test_el_oscillator():
    sys = lg.derive_el(OSC)
    assert sys.components["q"] == MECH.parse("-q - dd(q,t,t)")


def test_el_wave():
    sys = lg.derive_el(WAVE_L)
    assert sys.components["u"] == WAVE.parse("-dd(u,x0,x0) + dd(u,x1,x1)")


def test_el_along_wave_solution():
    sys = lg.derive_el(WAVE_L)
    # D_0 v_0 = 2 and D_1 v_1 = 2 cancel in -w00 + w11
    phi = ch.SectionE(WAVE, (WAVE.parse("x0^2 + x1^2"),))
    res = sys.residuals_along(phi)
    assert res["u"].is_zero()
    trav = ch.SectionE(WAVE, (WAVE.parse("(x0 + x1)^3"),))
    assert sys.residuals_along(trav)["u"].is_zero()
    bad = ch.SectionE(WAVE, (WAVE.parse("x0^2"),))
    assert sys.residuals_along(bad)["u"] == ex.rat(-2)


def test_el_affine_in_second_jets():
    r = randgen.rng(802)
    names = list(WJS.coords)
    for _ in range(5):
        lag = lg.Lagrangian(WAVE, randgen.poly(r, names, 3, 4))
        sys = lg.derive_el(lag)
        wnames = ("dd(u,x0,x0)", "dd(u,x0,x1)", "dd(u,x1,x1)")
        for c in sys.components.values():
            for w in wnames:
                dw = ex.differentiate(c, w)
                for w2 in wnames:
                    assert ex.differentiate(dw, w2).is_zero()


def test_total_derivative_chain_rule_oracle():
    # D_mu composed with a prolongation equals the honest x-derivative of the
    # composed function: the independent check of the operator itself.
    r = randgen.rng(803)
    for _ in range(8):
        p = randgen.poly(r, list(WJS.coords), 2, 4)
        phi = ch.SectionE(WAVE, (randgen.poly(r, ["x0", "x1"], 3, 3),))
        psi = ch.prolong_section(phi)
        sub = dict(psi.substitution())
        for y in WAVE.fiber_names:
            for i, x1 in enumerate(WAVE.base_names):
                g = psi.g[ch.v_name(y, x1)]
                for x2 in WAVE.base_names[i:]:
                    sub[WAVE.w(y, x1, x2)] = ex.differentiate(g, x2)
        for x in WAVE.base_names:
            composed = ex.substitute(p, {k: v for k, v in sub.items()})
            lhs = ex.differentiate(composed, x)
            rhs = ex.substitute(ch.total_derivative(WAVE, p, x), sub)
            assert ex.sub(lhs, rhs).is_zero()


# -- the affine table: second_partials against plain differentiation ---------

TWO = ch.make_chart(["x0", "x1"], ["u", "w"])


def reference_total_derivative(chart, e, x, second):
    """D_mu e with `second(b, nu, mu)` in the second-order slot, taken by
    differentiating e itself: the construction the table must reproduce."""
    slots = [(ch.v_name(b, x), b) for b in chart.fiber_names]
    slots += [(second(b, nu, x), ch.v_name(b, nu))
              for b in chart.fiber_names for nu in chart.base_names]
    terms = [ex.differentiate(e, x)]
    for coefficient, name in slots:
        d = ex.differentiate(e, name)
        if not d.is_zero():
            terms.append(ex.mul(ex.var(coefficient), d))
    return ex.add(*terms)


def reference_el(lag, second):
    chart = lag.chart
    return {y: ex.add(lag.partials[y], *(
        ex.mul(ex.MINUS_ONE, reference_total_derivative(
            chart, lag.momentum(y, x), x, second))
        for x in chart.base_names)) for y in chart.fiber_names}


def table_lagrangians():
    # velocities drawn three times as often, so the Hessians are not sparse
    r = randgen.rng(812)
    names = list(TWO.jet_coords()) + list(TWO.v_names()) * 2
    for _ in range(6):
        yield lg.Lagrangian(TWO, randgen.nonzero_poly(r, names, 4, 8))
    for _ in range(6):
        yield lg.Lagrangian(TWO, ex.mul(randgen.smooth_expr(r, names, 3),
                                        randgen.nonzero_poly(r, names, 3, 4)))


def test_second_partials_are_the_partials_of_the_partials():
    for lag in table_lagrangians():
        h = lag.second_partials
        for v in TWO.v_names():
            for z in TWO.jet_coords():
                d = ex.differentiate(lag.partials[v], z)
                assert h.get((v, z), ex.ZERO) is d
                assert (v, z) in h or d.is_zero()


def test_el_routes_equal_the_total_derivative_of_each_momentum():
    for lag in table_lagrangians():
        assert lg.derive_el(lag).components == reference_el(lag, TWO.w)
        prob = lg.jetfield_el(lag)
        assert prob.equations == reference_el(lag, lg.g_unknown)


def test_solve_rows_are_the_derivatives_of_the_equations():
    # solve's coefficient of G(b,rho,mu) in row y is -H[d(y,mu), d(b,rho)]
    # and its right-hand side -a_y: node for node what differentiating each
    # equation by each unknown, and substituting zero for them, gives
    for lag in table_lagrangians():
        prob = lg.jetfield_el(lag)
        h = lag.second_partials
        drift = lag.drift
        zero = {u: ex.ZERO for u in prob.unknowns}
        for y, eq in prob.equations.items():
            assert ex.mul(ex.MINUS_ONE, drift[y]) is ex.mul(
                ex.MINUS_ONE, ex.substitute(eq, zero))
            for b, xr, xm in lg._g_slots(TWO):
                hb = h.get((ch.v_name(y, xm), ch.v_name(b, xr)), ex.ZERO)
                assert ex.mul(ex.MINUS_ONE, hb) is ex.differentiate(
                    eq, lg.g_unknown(b, xr, xm))


def test_solve_solutions_satisfy_the_equations():
    # the pivots, evaluated with the other unknowns at seeded values, make
    # every jet-field equation vanish: the rows have the equations' indices.
    # A pivot may still name another pivot's unknown behind a coefficient
    # that is zero but not structurally so; that unknown's value is moot.
    r = randgen.rng(813)
    for lag in table_lagrangians():
        prob = lg.jetfield_el(lag)
        sol = prob.solve()
        if not sol.consistent:
            continue
        for _ in range(3):
            pt = randgen.sample_point(r, TWO.jet_coords() + prob.unknowns)
            pt.update({u: ex.evaluate_numeric(e, pt)
                       for u, e in sol.pivots.items()})
            scale = 1 + max(map(abs, pt.values()))
            for eq in prob.equations.values():
                assert abs(ex.evaluate_numeric(eq, pt)) <= 1e-9 * scale


def assert_el_routes_agree(lag):
    # The jet-field route with G(b,rho,mu) -> dd(b,rho,mu) is the section
    # route exactly: the two differ only in D_mu's second-order slot.
    chart = lag.chart
    to_w = {lg.g_unknown(y, xr, xm): ex.var(chart.w(y, xr, xm))
            for y in chart.fiber_names
            for xr in chart.base_names for xm in chart.base_names}
    jet = lg.jetfield_el(lag).equations
    sections = lg.derive_el(lag).components
    assert {y: ex.substitute(e, to_w) for y, e in jet.items()} == sections


CORPUS = os.path.join(os.path.dirname(__file__), "..", "problems")


@pytest.mark.parametrize("name", sorted(
    f[:-5] for f in os.listdir(CORPUS) if f.endswith(".toml")))
def test_el_routes_agree_on_corpus(name):
    assert_el_routes_agree(
        parse_problem(os.path.join(CORPUS, name + ".toml")).lagrangian)


def test_el_routes_agree_on_random_wave_lagrangians():
    r = randgen.rng(811)
    for _ in range(6):
        assert_el_routes_agree(
            lg.Lagrangian(WAVE, randgen.poly(r, list(WJS.coords), 3, 5)))


# -- energy and Legendre difference --------------------------------------------

def flat(chart):
    return cn.Connection(chart, {})


def test_energy_flat_connection():
    e = lg.energy_density(FREE, flat(MECH))
    assert e.E == MECH.parse("1/2*d(q,t)^2")


def test_energy_constant_connection():
    c = cn.Connection(MECH, {("q", "t"): ex.rat(3)})
    e = lg.energy_density(FREE, c)
    assert e.E == MECH.parse("1/2*d(q,t)^2 - 3*d(q,t)")


def test_energy_zero_lagrangian():
    e = lg.energy_density(lg.Lagrangian(MECH, ex.ZERO), flat(MECH))
    assert e.E.is_zero()


def test_legendre_difference_examples():
    assert lg.legendre_difference(FREE, {}).is_zero()
    got = lg.legendre_difference(FREE, {("q", "t"): ex.rat(3)})
    assert got == fm.volume_form(MJS).scale(MECH.parse("-3*d(q,t)"))


def test_legendre_difference_matches_energy_shift():
    r = randgen.rng(804)
    names = list(WAVE.e_coords())
    lag = lg.Lagrangian(WAVE, WAVE.parse(
        "1/2*(d(u,x0)^2 - d(u,x1)^2) + u*d(u,x0)"))
    for _ in range(5):
        base = cn.Connection(WAVE, {("u", "x0"): randgen.poly(r, names),
                                    ("u", "x1"): randgen.poly(r, names)})
        gamma = {("u", "x0"): randgen.poly(r, names),
                 ("u", "x1"): randgen.poly(r, names)}
        e0 = lg.energy_density(lag, base)
        e1 = lg.energy_density(lag, base.shift(gamma))
        shift = fm.volume_form(WJS).scale(ex.sub(e1.E, e0.E))
        assert (shift - lg.legendre_difference(lag, gamma)).is_zero()


# -- jet-field Euler-Lagrange ---------------------------------------------------

def test_jetfield_el_free_particle():
    prob = lg.jetfield_el(FREE)
    assert prob.equations["q"] == ex.mul(ex.MINUS_ONE, ex.var("G(q,t,t)"))
    sol = prob.solve()
    assert sol.rank == 1 and sol.consistent and not sol.free
    assert sol.pivots["G(q,t,t)"].is_zero()


def test_jetfield_el_oscillator():
    prob = lg.jetfield_el(OSC)
    sol = prob.solve()
    assert sol.consistent and not sol.free
    assert sol.pivots["G(q,t,t)"] == MECH.parse("-q")


def test_jetfield_el_wave_underdetermined():
    prob = lg.jetfield_el(WAVE_L)
    assert prob.equations["u"] == ex.sub(ex.var("G(u,x1,x1)"), ex.var("G(u,x0,x0)"))
    sol = prob.solve()
    assert sol.rank == 1 and sol.consistent and sol.free
    assert sol.pivots["G(u,x0,x0)"] == ex.var("G(u,x1,x1)")
    assert "G(u,x0,x1)" in sol.free and "G(u,x1,x0)" in sol.free


def sopde(chart, G):
    F = {(y, x): ex.var(ch.v_name(y, x))
         for y in chart.fiber_names for x in chart.base_names}
    return cn.JetField2(chart, F, G)


def test_checker_free_particle():
    prob = lg.jetfield_el(FREE)
    good = sopde(MECH, {})
    rep = prob.check(good)
    assert rep.is_sopde and rep.omega_residual.is_zero() and rep.solves()
    bad = sopde(MECH, {("q", "t", "t"): ex.var("q")})
    rep = prob.check(bad)
    assert rep.is_sopde and not rep.omega_residual.is_zero()
    assert rep.reduced_residuals["q"] == ex.mul(ex.MINUS_ONE, ex.var("q"))
    notso = cn.JetField2(MECH, {("q", "t"): MECH.parse("2*d(q,t)")}, {})
    assert not prob.check(notso).is_sopde


def test_checker_oscillator():
    prob = lg.jetfield_el(OSC)
    rep = prob.check(sopde(MECH, {("q", "t", "t"): MECH.parse("-q")}))
    assert rep.solves()


def test_jetfield_recovers_lagrangian_and_energy():
    # contraction against the coordinate frame returns L and E for any field
    r = randgen.rng(805)
    for lag, chart in ((FREE, MECH), (WAVE_L, WAVE)):
        js = fm.jet_space(chart)
        names = list(js.coords)
        F = {(y, x): randgen.poly(r, names, 1, 2)
             for y in chart.fiber_names for x in chart.base_names}
        G = {(y, xr, xm): randgen.poly(r, names, 1, 2)
             for y in chart.fiber_names
             for xr in chart.base_names for xm in chart.base_names}
        yf = cn.JetField2(chart, F, G)
        got = cn.jetfield_contract(yf, fm.volume_form(js).scale(lag.L))
        assert got.as_scalar() == lag.L
        e = lg.energy_density(lag, flat(chart))
        got_e = cn.jetfield_contract(yf, e.density())
        assert got_e.as_scalar() == e.E


def test_integrable_field_pullback_equivalence():
    # an integrable solution field kills i(X)Omega along integral sections,
    # and a non-solution field is witnessed by some frame direction
    prob = lg.jetfield_el(FREE)
    omega_l = lg.cartan_forms(FREE).omega
    yf = sopde(MECH, {})
    lines = [ch.prolong_section(ch.SectionE(MECH, (MECH.parse(s),)))
             for s in ("2*t + 3", "-1/2*t + 5", "7")]
    for psi in lines:
        f_res, g_res = cn.integral_residual2(yf, psi)
        assert all(v.is_zero() for v in f_res.values())
        assert all(v.is_zero() for v in g_res.values())
        cm = fm.section_map(psi)
        for name in MJS.coords:
            pulled = fm.pullback(cm, fm.interior(
                fm.coordinate_field(MJS, name), omega_l))
            assert pulled.is_zero()
    # control: a contraction that does not vanish is caught along the section
    perturbed = omega_l + fm.wedge(fm.d_coord(MJS, "q"), fm.d_coord(MJS, "t"))
    assert not cn.jetfield_contract(yf, perturbed).is_zero()
    witness = False
    for name in MJS.coords:
        pulled = fm.pullback(fm.section_map(lines[0]), fm.interior(
            fm.coordinate_field(MJS, name), perturbed))
        witness = witness or not pulled.is_zero()
    assert witness


def test_jetfield_solutions_match_section_el():
    prob = lg.jetfield_el(OSC)
    yf = sopde(MECH, {("q", "t", "t"): MECH.parse("-q")})
    assert prob.check(yf).solves()
    sys = lg.derive_el(OSC)
    phi = ch.SectionE(MECH, (MECH.parse("sin(t)"),))
    psi = ch.prolong_section(phi)
    f_res, g_res = cn.integral_residual2(yf, psi)
    assert all(v.is_zero() for v in f_res.values())
    assert all(v.is_zero() for v in g_res.values())
    assert sys.residuals_along(phi)["q"].is_zero()


def test_cartan_forms_live_as_long_as_their_lagrangian():
    # a run that builds many Lagrangians once each keeps none of their forms
    # alive: they are kept on the Lagrangian, not in a process-wide cache
    r = randgen.rng(12)
    names = list(WAVE.jet_coords())
    gc.collect()
    before = {k for k, ref in ex._TABLE.items() if ref() is not None}
    for _ in range(80):
        lag = lg.Lagrangian(WAVE, randgen.nonzero_poly(r, names, max_degree=3))
        assert lg.cartan_forms(lag) is lg.cartan_forms(lag)
    del lag
    gc.collect()
    assert [k for k, ref in ex._TABLE.items()
            if ref() is not None and k not in before] == []


# -- the display-formula tables against the exterior-algebra route ------------

SIGN_CHARTS = [ch.make_chart(base, fibers)
               for base in (["t"], ["x0", "x1"], ["x0", "x1", "x2"])
               for fibers in (["u"], ["u", "w"])]
ROOT = lg.Lagrangian(MECH, MECH.parse("exp(d(q,t)*q*sqrt(3 + t))"))


def cartan_lagrangians():
    # m = 1, 2, 3 base coordinates, so both parities of (-1)^(mu+m-1) occur;
    # the fourth per chart leaves out every other velocity (some momenta are
    # zero, all of them with one fiber over one base coordinate)
    r = randgen.rng(814)
    for chart in SIGN_CHARTS:
        coords, vs = list(chart.jet_coords()), list(chart.v_names())
        for _ in range(3):
            yield lg.Lagrangian(chart, randgen.nonzero_poly(r, coords + vs * 2, 3, 5))
        yield lg.Lagrangian(chart, randgen.nonzero_poly(
            r, coords[:-len(vs)] + vs[1::2], 3, 4))
        yield lg.Lagrangian(chart, ex.mul(randgen.smooth_expr(r, coords, 2),
                                          randgen.nonzero_poly(r, vs, 2, 3)))
    # p^A_mu v^A_mu sums to zero: vartheta has no omega term at all, or its
    # partial sum over the first fiber cancels before the second adds to it
    yield lg.Lagrangian(WAVE, WAVE.parse("d(u,x0)/d(u,x1)"))
    yield lg.Lagrangian(TWO, TWO.parse("d(u,x0)/d(u,x1) + d(w,x0)^2*x1"))
    yield ROOT
    yield from table_lagrangians()
    for name in sorted(f for f in os.listdir(CORPUS) if f.endswith(".toml")):
        yield parse_problem(os.path.join(CORPUS, name)).lagrangian


def assert_same_table(got, want):
    # the same node under the same key; the order of the keys is free
    assert (got.space, got.degree) == (want.space, want.degree)
    assert got.coeffs.keys() == want.coeffs.keys()
    assert all(got.coeffs[k] is c for k, c in want.coeffs.items())


def test_cartan_tables_are_the_exterior_algebra_route():
    for lag in cartan_lagrangians():
        got, want = lg.cartan_forms(lag), oracle.cartan_forms(lag)
        assert_same_table(got.vartheta, want.vartheta)
        assert_same_table(got.theta, want.theta)
        assert_same_table(got.omega, want.omega)


def test_omega_is_minus_d_theta():
    for lag in cartan_lagrangians():
        cf = lg.cartan_forms(lag)
        assert cf.omega == fm.exterior_d(cf.theta).scale(ex.MINUS_ONE)


def test_omega_is_closed():
    # d Omega = 0 structurally, except where its third partials meet the
    # root of a sum: the canonical form does not know that
    # t*(3 + t)^(-1/2) + 3*(3 + t)^(-1/2) is (3 + t)^(1/2), so for ROOT (32)
    # and the ninth of the table's Lagrangians (41) d Omega vanishes only in
    # value; the catalog's zero test passes both by sampling, and the
    # relative check below is its reference
    r = randgen.rng(815)
    in_value_only = []
    for i, lag in enumerate(cartan_lagrangians()):
        d_omega = fm.exterior_d(lg.cartan_forms(lag).omega)
        if d_omega.is_zero():
            continue
        in_value_only.append(i)
        for _ in range(3):
            pt = randgen.sample_point(r, lag.chart.jet_coords())
            for c in d_omega.coeffs.values():
                scale = sum(abs(ex.evaluate_numeric(t, pt)) for t in c.terms)
                assert abs(ex.evaluate_numeric(c, pt)) <= 1e-12 * scale
        ok, worst, _, detail = hz.zero_verdict(d_omega, 815, {}, (), 100, 1e-9)
        assert ok and 0.0 < worst <= 1e-9, (i, worst)
        assert detail == "numeric zero (seed 815, 100 points)"
    assert in_value_only == [32, 41]


# -- one derivative memo per Lagrangian -----------------------------------------

def product_parts(e, x, out):
    # add to `out` the (x, monic part) of every product term whose product
    # rule differentiating e by x builds, nested ones included
    if x not in ex.free_vars(e):
        return
    if isinstance(e, (ex.Add, ex.Mul)):
        for t in e.terms if isinstance(e, ex.Add) else (e,):
            if not isinstance(t, ex.Mul):
                product_parts(t, x, out)
            elif x in ex.free_vars(t):
                fs = t.factors[1:] if isinstance(t.factors[0], ex.Rat) else t.factors
                if (x, fs) not in out:
                    out.add((x, fs))
                    for f in fs:
                        product_parts(f, x, out)
    elif isinstance(e, ex.Pow):
        product_parts(e.base, x, out)
    elif isinstance(e, ex.Func) and e.fname != "sign":
        product_parts(e.arg, x, out)


def distinct_product_parts(lag):
    """The (coordinate, monic part) pairs over the partials of L, of its
    momenta and of Theta's coefficients: one product rule each."""
    out = set()
    coords = lag.chart.jet_coords()
    for z in coords:
        product_parts(lag.L, z, out)
        for v in lag.chart.v_names():
            product_parts(lag.partials[v], z, out)
    theta = lg.cartan_forms(lag).theta
    for key, c in theta.coeffs.items():
        for i, z in enumerate(coords):
            if i not in key:
                product_parts(c, z, out)
    return out


def build(chart, L, cartan_first, counter):
    # a fresh Lagrangian, its constructions in one of the two orders; the
    # product rules are counted over the tables and cartan_forms only
    lag = lg.Lagrangian(chart, L)
    counter.on = True
    if cartan_first:
        cf = lg.cartan_forms(lag)
    _ = lag.second_partials
    counter.on = False
    el, jet = lg.derive_el(lag), lg.jetfield_el(lag)
    try:
        pivots = jet.solve().pivots
    except ExpressionTooLarge as exc:   # nambu's elimination passes the limit
        pivots = str(exc)
    counter.on = True
    if not cartan_first:
        cf = lg.cartan_forms(lag)
    counter.on = False
    return lag, cf, el, jet, pivots


def test_tables_and_d_theta_share_one_derivative_memo(monkeypatch):
    rule = ex._product_rule

    def counted(*args):
        counter.calls += counter.on
        return rule(*args)

    counter = SimpleNamespace(calls=0, on=False)
    monkeypatch.setattr(ex, "_product_rule", counted)
    nambu = parse_problem(os.path.join(CORPUS, "nambu_string.toml")).lagrangian
    for lag in cartan_lagrangians():
        counts, built = [], []
        for cartan_first in (True, False):
            counter.calls = 0
            built.append(build(lag.chart, lag.L, cartan_first, counter))
            counts.append(counter.calls)
        (a, cfa, ela, jeta, piva), (b, cfb, elb, jetb, pivb) = built
        parts = distinct_product_parts(a)
        assert counts == [len(parts)] * 2
        if lag == nambu:
            assert len(parts) == 228
        for got in (a, b):
            # the old route: a fresh memo for every partial
            coords = lag.chart.jet_coords()
            assert all(got.partials[z] is ex.differentiate(lag.L, z) for z in coords)
            want = {(v, z): ex.differentiate(got.partials[v], z)
                    for v in lag.chart.v_names() for z in coords}
            h = got.second_partials
            assert h.keys() == {k for k, d in want.items() if not d.is_zero()}
            assert all(h[k] is want[k] for k in h)
        # nodes are interned, so == on these tables is `is` on every entry
        assert (a.partials, a.second_partials, a.drift) == (
            b.partials, b.second_partials, b.drift)
        # the old route of Omega, .scale(-1), is test_omega_is_minus_d_theta's
        assert (cfa, ela.components, jeta.equations, piva) == (
            cfb, elb.components, jetb.equations, pivb)
        assert ela.components == reference_el(a, lag.chart.w)
        assert jeta.equations == reference_el(a, lg.g_unknown)
