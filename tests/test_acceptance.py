"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines; the
suite is also part of the plain pytest run.  Expected values are frozen from
independent oracles: finite differences, bracket-of-horizontal-lifts, direct
index enumeration (tests/data/maxwell_el.expected), and hand expansions.
"""

import json
import os
import random
from fractions import Fraction

import pytest

from cartanforge import canonical as ca
from cartanforge import chart as ch
from cartanforge import connection as cn
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import harness as hz
from cartanforge import lagrangian as lg
from cartanforge import noether as no
from cartanforge.errors import HypothesisViolated
from cartanforge.problem import parse_problem

HERE = os.path.dirname(__file__)
PROBLEMS = os.path.join(HERE, "..", "problems")
CORPUS = ["free_particle", "harmonic_oscillator", "wave_1p1",
          "maxwell", "polyakov_string", "nambu_string"]


def load(name):
    return parse_problem(os.path.join(PROBLEMS, name + ".toml"))


def note(line):
    print(line, flush=True)


def rational_poly(rng, names, max_degree=3, terms=4):
    out = ex.ZERO
    for _ in range(terms):
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        mono = ex.Rat(c)
        for _ in range(rng.randint(0, max_degree)):
            mono = ex.mul(mono, ex.var(rng.choice(names)))
        out = ex.add(out, mono)
    return out


def gamma_table(rng, chart, max_degree=1):
    names = list(chart.e_coords())
    return {(y, x): rational_poly(rng, names, max_degree, 3)
            for y in chart.fiber_names for x in chart.base_names}


CHARTS = {
    (1, 1): ch.make_chart(["t"], ["q"]),
    (1, 2): ch.make_chart(["t"], ["q1", "q2"]),
    (2, 1): ch.make_chart(["x0", "x1"], ["u"]),
    (2, 2): ch.make_chart(["x0", "x1"], ["u1", "u2"]),
}


def test_criterion_01_contact_annihilation():
    rng = random.Random(101)
    count = 0
    for chart in CHARTS.values():
        for _ in range(5):
            phi = ch.SectionE(chart, tuple(
                rational_poly(rng, list(chart.base_names), 3)
                for _ in chart.fiber_names))
            psi = ch.prolong_section(phi)
            for th in ca.contact_basis(chart):
                assert fm.pullback_by_section(psi, th).is_zero()
            count += 1
    assert count == 20
    note("ACCEPTANCE 01 PASS  contact annihilation on 20 random prolongations")


def test_criterion_02_intrinsic_vs_local():
    rng = random.Random(102)
    for name in CORPUS:
        p = load(name)
        lag = p.lagrangian
        js = fm.jet_space(p.chart)
        om = fm.volume_form(js)
        disp = lg.cartan_forms(lag).vartheta
        assert (disp - lg.vartheta_intrinsic(lag)).is_zero()
        for _ in range(5):
            conn = cn.Connection(p.chart, gamma_table(rng, p.chart))
            endo = ca.vertical_endo_S(p.chart, conn) - ca.vertical_endo_V(p.chart)
            intrinsic = endo.contract_with_dL(lag.L) - om.scale(lag.L)
            display = ex.mul(ex.MINUS_ONE, lag.L)
            for y in p.chart.fiber_names:
                for x in p.chart.base_names:
                    display = ex.add(display, ex.mul(
                        lag.momentum(y, x),
                        ex.sub(ex.var(ch.v_name(y, x)), conn.gamma[(y, x)])))
            assert (intrinsic - om.scale(display)).is_zero(), name
    note("ACCEPTANCE 02 PASS  intrinsic == local for vartheta and energy, "
         "6 Lagrangians x 5 random connections")


def test_criterion_03_euler_lagrange_outputs():
    free = load("free_particle")
    assert lg.derive_el(free.lagrangian).components["q"] \
        == free.chart.parse("-dd(q,t,t)")
    osc = load("harmonic_oscillator")
    assert lg.derive_el(osc.lagrangian).components["q"] \
        == osc.chart.parse("-q - dd(q,t,t)")
    wave = load("wave_1p1")
    assert lg.derive_el(wave.lagrangian).components["u"] \
        == wave.chart.parse("-dd(u,x0,x0) + dd(u,x1,x1)")
    mx = load("maxwell")
    got = lg.derive_el(mx.lagrangian).components
    expected_path = os.path.join(HERE, "data", "maxwell_el.expected")
    checked = 0
    with open(expected_path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, expr_text = line.split("=", 1)
            field = head.strip()[3:-1]
            assert got[field] == mx.chart.parse(expr_text.strip()), field
            checked += 1
    assert checked == 4
    note("ACCEPTANCE 03 PASS  EL outputs: free/oscillator/wave frozen forms, "
         "Maxwell matches the committed oracle file")


def test_criterion_04_invariance_suite():
    rng = random.Random(104)
    chart = CHARTS[(1, 1)]
    theta = ca.contact_form(chart, "q")
    for i in range(10):
        if i % 2 == 0:
            p = rational_poly(rng, ["t"], 3)
            fmap = fm.FiberedMap(chart, {"t": ex.var("t")},
                                 {"q": ex.add(ex.var("q"), p)})
            jac = ex.ONE
        else:
            c = ex.Rat(Fraction(rng.randint(1, 4), rng.choice((1, 2))))
            fmap = fm.FiberedMap(chart, {"t": ex.var("t")},
                                 {"q": ex.mul(c, ex.var("q"))})
            jac = c
        cm = ca.prolong_diffeo(fmap)
        pulled = fm.pullback(cm, theta)
        # frame-weighted comparison: the pullback reproduces theta through
        # the fiber Jacobian of the map
        assert (pulled - theta.scale(jac)).is_zero()

    wchart = CHARTS[(2, 2)]
    sp = fm.total_space(wchart)
    names = list(sp.coords)
    for i in range(10):
        comps = {n: rational_poly(rng, names, 2, 2) for n in sp.coords}
        Z = fm.VectorField(sp, comps)  # generally non-projectable
        j1 = ca.prolong_vectorfield(Z)
        for th in ca.contact_basis(wchart):
            red = ca.contact_reduce(fm.lie_derivative(j1, th)).reduced
            assert red.is_zero()
    note("ACCEPTANCE 04 PASS  strong diffeos reproduce theta through the "
         "fiber Jacobian; 10 prolonged fields preserve the contact module")


def test_criterion_05_energy_legendre_linearity():
    rng = random.Random(105)
    for name in CORPUS:
        p = load(name)
        lag = p.lagrangian
        for _ in range(5):
            base = cn.Connection(p.chart, gamma_table(rng, p.chart))
            gam = gamma_table(rng, p.chart)
            e0 = lg.energy_density(lag, base)
            e1 = lg.energy_density(lag, base.shift(gam))
            residual = ex.add(ex.sub(e1.E, e0.E), *[
                ex.mul(gam[(y, x)], lag.momentum(y, x))
                for y in p.chart.fiber_names for x in p.chart.base_names])
            assert residual.is_zero(), name
    note("ACCEPTANCE 05 PASS  E(nabla+gamma) - E(nabla) + gamma.p == 0, "
         "6 Lagrangians x 5 random pairs")


def test_criterion_06_curvature_vs_bracket():
    rng = random.Random(106)
    chart = CHARTS[(2, 1)]
    names = list(chart.e_coords())
    for _ in range(10):
        conn = cn.Connection(chart, {
            ("u", "x0"): rational_poly(rng, names, 2, 3),
            ("u", "x1"): rational_poly(rng, names, 2, 3)})
        frame = conn.horizontal_frame()
        br = fm.bracket(frame[0], frame[1])
        R = cn.curvature(conn)
        assert ex.sub(R.coefficient("u", "x0", "x1"), br.component("u")).is_zero()

    flat = cn.Connection(chart, {("u", "x0"): ex.var("u")})
    assert cn.curvature(flat).is_zero()
    phi = ch.SectionE(chart, (chart.parse("exp(x0)"),))
    res = cn.integral_residual(flat, phi)
    assert all(v.is_zero() for v in res.values())

    curved = cn.Connection(chart, {("u", "x0"): ex.var("x1")})
    assert not cn.curvature(curved).is_zero()
    obstruction = cn.mixed_partial_obstruction(curved, phi)
    assert obstruction[("u", "x0", "x1")] == ex.ONE  # nonzero for every phi
    note("ACCEPTANCE 06 PASS  curvature == vertical bracket on 10 random "
         "tables; flat example integrates exp(x0); curved example witnessed")


def test_criterion_07_jetfield_el():
    free = load("free_particle")
    prob = lg.jetfield_el(free.lagrangian)
    sol = prob.solve()
    assert sol.consistent and not sol.free and sol.pivots["G(q,t,t)"].is_zero()
    yf = free.jetfields["dynamics"].jf
    rep = prob.check(yf)
    assert rep.is_sopde and rep.solves()
    for a, b in ((2, 3), (Fraction(-1, 2), 5), (0, 1), (7, Fraction(2, 3))):
        comp = ex.add(ex.mul(ex.Rat(Fraction(a)), ex.var("t")), ex.Rat(Fraction(b)))
        psi = ch.SectionJ1(free.chart, (comp,), {"d(q,t)": ex.Rat(Fraction(a))})
        fr, gr = cn.integral_residual2(yf, psi)
        assert all(v.is_zero() for v in fr.values())
        assert all(v.is_zero() for v in gr.values())

    osc = load("harmonic_oscillator")
    oprob = lg.jetfield_el(osc.lagrangian)
    assert oprob.solve().pivots["G(q,t,t)"] == osc.chart.parse("-q")
    oyf = osc.jetfields["dynamics"].jf
    assert oprob.check(oyf).solves()
    for comp_text, dcomp_text in (("sin(t)", "cos(t)"), ("cos(t)", "-sin(t)")):
        psi = ch.SectionJ1(osc.chart, (osc.chart.parse(comp_text),),
                           {"d(q,t)": osc.chart.parse(dcomp_text)})
        fr, gr = cn.integral_residual2(oyf, psi)
        assert all(v.is_zero() for v in fr.values())
        assert all(v.is_zero() for v in gr.values())

    # the second-order flag is demanded: a field with F != v cannot pass
    bad = cn.JetField2(free.chart, {("q", "t"): free.chart.parse("2*d(q,t)")}, {})
    badrep = prob.check(bad)
    assert not badrep.is_sopde and not badrep.solves()
    note("ACCEPTANCE 07 PASS  jet-field equations solved (G=0, G=-q), "
         "integral sections verified, second-order flag enforced")


def test_criterion_08_noether_end_to_end():
    checks = []
    free = load("free_particle")
    line = free.sections["line"].section
    for vf_name in ("translation_q", "translation_t"):
        checks.append((free, free.vectorfields[vf_name].vf, line))
    wave = load("wave_1p1")
    checks.append((wave, wave.vectorfields["translation_x0"].vf,
                   wave.sections["quadratic"].section))
    for p, Z, sec in checks:
        assert no.total_variation(p.lagrangian, Z).is_symmetry
        cur = no.noether_current(p.lagrangian, Z)
        assert no.check_conservation(cur, sec).residual.is_zero()
        num = no.check_conservation(cur, sec, samples=100, tol=1e-9, seed=1008)
        assert num.conserved and num.max_dev <= 1e-9
    # control: a non-solution section leaks the current
    cur = no.noether_current(free.lagrangian,
                             free.vectorfields["translation_q"].vf)
    bad = free.sections["parabola"].section
    assert not no.check_conservation(cur, bad).residual.is_zero()
    num = no.check_conservation(cur, bad, samples=100, tol=1e-9, seed=1008)
    assert not num.conserved
    note("ACCEPTANCE 08 PASS  conservation symbolic+numeric(1e-9, 100 pts) "
         "for 3 symmetry/solution pairs; control section fails")


def test_criterion_09_jetfield_noether():
    free = load("free_particle")
    yf = free.jetfields["dynamics"].jf
    js = fm.jet_space(free.chart)
    xi = fm.zero_form(js, 0)
    alpha = fm.zero_form(js, 1)
    for comps in ({"q": ex.ONE}, {"t": ex.ONE}):
        X = fm.VectorField(js, comps)
        rep = no.jetfield_noether_check(free.lagrangian, yf, X, xi, alpha)
        assert rep.conserved
    with pytest.raises(HypothesisViolated) as err:
        X = fm.VectorField(js, {"q": ex.var("d(q,t)")})
        no.jetfield_noether_check(free.lagrangian, yf, X, xi, alpha)
    assert err.value.which == "a"
    note("ACCEPTANCE 09 PASS  jet-field conservation for both translations; "
         "contact-breaking generator rejected with hypothesis (a)")


def test_criterion_10_gauge_invariance():
    mx = load("maxwell")
    L = mx.lagrangian.L
    sub = {}
    for mu in range(4):
        for nu in range(4):
            lo, hi = min(mu, nu), max(mu, nu)
            s = ex.var(f"s{lo}{hi}")  # symmetric by name construction
            vname = ch.v_name(f"A{nu}", f"x{mu}")
            sub[vname] = ex.add(ex.var(vname), s)
    shifted = ex.substitute(L, sub)
    assert ex.sub(shifted, L).is_zero()
    note("ACCEPTANCE 10 PASS  Maxwell Lagrangian unchanged under symmetric "
         "shifts of the potential gradients")


def test_criterion_11_finite_difference_validation():
    for name in CORPUS:
        p = load(name)
        lag = p.lagrangian
        num = p.numeric
        rng = random.Random(1011)
        for coord in p.chart.jet_coords():
            sym = ex.differentiate(lag.L, coord)
            vars_needed = ex.free_vars(lag.L) | {coord}
            for g in num.guards:
                vars_needed |= ex.free_vars(g.expr)
            cells = hz.intervals(vars_needed, num.box)
            for _ in range(100):
                pt = hz.draw_point(rng, cells, num.guards)
                got = ex.evaluate_numeric(sym, pt)
                hi, lo = dict(pt), dict(pt)
                hi[coord] += 1e-5
                lo[coord] -= 1e-5
                want = (ex.evaluate_numeric(lag.L, hi)
                        - ex.evaluate_numeric(lag.L, lo)) / 2e-5
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (name, coord)
    note("ACCEPTANCE 11 PASS  dL/d(jet coordinate) matches central "
         "differences at 100 seeded points per coordinate, all 6 problems")


def test_criterion_12_deterministic_reports():
    for name in CORPUS:
        p = load(name)
        a = hz.run_identity_catalog(p, samples=25).to_json()
        b = hz.run_identity_catalog(p, samples=25).to_json()
        assert a == b, name
        assert json.loads(a)["suite"]
    note("ACCEPTANCE 12 PASS  verify reports byte-identical across runs "
         "for every corpus problem")
