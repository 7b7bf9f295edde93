import random

import pytest

from cartanforge import canonical as ca
from cartanforge import chart as ch
from cartanforge import connection as cn
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import harness
from cartanforge import lagrangian as lg
from cartanforge import noether as no
from cartanforge.errors import HypothesisViolated, NotOnEChart

import randgen


MECH = ch.make_chart(["t"], ["q"])
WAVE = ch.make_chart(["x0", "x1"], ["u"])
MJS = fm.jet_space(MECH)
MTS = fm.total_space(MECH)

FREE = lg.Lagrangian(MECH, MECH.parse("1/2*d(q,t)^2"))
WAVE_L = lg.Lagrangian(WAVE, WAVE.parse("1/2*(d(u,x0)^2 - d(u,x1)^2)"))


def E_field(chart, **comps):
    return fm.VectorField(fm.total_space(chart),
                          {k: chart.parse(v) for k, v in comps.items()})


def test_total_variation_time_translation():
    rep = no.total_variation(FREE, E_field(MECH, t="1"))
    assert rep.is_symmetry and rep.variation.is_zero()
    assert rep.prolonged.component("d(q,t)").is_zero()


def test_total_variation_vertical_translation():
    rep = no.total_variation(FREE, E_field(MECH, q="1"))
    assert rep.is_symmetry


def test_total_variation_dilation_fails():
    rep = no.total_variation(FREE, E_field(MECH, t="t"))
    assert not rep.is_symmetry
    assert rep.variation == MECH.parse("-1/2*d(q,t)^2")


def test_total_variation_rejects_jet_fields():
    X = fm.VectorField(MJS, {"d(q,t)": ex.ONE})
    with pytest.raises(NotOnEChart):
        no.total_variation(FREE, X)


def test_noether_current_momentum():
    cur = no.noether_current(FREE, E_field(MECH, q="1"))
    assert cur.J.as_scalar() == ex.var("d(q,t)")


def test_noether_current_energy():
    cur = no.noether_current(FREE, E_field(MECH, t="1"))
    assert cur.J.as_scalar() == MECH.parse("-1/2*d(q,t)^2")


def test_noether_current_zero_lagrangian():
    cur = no.noether_current(lg.Lagrangian(MECH, ex.ZERO), E_field(MECH, q="1"))
    assert cur.J.is_zero()


def test_conservation_along_line():
    cur = no.noether_current(FREE, E_field(MECH, q="1"))
    line = ch.SectionE(MECH, (MECH.parse("2*t + 3"),))
    assert no.check_conservation(cur, line).residual.is_zero()
    num = no.check_conservation(cur, line, samples=50, seed=7)
    assert num.conserved and num.max_dev <= 1e-9


def test_exact_zero_conservation_builds_no_kernel(monkeypatch):
    # the report is the one the sampled path gives for a zero residual
    cur = no.noether_current(FREE, E_field(MECH, q="1"))
    line = ch.SectionE(MECH, (MECH.parse("2*t + 3"),))
    residual = no.check_conservation(cur, line).residual
    assert residual.is_zero()
    worst, witness = harness.sample_worst(
        [(c, ex.ZERO) for c in residual.coeffs.values()], random.Random(7),
        MECH.base_names, {}, (), 50)
    sampled = no.ConservationReport(worst <= 1e-9, residual, worst, witness)

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel was built for an exact zero")

    monkeypatch.setattr(harness, "_Kernel", no_kernel)
    num = no.check_conservation(cur, line, samples=50, seed=7)
    assert num == sampled and num.witness == sampled.witness == {}
    assert (num.conserved, num.max_dev) == (True, 0.0)


def test_conservation_fails_off_shell():
    cur = no.noether_current(FREE, E_field(MECH, q="1"))
    parab = ch.SectionE(MECH, (MECH.parse("t^2"),))
    rep = no.check_conservation(cur, parab)
    assert not rep.residual.is_zero()
    # pullback of v is 2t; its differential is 2 dt
    assert rep.residual == fm.d_coord(fm.base_space(MECH), "t").scale(ex.rat(2))
    num = no.check_conservation(cur, parab, samples=20, seed=7)
    assert not num.conserved and num.max_dev > 1.0


def test_conservation_samples_the_box():
    cur = no.noether_current(FREE, E_field(MECH, q="1"))
    parab = ch.SectionE(MECH, (MECH.parse("t^2"),))
    num = no.check_conservation(cur, parab, samples=20, seed=7,
                                box={"t": (2.0, 3.0)})
    assert not num.conserved and num.max_dev > 1.0
    assert 2.0 <= num.witness["t"] <= 3.0


def test_conservation_zero_current():
    cur = no.noether_current(lg.Lagrangian(MECH, ex.ZERO), E_field(MECH, q="1"))
    rep = no.check_conservation(cur, ch.SectionE(MECH, (MECH.parse("t^2"),)))
    assert rep.residual.is_zero()


def test_wave_translation_conservation():
    Z = fm.VectorField(fm.total_space(WAVE), {"x0": ex.ONE})
    assert no.total_variation(WAVE_L, Z).is_symmetry
    cur = no.noether_current(WAVE_L, Z)
    sol = ch.SectionE(WAVE, (WAVE.parse("x0^2 + x1^2"),))
    assert no.check_conservation(cur, sol).residual.is_zero()
    bad = ch.SectionE(WAVE, (WAVE.parse("x0^2"),))
    assert not no.check_conservation(cur, bad).residual.is_zero()


def test_symmetry_invariance_of_cartan_forms():
    # infinitesimal symmetries annihilate both canonical forms
    cf = lg.cartan_forms(FREE)
    for Z in (E_field(MECH, q="1"), E_field(MECH, t="1")):
        rep = no.total_variation(FREE, Z)
        assert rep.is_symmetry
        assert fm.lie_derivative(rep.prolonged, cf.theta).is_zero()
        assert fm.lie_derivative(rep.prolonged, cf.vartheta).is_zero()


def test_strong_symmetry_preserves_theta_l():
    # q -> q + c is a strong natural symmetry of the free particle
    phi = fm.FiberedMap(MECH, {"t": ex.var("t")},
                        {"q": MECH.parse("q + 5")})
    cm = ca.prolong_diffeo(phi)
    cf = lg.cartan_forms(FREE)
    assert (fm.pullback(cm, cf.theta) - cf.theta).is_zero()


def sopde_free():
    return cn.JetField2(MECH, {("q", "t"): ex.var("d(q,t)")}, {})


def zero_n_form(chart):
    return fm.zero_form(fm.jet_space(chart), chart.n_plus_1 - 1)


def zero_np1_form(chart):
    return fm.zero_form(fm.jet_space(chart), chart.n_plus_1)


def test_jetfield_noether_vertical_translation():
    X = fm.VectorField(MJS, {"q": ex.ONE})
    rep = no.jetfield_noether_check(FREE, sopde_free(), X,
                                    zero_n_form(MECH), zero_np1_form(MECH))
    assert rep.conserved


def test_jetfield_noether_time_translation():
    X = fm.VectorField(MJS, {"t": ex.ONE})
    rep = no.jetfield_noether_check(FREE, sopde_free(), X,
                                    zero_n_form(MECH), zero_np1_form(MECH))
    assert rep.conserved


def test_jetfield_noether_rejects_contact_breaker():
    X = fm.VectorField(MJS, {"q": ex.var("d(q,t)")})
    with pytest.raises(HypothesisViolated) as err:
        no.jetfield_noether_check(FREE, sopde_free(), X,
                                  zero_n_form(MECH), zero_np1_form(MECH))
    assert err.value.which == "a"


def test_jetfield_noether_rejects_bad_decomposition():
    X = fm.VectorField(MJS, {"q": ex.ONE})
    bad_xi = fm.scalar_form(MJS, ex.var("t"))
    with pytest.raises(HypothesisViolated) as err:
        no.jetfield_noether_check(FREE, sopde_free(), X, bad_xi,
                                  zero_np1_form(MECH))
    assert err.value.which == "b"


def test_jetfield_noether_rejects_alpha_outside_ideal():
    # dilation field: L(X)(L omega) = 0 but declaring alpha = L(X)(L omega)
    # + dx-only junk must fail the ideal membership check
    X = fm.VectorField(MJS, {"q": ex.ONE})
    alpha = fm.d_coord(MJS, "t")
    with pytest.raises(HypothesisViolated) as err:
        no.jetfield_noether_check(FREE, sopde_free(), X, zero_n_form(MECH), alpha)
    assert err.value.which in ("b", "c")


def test_jetfield_noether_with_honest_alpha():
    # L = q v, X = d/dq: L(X)(L omega) = v dt = d(q) - theta, so the
    # decomposition needs both a nonzero xi and a nonzero ideal part
    lagq = lg.Lagrangian(MECH, MECH.parse("q*d(q,t)"))
    X = fm.VectorField(MJS, {"q": ex.ONE})
    xi = fm.scalar_form(MJS, ex.var("q"))
    alpha = ca.contact_form(MECH, "q").scale(ex.MINUS_ONE)
    rep = no.jetfield_noether_check(lagq, sopde_free(), X, xi, alpha)
    assert rep.conserved
