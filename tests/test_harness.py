import os
import random

import pytest

from cartanforge import expr as ex
from cartanforge import harness as hz
from cartanforge.errors import NumericDomain
from cartanforge.problem import Guard, NumericSettings, parse_problem

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def prob(name):
    return parse_problem(os.path.join(PROBLEMS, name + ".toml"))


def test_zero_equals_zero():
    chk = hz.IdentityCheck("zero", ex.ZERO, ex.ZERO)
    res = hz.numeric_check(chk)
    assert res.status == "pass" and res.max_dev == 0.0


def test_identity_check_defaults_are_the_numeric_settings():
    chk = hz.IdentityCheck("zero", ex.ZERO, ex.ZERO)
    d = NumericSettings()
    assert (chk.samples, chk.tol, chk.seed) == (d.samples, d.tol, d.seed)


def test_derivative_vs_finite_difference():
    x = ex.var("x")
    e = ex.pow_(x, 3)
    d = ex.differentiate(e, "x")
    # compare against a manual central difference through the check itself
    got = hz.numeric_check(hz.IdentityCheck(
        "cube", d, ex.mul(ex.rat(3), ex.pow_(x, 2)),
        box={"x": (-2.0, 2.0)}, samples=100, tol=1e-6))
    assert got.status == "pass"


def test_failing_identity_reports_witness():
    x = ex.var("x")
    chk = hz.IdentityCheck("not-an-identity", x, ex.pow_(x, 2),
                           box={"x": (0.0, 2.0)}, samples=200, tol=1e-9)
    res = hz.numeric_check(chk)
    assert res.status == "fail"
    assert res.max_dev > 0.5
    assert abs(res.witness["x"] - 2.0) < 0.6  # |x - x^2| peaks at the edge


def test_guards_redraw_points():
    x = ex.var("x")
    chk = hz.IdentityCheck("guarded-log", ex.func("log", x), ex.func("log", x),
                           box={"x": (-1.0, 1.0)}, samples=50,
                           guards=(Guard(x, ">", 0.1),))
    assert hz.numeric_check(chk).status == "pass"


def _uniform_points(rng, cells, guards, count):
    # the sampler's contract written with random.uniform: draw every cell in
    # order, redraw while a guard fails
    out = []
    while len(out) < count:
        pt = {n: rng.uniform(lo, hi) for n, lo, hi in cells}
        if all(g.holds(pt) for g in guards):
            out.append(pt)
    return out


@pytest.mark.parametrize("guarded", [False, True])
def test_draw_point_equals_uniform_draws(guarded):
    x, y = ex.var("x"), ex.var("y")
    cells = hz.intervals({"x", "y", "z"}, {"x": (-2.0, 3.5), "z": (0.25, 0.5)})
    guards = (Guard(ex.add(x, y), ">", 0.0), Guard(y, "<", 0.5)) if guarded else ()
    want = _uniform_points(random.Random(7), cells, guards, 200)
    rng = random.Random(7)
    got = [hz.draw_point(rng, cells, guards) for _ in range(200)]
    assert [{n: v.hex() for n, v in p.items()} for p in got] == [
        {n: v.hex() for n, v in p.items()} for p in want]


def test_domain_error_propagates_with_point():
    x = ex.var("x")
    chk = hz.IdentityCheck("unguarded-log", ex.func("log", x),
                           ex.func("log", x), box={"x": (-1.0, -0.5)}, samples=5)
    with pytest.raises(NumericDomain) as err:
        hz.numeric_check(chk)
    assert "at point" in str(err.value)


def test_catalog_deterministic_bytes():
    p = prob("free_particle")
    a = hz.run_identity_catalog(p).to_json()
    b = hz.run_identity_catalog(p).to_json()
    assert a == b
    c = hz.run_identity_catalog(p, seed=99).to_json()
    assert isinstance(c, str)


def test_catalog_free_particle_all_pass():
    rep = hz.run_identity_catalog(prob("free_particle"))
    assert rep.passed
    assert all(e.status == "pass" for e in rep.entries)


def test_catalog_fault_injection(monkeypatch):
    # a curvature implementation returning a wrong coefficient must be caught
    # by the bracket comparison
    from cartanforge import connection as cn
    real = cn.curvature

    def broken(conn):
        R = real(conn)

        class Lying:
            form = R.form

            def coefficient(self, y, a, b):
                return ex.add(R.coefficient(y, a, b), ex.ONE)

            def is_zero(self):
                return False
        return Lying()

    # the catalog calls the name harness imported
    monkeypatch.setattr(hz, "curvature", broken)
    rep = hz.run_identity_catalog(prob("wave_1p1"))
    assert not rep.passed
    failing = [e.name for e in rep.entries if e.status == "fail"]
    assert any(name.startswith("curvature-bracket") for name in failing)


def test_symbolic_pass_implies_numeric_pass():
    # every symbolic conservation pass in the catalog is re-sampled
    # numerically by the same entry; a pass therefore certifies both
    rep = hz.run_identity_catalog(prob("harmonic_oscillator"))
    cons = [e for e in rep.entries if e.name.startswith("noether-conservation")]
    assert cons and all(e.status == "pass" for e in cons)
    assert all(e.max_dev <= 1e-9 for e in cons)


@pytest.mark.parametrize("route, entries", [
    ("vartheta_intrinsic", ["cartan-intrinsic-vs-display"]),
    ("energy_intrinsic", ["energy-intrinsic-vs-display[drift]",
                          "energy-intrinsic-vs-display[flat]"]),
])
def test_construction_path_disagreement_is_reported(monkeypatch, route,
                                                    entries):
    # a wrong intrinsic route fails its own entry and stops nothing else
    p = prob("free_particle")
    want = [e.name for e in hz.run_identity_catalog(p).entries]
    real = getattr(hz, route)
    monkeypatch.setattr(hz, route,
                        lambda *args: real(*args).scale(ex.rat(2)))
    rep = hz.run_identity_catalog(p)
    assert [e.name for e in rep.entries] == want
    failing = [e.name for e in rep.entries if e.status == "fail"]
    assert failing == entries


def test_finite_difference_checks_the_shared_partials():
    # the catalog samples the table every construction reads: a wrong
    # entry fails its finite-difference check, and the display formula
    # built from it no longer matches the intrinsic route, which takes its
    # own d(L omega)
    p = prob("free_particle")
    lag = p.lagrangian
    table = dict(lag.partials)
    table["d(q,t)"] = ex.mul(ex.rat(2), table["d(q,t)"])
    lag.__dict__["partials"] = table
    assert lag.momentum("q", "t") == table["d(q,t)"]
    lag.__dict__.pop("cartan_forms", None)   # built from the new table
    rep = hz.run_identity_catalog(p)
    failing = {e.name for e in rep.entries if e.status == "fail"}
    fd = {e.name for e in rep.entries if e.name.startswith("finite-difference")}
    assert failing & fd == {"finite-difference[dL/dd(q,t)]"}
    assert "cartan-intrinsic-vs-display" in failing
