"""The semantics every record class of the package keeps: construction by
position and by keyword, fresh default tables, equality and hashing over
every field of one exact class (a table by its items), immutability, the
repr text, and copy and pickle round trips."""

import ast
import copy
import os
import pickle
import subprocess
import sys

import pytest

from cartanforge import canonical as ca
from cartanforge import chart as ch
from cartanforge import connection as cn
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import harness as hn
from cartanforge import lagrangian as lg
from cartanforge import noether as no
from cartanforge import problem as pb
from cartanforge.record import field

HERE = os.path.dirname(__file__)
PROBLEM = pb.parse_problem(os.path.join(HERE, "..", "problems",
                                        "free_particle.toml"))
MECH = PROBLEM.chart
LAG = PROBLEM.lagrangian
JS = fm.jet_space(MECH)
T, Q = ex.var("t"), ex.var("q")

# every record class with its fields in declaration order
FIELDS = {
    ch.JetChart: ("base_names", "fiber_names"),
    ch.SectionE: ("chart", "components"),
    ch.SectionJ1: ("chart", "f", "g"),
    fm.Space: ("chart", "level", "coords"),
    fm.Form: ("space", "degree", "coeffs"),
    fm.VectorField: ("space", "comps"),
    fm.VectorValuedForm: ("frame", "comps"),
    fm.CoordMap: ("source", "target", "components"),
    fm.FiberedMap: ("chart", "base_components", "fiber_components",
                    "base_inverse"),
    cn.Connection: ("chart", "gamma"),
    cn.Curvature: ("chart", "form"),
    cn.JetField2: ("chart", "F", "G"),
    ca.ContactReduction: ("reduced", "combination"),
    ca.HolonomyReport: ("holonomic", "residuals"),
    ca.VerticalEndomorphism: ("kind", "chart", "covectors"),
    lg.Lagrangian: ("chart", "L"),
    lg.CartanForms: ("vartheta", "theta", "omega"),
    lg.ELSystem: ("chart", "components"),
    lg.EnergyDensity: ("chart", "connection", "E"),
    lg.JetFieldReport: ("is_sopde", "omega_residual", "reduced_residuals",
                        "curvature_residuals"),
    lg.LinearSolveReport: ("rank", "consistent", "pivots", "free"),
    lg.ELJetProblem: ("lagrangian", "unknowns", "equations"),
    no.SymmetryReport: ("variation", "is_symmetry", "prolonged"),
    no.NoetherCurrent: ("lagrangian", "generator", "prolonged", "J"),
    no.ConservationReport: ("conserved", "residual", "max_dev", "witness"),
    no.NoetherJetReport: ("conserved", "residual"),
    pb.Guard: ("expr", "op", "threshold"),
    pb.NumericSettings: ("seed", "samples", "tol", "tol_fd",
                         "symmetry_samples", "box", "guards"),
    pb.VectorFieldDecl: ("vf", "symmetry", "check"),
    pb.SectionDecl: ("section", "solution"),
    pb.JetFieldDecl: ("jf", "el_solution", "integral_sections"),
    pb.DiffeoDecl: ("diffeo", "symmetry"),
    pb.Problem: ("chart", "lagrangian", "connections", "vectorfields",
                 "sections", "jetfields", "diffeos", "numeric"),
    hn.IdentityCheck: ("name", "lhs", "rhs", "box", "samples", "tol", "seed",
                       "guards"),
    hn.CheckResult: ("name", "status", "max_dev", "witness", "detail"),
    hn.SuiteReport: ("entries",),
}


def exemplars():
    """One instance of every record class, built the way the engine builds
    it where a constructor function exists."""
    conn = PROBLEM.connections["drift"]
    vdecl = PROBLEM.vectorfields["translation_t"]
    sdecl = PROBLEM.sections["parabola"]
    jdecl = PROBLEM.jetfields["dynamics"]
    ddecl = PROBLEM.diffeos["shear"]
    forms = lg.cartan_forms(LAG)
    curv = cn.curvature(conn)
    current = no.noether_current(LAG, vdecl.vf)
    jet_problem = lg.jetfield_el(LAG)
    result = hn.CheckResult("a", "fail", 0.5, {"t": 0.25}, "detail")
    out = [
        MECH, sdecl.section, ch.prolong_section(sdecl.section), JS,
        forms.theta, vdecl.vf, curv.form, ddecl.diffeo.total_map(),
        ddecl.diffeo, conn, curv, jdecl.jf, ca.contact_reduce(forms.theta),
        ca.is_holonomic(ch.prolong_section(sdecl.section)),
        ca.vertical_endo_S(MECH, conn), LAG, forms, lg.derive_el(LAG),
        lg.energy_density(LAG, conn), jet_problem.check(jdecl.jf),
        jet_problem.solve(), jet_problem, no.total_variation(LAG, vdecl.vf),
        current, no.check_conservation(current, sdecl.section, samples=3),
        no.NoetherJetReport(True, forms.theta),
        pb.Guard(T, ">", 0.5), PROBLEM.numeric, vdecl, sdecl, jdecl, ddecl,
        PROBLEM, hn.IdentityCheck("n", LAG.L, LAG.L, {"t": (0.0, 1.0)}),
        result, hn.SuiteReport((result,)),
    ]
    assert [type(x) for x in out] == list(FIELDS)
    return out


@pytest.fixture(scope="module")
def instances():
    return exemplars()


def values(x):
    return [getattr(x, n) for n in FIELDS[type(x)]]


def test_positional_and_keyword_construction_agree(instances):
    for x in instances:
        cls, names = type(x), FIELDS[type(x)]
        by_position = cls(*values(x))
        by_keyword = cls(**dict(zip(names, values(x))))
        for y in (by_position, by_keyword):
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            assert values(y) == values(x)


def test_construction_rejects_bad_arguments():
    with pytest.raises(TypeError):
        hn.CheckResult("a")
    with pytest.raises(TypeError):
        hn.CheckResult("a", "pass", None, {}, "", "extra")
    with pytest.raises(TypeError):
        hn.CheckResult("a", "pass", bogus=1)
    with pytest.raises(TypeError):
        hn.CheckResult("a", "pass", name="b")


def test_repr_lists_every_field_in_order(instances):
    for x in instances:
        inner = ", ".join(f"{n}={getattr(x, n)!r}" for n in FIELDS[type(x)])
        assert repr(x) == f"{type(x).__qualname__}({inner})"
    assert (repr(hn.CheckResult("a", "pass"))
            == "CheckResult(name='a', status='pass', max_dev=None, "
               "witness={}, detail='')")
    assert (repr(MECH)
            == "JetChart(base_names=('t',), fiber_names=('q',))")
    assert (repr(pb.NumericSettings())
            == "NumericSettings(seed=20240808, samples=100, tol=1e-09, "
               "tol_fd=1e-06, symmetry_samples=200, box={}, guards=())")


def test_default_factories_give_fresh_tables():
    a, b = hn.CheckResult("a", "pass"), hn.CheckResult("a", "pass")
    assert a.witness == {} and a.witness is not b.witness
    assert pb.NumericSettings().box == {}
    assert pb.NumericSettings().box is not pb.NumericSettings().box
    p1, p2 = pb.Problem(MECH, LAG), pb.Problem(MECH, LAG)
    for name in ("connections", "vectorfields", "sections", "jetfields",
                 "diffeos"):
        assert getattr(p1, name) == {}
        assert getattr(p1, name) is not getattr(p2, name)
    assert p1.numeric == pb.NumericSettings()
    c1 = no.ConservationReport(True, fm.zero_form(JS))
    assert c1.max_dev == 0.0 and c1.witness == {}
    assert hn.IdentityCheck("n", T, T).box == {}


def assert_same(a, b):
    assert a == b and not a != b and hash(a) == hash(b)


def assert_differ(a, b):
    assert a != b and not a == b


def reordered(x):
    """`x` rebuilt with every table field in reverse insertion order."""
    return type(x)(*(dict(reversed(v.items())) if isinstance(v, dict) else v
                     for v in values(x)))


def test_own_equality_compares_the_tables():
    # the five classes that once wrote their own __eq__ and __hash__
    sp = fm.total_space(MECH)
    a = fm.Form(sp, 1, {(0,): T, (1,): Q})
    assert_same(a, fm.Form(sp, 1, {(1,): Q, (0,): T}))
    assert_differ(a, fm.Form(sp, 1, {(0,): T}))
    v = fm.VectorField(sp, {"t": T, "q": Q})
    assert_same(v, fm.VectorField(sp, {"q": Q, "t": T}))
    assert_differ(v, fm.VectorField(sp, {"t": T}))
    g = {"d(q,t)": ex.ONE}
    s = ch.SectionJ1(MECH, (T,), g)
    assert_same(s, ch.SectionJ1(MECH, (T,), dict(g)))
    assert_differ(s, ch.SectionJ1(MECH, (T,), {"d(q,t)": T}))
    c = cn.Connection(MECH, {("q", "t"): Q})
    assert_same(c, cn.Connection(MECH, {("q", "t"): Q}))
    assert_differ(c, cn.Connection(MECH, {("q", "t"): T}))
    f = {("q", "t"): ex.var("d(q,t)")}
    j = cn.JetField2(MECH, f, {("q", "t", "t"): Q})
    assert_same(j, cn.JetField2(MECH, dict(f), {("q", "t", "t"): Q}))
    assert_differ(j, cn.JetField2(MECH, f, {}))
    assert_differ(j, cn.JetField2(MECH, {}, {("q", "t", "t"): Q}))


def test_equality_compares_every_field():
    sp = fm.total_space(MECH)
    zero = fm.zero_form(sp, 1)
    ident = fm.FiberedMap(MECH, {"t": T}, {"q": Q})
    shear = fm.FiberedMap(MECH, {"t": T}, {"q": MECH.parse("q + t^2")})
    shift = fm.FiberedMap(MECH, {"t": MECH.parse("t + 1")}, {"q": Q},
                          {"t": MECH.parse("t - 1")})
    # each pair differs in one field only, most often a table
    pairs = [
        (ident, shear),
        (ident, fm.FiberedMap(MECH, {"t": T}, {"q": Q}, {"t": T})),
        (shift, fm.FiberedMap(MECH, shift.base_components, {"q": Q},
                              {"t": MECH.parse("t + 1")})),
        (ident.total_map(), shear.total_map()),
        (ca.ContactReduction(zero, {"q": zero}), ca.ContactReduction(zero, {})),
        (lg.ELSystem(MECH, {"q": Q}), lg.ELSystem(MECH, {"q": T})),
        (lg.ELSystem(MECH, {}), lg.ELSystem(ch.make_chart(["x"], ["q"]), {})),
        (lg.JetFieldReport(True, zero, {"q": T}, {}),
         lg.JetFieldReport(True, zero, {}, {})),
        (lg.JetFieldReport(True, zero, {}, {"q": T}),
         lg.JetFieldReport(True, zero, {}, {})),
        (lg.LinearSolveReport(1, True, {"g": T}, ("h",)),
         lg.LinearSolveReport(1, True, {}, ("h",))),
        (lg.LinearSolveReport(1, True, {}, ("h",)),
         lg.LinearSolveReport(1, True, {}, ())),
        (lg.ELJetProblem(LAG, (), {"q": Q}), lg.ELJetProblem(LAG, (), {})),
        (no.ConservationReport(True, zero, 0.0, {"t": 1.0}),
         no.ConservationReport(True, zero)),
        (pb.NumericSettings(box={"t": (0.0, 1.0)}), pb.NumericSettings()),
        (pb.NumericSettings(tol=1.0), pb.NumericSettings()),
        (PROBLEM, pb.Problem(MECH, LAG, numeric=PROBLEM.numeric)),
        (hn.IdentityCheck("n", T, Q, {"t": (0.0, 1.0)}),
         hn.IdentityCheck("n", T, Q)),
        (hn.IdentityCheck("n", T, Q), hn.IdentityCheck("n", T, T)),
        (hn.CheckResult("a", "pass", witness={"t": 1.0}),
         hn.CheckResult("a", "pass")),
        (hn.CheckResult("a", "pass"), hn.CheckResult("a", "fail")),
    ]
    for a, b in pairs:
        assert_differ(a, b)
        assert_same(a, reordered(a))
    # == compares tables as dicts do, so their values need not hash
    assert (pb.NumericSettings(box={"t": [0.0, 1.0]})
            == pb.NumericSettings(box={"t": [0.0, 1.0]}))


def test_different_diffeos_stay_apart_in_a_set():
    x = fm.FiberedMap(MECH, {"t": T}, {"q": Q})
    y = fm.FiberedMap(MECH, {"t": T}, {"q": MECH.parse("2*q + t")})
    assert len({x, y}) == 2
    assert {x, y} == {y, fm.FiberedMap(MECH, {"t": T}, {"q": Q})}


def test_only_record_defines_equality():
    # one equality rule: no class of the package writes its own
    pkg = os.path.join(HERE, "..", "src", "cartanforge")
    owners = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            defined = {n.name for n in cls.body if isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef))}
            defined |= {t.id for n in cls.body if isinstance(n, ast.Assign)
                        for t in n.targets if isinstance(t, ast.Name)}
            if defined & {"__eq__", "__hash__"}:
                owners.append(f"{name}:{cls.name}")
    assert owners == ["record.py:Record"]
    with pytest.raises(TypeError):
        field(default_factory=dict, compare=False)


def test_equality_needs_the_exact_same_class():
    decl = PROBLEM.diffeos["shear"]
    assert_differ(pb.DiffeoDecl(decl.diffeo, None),
                  pb.SectionDecl(decl.diffeo, None))

    class Sub(pb.Guard):
        pass

    assert_differ(Sub(T, ">", 0.5), pb.Guard(T, ">", 0.5))
    assert_same(Sub(T, ">", 0.5), Sub(T, ">", 0.5))


def test_records_are_immutable(instances):
    for x in instances:
        name = FIELDS[type(x)][0]
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.not_a_field = 1


def test_numeric_defaults_are_readable_on_the_class():
    d = pb.NumericSettings
    assert (d.seed, d.samples, d.tol, d.tol_fd, d.symmetry_samples) == (
        20240808, 100, 1e-9, 1e-6, 200)
    check = hn.IdentityCheck("n", T, T)
    assert (check.samples, check.tol, check.seed) == (d.samples, d.tol, d.seed)
    assert (hn.IdentityCheck.samples, hn.IdentityCheck.tol,
            hn.IdentityCheck.seed) == (d.samples, d.tol, d.seed)


def test_cached_tables_live_on_the_instance():
    lag = lg.Lagrangian(MECH, MECH.parse("1/2*d(q,t)^2 - q"))
    assert lag.partials is lag.partials
    assert lag.second_partials is lag.second_partials
    assert lag == lg.Lagrangian(MECH, lag.L)


@pytest.mark.parametrize("name", ["form", "problem", "numeric", "result"])
def test_deepcopy_and_pickle_round_trips(name):
    x = {"form": lg.cartan_forms(LAG).omega, "problem": PROBLEM,
         "numeric": pb.NumericSettings(box={"t": (0.0, 1.0)}),
         "result": hn.CheckResult("a", "fail", 0.5, {"t": 0.25})}[name]
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)
        assert values(y) == values(x)


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site-packages .pth file can import either module first
    src = os.path.join(HERE, "..", "src")
    code = ("import sys, cartanforge, cartanforge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=src,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
