import json
import os

import pytest

from cartanforge import chart as ch
from cartanforge import cli
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import harness as hz
from cartanforge.errors import NumericDomain
from cartanforge.problem import Guard, parse_problem

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")
MECH = ch.make_chart(["t"], ["q"])

# L is 1/2*d(q,t)^2 in value: the bracket is zero, but the canonical form
# does not know that t/sqrt(3 + t) + 3/sqrt(3 + t) is sqrt(3 + t), so the
# time translation's total variation is not structurally zero
ROOTED = """
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2 + q*(t/sqrt(3 + t) + 3/sqrt(3 + t) - sqrt(3 + t))"

[vectorfield.time]
base = ["1"]
symmetry = true
"""

PINNED_HEAD = """\
[PASS] finite-difference[dL/dt]  max_dev=2.498e-11
[PASS] finite-difference[dL/dq]  max_dev=1.943e-11
[PASS] finite-difference[dL/dd(q,t)]  max_dev=3.122e-12
[PASS] cartan-intrinsic-vs-display  max_dev=0.000e+00
[PASS] cartan-domega-closed  max_dev=0.000e+00
[skip] energy-intrinsic-vs-display  (no connections declared)
[skip] legendre-linearity  (no connections declared)
[skip] curvature-bracket  (no connections declared)
"""


def verify(tmp_path, capsys, text, *argv):
    f = tmp_path / "problem.toml"
    f.write_text(text)
    code = cli.main(["verify", str(f), *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("check, code, line", [
    ('check = "numeric"\n', 0,
     "[PASS] symmetry[time]  max_dev=8.327e-17  (numeric fallback)\n"
     "all checks passed\n"),
    ("", 1,
     "[FAIL] symmetry[time]  (delta = -1/2*q*t*sqrt((3 + t)^-3)"
     " - 3/2*q*sqrt((3 + t)^-3) + 1/2*q*sqrt((3 + t)^-1))\n"
     "FAILURES present\n"),
], ids=["numeric", "symbolic"])
def test_symmetry_check_modes_are_pinned(tmp_path, capsys, check, code, line):
    # check = "numeric" samples the variation; the default stays strict
    got = verify(tmp_path, capsys, ROOTED + check)
    assert got == (code, PINNED_HEAD + line, "")


# d Omega vanishes only in value: its third partials meet sqrt(3 + t)
EXP_ROOT = """
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "exp(d(q,t)*q*sqrt(3 + t))"
"""


def test_theorem_closes_numerically_where_the_canonical_form_cannot(
        tmp_path, capsys):
    code, out, _ = verify(tmp_path, capsys, EXP_ROOT)
    assert code == 0
    assert ("[PASS] cartan-domega-closed  max_dev=2.776e-16"
            "  (numeric zero (seed 20240808, 100 points))\n") in out
    # the detail names the run's seed and sample count
    code, out, _ = verify(tmp_path, capsys, EXP_ROOT, "--seed", "7",
                          "--samples", "20")
    assert code == 0 and "(numeric zero (seed 7, 20 points))" in out


def test_structural_zero_is_not_sampled():
    x = ex.var("x")
    zero = fm.Form(fm.jet_space(MECH), 1, {})
    for arg in (ex.ZERO, zero, [zero, ex.sub(x, x)]):
        assert hz.zero_verdict(arg, 1, {}, (), 10, 1e-9) == (True, 0.0, {}, "")


def test_nonzero_form_fails_with_its_witness():
    q, t = ex.var("q"), ex.var("t")
    form = fm.Form(fm.jet_space(MECH), 1, {(0,): ex.sub(q, ex.pow_(q, 2)),
                                           (1,): ex.ZERO})
    ok, worst, witness, detail = hz.zero_verdict(
        [form, ex.sub(t, t)], 3, {"q": (0.0, 2.0)}, (), 200, 1e-9)
    assert not ok and worst > 0.5 and set(witness) == {"q"}
    assert abs(witness["q"] - 2.0) < 0.6   # |q - q^2| peaks at the edge
    assert detail == "numeric nonzero (seed 3, 200 points)"


def test_names_are_drawn_besides_the_variables():
    # a constant residual still draws the base coordinates it lives on
    ok, worst, witness, _ = hz.zero_verdict(ex.rat(2), 5, {}, (), 4, 1e-9,
                                            names=("t",))
    assert not ok and worst == 2.0 and set(witness) == {"t"}


def test_unsatisfiable_guard_is_a_domain_error():
    q = ex.var("q")
    with pytest.raises(NumericDomain, match="could not draw"):
        hz.zero_verdict(q, 1, {}, (Guard(q, ">", 5.0),), 10, 1e-9)


def test_theorem_domain_error_is_a_fail_entry(tmp_path, capsys, monkeypatch):
    # a theorem whose fallback leaves its domain fails with the error's
    # text, and verify goes on to the other checks (exit 1, not 2)
    path = os.path.join(PROBLEMS, "free_particle.toml")
    want = [e.name for e in hz.run_identity_catalog(parse_problem(path)).entries]
    real = hz.vartheta_intrinsic
    shifted = ex.func("log", ex.sub(ex.var("q"), ex.rat(5)))
    monkeypatch.setattr(hz, "vartheta_intrinsic",
                        lambda lag: real(lag).scale(ex.add(ex.ONE, shifted)))
    code = cli.main(["verify", path])
    out = capsys.readouterr().out
    assert code == 1
    assert [line.split()[1] for line in out.splitlines()[:-1]] == want
    line, = [s for s in out.splitlines() if "cartan-intrinsic" in s]
    assert line.startswith("[FAIL] cartan-intrinsic-vs-display  "
                           "(log of non-positive value")
    assert "at point {" in line
    assert sum("[FAIL]" in s for s in out.splitlines()) == 1


# sqrt(t) leaves its domain at the first draw of t in [-1, 1]
ROOT_SECTION = """
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2"

[vectorfield.shift]
fiber = ["1"]
symmetry = true

[section.root]
components = ["sqrt(t)"]
solution = true
"""

ROOT_FIELD = """
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2"

[vectorfield.grow]
fiber = ["sqrt(t)"]
symmetry = true
check = "numeric"
"""


# on q in [0, 1e-6] the finite difference of dL/dq evaluates L at
# q - 1e-5 < 0, where sqrt(q) has no value
ROOT_Q = """
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2 + sqrt(q)"

[numeric]
box = [["q", 0.0, 1e-6]]
"""


@pytest.mark.parametrize("text, name, entries", [
    (ROOT_SECTION, "noether-conservation[shift,root]", 12),
    (ROOT_FIELD, "symmetry[grow]", 9),
    (ROOT_Q, "finite-difference[dL/dq]", 9),
], ids=["conservation", "symmetry", "finite-difference"])
def test_sampled_domain_error_fails_its_entry(tmp_path, capsys, text, name,
                                              entries):
    # the conservation residual is sampled even under the strict check, to
    # report its max_dev; a domain error there, in the numeric symmetry
    # fallback or in a finite difference fails that entry, and verify lists
    # every other one
    code, out, err = verify(tmp_path, capsys, text)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == entries + 1
    assert lines[0].startswith("[PASS] finite-difference[dL/dt]")
    assert lines[-1] == "FAILURES present"
    line, = [s for s in lines if name in s]
    assert line.startswith(f"[FAIL] {name}  (even root of negative value ")
    assert "at point {" in line and "max_dev" not in line


def test_conservation_samples_only_where_the_guards_hold(tmp_path, capsys):
    # the guard keeps sqrt(t) in its domain: the residual is sampled, and
    # fails on its value, at t > 0 only; `noether --along` draws the same
    guarded = ROOT_SECTION + '\n[numeric]\nrequire = ["t > 0"]\n'
    code, out, err = verify(tmp_path, capsys, guarded)
    assert code == 1 and err == "" and "even root" not in out
    assert "[FAIL] noether-conservation[shift,root]  max_dev=1.083e+02\n" in out
    code, out, _ = verify(tmp_path, capsys, guarded, "--format", "json")
    entry, = [e for e in json.loads(out)["suite"]
              if e["name"] == "noether-conservation[shift,root]"]
    assert entry["witness"]["t"] > 0
    code = cli.main(["noether", str(tmp_path / "problem.toml"),
                     "--vectorfield", "shift", "--along", "root"])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert "conserved-numeric = false\n  max_dev: 108.3" in out.out
    # on this file and every corpus pair the two commands report one max_dev
    pairs = 0
    for path in [str(tmp_path / "problem.toml")] + [
            os.path.join(PROBLEMS, n) for n in sorted(os.listdir(PROBLEMS))]:
        cli.main(["verify", path, "--format", "json"])
        for e in json.loads(capsys.readouterr().out)["suite"]:
            if not e["name"].startswith("noether-conservation["):
                continue
            vf, sec = e["name"][len("noether-conservation["):-1].split(",")
            assert cli.main(["noether", path, "--vectorfield", vf, "--along",
                             sec, "--format", "json"]) == 0
            got, = [r for r in json.loads(capsys.readouterr().out)["results"]
                    if r["name"] == "conserved-numeric"]
            assert got["metadata"]["max_dev"] == e["max_dev"], (path, e)
            pairs += 1
    assert pairs > 1


def test_numeric_symmetry_fallback_takes_the_run_seed_and_tol(
        tmp_path, capsys):
    rooted = ROOTED + 'check = "numeric"\n'
    code, out, _ = verify(tmp_path, capsys, rooted, "--tol", "0")
    assert code == 1
    assert out.endswith("[FAIL] symmetry[time]  max_dev=8.327e-17"
                        "  (numeric fallback)\nFAILURES present\n")

    def witness(*argv):
        code, out, _ = verify(tmp_path, capsys, rooted, "--format", "json",
                              *argv)
        assert code == 0
        entry, = [e for e in json.loads(out)["suite"]
                  if e["name"] == "symmetry[time]"]
        return entry["witness"]
    assert witness("--seed", "7") != witness()
    assert witness("--seed", "7") == witness("--seed", "7")


JETFIELD = """
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2 - 1/2*q^2"

[section.sine]
components = ["sin(t)"]
solution = true

[section.drifting]
components = ["t"]

[jetfield.dynamics]
F = [["d(q,t)"]]
G = [[["-q"]]]
el_solution = true
integral_sections = ["sine", "drifting"]
"""


def test_structural_fails_name_their_first_nonzero_residual(
        tmp_path, capsys, monkeypatch):
    code, out, _ = verify(tmp_path, capsys, JETFIELD)
    assert code == 1
    assert "[PASS] jetfield-integral[dynamics,sine]  max_dev=0.000e+00\n" in out
    assert ("[FAIL] jetfield-integral[dynamics,drifting]"
            "  (non-zero residual G(q,t,t))\n") in out
    # a prolongation that is not holonomic fails contact annihilation
    real = hz.prolong_section

    def slanted(phi):
        psi = real(phi)
        return ch.SectionJ1(psi.chart, psi.f,
                            {k: ex.add(v, ex.ONE) for k, v in psi.g.items()})
    monkeypatch.setattr(hz, "prolong_section", slanted)
    code, out, _ = verify(tmp_path, capsys, JETFIELD)
    assert ("[FAIL] contact-annihilation[sine]"
            "  (non-zero residual theta^q)\n") in out


@pytest.mark.parametrize("name", sorted(
    f[:-5] for f in os.listdir(PROBLEMS) if f.endswith(".toml")))
def test_corpus_closes_structurally(name, monkeypatch):
    # every corpus verdict closes on the canonical form: a regression there
    # must not hide behind the numeric fallback
    def unexpected(*args):
        raise AssertionError("a corpus zero test sampled")
    monkeypatch.setattr(hz, "sample_worst", unexpected)
    rep = hz.run_identity_catalog(
        parse_problem(os.path.join(PROBLEMS, name + ".toml")), samples=25)
    assert rep.passed
    assert not [e.name for e in rep.entries if "numeric zero" in e.detail]
