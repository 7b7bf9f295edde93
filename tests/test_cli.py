import json
import os
import subprocess
import sys
import time

import pytest

from cartanforge import cli
from cartanforge import expr as ex

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def prob(name):
    return os.path.join(PROBLEMS, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_el_free_particle(capsys):
    code, out, _ = run(capsys, "derive-el", prob("free_particle.toml"))
    assert code == 0
    assert "EL[q] = -dd(q,t,t)" in out


def test_derive_el_json_round_trips(capsys):
    code, out, _ = run(capsys, "derive-el", prob("wave_1p1.toml"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "derive-el"
    from cartanforge.problem import parse_problem
    chart = parse_problem(prob("wave_1p1.toml")).chart
    for r in doc["results"]:
        reparsed = chart.parse(r["expression"])
        assert ex.to_text(reparsed) == r["expression"]


def test_energy_requires_connection(capsys):
    code, _, err = run(capsys, "energy", prob("free_particle.toml"))
    assert code == 2
    assert "requires --connection" in err


def test_energy_with_connection(capsys):
    code, out, _ = run(capsys, "energy", prob("free_particle.toml"),
                       "--connection", "drift")
    assert code == 0
    assert "E = -3*d(q,t) + 1/2*d(q,t)^2" in out


def test_unknown_connection_name(capsys):
    code, _, err = run(capsys, "energy", prob("free_particle.toml"),
                       "--connection", "nope")
    assert code == 2 and "nope" in err


def test_curvature_command(capsys):
    code, out, _ = run(capsys, "curvature", prob("wave_1p1.toml"),
                       "--connection", "tilted")
    assert code == 0
    assert "flat = false" in out
    code, out, _ = run(capsys, "curvature", prob("wave_1p1.toml"),
                       "--connection", "flat")
    assert "flat = true" in out


def test_legendre_diff_command(capsys):
    code, out, _ = run(capsys, "legendre-diff", prob("free_particle.toml"),
                       "--connection", "drift")
    assert code == 0
    assert "-3*d(q,t)" in out


def test_check_section(capsys):
    code, out, _ = run(capsys, "check-section", prob("harmonic_oscillator.toml"),
                       "--section", "sine")
    assert code == 0
    assert "solves-field-equations = true" in out
    code, out, _ = run(capsys, "check-section", prob("harmonic_oscillator.toml"),
                       "--section", "drifting")
    assert "solves-field-equations = false" in out


def test_jetfield_el_solver(capsys):
    code, out, _ = run(capsys, "jetfield-el", prob("harmonic_oscillator.toml"))
    assert code == 0
    assert "solution[G(q,t,t)] = -q" in out


def test_jetfield_el_checker(capsys):
    code, out, _ = run(capsys, "jetfield-el", prob("harmonic_oscillator.toml"),
                       "--jetfield", "dynamics")
    assert code == 0
    assert "sopde = true" in out and "solves = true" in out


def test_jetfield_el_solver_nambu_hits_the_size_bound(capsys):
    # No golden covers nambu's solve: its elimination stops on the term
    # bound at the same row update every time, which pins its rows.  The
    # sound solve of ROADMAP item 2 replaces this with a report of rank 3.
    start = time.monotonic()
    code, out, err = run(capsys, "jetfield-el", prob("nambu_string.toml"))
    assert time.monotonic() - start < 30
    assert (code, out) == (2, "")
    assert err == "error: expansion would build 13952 terms (limit 10000)\n"


def test_symmetry_command(capsys):
    code, out, _ = run(capsys, "symmetry", prob("free_particle.toml"),
                       "--vectorfield", "dilation")
    assert code == 0
    assert "is-symmetry = false" in out


def test_noether_with_check_along_alias(capsys):
    code, out, _ = run(capsys, "noether", prob("free_particle.toml"),
                       "--vectorfield", "translation_q", "--check-along", "line")
    assert code == 0
    assert "current = (d(q,t))" in out
    assert "conserved-symbolic = true" in out
    assert "conserved-numeric = true" in out


def test_verify_passes_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", prob("free_particle.toml"))
    assert code == 0
    assert "all checks passed" in out


def test_verify_json_deterministic(capsys):
    a = run(capsys, "verify", prob("wave_1p1.toml"), "--format", "json",
            "--seed", "42")
    b = run(capsys, "verify", prob("wave_1p1.toml"), "--format", "json",
            "--seed", "42")
    assert a == b
    doc = json.loads(a[1])
    assert all(e["status"] in ("pass", "skip") for e in doc["suite"])


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2"

[section.wrong]
components = ["t^2"]
solution = true
""")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.toml"
    f.write_text("[bundle\nbase = [\"t\"]\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2 and "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/problem.toml")
    assert code == 2


def test_empty_problem_skips(tmp_path, capsys):
    f = tmp_path / "empty.toml"
    f.write_text("""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2"
""")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert "[skip] energy-intrinsic-vs-display" in out
    assert "[skip] symmetry" in out


def test_deep_nesting_exits_2(tmp_path, capsys):
    f = tmp_path / "deep.toml"
    f.write_text(f"""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "{'(' * 5000}d(q,t){')' * 5000}"
""")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "nested too deeply" in err and "line" in err and "col" in err


def test_sampled_domain_error_names_point(tmp_path, capsys):
    f = tmp_path / "log.toml"
    f.write_text("""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "log(q) + 1/2*d(q,t)^2"
""")
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2 and out == ""
    assert "log of non-positive value" in err and "at point {" in err


@pytest.mark.parametrize("table, body, what", [
    ("vectorfield.v", "fiber = 5", "vectorfield v fiber"),
    ("section.s", 'components = "t"', "section s"),
])
def test_table_value_not_an_array_exits_2(tmp_path, capsys, table, body,
                                          what):
    f = tmp_path / "scalar.toml"
    f.write_text(f"""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "1/2*d(q,t)^2"

[{table}]
{body}
""")
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2 and out == ""
    assert f"{what}: expected an array" in err


@pytest.mark.parametrize("cmd, extra", [
    ("verify", []),
    ("noether", ["--vectorfield", "translation_q", "--along", "parabola"]),
    ("noether", ["--vectorfield", "translation_q"]),
])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_exit_2(capsys, cmd, extra, samples):
    code, out, err = run(capsys, cmd, prob("free_particle.toml"), *extra,
                         "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples must be at least 1" in err


def test_noether_honours_tol_zero(tmp_path, capsys):
    # the problem's own tol admits the parabola's residual (max_dev 2.0);
    # an explicit --tol 0 must not fall back to it
    text = open(prob("free_particle.toml")).read().replace(
        "tol = 1e-9", "tol = 10.0")
    f = tmp_path / "loose.toml"
    f.write_text(text)
    argv = ["noether", str(f), "--vectorfield", "translation_q",
            "--along", "parabola"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "conserved-numeric = true" in out
    code, out, _ = run(capsys, *argv, "--tol", "0")
    assert code == 0 and "conserved-numeric = false" in out


def test_noether_honours_samples_one(capsys):
    code, out, _ = run(capsys, "noether", prob("free_particle.toml"),
                       "--vectorfield", "translation_q", "--along", "line",
                       "--samples", "1")
    assert code == 0 and "conserved-numeric = true" in out


def test_large_power_of_a_sum_exits_2_quickly(tmp_path):
    f = tmp_path / "power.toml"
    f.write_text("""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "(d(q,t) + q + t)^1000"
""")
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "cartanforge.cli", "verify",
                           str(f)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert time.monotonic() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: expansion would build")
    assert "Traceback" not in proc.stderr



def test_closed_stdout_is_not_a_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # nambu's forms print about 480 kB, far more than a pipe buffers, so
    # the writer is still writing when the pipe closes
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    proc = subprocess.Popen([sys.executable, "-m", "cartanforge.cli",
                             "cartan-forms", prob("nambu_string.toml")],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


TYPED = """{head}
[bundle]
base = {base}
fiber = ["q"]

[lagrangian]
L = {L}

{tail}
"""


@pytest.mark.parametrize("edit, message", [
    ({"tail": '[numeric]\nseed = "abc"'},
     "numeric.seed: expected an integer, found str"),
    ({"tail": "[numeric]\nsamples = [1]"},
     "numeric.samples: expected an integer, found list"),
    ({"tail": "[numeric]\nsamples = 0"},
     "numeric.samples: expected at least 1, found 0"),
    ({"tail": "[numeric]\nsymmetry_samples = -3"},
     "numeric.symmetry_samples: expected at least 1, found -3"),
    ({"tail": '[numeric]\nbox = [["q", "a", 1]]'},
     "numeric.box: expected [\"name\", lo, hi] entries, found ['q', 'a', 1]"),
    ({"tail": '[numeric]\nrequire = "q > 1"'},
     "numeric.require: expected an array, found str"),
    ({"head": "numeric = 5"}, "numeric: expected a table, found int"),
    ({"head": "connection = 5"}, "connection: expected a table, found int"),
    ({"tail": '[vectorfield.v]\nfiber = ["1"]\ncheck = "bogus"'},
     "vectorfield.v.check: expected \"symbolic\" or \"numeric\", found 'bogus'"),
    ({"tail": '[section.s]\ncomponents = ["t"]\nsolution = "yes"'},
     "section.s.solution: expected a boolean, found str"),
    ({"L": "5"}, "lagrangian.L: expected a string, found int"),
    ({"base": "5"}, "bundle.base: expected an array, found int"),
    ({"base": '"tx"'}, "bundle.base: expected an array, found str"),
], ids=["seed", "samples", "samples-zero", "symmetry-samples-negative", "box",
        "require", "numeric", "connection", "check", "solution", "L",
        "base-int", "base-str"])
def test_value_of_wrong_type_exits_2(tmp_path, capsys, edit, message):
    fields = {"head": "", "base": '["t"]', "L": '"1/2*d(q,t)^2"', "tail": ""}
    f = tmp_path / "typed.toml"
    f.write_text(TYPED.format(**{**fields, **edit}))
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}\n")
    assert "Traceback" not in err
