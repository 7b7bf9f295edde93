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
    assert err == "error: cannot read /nonexistent/problem.toml: No such file or directory\n"


@pytest.mark.parametrize("kind, reason", [
    ("directory", "Is a directory"), ("latin-1", "not UTF-8 text")])
def test_unreadable_problem_path_exits_2(tmp_path, capsys, kind, reason):
    path = tmp_path
    if kind == "latin-1":
        path = tmp_path / "latin1.toml"
        path.write_bytes('[bundle]\nbase = ["t"]\n# caf\xe9\n'.encode("latin-1"))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: {reason}\n"


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


def test_sampled_inf_minus_inf_names_point(tmp_path, capsys):
    # every product overflows to inf on this box: inf - inf in the sum
    f = tmp_path / "inf.toml"
    f.write_text("""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "q*d(q,t) - q*t"

[numeric]
box = [["t", 1e200, 1e201], ["q", 1e200, 1e201], ["d(q,t)", 1e200, 1e201]]
""")
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid operation: -inf + inf in fsum"
                          " at point {")


@pytest.mark.parametrize("table, body, what", [
    ("vectorfield.v", "fiber = 5", "vectorfield.v.fiber"),
    ("section.s", 'components = "t"', "section.s.components"),
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


@pytest.mark.parametrize("cmd, extra", [
    ("verify", []),
    ("noether", ["--vectorfield", "translation_q", "--along", "parabola"]),
])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tol_negative_or_not_finite_exit_2(capsys, cmd, extra, tol):
    code, out, err = run(capsys, cmd, prob("free_particle.toml"), *extra,
                         "--tol", tol)
    assert code == 2 and out == ""
    assert "--tol must be finite and at least 0" in err


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


def write_lagrangian(tmp_path, L):
    f = tmp_path / "lagrangian.toml"
    f.write_text(f"""
[bundle]
base = ["t"]
fiber = ["q"]

[lagrangian]
L = "{L}"
""")
    return str(f)


def verify_in_subprocess(path):
    """(seconds, process) of `verify path` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "cartanforge.cli", "verify",
                           path], env=env, capture_output=True, text=True,
                          timeout=60)
    return time.monotonic() - start, proc


def test_large_power_of_a_sum_exits_2_quickly(tmp_path):
    took, proc = verify_in_subprocess(
        write_lagrangian(tmp_path, "(d(q,t) + q + t)^1000"))
    assert took < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: expansion would build")
    assert "Traceback" not in proc.stderr


def test_large_power_of_a_rational_exits_2_quickly(tmp_path):
    # refused before the 1.6-Gbit power is computed
    took, proc = verify_in_subprocess(
        write_lagrangian(tmp_path, "3^1000000000*d(q,t)^2"))
    assert took < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: 3^1000000000 would pass {ex.MAX_RAT_BITS} bits\n"


@pytest.mark.parametrize("L, message", [
    ("2^20000*d(q,t)^2", f"error: 2^20000 would pass {ex.MAX_RAT_BITS} bits"),
    ("7" * 5000 + "*d(q,t)^2",
     "error: lagrangian.L: number of 5000 characters is too large (line 1, col 1)"),
    ("1e-5000*d(q,t)^2", f"error: a rational would pass {ex.MAX_RAT_BITS} bits"),
    ("1e-99999999*d(q,t)^2",
     "error: lagrangian.L: number of 11 characters is too large (line 1, col 1)"),
    ("d(q,t)^" + "2" * 5000,
     "error: lagrangian.L: number of 5000 characters is too large (line 1, col 8)"),
], ids=["power", "literal", "scientific", "long-exponent", "exponent"])
def test_oversized_rational_exits_2(tmp_path, capsys, L, message):
    code, out, err = run(capsys, "verify", write_lagrangian(tmp_path, L))
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("L, col", [("d(q,t)^2*²", 10), ("d(q,t)^²", 8)])
def test_non_decimal_digit_exits_2(tmp_path, capsys, L, col):
    # str.isdigit() takes '²': it must end in a ParseError, not int()'s
    # ValueError and a traceback
    with open(prob("free_particle.toml"), encoding="utf-8") as f:
        text = f.read()
    path = tmp_path / "free_particle.toml"
    path.write_text(text.replace('L = "1/2*d(q,t)^2"', f'L = "{L}"'),
                    encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: lagrangian.L: unexpected character '²' (line 1, col {col})\n"



def test_non_ascii_digit_in_a_problem_value_exits_2(tmp_path, capsys):
    # int() reads the Arabic-Indic digit three as 3: it must not parse
    with open(prob("free_particle.toml"), encoding="utf-8") as f:
        text = f.read()
    path = tmp_path / "free_particle.toml"
    path.write_text(text.replace("samples = 100", "samples = \u0663"), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == "error: cannot read value '\u0663' (line 51, col 12)\n"
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
    ({"tail": "[numeric]\ntol = -1.0"},
     "numeric.tol: expected finite and at least 0, found -1.0"),
    ({"tail": "[numeric]\ntol_fd = -1.0"},
     "numeric.tol_fd: expected finite and at least 0, found -1.0"),
    ({"tail": "[numeric]\ntol_fd = 1e999"},
     "numeric.tol_fd: expected finite and at least 0, found inf"),
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
], ids=["seed", "samples", "samples-zero", "symmetry-samples-negative",
        "tol-negative", "tol-fd-negative", "tol-fd-infinite", "box",
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


@pytest.mark.parametrize("edit, message", [
    ({"L": '"d(q,t) +"'}, "lagrangian.L: unexpected token '' (line 1, col 9)"),
    ({"tail": '[connection.c]\ngamma = [["q)"]]'},
     "connection.c.gamma: unexpected trailing input ')' (line 1, col 2)"),
    ({"tail": '[vectorfield.v]\nbase = ["1"]\nfiber = ["q*"]'},
     "vectorfield.v.fiber: unexpected token '' (line 1, col 3)"),
    ({"tail": '[section.s]\ncomponents = ["sin("]'},
     "section.s.components: unexpected token '' (line 1, col 5)"),
    ({"tail": '[jetfield.j]\nF = [["1"]]\nG = [[["q^"]]]'},
     "jetfield.j.G: expected 'num', found '' (line 1, col 3)"),
    ({"tail": '[diffeo.f]\nfiber = ["q"]\nbase_inverse = ["t t"]'},
     "diffeo.f.base_inverse: unexpected trailing input 't' (line 1, col 3)"),
    ({"tail": '[numeric]\nrequire = ["q + > 1"]'},
     "numeric.require: unexpected token '' (line 1, col 4)"),
], ids=["L", "gamma", "vectorfield", "section", "jetfield", "diffeo", "require"])
def test_parse_error_names_table_and_key(tmp_path, capsys, edit, message):
    fields = {"head": "", "base": '["t"]', "L": '"1/2*d(q,t)^2"', "tail": ""}
    f = tmp_path / "malformed.toml"
    f.write_text(TYPED.format(**{**fields, **edit}))
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def write_box(tmp_path, box):
    f = tmp_path / "box.toml"
    f.write_text(TYPED.format(head="", base='["t", "x"]', L='"1/2*d(q,t)^2"',
                              tail=f"[numeric]\nbox = {box}"))
    return str(f)


@pytest.mark.parametrize("box, message", [
    ('[["q", 0, 1e400]]', "expected finite bounds, found ['q', 0, inf]"),
    ('[["q", -1e400, 0]]', "expected finite bounds, found ['q', -inf, 0]"),
    ('[["q", 1, 0]]', "expected lo <= hi, found ['q', 1, 0]"),
    ('[["q", 0, 1], ["t", 0, 1], ["q", -1, 2]]',
     "'q' is given twice, found ['q', -1, 2]"),
    ('[["dd(q,t,x)", 0, 1], ["dd(q,x,t)", 0, 1]]',
     "'dd(q,t,x)' is given twice, found ['dd(q,x,t)', 0, 1]"),
], ids=["infinite-hi", "infinite-lo", "reversed", "twice", "twice-spelled-apart"])
def test_malformed_box_entry_exits_2(tmp_path, capsys, box, message):
    # an infinite bound made every finite-difference check fail with a NaN
    # deviation; a reversed interval or a repeated name passed silently
    code, out, err = run(capsys, "verify", write_box(tmp_path, box))
    assert code == 2 and out == ""
    assert err.startswith(f"error: numeric.box: {message}\n")


def test_zero_width_box_is_legal(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", write_box(tmp_path, '[["q", 0.5, 0.5]]'))
    assert code == 0 and "[FAIL]" not in out


def test_import_leaves_json_unloaded():
    # json is imported by the JSON renderers only; -S keeps any site-packages
    # .pth file from importing it first
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, cartanforge, cartanforge.cli; print('json' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=src,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
