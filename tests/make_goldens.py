"""Generate tests/data/<problem>.<command>.golden from the command line.

Each golden file holds the exact stdout of

    cartanforge <command> problems/<problem>.toml --format json

for each problem in PROBLEMS and each command listed for it, so a rewrite
cannot change an answer unnoticed.  `symmetry`, `noether` and
`check-section` run once per declared vector field, (vector field,
section) pair and section, in name order; their golden file is the
concatenation of those runs, each preceded by a line `$ <options>`.
nambu_string's `jetfield-el` without `--jetfield` has none: its elimination
stops on the expression size bound (exit 2), which tests/test_cli.py pins
instead.  Its `verify` guards the largest expression the corpus builds, the
Nambu Poincare-Cartan form, but only through checks that pass, and
dOmega = 0 there.  Its `derive-el` and `cartan-forms` outputs, which print that form
and the Euler-Lagrange equations in full, total 730 KB, so their golden
files (DIGESTED) hold the SHA-256 hex digest of the output, not the output
itself.  polyakov_string covers the box-and-guard sampling path.

`verify-1000` is `verify --samples 1000`, ten times the declared samples,
on the four small problems whose catalog is mostly sampling: it freezes the
seeded sampler's worst deviations and witnesses over many points.  Those
golden files are digests too.

Run from the tests directory after a change that is meant to alter the
outputs:

    python make_goldens.py           # rewrite the golden files
    python make_goldens.py --json    # print {file name: output} as JSON
    python make_goldens.py --check   # write nothing; exit 1 naming each
                                     # golden file whose bytes differ

The second form is what tests/test_goldens.py runs in a subprocess per
PYTHONHASHSEED.  The third needs no pytest, so it also runs under the
oldest supported Python.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from cartanforge import cli  # noqa: E402
from cartanforge.problem import parse_problem  # noqa: E402

COMMANDS = ["verify", "derive-el", "cartan-forms", "jetfield-el",
            "symmetry", "noether", "check-section"]
# commands that are another command run with fixed options
ALIASES = {"verify-1000": ("verify", ["--samples", "1000"])}
SAMPLED = ["free_particle", "harmonic_oscillator", "wave_1p1", "maxwell"]
PROBLEMS = {
    **{problem: COMMANDS + ["verify-1000"] for problem in SAMPLED},
    "polyakov_string": COMMANDS,
    "nambu_string": ["verify", "derive-el", "cartan-forms"],
}
# (problem, command) pairs whose golden file is the digest of the output
DIGESTED = {("nambu_string", "derive-el"), ("nambu_string", "cartan-forms"),
            *((problem, "verify-1000") for problem in SAMPLED)}
PAIRS = [(problem, command) for problem, commands in PROBLEMS.items()
         for command in commands]
DATA = os.path.join(HERE, "data")


def golden_name(problem, command):
    if (problem, command) in DIGESTED:
        return f"{problem}.{command}.sha256"
    return f"{problem}.{command}.golden"


def invocations(path, command):
    """The option lists one (problem, command) pair runs with."""
    if command not in ("symmetry", "noether", "check-section"):
        return [[]]
    problem = parse_problem(path)
    fields = sorted(problem.vectorfields)
    sections = sorted(problem.sections)
    if command == "symmetry":
        return [["--vectorfield", v] for v in fields]
    if command == "check-section":
        return [["--section", s] for s in sections]
    return [["--vectorfield", v, "--along", s] for v in fields for s in sections]


def outputs():
    """Run every (problem, command) pair; file name -> stdout text."""
    out = {}
    for problem, command in PAIRS:
        path = os.path.join(HERE, "..", "problems", problem + ".toml")
        name, fixed = ALIASES.get(command, (command, []))
        text = []
        for options in invocations(path, command):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([name, path, *fixed, *options,
                                 "--format", "json"])
            if code != 0:
                raise SystemExit(f"{command} {problem} {options} exited {code}")
            if options:
                text.append("$ " + " ".join(options) + "\n")
            text.append(buf.getvalue())
        text = "".join(text)
        if (problem, command) in DIGESTED:
            text = hashlib.sha256(text.encode("utf-8")).hexdigest() + "\n"
        out[golden_name(problem, command)] = text
    return out


def stale(got):
    """Names of the golden files whose bytes differ from `got`."""
    out = []
    for name, text in sorted(got.items()):
        path = os.path.join(DATA, name)
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                same = fh.read() == text
        except FileNotFoundError:
            same = False
        if not same:
            out.append(name)
    return out


def main():
    got = outputs()
    if "--json" in sys.argv[1:]:
        sys.stdout.write(json.dumps(got, sort_keys=True))
        return
    if "--check" in sys.argv[1:]:
        differ = stale(got)
        for name in differ:
            print(f"differs: {os.path.join(DATA, name)}")
        sys.exit(1 if differ else 0)
    os.makedirs(DATA, exist_ok=True)
    for name, text in sorted(got.items()):
        with open(os.path.join(DATA, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        print(f"wrote {os.path.join(DATA, name)}")


if __name__ == "__main__":
    main()
