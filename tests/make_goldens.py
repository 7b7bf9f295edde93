"""Generate tests/data/<problem>.<command>.golden from the command line.

Each golden file holds the exact stdout of

    cartanforge <command> problems/<problem>.toml --format json

for the commands in COMMANDS and the problems in PROBLEMS, so a rewrite
cannot change an answer unnoticed.  nambu_string is left out: its `verify`
takes about 12 s, its `jetfield-el` without `--jetfield` does not finish in
minutes, and its other outputs total 730 KB; polyakov_string covers the
box-and-guard sampling path.

Run from the tests directory after a change that is meant to alter the
outputs:

    python make_goldens.py           # rewrite the golden files
    python make_goldens.py --json    # print {file name: output} as JSON

The second form is what tests/test_goldens.py runs in a subprocess per
PYTHONHASHSEED.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from cartanforge import cli  # noqa: E402

PROBLEMS = ["free_particle", "harmonic_oscillator", "wave_1p1", "maxwell",
            "polyakov_string"]
COMMANDS = ["verify", "derive-el", "cartan-forms", "jetfield-el"]
DATA = os.path.join(HERE, "data")


def golden_name(problem, command):
    return f"{problem}.{command}.golden"


def outputs():
    """Run every (problem, command) pair; file name -> stdout text."""
    out = {}
    for problem in PROBLEMS:
        path = os.path.join(HERE, "..", "problems", problem + ".toml")
        for command in COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([command, path, "--format", "json"])
            if code != 0:
                raise SystemExit(f"{command} {problem} exited {code}")
            out[golden_name(problem, command)] = buf.getvalue()
    return out


def main():
    got = outputs()
    if "--json" in sys.argv[1:]:
        sys.stdout.write(json.dumps(got, sort_keys=True))
        return
    os.makedirs(DATA, exist_ok=True)
    for name, text in sorted(got.items()):
        with open(os.path.join(DATA, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        print(f"wrote {os.path.join(DATA, name)}")


if __name__ == "__main__":
    main()
