"""Seeded mutations of the corpus files, run in process through `cli.main`.

The promise under test: whatever a problem file holds, a command ends with
exit 0, 1 (only `verify`, on a failed check) or 2 (a `CartanforgeError`,
whose text is the first line of stderr, `error: ...`), and no other
exception escapes.  Every mutant is seeded, so a failure replays.

- `test_token_mutations_keep_the_exit_code_promise` replaces, inserts or
  deletes a few tokens of a corpus file, drawing spliced tokens from
  `SPLICE` (out-of-range numbers, `0^-1`, oversized rationals, unbalanced
  brackets and quotes, non-ASCII digits, NUL, stray operators), and runs
  one of the file's commands on the mutant, every command in turn.
- `test_a_non_ascii_digit_is_never_a_digit` puts a non-ASCII digit of the
  same value in place of each ASCII digit outside a comment, one at a
  time: every such file exits 2, wherever the digit stands (an expression,
  a TOML number, a bare key, a guard threshold).

nambu's `jetfield-el` is left out to keep the test short: its solve runs
about 0.3 s before it stops on the expansion bound.
"""

import contextlib
import io
import os
import random
import re

import pytest

from cartanforge import cli
from cartanforge.problem import parse_problem

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")
CORPUS = sorted(n for n in os.listdir(PROBLEMS) if n.endswith(".toml"))

SPLICE = (
    "1e400", "-1e400", "1e-400", "nan", "inf", "0^-1", "1/0", "0^0", "^-1",
    "2" * 4300, "9" * 4301, "7^99999",
    "(", ")", "[", "]", "[[", "]]", '"', "'", '"""',
    ",", "=", ".", "#", "+", "-", "*", "/", "^", "\\", "\n", "\x00",
    "٣", "²", "①", "７", "é", "sqrt(-1)", "log(0)",
    "abs(", "sign(", "d(q,t)", "dd(q,t,t)", "x0", "t", "true", "check",
)
TOKEN = re.compile(r"[A-Za-z0-9_]+|\s+|.", re.S)
STRING = re.compile(r'"([^"\n]*)"')
# a non-ASCII digit of each value, cycling through three scripts
NON_ASCII = ("٠", "０", "०")


def run(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def commands(name):
    """Every command, with the first declared name each option wants."""
    p = parse_problem(os.path.join(PROBLEMS, name))

    def first(table):
        return min(table, default="none")
    conn, sec = first(p.connections), first(p.sections)
    vf, jf = first(p.vectorfields), first(p.jetfields)
    out = [["derive-el"], ["cartan-forms"], ["energy", "--connection", conn],
           ["legendre-diff", "--connection", conn],
           ["curvature", "--connection", conn],
           ["check-section", "--section", sec, "--connection", conn],
           ["symmetry", "--vectorfield", vf],
           ["noether", "--vectorfield", vf, "--along", sec],
           ["verify"], ["verify", "--format", "json"]]
    if name != "nambu_string.toml":
        out += [["jetfield-el"], ["jetfield-el", "--jetfield", jf]]
    return out


def holds_promise(argv):
    code, _, err = run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
        assert code == 0 or argv[0] == "verify", argv
    return code


def mutate(r, text):
    """`text` with one to three tokens replaced, inserted or deleted: half
    the time inside one double-quoted string (an expression or a name),
    else anywhere in the file."""
    if r.random() < 0.5:
        lo, hi = r.choice([m.span(1) for m in STRING.finditer(text)])
        return text[:lo] + mutate_tokens(r, text[lo:hi]) + text[hi:]
    return mutate_tokens(r, text)


def mutate_tokens(r, text):
    toks = TOKEN.findall(text) or [""]
    for _ in range(r.choice((1, 1, 2, 3))):
        i = r.randrange(len(toks))
        how = r.randrange(3)
        if how == 0:
            toks[i] = r.choice(SPLICE)
        elif how == 1:
            toks.insert(i, r.choice(SPLICE))
        elif len(toks) > 1:
            del toks[i]
    return "".join(toks)


@pytest.mark.parametrize("seed", range(4))
def test_token_mutations_keep_the_exit_code_promise(seed, tmp_path):
    r = random.Random(7100 + seed)
    path = str(tmp_path / "mutant.toml")
    codes = []
    for name in CORPUS:
        text = open(os.path.join(PROBLEMS, name), encoding="utf-8").read()
        for argv in commands(name):
            with open(path, "w", encoding="utf-8") as f:
                f.write(mutate(r, text))
            codes.append(holds_promise([argv[0], path, *argv[1:]]))
    assert 2 in codes


def digit_swaps(text):
    """`text` with one ASCII digit outside a comment made non-ASCII, for
    each such digit in turn."""
    for m in re.finditer(r"[0-9]", text):
        if "#" in text[text.rfind("\n", 0, m.start()) + 1:m.start()]:
            continue
        digit = NON_ASCII[m.start() % 3]
        yield text[:m.start()] + chr(ord(digit) + int(m.group())) + text[m.end():]


@pytest.mark.parametrize("name", CORPUS)
def test_a_non_ascii_digit_is_never_a_digit(name, tmp_path):
    text = open(os.path.join(PROBLEMS, name), encoding="utf-8").read()
    path = str(tmp_path / "mutant.toml")
    swaps = 0
    for mutant in digit_swaps(text):
        with open(path, "w", encoding="utf-8") as f:
            f.write(mutant)
        code, _, err = run(["derive-el", path])
        assert code == 2 and err.startswith("error: "), (mutant, err)
        swaps += 1
    assert swaps > 10
