"""Frozen command-line outputs, compared byte for byte across processes.

make_goldens.py runs every (problem, command) pair it lists in one fresh
interpreter per PYTHONHASHSEED; every output must equal its
tests/data/*.golden file.
"""

import json
import os
import subprocess
import sys

import pytest

import make_goldens

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEEDS = ("0", "1")


@pytest.fixture(scope="module")
def runs():
    procs = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        procs[seed] = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "make_goldens.py"), "--json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = {}
    for seed, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr.decode()
        out[seed] = json.loads(stdout)
    return out


@pytest.mark.parametrize("seed", HASH_SEEDS)
@pytest.mark.parametrize(("problem", "command"), make_goldens.PAIRS,
                         ids=[f"{c}-{p}" for p, c in make_goldens.PAIRS])
def test_golden_output(runs, seed, problem, command):
    name = make_goldens.golden_name(problem, command)
    with open(os.path.join(make_goldens.DATA, name), encoding="utf-8",
              newline="") as fh:
        want = fh.read()
    assert runs[seed][name] == want, name
