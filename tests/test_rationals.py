"""Rationals in the expression nodes: reduced int pairs, ``Fraction`` only
at the API boundary.

A ``Rat`` holds ``num``/``den`` and a ``Pow`` its exponent the same way;
``.value`` and ``.exponent`` build the equal ``Fraction`` when read.  The
laws below hold on every rational of the seeded ``randgen`` corpora and of
their derivatives, and the paper's constructions on the Nambu string build
no ``Fraction`` at all.
"""

import copy
import os
import pickle
from fractions import Fraction

import pytest

from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import lagrangian as lg
from cartanforge.errors import NumericDomain
from cartanforge.harness import run_identity_catalog
from cartanforge.problem import parse_problem

import randgen

PROBLEMS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "problems")


def nambu():
    return parse_problem(os.path.join(PROBLEMS, "nambu_string.toml")).lagrangian


def _corpus(seed):
    """Smooth and wild expressions, each with its x-derivative."""
    r = randgen.rng(seed)
    names = randgen.NUMERIC_NAMES
    exprs = [e for e, _ in randgen.smooth_corpus(seed)]
    exprs += [randgen.wild_expr(r, names, depth=3) for _ in range(40)]
    return exprs + [ex.differentiate(e, "x") for e in exprs]


def _nodes(roots):
    seen, stack = set(), list(roots)
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            stack.extend(ex._children(e))
    return seen


def _assert_reduced(n, d):
    assert type(n) is int and type(d) is int
    assert d > 0 and Fraction(n, d).denominator == d


@pytest.mark.parametrize("seed", range(900, 904))
def test_every_rational_is_a_reduced_pair_with_its_fraction_at_the_boundary(seed):
    nodes = _nodes(_corpus(seed))
    rats = [e for e in nodes if isinstance(e, ex.Rat)]
    pows = [e for e in nodes if isinstance(e, ex.Pow)]
    assert len(rats) > 20 and len(pows) > 20
    too_large = 0
    for e in rats:
        _assert_reduced(e.num, e.den)
        v = Fraction(e.num, e.den)
        assert type(e.value) is Fraction and e.value == v
        assert ex.to_text(e) == str(v)
        try:
            want = float(v)
        except OverflowError as exc:
            too_large += 1
            with pytest.raises(NumericDomain) as err:
                ex.evaluate_numeric(e, {})
            assert str(err.value) == f"overflow: {exc}"
        else:
            assert ex.evaluate_numeric(e, {}) == want
    for e in pows:
        _assert_reduced(e.num, e.den)
        assert type(e.exponent) is Fraction
        assert e.exponent == Fraction(e.num, e.den)
    for e in rats + pows:
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e
    if seed == 900:
        assert too_large    # the wild corpus holds 400-digit rationals


def test_public_constructors_normalise_ints_fractions_and_text():
    x = ex.var("x")
    half = ex.rat(1, 2)
    assert (half.num, half.den) == (1, 2)
    assert ex.Rat(Fraction(2, 4)) is half
    assert ex.Rat("0.5") is half
    assert ex.Rat(2, 4) is half
    assert ex.Rat(-2, -4) is half
    assert ex.Rat(2, -4) is ex.rat(-1, 2)
    assert ex.Rat(0, -7) is ex.ZERO
    assert ex.Pow(x, 2, 4) is ex.Pow(x, Fraction(1, 2)) is ex.pow_(x, "1/2")
    with pytest.raises(ZeroDivisionError):
        ex.Rat(1, 0)


def test_nambu_constructions_build_no_fraction(monkeypatch):
    # the kernels carry every rational as an int pair, so the paper's
    # constructions build no Fraction (4,110 when nodes held Fractions), and
    # neither does the identity catalog on the parsed problem (108 when its
    # seeded gamma tables built each coefficient from a Fraction)
    problem = parse_problem(os.path.join(PROBLEMS, "nambu_string.toml"))
    lag = problem.lagrangian
    built = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    forms = lg.cartan_forms(lag)
    fm.exterior_d(forms.omega)
    lg.derive_el(lag)
    lg.jetfield_el(lag)
    results = run_identity_catalog(problem)
    monkeypatch.undo()
    assert forms.omega.coeffs and results
    assert len(built) == 0


def test_printing_nambu_omega_interns_no_node(monkeypatch):
    # a negative term prints from its coefficient pair and factor tuple
    omega = lg.cartan_forms(nambu()).omega
    want = omega.describe()
    interned = []
    real_intern = ex._intern

    def counted(cls, k, *fields):
        interned.append(k)
        return real_intern(cls, k, *fields)

    monkeypatch.setattr(ex, "_intern", counted)
    assert omega.describe() == want
    assert " - " in want
    assert len(interned) == 0
