"""The term-by-term kernels against the expand-always oracle (oracle.py).

``mul``, ``differentiate`` and ``exterior_d`` must return the very node the
reference copies build, on seeded expressions and forms whose products
collide on every kind of base: variables and functions (merged by the
monomial kernel) and rationals, sums and products under roots (where
``pow_`` folding can give a rational, a sum or a base that merges again).
"""

import os
from fractions import Fraction

import pytest

from cartanforge import chart as ch
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge.errors import DomainFunction
from cartanforge.lagrangian import cartan_forms
from cartanforge.problem import parse_problem

import oracle
import randgen

PROBLEMS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "problems")
x, y = ex.var("x"), ex.var("y")
S = ex.add(x, y)
HALF = Fraction(1, 2)

ATOMS = [
    x, y, ex.pow_(x, -1), ex.pow_(y, 2), ex.pow_(x, 3),
    ex.func("sin", x), ex.pow_(ex.func("sin", x), -2), ex.func("exp", y),
    ex.func("cos", S), ex.func("sign", x),
    ex.pow_(ex.func("abs", x), HALF), ex.pow_(ex.func("abs", y), Fraction(-3, 2)),
    ex.func("sqrt", ex.rat(2)), ex.func("sqrt", ex.rat(3)),
    ex.pow_(ex.rat(2), Fraction(-1, 2)), ex.pow_(ex.rat(2), Fraction(3, 2)),
    ex.func("sqrt", S), ex.pow_(S, -1), ex.pow_(S, Fraction(-1, 2)),
    ex.pow_(S, Fraction(3, 2)), ex.func("sqrt", ex.mul(x, y)),
    ex.pow_(ex.mul(x, y), Fraction(-1, 2)),
]


def random_term(r):
    t = ex.Rat(randgen.rational(r, lo=-3, hi=3) or 1)
    for _ in range(r.randint(0, 3)):
        t = ex.mul(t, r.choice(ATOMS))
    return t


def random_sum(r, terms=4):
    return ex.add(*(random_term(r) for _ in range(r.randint(1, terms))))


def outcome(fn, *args):
    """The node fn returns, or DomainFunction when it raises that."""
    try:
        return fn(*args)
    except DomainFunction as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(800, 820))
def test_mul_is_the_oracle_product(seed):
    r = randgen.rng(seed)
    for _ in range(12):
        a, b, c = random_sum(r), random_sum(r), random_sum(r, terms=2)
        assert ex.mul(a, b) is oracle.mul(a, b)
        assert ex.mul(a, b, c) is oracle.mul(a, b, c)
        s, t = random_term(r), random_term(r)
        assert ex.mul(s, a, t) is oracle.mul(s, a, t)
    names = ["x", "y"]
    for _ in range(6):
        a = randgen.smooth_expr(r, names)
        b = randgen.smooth_expr(r, names)
        assert ex.mul(a, b) is oracle.mul(a, b)


@pytest.mark.parametrize("seed", range(820, 840))
def test_differentiate_is_the_oracle_derivative(seed):
    r = randgen.rng(seed)
    exprs = [random_sum(r) for _ in range(6)]
    exprs += [ex.mul(random_sum(r, 2), random_sum(r, 2)) for _ in range(3)]
    exprs += [randgen.smooth_expr(r, ["x", "y"]) for _ in range(4)]
    for e in exprs:
        for name in ("x", "y"):
            assert outcome(ex.differentiate, e, name) is outcome(
                oracle.differentiate, e, name), ex.to_text(e)


@pytest.mark.parametrize("e, want", [
    (ex.mul(x, ex.pow_(x, -1)), ex.ONE),
    (ex.mul(ex.func("sin", x), ex.pow_(ex.func("sin", x), 2)),
     ex.pow_(ex.func("sin", x), 3)),
    (ex.mul(ex.func("sqrt", ex.rat(2)), ex.func("sqrt", ex.rat(2))), ex.rat(2)),
    (ex.mul(ex.func("sqrt", S), ex.func("sqrt", S)), S),
])
def test_colliding_bases_fold(e, want):
    assert e is want


@pytest.mark.parametrize("factors", [
    # three roots of 2 fold to 2^(3/2) over the whole product, not 2*sqrt(2)
    [ex.add(ex.func("sqrt", ex.rat(2)), x), ex.add(ex.func("sqrt", ex.rat(2)), y),
     ex.add(ex.func("sqrt", ex.rat(2)), x)],
    [ex.func("sqrt", S), ex.func("sqrt", S), x],
    [ex.add(ex.func("sqrt", S), x), ex.add(ex.func("sqrt", S), y)],
    [ex.add(ex.pow_(S, -1), x), ex.add(S, ex.func("sqrt", S))],
    [ex.add(ex.func("sqrt", ex.mul(x, y)), x), ex.add(ex.func("sqrt", ex.mul(x, y)), y)],
    [ex.rat(3), x, ex.add(ex.pow_(x, -1), ex.func("sin", x)),
     ex.add(ex.pow_(ex.func("sin", x), -1), y)],
    [ex.mul(ex.rat(1, 2), ex.func("sqrt", ex.rat(2))), ex.add(ex.func("sqrt", ex.rat(2)), y)],
])
def test_collisions_match_the_oracle(factors):
    assert ex.mul(*factors) is oracle.mul(*factors)
    p = ex.mul(*factors)
    for name in ("x", "y"):
        assert ex.differentiate(p, name) is oracle.differentiate(p, name)
    q = ex.add(*(ex.mul(y, f) for f in factors))
    for name in ("x", "y"):
        assert ex.differentiate(q, name) is oracle.differentiate(q, name)


CH = ch.make_chart(["x0", "x1"], ["u"])
JS = fm.jet_space(CH)


def random_form(r, degree, terms=3):
    names = list(JS.coords)
    pool = [ex.var(n) for n in names] + [
        ex.func("sin", ex.var("u")), ex.func("sqrt", ex.add(ex.var("x0"), ex.var("u"))),
        ex.pow_(ex.add(ex.var("x1"), ex.var("u")), -1), ex.func("sqrt", ex.rat(2)),
        ex.pow_(ex.func("abs", ex.var("u")), HALF)]
    coeffs = {}
    for _ in range(terms):
        key = tuple(sorted(r.sample(range(len(names)), degree)))
        c = ex.Rat(randgen.rational(r) or 1)
        for _ in range(r.randint(1, 3)):
            c = ex.mul(c, r.choice(pool))
        coeffs[key] = ex.add(coeffs.get(key, ex.ZERO), c, ex.mul(
            c, randgen.poly(r, names, max_degree=2, terms=2)))
    return fm.Form(JS, degree, coeffs)


def assert_same_form(got, want):
    assert got.degree == want.degree and got.coeffs.keys() == want.coeffs.keys()
    for k, c in want.coeffs.items():
        assert got.coeffs[k] is c, k


@pytest.mark.parametrize("seed", range(840, 852))
def test_exterior_d_is_the_oracle_d(seed):
    r = randgen.rng(seed)
    nonzero = 0
    for degree in (0, 1, 2):
        a = random_form(r, degree)
        try:
            want = oracle.exterior_d(a)
        except DomainFunction:   # sqrt(abs(u))^2 leaves a bare abs(u)
            with pytest.raises(DomainFunction):
                fm.exterior_d(a)
            continue
        got = fm.exterior_d(a)
        assert_same_form(got, want)
        nonzero += not got.is_zero()
    assert nonzero >= 2


@pytest.mark.parametrize("name", ["wave_1p1", "maxwell", "polyakov_string"])
def test_exterior_d_of_theta_is_the_oracle_d(name):
    lag = parse_problem(os.path.join(PROBLEMS, name + ".toml")).lagrangian
    theta = cartan_forms(lag).theta
    got = fm.exterior_d(theta)
    assert not got.is_zero()
    assert_same_form(got, oracle.exterior_d(theta))


def test_exterior_d_raises_on_bare_abs_every_time():
    u = ex.var("u")
    a = fm.Form(JS, 1, {(0,): ex.mul(ex.func("sin", u), ex.func("abs", u)),
                        (1,): ex.mul(u, ex.func("abs", u))})
    for _ in range(2):
        with pytest.raises(DomainFunction):
            fm.exterior_d(a)
