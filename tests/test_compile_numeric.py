"""compile_numeric against the evaluate_numeric tree walk, bit for bit."""

import math
import time
from fractions import Fraction

import pytest

from cartanforge import expr as ex
from cartanforge.errors import NumericDomain, UnboundVariable

import randgen


x, y, z = ex.var("x"), ex.var("y"), ex.var("z")
NAMES = ["x", "y", "z"]


def outcome(fn):
    """float.hex of the value, or the exception's class and message."""
    try:
        return fn().hex()
    except Exception as err:
        return type(err), str(err)


def same(e, pt):
    ref = outcome(lambda: ex.evaluate_numeric(e, pt))
    assert outcome(lambda: ex.compile_numeric(e)(pt)) == ref, ex.to_text(e)
    return ref


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_random_corpus_bit_identical(seed):
    r = randgen.rng(seed)
    for _ in range(60):
        e = randgen.smooth_expr(r, NAMES, depth=4)
        for _ in range(4):
            assert isinstance(same(e, randgen.sample_point(r, NAMES)), str)


def test_special_points_match():
    r = randgen.rng(21)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 2, Fraction(1, 3)]
    for _ in range(40):
        e = randgen.smooth_expr(r, NAMES, depth=3)
        for v in specials:
            same(e, {"x": v, "y": 0.5, "z": -0.25})


@pytest.mark.parametrize("e, pt, cls", [
    (ex.div(ex.ONE, x), {"x": 0.0}, NumericDomain),             # 0 ** -1
    (ex.pow_(x, Fraction(-1, 2)), {"x": 0.0}, NumericDomain),   # 0 ** -1/2
    (ex.func("log", x), {"x": 0.0}, NumericDomain),
    (ex.func("log", x), {"x": -1.0}, NumericDomain),
    (ex.func("sqrt", x), {"x": -2.0}, NumericDomain),
    (ex.pow_(x, Fraction(3, 4)), {"x": -1.0}, NumericDomain),
    (ex.add(x, y), {"x": 1.0}, UnboundVariable),
    (ex.mul(x, ex.func("sin", z)), {"x": 1.0}, UnboundVariable),
    (ex.add(x, ex.Rat(10 ** 400)), {"x": 1.0}, NumericDomain),
    (ex.mul(ex.Rat(Fraction(-(10 ** 400), 7)), x), {"x": 1.0}, NumericDomain),
    (ex.func("exp", x), {"x": 1000.0}, NumericDomain),          # overflow
    (ex.pow_(x, 400), {"x": 1e10}, NumericDomain),
])
def test_domain_failures_raise_the_same_class(e, pt, cls):
    fn = ex.compile_numeric(e)      # compiling never evaluates
    with pytest.raises(cls) as ref:
        ex.evaluate_numeric(e, pt)
    with pytest.raises(cls) as got:
        fn(pt)
    assert str(got.value) == str(ref.value)


def test_large_but_finite_rational_compiles_to_its_float():
    e = ex.mul(ex.Rat(Fraction(10 ** 400 + 1, 10 ** 399)), x)
    assert same(e, {"x": 0.75}) == (7.5).hex()


def test_repeated_subtree():
    # structurally equal subtrees built separately share one local
    s1 = ex.func("sin", ex.add(x, ex.mul(ex.rat(1, 3), y)))
    s2 = ex.func("sin", ex.add(ex.mul(ex.rat(1, 3), y), x))
    e = ex.add(ex.mul(s1, ex.func("cos", s2)), ex.func("exp", s1),
               ex.pow_(ex.add(s2, ex.rat(2)), Fraction(1, 2)))
    r = randgen.rng(5)
    for _ in range(50):
        same(e, randgen.sample_point(r, NAMES))


def test_tree_300_levels_deep():
    e = x
    for i in range(300):
        e = ex.func("sin", e) if i % 2 else ex.add(e, ex.rat(1, 3))
    assert same(e, {"x": 0.3}) == ex.evaluate_numeric(e, {"x": 0.3}).hex()


def test_tree_walk_evaluates_each_shared_subtree_once():
    # 2^20 paths through 41 distinct nodes: a walk over every path takes
    # seconds, one over the distinct nodes milliseconds
    e = x
    for _ in range(20):
        e = ex.add(ex.func("sin", e), ex.func("cos", e))
    start = time.perf_counter()
    assert same(e, {"x": 0.3}) == ex.compile_numeric(e)({"x": 0.3}).hex()
    assert time.perf_counter() - start < 0.5


def test_function_is_cached_on_the_node():
    e = ex.add(ex.pow_(x, 2), ex.func("cos", y))
    assert ex.compile_numeric(e) is ex.compile_numeric(e)
