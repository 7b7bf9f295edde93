"""The statements `emit_numeric` writes, which the sampling kernels run,
against the `evaluate_numeric` tree walk, bit for bit.

`emitted` compiles an expression's statements into one function, as a
kernel holds them but without the kernel's replay.  Where the walk returns
a value, the statements return the same bits.  Where the walk raises, they
raise one of the classes a kernel catches (`NUMERIC_NS["_Rerun"]`); the
kernel then replays its point through the walk, so the error's class and
message are the walk's.  The inputs whose point a box can draw also run
through a kernel in `test_sampling_kernel.py`, error text included.
"""

import math
import time
from fractions import Fraction

import pytest

from cartanforge import expr as ex
from cartanforge.errors import NumericDomain, UnboundVariable

import randgen


x, y, z = ex.var("x"), ex.var("y"), ex.var("z")
NAMES = randgen.NUMERIC_NAMES
RERUN = ex.NUMERIC_NS["_Rerun"]


def emitted(e):
    """`e`'s statements from `emit_numeric` as a function of the point."""
    lines, consts = [], {}
    out = ex.emit_numeric(e, {}, lines, consts)
    body = "".join(f"    {line}\n" for line in lines)
    ns = dict(ex.NUMERIC_NS, **consts)
    exec(compile(f"def f(p):\n{body}    return {out}\n", "<emitted>", "exec"),
         ns)
    return ns["f"]


def outcome(fn):
    """float.hex of the value, or the exception's class and message."""
    try:
        return fn().hex()
    except Exception as err:
        return type(err), str(err)


def same(e, pt):
    """The walk's outcome at `pt`, once the statements have matched it: the
    same bits, or a raise where the walk raises."""
    ref = outcome(lambda: ex.evaluate_numeric(e, pt))
    try:
        got = emitted(e)(pt).hex()
    except RERUN:
        got = "raised"
    assert got == (ref if isinstance(ref, str) else "raised"), ex.to_text(e)
    return ref


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_random_corpus_bit_identical(seed):
    for e, points in randgen.smooth_corpus(seed):
        for pt in points:
            assert isinstance(same(e, pt), str)


def test_special_points_match():
    r = randgen.rng(21)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 2, Fraction(1, 3)]
    for _ in range(40):
        e = randgen.smooth_expr(r, NAMES, depth=3)
        for v in specials:
            got = same(e, {"x": v, "y": 0.5, "z": -0.25})
            assert isinstance(got, str) or got[0] is NumericDomain


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
    (ex.sub(x, y), {"x": math.inf, "y": math.inf}, NumericDomain),  # fsum
    (ex.func("sin", x), {"x": -math.inf}, NumericDomain),
])
def test_domain_failures_raise_the_same_class(e, pt, cls):
    fn = emitted(e)      # compiling never evaluates
    with pytest.raises(cls):
        ex.evaluate_numeric(e, pt)
    with pytest.raises(RERUN):
        fn(pt)


def test_invalid_operations_are_domain_errors():
    with pytest.raises(NumericDomain, match=r"^invalid operation: -inf \+ inf "
                                            r"in fsum$"):
        ex.evaluate_numeric(ex.sub(x, y), {"x": math.inf, "y": math.inf})
    for fname in ("sin", "cos"):
        with pytest.raises(NumericDomain,
                           match="^invalid operation: math domain error$"):
            ex.evaluate_numeric(ex.func(fname, x), {"x": math.inf})


def test_large_but_finite_rational_compiles_to_its_float():
    e = ex.mul(ex.Rat(Fraction(10 ** 400 + 1, 10 ** 399)), x)
    assert same(e, {"x": 0.75}) == (7.5).hex()


def test_repeated_subtree():
    # structurally equal subtrees built separately share one local
    e, points = randgen.repeated_subtree()
    lines = []
    ex.emit_numeric(e, {}, lines, {})
    assert sum("_sin(" in line for line in lines) == 1
    for pt in points:
        assert isinstance(same(e, pt), str)


def test_tree_300_levels_deep():
    e, [pt] = randgen.deep_tree()
    assert same(e, pt) == emitted(e)(pt).hex()


def test_tree_walk_evaluates_each_shared_subtree_once():
    # a walk over every path takes seconds, one over the distinct nodes
    # milliseconds
    e, [pt] = randgen.shared_dag()
    start = time.perf_counter()
    assert same(e, pt) == emitted(e)(pt).hex()
    assert time.perf_counter() - start < 0.5
