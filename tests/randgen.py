"""Seeded random expression corpora shared by the test modules."""

import random
from fractions import Fraction

from cartanforge import expr as ex


def rng(seed):
    return random.Random(seed)


def rational(r, lo=-3, hi=3, dens=(1, 2, 3, 4)):
    num = r.randint(lo, hi)
    den = r.choice(dens)
    return Fraction(num, den)


def monomial(r, names, max_degree):
    total = r.randint(0, max_degree)
    f = ex.Rat(rational(r))
    for _ in range(total):
        f = ex.mul(f, ex.var(r.choice(names)))
    return f


def poly(r, names, max_degree=3, terms=4):
    """Random polynomial with rational coefficients; may be zero."""
    return ex.add(*(monomial(r, names, max_degree) for _ in range(r.randint(1, terms))))


def nonzero_poly(r, names, max_degree=3, terms=4):
    while True:
        p = poly(r, names, max_degree, terms)
        if not p.is_zero():
            return p


def smooth_expr(r, names, depth=2):
    """Random expression built from pieces that stay finite on [-1, 1]^n.

    sqrt/log arguments are shifted to stay positive on the sample box.
    """
    if depth == 0 or r.random() < 0.35:
        return poly(r, names, max_degree=2, terms=3)
    kind = r.choice(["add", "mul", "sin", "cos", "exp", "sqrt", "log", "pow"])
    a = smooth_expr(r, names, depth - 1)
    if kind == "add":
        return ex.add(a, smooth_expr(r, names, depth - 1))
    if kind == "mul":
        return ex.mul(a, smooth_expr(r, names, depth - 1))
    if kind in ("sin", "cos"):
        return ex.func(kind, a)
    if kind == "exp":
        return ex.func("exp", ex.mul(ex.rat(1, 4), a))
    bounded = ex.add(ex.mul(ex.rat(1, 8), a), ex.rat(0))
    shifted = ex.add(ex.func("cos", bounded), ex.rat(3))  # in [2, 4]
    if kind == "sqrt":
        return ex.func("sqrt", shifted)
    if kind == "log":
        return ex.func("log", shifted)
    return ex.pow_(shifted, r.choice([-2, -1, 2, 3]))


def wild_expr(r, names, depth=2):
    """Random expression that leaves its domain on part of a sample box.

    log, sqrt and 1/u take unshifted polynomials, so they meet log <= 0,
    even roots of negatives and division by zero.  u^(3/2), exp of large
    multiples (overflow), 400-digit rationals (half of them too large for a
    float) and a log of v^2 - 10^-12, whose gap |v| < 10^-6 is narrower
    than a finite-difference stencil, join them.
    """
    if depth == 0 or r.random() < 0.4:
        return nonzero_poly(r, names, max_degree=2, terms=3)
    kind = r.choice(["add", "mul", "log", "sqrt", "inv", "pow", "exp",
                     "huge", "gap"])
    a = wild_expr(r, names, depth - 1)
    if kind == "add":
        return ex.add(a, wild_expr(r, names, depth - 1))
    if kind == "mul":
        return ex.mul(a, wild_expr(r, names, depth - 1))
    if kind in ("log", "sqrt"):
        return ex.func(kind, a)
    if kind == "inv":
        return a if a.is_zero() else ex.pow_(a, -1)
    if kind == "pow":
        return ex.pow_(a, Fraction(3, 2))
    if kind == "exp":
        return ex.func("exp", ex.mul(ex.Rat(r.choice((100, 800))), a))
    if kind == "huge":
        big = Fraction(r.choice((1, -1)) * 10 ** 400,
                       7 * 10 ** r.choice((0, 399)))
        return ex.add(a, ex.Rat(big))
    v = ex.var(r.choice(names))
    return ex.add(a, ex.func("log", ex.add(ex.pow_(v, 2),
                                           ex.Rat(Fraction(-1, 10 ** 12)))))


def sample_point(r, names, lo=-1.0, hi=1.0):
    return {n: r.uniform(lo, hi) for n in sorted(names)}


# Inputs for the numeric evaluators: each is (expression, points).
NUMERIC_NAMES = ["x", "y", "z"]


def smooth_corpus(seed):
    """60 smooth expressions of depth 4, each with four points on [-1, 1]."""
    r = rng(seed)
    for _ in range(60):
        e = smooth_expr(r, NUMERIC_NAMES, depth=4)
        yield e, [sample_point(r, NUMERIC_NAMES) for _ in range(4)]


def repeated_subtree():
    """Structurally equal subtrees built separately, at 50 points."""
    x, y = ex.var("x"), ex.var("y")
    s1 = ex.func("sin", ex.add(x, ex.mul(ex.rat(1, 3), y)))
    s2 = ex.func("sin", ex.add(ex.mul(ex.rat(1, 3), y), x))
    e = ex.add(ex.mul(s1, ex.func("cos", s2)), ex.func("exp", s1),
               ex.pow_(ex.add(s2, ex.rat(2)), Fraction(1, 2)))
    r = rng(5)
    return e, [sample_point(r, NUMERIC_NAMES) for _ in range(50)]


def deep_tree():
    """x + 1/3 and sin alternating 300 levels deep, at x = 0.3."""
    e = ex.var("x")
    for i in range(300):
        e = ex.func("sin", e) if i % 2 else ex.add(e, ex.rat(1, 3))
    return e, [{"x": 0.3}]


def shared_dag():
    """add(sin(e), cos(e)) nested 20 times over x, at x = 0.3: 2^20 paths
    through 41 distinct nodes."""
    e = ex.var("x")
    for _ in range(20):
        e = ex.add(ex.func("sin", e), ex.func("cos", e))
    return e, [{"x": 0.3}]
