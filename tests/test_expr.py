import ast
import copy
import functools
import gc
import math
import os
import pickle
import re
import weakref

import pytest

from cartanforge import expr as ex
from cartanforge.errors import (
    DomainFunction,
    ExpressionTooLarge,
    NumericDomain,
    ParseError,
    UnboundVariable,
)

import randgen


x, y, v = ex.var("x"), ex.var("y"), ex.var("v")


def central_diff(e, name, point, h=1e-5):
    hi = dict(point)
    lo = dict(point)
    hi[name] = point[name] + h
    lo[name] = point[name] - h
    return (ex.evaluate_numeric(e, hi) - ex.evaluate_numeric(e, lo)) / (2 * h)


# -- differentiate -----------------------------------------------------------

def test_power_rule():
    assert ex.differentiate(ex.pow_(x, 2), "x") == ex.mul(ex.rat(2), x)


def test_kinetic_term():
    e = ex.mul(ex.rat(1, 2), ex.pow_(v, 2))
    assert ex.differentiate(e, "v") == v


def test_sqrt_rule():
    d = ex.differentiate(ex.func("sqrt", x), "x")
    # 1/(2*sqrt(x))
    assert d == ex.mul(ex.rat(1, 2), ex.pow_(x, ex.Fraction(-1, 2)))


def test_abs_has_no_rule():
    with pytest.raises(DomainFunction):
        ex.differentiate(ex.func("abs", x), "x")


def test_sign_differentiates_to_zero_whatever_its_argument():
    # d sign(u) = 0 is decided before u is differentiated, so an argument
    # with no rule of its own (abs) does not raise
    assert ex.differentiate(ex.func("sign", ex.func("abs", x)), "x") == ex.ZERO
    e = ex.mul(x, ex.func("sign", ex.func("abs", x)))
    assert ex.differentiate(e, "x") == ex.func("sign", ex.func("abs", x))


def test_abs_of_constant_arg_differentiates_to_zero():
    e = ex.mul(ex.func("abs", y), x)
    assert ex.differentiate(e, "x") == ex.func("abs", y)


def test_sqrt_abs_uses_sign_factor():
    e = ex.func("sqrt", ex.func("abs", x))
    d = ex.differentiate(e, "x")
    expected = ex.mul(ex.rat(1, 2),
                      ex.pow_(ex.func("abs", x), ex.Fraction(-1, 2)),
                      ex.func("sign", x))
    assert d == expected
    # numeric check on both sides of zero
    for pt in (0.7, -0.7):
        fd = central_diff(e, "x", {"x": pt})
        assert abs(ex.evaluate_numeric(d, {"x": pt}) - fd) < 1e-6


def test_finite_difference_oracle_random_corpus():
    r = randgen.rng(1203)
    names = ["x", "y"]
    checked = 0
    for _ in range(25):
        e = randgen.smooth_expr(r, names)
        d = {n: ex.differentiate(e, n) for n in names}
        for _ in range(4):
            pt = randgen.sample_point(r, names)
            for n in names:
                got = ex.evaluate_numeric(d[n], pt)
                want = central_diff(e, n, pt)
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), ex.to_text(e)
                checked += 1
    assert checked == 200


def _shared_root_sum(r, names, root_exps):
    """A sum of polynomial multiples of powers of sqrt(abs(G)), one random
    polynomial G: every term carries the same Pow subtree."""
    g = randgen.nonzero_poly(r, names, max_degree=2, terms=4)
    root = ex.func("sqrt", ex.func("abs", g))
    terms = [ex.mul(randgen.nonzero_poly(r, names, max_degree=2, terms=2),
                    ex.pow_(root, k)) for k in root_exps]
    return g, ex.add(*terms)


def test_differentiate_shared_root_matches_per_term():
    # the per-call memo must give what differentiating term by term gives
    r = randgen.rng(4401)
    names = ["x", "y"]
    checked = 0
    for _ in range(12):
        g, e = _shared_root_sum(r, names, (1, 1, -1, 3))
        if not isinstance(e, ex.Add):
            continue
        for n in names:
            d = ex.differentiate(e, n)
            assert d == ex.add(*(ex.differentiate(t, n) for t in e.terms))
            for _ in range(3):
                pt = randgen.sample_point(r, names)
                if abs(ex.evaluate_numeric(g, pt)) < 0.1:
                    continue    # keep the step away from the kink of abs
                got = ex.evaluate_numeric(d, pt)
                want = central_diff(e, n, pt)
                assert abs(got - want) <= 1e-5 * (1.0 + abs(want)), \
                    ex.to_text(e)
                checked += 1
    assert checked > 20


def test_repeated_abs_raises_on_every_call():
    # a raising subtree is never cached, so no call returns a stale value
    g = ex.add(x, ex.mul(ex.rat(2), y))
    a = ex.func("abs", g)
    e = ex.add(ex.mul(x, ex.func("sqrt", a)), ex.mul(y, a), ex.mul(x, y, a))
    for n in ("x", "y", "x"):
        with pytest.raises(DomainFunction):
            ex.differentiate(e, n)
    assert ex.differentiate(e, "v").is_zero()


@pytest.mark.parametrize("c", [1, -1, ex.Fraction(1, 2), -3])
def test_rational_times_sum_matches_termwise(c):
    r = randgen.rng(4402)
    k = ex.Rat(c)
    sums = [ex.add(x, ex.mul(ex.rat(2), y), ex.rat(3)),     # order changes
            ex.add(x, y, ex.mul(x, y), ex.rat(-1, 2)),
            ex.add(ex.mul(ex.rat(-1), x), ex.func("sin", y))]
    sums += [randgen.poly(r, ["x", "y", "v"]) for _ in range(30)]
    sums += [randgen.smooth_expr(r, ["x", "y"]) for _ in range(30)]
    checked = 0
    for s in sums:
        if not isinstance(s, ex.Add):
            continue
        want = ex.add(*(ex.mul(k, t) for t in s.terms))
        assert ex.mul(k, s) == want, ex.to_text(s)
        assert ex.mul(s, k) == want
        checked += 1
    assert checked > 20


# -- one accumulator per sum ---------------------------------------------------

def _sum_operands(seed):
    """Smooth and wild expressions, and roots and powers of sums."""
    r = randgen.rng(seed)
    pool = [e for e, _ in randgen.smooth_corpus(seed)]
    pool += [randgen.wild_expr(r, ["x", "y", "z"]) for _ in range(60)]
    for _ in range(20):
        s = randgen.nonzero_poly(r, ["x", "y"], max_degree=2, terms=3)
        pool += [ex.pow_(s, ex.Fraction(1, 2)), ex.pow_(s, -1), ex.pow_(s, 2)]
    return r, pool


@pytest.mark.parametrize("seed", [51, 52])
def test_one_add_call_is_the_left_fold(seed):
    r, pool = _sum_operands(seed)
    for _ in range(300):
        ts = r.choices(pool, k=r.randint(2, 6))
        assert ex.add(*ts) is functools.reduce(ex.add, ts)
        negated = [ts[0]] + [ex.mul(ex.MINUS_ONE, t) for t in ts[1:]]
        assert ex.add(*negated) is functools.reduce(ex.sub, ts)


def test_a_canonical_operand_is_its_own_sum_and_product():
    # add and mul of one canonical operand (ZERO or a rational part 1 aside)
    # rebuild the same interned node
    _, pool = _sum_operands(53)
    for e in pool + [ex.ZERO, ex.ONE, ex.rat(-3, 2), x]:
        assert ex.add(e) is e
        assert ex.add(ex.ZERO, e, ex.ZERO) is e
        assert ex.mul(e, ex.ONE) is e
        assert ex.mul(ex.rat(2), e, ex.rat(1, 2)) is e


def test_parser_multiplies_left_to_right():
    # mul is not associative on powers of a rational: both are canonical
    s = ex.func("sqrt", ex.rat(2))
    folded = ex.mul(ex.mul(s, s), s)
    assert ex.to_text(folded) == "2*sqrt(2)"
    assert ex.to_text(ex.mul(s, s, s)) == "sqrt(2)^3"
    assert ex.parse("sqrt(2)*sqrt(2)*sqrt(2)") is folded


def parser_factors(seed):
    # every atom (a Var, a Func, or a Pow of either) of the randgen smooth
    # and wild corpora, some of their powers, roots of rationals (whose
    # exponents add up to rationals and back to roots), sums and rationals
    r = randgen.rng(seed)
    atoms, stack = set(), [f(r, ["x", "y"], 3) for f in
                           (randgen.smooth_expr, randgen.wild_expr) for _ in range(8)]
    while stack:
        e = stack.pop()
        if isinstance(e, (ex.Var, ex.Func)) or (
                isinstance(e, ex.Pow) and isinstance(e.base, (ex.Var, ex.Func))):
            atoms.add(e)
        stack.extend(getattr(e, "terms", ()) + getattr(e, "factors", ()))
        stack.extend(c for c in (getattr(e, "base", None), getattr(e, "arg", None)) if c)
    atoms = sorted(atoms, key=ex.to_text)
    return [
        atoms,
        [ex.pow_(a, k) for a in atoms[:6] for k in (-2, -1, 2, 3)],
        [ex.pow_(ex.rat(b), n, d) for b, n, d in
         ((2, 1, 2), (2, 1, 4), (2, -1, 2), (2, 3, 4), (ex.Fraction(3, 2), 1, 2))],
        [ex.add(x, ex.rat(1)), ex.pow_(ex.add(x, y), 1, 2),
         ex.mul(ex.rat(2), x, ex.pow_(ex.rat(2), 1, 2)), ex.mul(x, y)],
        [ex.rat(q) for q in (2, -3, ex.Fraction(1, 2), ex.Fraction(-5, 4), 0)],
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parser_runs_equal_the_fold(seed):
    # a product in one mul, where that is the fold: atoms and rationals only
    # merge by adding exponents; roots of rationals and sums fold left to right
    kinds = parser_factors(seed)
    r = randgen.rng(100 + seed)
    for _ in range(400):
        chosen = [r.choice(r.choice(kinds)) for _ in range(r.randint(1, 6))]
        ops = [r.choice("**/") for _ in chosen[1:]]
        text = "(" + ex.to_text(chosen[0]) + ")" + "".join(
            f" {op} ({ex.to_text(f)})" for op, f in zip(ops, chosen[1:]))
        factors = [ex.parse("(" + ex.to_text(f) + ")") for f in chosen]

        def fold():
            return functools.reduce(
                lambda e, of: ex.mul(e, of[1]) if of[0] == "*" else ex.div(e, of[1]),
                zip(ops, factors[1:]), factors[0])

        try:
            want = fold()
        except (NumericDomain, ExpressionTooLarge) as exc:   # division by 0
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                ex.parse(text)
            continue
        assert ex.parse(text) is want, text
        assert ex.parse("-" + text) is ex.mul(ex.MINUS_ONE, want), text


@pytest.mark.parametrize("text", ["2^10000*2^10000*2^-10000*x",
                                  "2^10000*x*2^10000*2^-10000",
                                  "2^10000*2^10000*)"])
def test_parser_rejects_an_oversized_coefficient_where_the_fold_did(text):
    # the fold builds 2^20000 before the third factor (or the stray ')')
    with pytest.raises(ExpressionTooLarge, match="a rational would pass"):
        ex.parse(text)


def test_parser_folds_every_factor_after_the_opening_run():
    # the fold's coefficients are 2^-10000, 1 and 2^10000: a run after the
    # root, with 2^10000 * 2^10000 in one coefficient, would raise
    text = "(2^-10000*sqrt(3))*2^10000*2^10000*x"
    want = ex.mul(ex.rat(2 ** 10000), ex.pow_(ex.rat(3), 1, 2), x)
    assert ex.parse(text) is want


def test_parser_run_with_a_zero_coefficient():
    assert ex.parse("0*x/2") is ex.ZERO


def fold_sites(source, fname, pairwise=frozenset()):
    """The "fname:line" of each loop statement in `source` that folds a sum,
    one step per part: x = add(x, ...), x = x + ..., x += piece,
    d[k] = add(d.get(k, ...), ...), or a sub or sum_of_products whose
    product tuples hold x or d.get(k, ...).  Functions and methods named
    in `pairwise` (Class.method) may combine one sum per key."""

    def grows(value, same):
        if isinstance(value, ast.IfExp):
            return grows(value.body, same) or grows(value.orelse, same)
        if isinstance(value, ast.BinOp):   # a count + 1 is no sum
            return (isinstance(value.op, (ast.Add, ast.Sub)) and same(value.left)
                    and not isinstance(value.right, ast.Constant))
        if isinstance(value, ast.Call):
            f = value.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
            if called == "sum_of_products":
                seqs = (ast.Tuple, ast.List)
                return bool(value.args) and isinstance(value.args[0], seqs) and any(
                    isinstance(p, seqs) and any(map(same, p.elts))
                    for p in value.args[0].elts)
            return called in ("add", "sub") and any(map(same, value.args))
        return False

    def fold(node):
        if isinstance(node, ast.AugAssign):   # not a count, a list or text
            return (isinstance(node.target, ast.Name)
                    and isinstance(node.op, (ast.Add, ast.Sub))
                    and isinstance(node.value, (ast.Name, ast.Call,
                                                ast.Attribute, ast.Subscript)))
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            return False
        t = node.targets[0]
        if isinstance(t, ast.Name):
            return grows(node.value, lambda a: isinstance(a, ast.Name) and a.id == t.id)
        if isinstance(t, ast.Subscript):
            d, k = ast.dump(t.value), ast.dump(t.slice)
            return grows(node.value, lambda a: (
                isinstance(a, ast.Call) and isinstance(a.func, ast.Attribute)
                and a.func.attr == "get" and ast.dump(a.func.value) == d
                and bool(a.args) and ast.dump(a.args[0]) == k))
        return False

    def scan(node, owner, in_loop):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        in_loop = in_loop or isinstance(node, (ast.For, ast.While))
        if in_loop and fold(node) and owner not in pairwise:
            sites.add(f"{fname}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            scan(child, owner, in_loop)

    sites = set()
    scan(ast.parse(source), "", False)
    return sites


def test_no_loop_in_the_package_folds_a_sum():
    # a sum of many parts is one ex.add or ex.sum_of_products call, not one
    # step per part
    pkg = os.path.join(os.path.dirname(__file__), "..", "src", "cartanforge")
    pairwise = {"Form._plus", "VectorField.__add__"}   # one sum per key
    sites = set()
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                sites |= fold_sites(fh.read(), fname, pairwise)
    assert sorted(sites) == []


@pytest.mark.parametrize("body, folds", [
    ("x = ex.sum_of_products(((x,), (c, y)))", True),
    ("d[k] = ex.sum_of_products(((d.get(k, ex.ZERO),), (c,)))", True),
    ("x = ex.sub(x, c)", True),
    ("d[k] = ex.add(d.get(k, ex.ZERO), c)", True),
    ("x += c", True),
    ("x = ex.sum_of_products(((c, y),))", False),
    ("d[k] = ex.sum_of_products(((d.get(j, ex.ZERO),), (c,)))", False),
    ("n = n + 1", False),
])
def test_the_fold_detector_flags_each_fold(body, folds):
    # the package scan above passes only while the detector still sees folds
    looped = f"for c in cs:\n    {body}\n"
    assert fold_sites(looped, "s") == ({"s:2"} if folds else set())
    assert fold_sites(body + "\n", "s") == set()   # outside a loop
    method = f"class Form:\n    def _plus(self):\n        for c in cs:\n            {body}\n"
    assert fold_sites(method, "s", {"Form._plus"}) == set()


# -- expansion bound -----------------------------------------------------------

def _sum_of(prefix, n):
    return ex.add(*(ex.var(f"{prefix}{i}") for i in range(n)))


def test_product_of_large_sums_raises():
    sums = [_sum_of(p, 30) for p in "abc"]
    with pytest.raises(ExpressionTooLarge, match="27000 terms"):
        ex.mul(*sums)


def test_expansion_bound_is_inclusive():
    assert len(ex.mul(_sum_of("a", 100), _sum_of("b", 100)).terms) == 10_000
    with pytest.raises(ExpressionTooLarge):
        ex.mul(_sum_of("a", 100), _sum_of("b", 101))


def test_power_of_sum_counts_every_expansion():
    # a binomial gains one term per factor, so no single expansion is large;
    # the bound counts the products of all of them
    assert len(ex.pow_(ex.add(x, y), 99).terms) == 100
    with pytest.raises(ExpressionTooLarge):
        ex.pow_(ex.add(x, y), 100_000)
    with pytest.raises(ExpressionTooLarge):
        ex.parse("(p+q+r+s)^30")


# -- substitute ---------------------------------------------------------------

def test_substitute_shared_root_matches_per_term():
    # an invertible linear change of variables keeps G nonzero
    b = {"x": ex.add(x, ex.mul(ex.rat(1, 2), y)), "y": ex.add(y, v)}
    r = randgen.rng(4403)
    checked = 0
    for _ in range(12):
        _, e = _shared_root_sum(r, ["x", "y"], (1, -1, 2, 3))
        if not isinstance(e, ex.Add):
            continue
        assert ex.substitute(e, b) == \
            ex.add(*(ex.substitute(t, b) for t in e.terms))
        checked += 1
    assert checked > 8

def test_substitute_expands():
    assert ex.substitute(ex.pow_(v, 2), {"v": ex.mul(ex.rat(2), x)}) \
        == ex.mul(ex.rat(4), ex.pow_(x, 2))


def test_substitute_is_simultaneous():
    e = ex.add(x, y)
    assert ex.substitute(e, {"x": y, "y": x}) == e


def test_substitute_function_at_rational():
    e = ex.func("sin", ex.var("u"))
    assert ex.substitute(e, {"u": ex.ZERO}) == ex.ZERO


def test_substitute_empty_is_identity():
    r = randgen.rng(77)
    for _ in range(20):
        e = randgen.smooth_expr(r, ["x", "y"])
        assert ex.substitute(e, {}) == e


# -- normalize ----------------------------------------------------------------

def test_commutators_vanish():
    assert ex.sub(ex.mul(x, y), ex.mul(y, x)).is_zero()


def test_rational_folding():
    assert ex.mul(ex.rat(2, 4), x) == ex.mul(ex.rat(1, 2), x)


def test_no_trig_rewriting():
    e = ex.add(ex.pow_(ex.func("sin", x), 2), ex.pow_(ex.func("cos", x), 2))
    assert not e.is_zero()
    assert e == ex.normalize(e)


def test_normalize_idempotent_on_corpus():
    r = randgen.rng(41)
    for _ in range(40):
        e = randgen.smooth_expr(r, ["x", "y", "v"])
        n1 = ex.normalize(e)
        assert ex.normalize(n1) == n1


def test_addition_commutes():
    r = randgen.rng(42)
    for _ in range(20):
        a = randgen.poly(r, ["x", "y"])
        b = randgen.poly(r, ["x", "y"])
        assert ex.add(a, b) == ex.add(b, a)


def test_products_distribute():
    r = randgen.rng(43)
    for _ in range(20):
        a = randgen.poly(r, ["x", "y"])
        b = randgen.poly(r, ["x", "y"])
        c = randgen.poly(r, ["x", "y"])
        assert ex.mul(a, ex.add(b, c)) == ex.add(ex.mul(a, b), ex.mul(a, c))


def test_same_base_powers_merge():
    s = ex.func("sqrt", ex.func("abs", x))
    assert ex.mul(s, s) == ex.func("abs", x)


# -- numeric evaluation -------------------------------------------------------

def test_eval_basic():
    assert ex.evaluate_numeric(ex.add(ex.pow_(x, 2), ex.ONE), {"x": 2}) == 5.0
    assert ex.evaluate_numeric(ex.func("sqrt", x), {"x": 4}) == 2.0


def test_eval_domain_errors():
    with pytest.raises(NumericDomain):
        ex.evaluate_numeric(ex.div(ex.ONE, x), {"x": 0})
    with pytest.raises(NumericDomain):
        ex.evaluate_numeric(ex.func("log", x), {"x": -1})
    with pytest.raises(NumericDomain):
        ex.evaluate_numeric(ex.func("sqrt", x), {"x": -2})
    with pytest.raises(UnboundVariable):
        ex.evaluate_numeric(ex.add(x, y), {"x": 1})


def test_eval_sign():
    e = ex.func("sign", x)
    assert ex.evaluate_numeric(e, {"x": -3}) == -1.0
    assert ex.evaluate_numeric(e, {"x": 2}) == 1.0


# -- parsing and printing -----------------------------------------------------

def test_parse_grammar():
    assert ex.parse("1/2*d(q,t)^2") == ex.mul(ex.rat(1, 2), ex.pow_(ex.var("d(q,t)"), 2))
    assert ex.parse("dd(q,t,t)") == ex.var("dd(q,t,t)")
    assert ex.parse("2 + 3*4") == ex.rat(14)
    assert ex.parse("-x^2") == ex.mul(ex.MINUS_ONE, ex.pow_(x, 2))
    assert ex.parse("exp(0)") == ex.ONE


def test_parse_errors():
    with pytest.raises(ParseError):
        ex.parse("x +")
    with pytest.raises(ParseError):
        ex.parse("foo(x)")
    with pytest.raises(ParseError):
        ex.parse("x^y")
    with pytest.raises(ParseError):
        ex.parse("d(q)")


def test_deep_nesting_is_a_parse_error():
    text = "x +\n  " + "(" * 5000 + "x" + ")" * 5000
    with pytest.raises(ParseError) as err:
        ex.parse(text)
    assert err.value.line == 2 and err.value.col > 2
    with pytest.raises(ParseError):
        ex.parse("sin(" * 5000 + "x" + ")" * 5000)


def test_text_round_trip_corpus():
    r = randgen.rng(99)
    for _ in range(40):
        e = randgen.smooth_expr(r, ["x", "y", "v"])
        assert ex.parse(ex.to_text(e)) == e


def test_decimal_numbers_are_exact():
    assert ex.parse("0.5") == ex.rat(1, 2)
    assert ex.parse("2.5e-1") == ex.rat(1, 4)


def test_exact_sqrt_of_rationals():
    assert ex.func("sqrt", ex.rat(4)) == ex.rat(2)
    assert ex.func("sqrt", ex.rat(1, 4)) == ex.rat(1, 2)
    assert ex.func("sqrt", ex.rat(2)) == ex.pow_(ex.rat(2), ex.Fraction(1, 2))


def test_exact_roots_of_huge_rationals():
    assert ex.func("sqrt", ex.Rat(10 ** 400)) == ex.Rat(10 ** 200)
    assert ex.func("sqrt", ex.Rat(ex.Fraction(1, 10 ** 400))) == \
        ex.Rat(ex.Fraction(1, 10 ** 200))
    nines = ex.Rat(int("9" * 400))
    assert ex.func("sqrt", nines) == ex.Pow(nines, ex.Fraction(1, 2))
    big = 3 ** 500 + 1
    assert ex.pow_(ex.Rat(big ** 4), ex.Fraction(1, 4)) == ex.Rat(big)
    assert ex.pow_(ex.Rat(big ** 4 + 1), ex.Fraction(3, 4)).__class__ is ex.Pow
    assert ex.pow_(ex.rat(27, 8), ex.Fraction(1, 3)) == ex.rat(3, 2)


def test_immutability():
    with pytest.raises(AttributeError):
        x.name = "z"


# -- seeded laws ---------------------------------------------------------------

LAW_NAMES = ["x", "y"]


@pytest.mark.parametrize("seed", range(600, 640))
def test_leibniz_rule(seed):
    # d(ab)/dx = a'b + ab', structurally
    r = randgen.rng(seed)
    a, b = (randgen.smooth_expr(r, LAW_NAMES) for _ in range(2))
    da, db = ex.differentiate(a, "x"), ex.differentiate(b, "x")
    assert ex.differentiate(ex.mul(a, b), "x") == ex.add(ex.mul(da, b),
                                                         ex.mul(a, db))


@pytest.mark.parametrize("seed", range(600, 640))
def test_chain_rule(seed):
    # d/dx[a(x := g)] = a'(g) g' for a polynomial g, structurally
    r = randgen.rng(seed)
    a = randgen.smooth_expr(r, LAW_NAMES)
    g = randgen.poly(r, LAW_NAMES, max_degree=2, terms=3)
    lhs = ex.differentiate(ex.substitute(a, {"x": g}), "x")
    rhs = ex.mul(ex.substitute(ex.differentiate(a, "x"), {"x": g}),
                 ex.differentiate(g, "x"))
    assert lhs == rhs


def _mirror(r, pool, depth):
    """A random sum of signed products over `pool`, built twice: as an Expr
    and as a function of the pool's float values."""
    if depth == 0:
        i = r.randrange(len(pool))
        return pool[i], lambda vals: vals[i]
    (a, fa), (b, fb) = _mirror(r, pool, depth - 1), _mirror(r, pool, depth - 1)
    kind = r.choice(["add", "sub", "mul"])
    if kind == "add":
        return ex.add(a, b), lambda vals: fa(vals) + fb(vals)
    if kind == "sub":
        return ex.sub(a, b), lambda vals: fa(vals) - fb(vals)
    return ex.mul(a, b), lambda vals: fa(vals) * fb(vals)


def test_structural_zero_is_numeric_zero():
    # soundness of the normal form: it keeps the function it was built
    # from, so whatever it reduces to 0 is 0 as a function; a pool of two
    # random expressions makes cancellation common
    r = randgen.rng(700)
    zeros = 0
    for _ in range(120):
        pool = [randgen.smooth_expr(r, LAW_NAMES) for _ in range(2)]
        e, f = _mirror(r, pool, 2)
        zeros += e.is_zero()
        for _ in range(2):
            pt = randgen.sample_point(r, LAW_NAMES)
            vals = [ex.evaluate_numeric(p, pt) for p in pool]
            scale = (1.0 + max(map(abs, vals))) ** 4
            assert abs(ex.evaluate_numeric(e, pt) - f(vals)) <= 1e-9 * scale
    assert zeros >= 20


# -- interning ----------------------------------------------------------------

def test_equal_structures_are_one_object():
    r = randgen.rng(45)
    for _ in range(40):
        e = randgen.smooth_expr(r, ["x", "y", "v"])
        assert ex.parse(ex.to_text(e)) is e
        assert ex.normalize(e) is e
    for _ in range(20):
        p, q = randgen.poly(r, ["x", "y"]), randgen.poly(r, ["x", "y"])
        assert ex.add(p, q) is ex.add(q, p)
    assert ex.Rat(1) is ex.Rat(ex.Fraction(2, 2)) is ex.ONE
    assert ex.Pow(x, 2) is ex.Pow(x, ex.Fraction(4, 2))


def test_intern_table_keeps_no_dead_node_alive():
    p, q, r = ex.var("p"), ex.var("q"), ex.var("r")
    gc.collect()
    before = len(ex._TABLE)
    e = ex.pow_(ex.add(p, q, r), 12)
    assert len(e.terms) == 91 and len(ex._TABLE) > before + 91
    del e
    gc.collect()
    assert len(ex._TABLE) <= before + 5


def test_node_in_a_cycle_does_not_evict_its_successor():
    # a dropped node that cyclic garbage refers to stays until the cyclic
    # collector clears that garbage
    factors = (ex.var("p"), ex.func("sin", ex.var("q")))
    gc.collect()
    e = ex.Mul(factors)
    probe = weakref.ref(e)
    cycle = [e]
    cycle.append(cycle)
    del e, cycle
    # rebuilt before the collection: the same node, and it stays interned
    e = ex.Mul(factors)
    assert probe() is e
    assert ex.evaluate_numeric(e, {"p": 2.0, "q": 0.0}) == 0.0
    gc.collect()
    assert ex.Mul(factors) is e

    # rebuilt during the collection, after the collector has cleared the
    # table's reference to the dead node but before that reference's
    # callback runs; the newer weak reference's callback runs first
    del e
    rebuilt, staged = [], []

    def rebuild(_):
        entry = ex._TABLE.get((4, factors))
        staged.append(entry is not None and entry() is None)
        rebuilt.append(ex.Mul(factors))

    e = ex.Mul(factors)
    probe = weakref.ref(e, rebuild)
    del e
    gc.collect()
    assert staged == [True] and probe() is None
    assert ex.Mul(factors) is rebuilt[0]


@pytest.mark.parametrize("text, kind", [
    ("3/7", ex.Rat), ("x", ex.Var), ("sin(x + y)", ex.Func),
    ("sqrt(x + 2)", ex.Pow), ("-2*x*sin(y)", ex.Mul), ("x*sin(y) + 1/2", ex.Add),
])
def test_copy_and_pickle_keep_interning(text, kind):
    e = ex.parse(text)
    assert type(e) is kind
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps([e, e])) == [e, e]


def test_sign_and_abs_identities_are_not_structural():
    # where the canonical form is incomplete: sign(u)^2 = 1 and
    # abs(u)*sign(u) = u hold for u != 0 but are not rewritten, so an
    # elimination that pivots on "structurally non-zero" can divide by zero
    u = ex.parse("q - 2*p")
    sq = ex.sub(ex.mul(ex.func("sign", u), ex.func("sign", u)), ex.ONE)
    au = ex.sub(ex.mul(ex.func("abs", u), ex.func("sign", u)), u)
    assert ex.to_text(sq) == "-1 + sign(q - 2*p)^2"
    assert ex.to_text(au) == "-q + 2*p + abs(q - 2*p)*sign(q - 2*p)"
    r = randgen.rng(46)
    seen = 0
    for _ in range(40):
        pt = randgen.sample_point(r, ["p", "q"])
        if abs(ex.evaluate_numeric(u, pt)) < 1e-3:
            continue
        seen += 1
        for e in (sq, au):
            assert not e.is_zero()
            assert abs(ex.evaluate_numeric(e, pt)) <= 1e-12
    assert seen >= 30


def _union_of_vars(e):
    if isinstance(e, ex.Var):
        return {e.name}
    return set().union(*(_union_of_vars(c) for c in ex._children(e)))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_free_vars_share_a_childs_set(seed):
    # a node's set is its largest child's when that one holds the others'
    x, y = ex.var("x"), ex.var("y")
    xy = ex.mul(x, y)
    assert ex.free_vars(ex.add(xy, x)) is ex.free_vars(xy)
    assert ex.free_vars(ex.func("sin", xy)) is ex.free_vars(xy)
    assert ex.free_vars(ex.add(x, y)) == {"x", "y"}
    assert ex.free_vars(ex.rat(3)) == frozenset()
    r = randgen.rng(seed)
    for _ in range(40):
        e = randgen.smooth_expr(r, ["x", "y", "z", "w"], depth=3)
        assert ex.free_vars(e) == _union_of_vars(e)
