"""The term-by-term kernels against the expand-always oracle (oracle.py).

``mul``, ``differentiate`` and ``exterior_d`` must return the very node the
reference copies build, on seeded expressions and forms whose products
collide on every kind of base: variables and functions (merged by the
monomial kernel) and rationals, sums and products under roots (where
``pow_`` folding can give a rational, a sum or a base that merges again).
"""

import gc
import itertools
import os
from fractions import Fraction

import pytest

from cartanforge import chart as ch
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import lagrangian as lg
from cartanforge.errors import DomainFunction, ExpressionTooLarge, NumericDomain
from cartanforge.harness import run_identity_catalog
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


def test_products_of_atoms_are_canonical():
    # a merged power that folds to a sum (sqrt(x+y)*sqrt(x+y)) is expanded
    # into the other factors, not left as a sum inside a product; a root of
    # a rational, a product or a sum prints so that it parses back
    for a, b, c in itertools.combinations_with_replacement(ATOMS, 3):
        for p in (ex.mul(a, b, c), ex.mul(ex.rat(-2, 3), a, b)):
            assert ex.normalize(p) is p, ex.to_text(p)
            assert ex.parse(ex.to_text(p)) is p, ex.to_text(p)


COLLISIONS = [
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
    # merged powers that fold to factors whose bases merge again, or to a sum
    [ex.func("sqrt", ex.mul(x, y)), ex.func("sqrt", ex.mul(x, y)), x],
    [ex.func("sqrt", ex.rat(2)), ex.func("sqrt", ex.rat(2)), ex.func("sqrt", ex.rat(2))],
    [ex.func("sqrt", ex.add(x, ex.ONE)), ex.func("sqrt", ex.add(x, ex.ONE)), x],
]


@pytest.mark.parametrize("factors", COLLISIONS)
def test_collisions_match_the_oracle(factors):
    assert ex.mul(*factors) is oracle.mul(*factors)
    p = ex.mul(*factors)
    for name in ("x", "y"):
        assert ex.differentiate(p, name) is oracle.differentiate(p, name)
    q = ex.add(*(ex.mul(y, f) for f in factors))
    for name in ("x", "y"):
        assert ex.differentiate(q, name) is oracle.differentiate(q, name)


def reference_sum(products):
    return ex.add(*(ex.mul(*p) for p in products))


def result(fn, *args):
    """The node fn returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except (ExpressionTooLarge, NumericDomain) as exc:
        return type(exc), str(exc)


def assert_sum_of_products(products):
    got, want = result(ex.sum_of_products, products), result(reference_sum, products)
    assert got is want or type(got) is tuple and got == want, [
        [ex.to_text(f) for f in p] for p in products]


SQRT2 = ex.func("sqrt", ex.rat(2))
PIECES = ATOMS + [ex.ZERO, ex.ONE, ex.MINUS_ONE, ex.rat(-3, 2), S, SQRT2,
                  ex.add(SQRT2, x), ex.func("sqrt", S), ex.add(ex.func("sqrt", S), y)]


@pytest.mark.parametrize("seed", range(870, 882))
def test_sum_of_products_is_the_sum_of_the_products(seed):
    # products of sums, repeated roots of a rational and of a sum (the
    # merges mul declines), zero, rational-only, single-factor and empty
    # products, over the smooth and wild corpora
    r = randgen.rng(seed)
    names = ["x", "y"]
    kinds = [lambda: r.choice(PIECES), lambda: random_term(r),
             lambda: random_sum(r, 3), lambda: randgen.smooth_expr(r, names),
             lambda: randgen.wild_expr(r, names)]
    for _ in range(25):
        products = [tuple(r.choice(kinds)() for _ in range(r.randint(0, 3)))
                    for _ in range(r.randint(0, 5))]
        assert_sum_of_products(products)
        assert_sum_of_products(products + [(ex.MINUS_ONE, *p) for p in products])


@pytest.mark.parametrize("factors", COLLISIONS)
def test_sum_of_products_of_colliding_factors(factors):
    for products in ([factors], [factors, factors[:2]], [(ex.rat(-1, 3), *factors), (y,)],
                     [factors, (ex.MINUS_ONE, *factors)], [(f,) for f in factors]):
        assert_sum_of_products(products)


def test_sum_of_products_keeps_the_expansion_bound():
    sums = tuple(ex.add(*(ex.var(f"{p}{i}") for i in range(30))) for p in "abc")
    with pytest.raises(ExpressionTooLarge) as want:
        ex.mul(*sums)
    with pytest.raises(ExpressionTooLarge) as got:
        ex.sum_of_products([(x,), sums])
    assert str(got.value) == str(want.value) == "expansion would build 27000 terms (limit 10000)"


def test_sum_of_products_builds_only_the_surviving_terms():
    # 2^10000 * 2^10000 passes MAX_RAT_BITS: mul raises on the product's
    # node, but in the sum the coefficient cancels and no node is built
    big = ex.rat(2 ** 10000)
    for rest in ((x,), (S,), (S, y)):
        with pytest.raises(ExpressionTooLarge, match="a rational would pass 14000 bits"):
            reference_sum([(big, big, *rest), (ex.MINUS_ONE, big, big, *rest)])
        assert ex.sum_of_products([(big, big, *rest), (ex.MINUS_ONE, big, big, *rest)]) is ex.ZERO
        assert ex.sum_of_products([(big, big, *rest), (ex.rat(-1, 2), big, big, *rest),
                                   (ex.rat(-1, 2), big, big, *rest), (y,)]) is y
        with pytest.raises(ExpressionTooLarge, match="a rational would pass 14000 bits"):
            ex.sum_of_products([(big, big, *rest), (y,)])


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


CORPUS = ["free_particle", "harmonic_oscillator", "wave_1p1", "maxwell",
          "polyakov_string", "nambu_string"]


def corpus_forms(name):
    return cartan_forms(parse_problem(os.path.join(PROBLEMS, name + ".toml")).lagrangian)


@pytest.mark.parametrize("name", CORPUS)
def test_exterior_d_of_theta_is_the_oracle_d(name):
    theta = corpus_forms(name).theta
    got = fm.exterior_d(theta)
    assert not got.is_zero()
    assert_same_form(got, oracle.exterior_d(theta))


@pytest.mark.parametrize("name", CORPUS)
def test_exterior_d_of_omega_is_the_oracle_d(name):
    # zero: the product rules of Omega's recurring monic parts cancel
    omega = corpus_forms(name).omega
    got = fm.exterior_d(omega)
    assert got.is_zero()
    assert_same_form(got, oracle.exterior_d(omega))


def test_a_memoized_product_rule_falls_back_to_mul(monkeypatch):
    # sqrt(x+y)*log(x+y) recurs under dw and d(w,x): its x-derivative term
    # (x+y)^-1 collides with the sum base of sqrt(x+y), which the monomial
    # kernel declines, so the memoized rule keeps it for a full mul
    t = ex.mul(ex.func("sqrt", S), ex.func("log", S))
    form = fm.Form(XY, 1, {(2,): ex.add(t, ex.pow_(x, 2)),
                           (3,): ex.add(ex.mul(ex.rat(-2, 3), t), ex.var("w"))})
    built = []

    def product_rule(*args):
        built.append(real(*args))
        return built[-1]

    real = ex._product_rule
    monkeypatch.setattr(ex, "_product_rule", product_rule)
    got = fm.exterior_d(form)
    monkeypatch.undo()
    assert built and all(declined for _, declined in built)
    assert_same_form(got, oracle.exterior_d(form))
    assert not got.is_zero()


def test_exterior_d_raises_on_bare_abs_every_time():
    u = ex.var("u")
    a = fm.Form(JS, 1, {(0,): ex.mul(ex.func("sin", u), ex.func("abs", u)),
                        (1,): ex.mul(u, ex.func("abs", u))})
    for _ in range(2):
        with pytest.raises(DomainFunction):
            fm.exterior_d(a)


# -- integer coefficients, the merge memo and stored keys ----------------------

BIG, MINUS_BIG = ex.rat(10**40, 7), ex.rat(-10**40, 7)
U = ex.sub(x, ex.mul(ex.rat(2), y))
SIGN, ABS = ex.func("sign", U), ex.func("abs", U)
XY = fm.jet_space(ch.make_chart(["x", "y"], ["w"]))   # x, y are coordinates 0, 1
COEFFICIENT_CASES = [
    # huge coefficients: the product of the first two cancels BIG*x^2, and
    # the derivative of the third is 2*BIG*sin*cos - 2*BIG*cos*sin = 0
    ex.add(ex.mul(BIG, x), y),
    ex.add(x, ex.mul(MINUS_BIG, ex.pow_(x, 2), ex.pow_(y, -1))),
    ex.add(ex.mul(BIG, ex.pow_(ex.func("sin", x), 2)),
           ex.mul(BIG, ex.pow_(ex.func("cos", x), 2))),
    # denominators that are not powers of two: 1/3 + 1/6 merge to 1/2
    ex.add(ex.mul(ex.rat(1, 3), x), ex.mul(ex.rat(1, 6), y)),
    ex.sub(ex.mul(ex.rat(1, 3), x, ex.func("sin", x)),
           ex.mul(ex.rat(1, 6), ex.func("cos", x))),
    # a sum rescaled by -1/3
    ex.mul(ex.rat(-1, 3), ex.add(ex.mul(ex.rat(3, 7), x), ex.mul(ex.rat(1, 6), y), ex.ONE)),
    # repeated same-base merges of sign(u)^k and abs(u)^(-3/2)
    ex.add(ex.mul(SIGN, x), ex.mul(ex.pow_(SIGN, 2), y), ex.pow_(SIGN, 3)),
    ex.add(ex.mul(ex.pow_(ABS, Fraction(-3, 2)), SIGN), ex.mul(ex.pow_(ABS, HALF), x)),
]


def test_coefficient_cases_cancel_and_merge():
    a, b, trig, thirds, mixed, scaled = COEFFICIENT_CASES[:6]
    assert ex.mul(a, b) is ex.sub(ex.mul(x, y), ex.mul(
        ex.rat(10**80, 49), ex.pow_(x, 3), ex.pow_(y, -1)))
    assert ex.differentiate(trig, "x") is ex.ZERO
    assert ex.mul(thirds, S) is ex.parse("1/3*x^2 + 1/2*x*y + 1/6*y^2")
    assert ex.differentiate(mixed, "x") is ex.parse("1/2*sin(x) + 1/3*x*cos(x)")
    assert scaled is ex.parse("-1/3 - 1/7*x - 1/18*y")


@pytest.mark.parametrize("a", COEFFICIENT_CASES)
def test_coefficient_cases_match_the_oracle(a):
    for b in COEFFICIENT_CASES + [ex.rat(-1, 3), BIG, ex.rat(7, 10**40), S]:
        assert ex.mul(a, b) is oracle.mul(a, b)
        assert ex.mul(ex.rat(-1, 3), a, b) is oracle.mul(ex.rat(-1, 3), a, b)
    for name in ("x", "y"):
        assert ex.differentiate(a, name) is oracle.differentiate(a, name)
    form = fm.Form(XY, 1, {(0,): ex.mul(y, a), (1,): ex.mul(MINUS_BIG, x, a)})
    assert_same_form(fm.exterior_d(form), oracle.exterior_d(form))


def test_exterior_d_cancels_huge_coefficients_to_zero():
    # BIG*y dx + BIG*x dy = d(BIG*x*y): the two partials cancel
    for c in (BIG, MINUS_BIG, ex.rat(1, 3)):
        form = fm.Form(XY, 1, {(0,): ex.mul(c, y), (1,): ex.mul(c, x)})
        assert fm.exterior_d(form).coeffs == {} == oracle.exterior_d(form).coeffs


@pytest.mark.parametrize("seed", range(860, 866))
def test_stored_key_is_the_recursive_key(seed):
    r = randgen.rng(seed)
    exprs = [randgen.smooth_expr(r, ["x", "y"]) for _ in range(8)]
    exprs += [random_sum(r) for _ in range(8)] + COEFFICIENT_CASES
    for e in exprs:
        assert e.key() == oracle.key(e)


def _nodes(e, seen):
    if e not in seen:
        seen.add(e)
        for c in ex._children(e):
            _nodes(c, seen)


def test_nambu_d_omega_merges_and_differentiates_once(monkeypatch):
    # counts, not timings: the call-wide merge memo runs pow_ 80 times
    # (3,108 with one memo per output coefficient), and the derivative memo
    # keeps each (coordinate, monic part)'s product rule for the whole call,
    # so no rule is built twice and almost no product reaches the monomial
    # kernel one by one (17,430 with no rules kept)
    omega = corpus_forms("nambu_string").omega
    calls = dict.fromkeys(["pow_", "_mono_mul"], 0)
    built = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def product_rule(fs, x, memo, merges):
        built.append((x, fs))
        return real_rule(fs, x, memo, merges)

    real_rule = ex._product_rule
    for name in calls:
        monkeypatch.setattr(ex, name, counted(name, getattr(ex, name)))
    monkeypatch.setattr(ex, "_product_rule", product_rule)
    fm.exterior_d(omega)
    monkeypatch.undo()
    assert len(built) > 500
    assert len(set(built)) == len(built)
    assert calls["pow_"] < 300
    assert calls["_mono_mul"] < 10_000


def test_nambu_verify_builds_products_only_in_their_sums(monkeypatch):
    # counts, not timings: each sum of products multiplies straight into one
    # accumulator, and the intrinsic routes differentiate L only along the
    # velocities they contract; product and sum constructor calls in one
    # verify fell 6,619 -> 4,701 (intern calls do not depend on which
    # nodes other tests keep alive)
    problem = parse_problem(os.path.join(PROBLEMS, "nambu_string.toml"))
    calls = {"Mul": 0, "Add": 0}
    real = ex._intern

    def intern(cls, k, *fields):
        if cls.__name__ in calls:
            calls[cls.__name__] += 1
        return real(cls, k, *fields)

    monkeypatch.setattr(ex, "_intern", intern)
    run_identity_catalog(problem)
    monkeypatch.undo()
    assert calls["Mul"] + calls["Add"] < 5_200


def test_differentiate_builds_a_recurring_rule_once(monkeypatch):
    # x*y is the monic part of the terms inside sqrt and sin: one
    # differentiate call meets it twice and builds its rule once
    e = ex.add(ex.func("sqrt", ex.mul(x, y)), ex.func("sin", ex.mul(x, y)))
    built = []

    def product_rule(fs, name, memo, merges):
        built.append((name, fs))
        return real_rule(fs, name, memo, merges)

    real_rule = ex._product_rule
    monkeypatch.setattr(ex, "_product_rule", product_rule)
    got = ex.differentiate(e, "x")
    monkeypatch.undo()
    assert built == [("x", (x, y))]
    assert got is oracle.differentiate(e, "x")


# -- canonical parts: no sum inside a sum or a product --------------------

def assert_canonical_parts(e):
    # the kernels rely on this: _collect takes a sum's terms, and _merge a
    # product's factors, as non-sums; a product's coefficient is its first
    # factor or absent, no factor is a product, and its bases are distinct
    # (mul re-enters itself until they are; _product_rule and the printer
    # rely on it and do not check again)
    seen, stack = set(), [e]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            parts = n.terms if type(n) is ex.Add else (
                n.factors if type(n) is ex.Mul else ())
            assert ex.Add not in map(type, parts), ex.to_text(n)
            if type(n) is ex.Mul:
                fs = parts[1:] if type(parts[0]) is ex.Rat else parts
                assert not {ex.Rat, ex.Mul} & set(map(type, fs)), ex.to_text(n)
                bases = [f.base if type(f) is ex.Pow else f for f in fs]
                assert len(set(bases)) == len(bases), ex.to_text(n)
            stack.extend(ex._children(n))


@pytest.mark.parametrize("seed", [61, 62])
def test_no_sum_is_a_term_of_a_sum_or_a_factor_of_a_product(seed):
    r = randgen.rng(seed)
    pool = [e for e, _ in randgen.smooth_corpus(seed)]
    pool += [randgen.wild_expr(r, ["x", "y", "z"]) for _ in range(60)]
    built = []
    for _ in range(200):
        a, b = r.choice(pool), r.choice(pool)
        built += [ex.add(a, b), ex.mul(a, b), ex.func("sqrt", a),
                  ex.pow_(ex.add(a, b), r.choice([-1, 2, Fraction(3, 2)]))]
        try:
            built.append(ex.differentiate(ex.mul(a, b), r.choice("xyz")))
        except DomainFunction:
            pass
    for e in pool + built:
        assert_canonical_parts(e)


@pytest.mark.parametrize("name", CORPUS)
def test_no_sum_is_nested_in_the_corpus_forms(name):
    lag = parse_problem(os.path.join(PROBLEMS, name + ".toml")).lagrangian
    forms = cartan_forms(lag)
    exprs = list(forms.theta.coeffs.values()) + list(forms.omega.coeffs.values())
    for e in exprs + list(lg.derive_el(lag).components.values()):
        assert_canonical_parts(e)


@pytest.mark.parametrize("name", ["polyakov_string", "nambu_string"])
def test_exterior_d_keeps_no_node_of_its_work_alive(name):
    # the merge memo lives for one call: after the collection only the
    # nodes of the result and what existed before remain (nambu's d(Omega)
    # is zero, so none of the nodes it builds may survive)
    omega = cartan_forms(parse_problem(os.path.join(
        PROBLEMS, name + ".toml")).lagrangian).omega
    gc.collect()
    before = set(ex._TABLE)
    got = fm.exterior_d(omega)
    gc.collect()
    kept = set()
    for c in got.coeffs.values():
        _nodes(c, kept)
    assert all(r() in kept for k, r in ex._TABLE.items() if k not in before)
