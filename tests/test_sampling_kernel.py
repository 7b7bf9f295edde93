"""The generated sampling kernels against the per-point path, bit for bit.

The reference here samples point by point, by the harness's rule:
`draw_point`, the tree walk `evaluate_numeric` and a dict per point, each
point's expressions evaluated in the rule's order.  Every check must
give the same worst deviation (by float.hex), the same witness and the same
stream state afterwards, or raise the same error with the stream left in
the same state.
"""

import json
import random
from fractions import Fraction

import pytest

from cartanforge import chart as ch
from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import harness as hz
from cartanforge import lagrangian as lg
from cartanforge import noether as no
from cartanforge.errors import NumericDomain
from cartanforge.problem import Guard

import randgen

CHART = ch.make_chart(["t", "s"], ["q", "r"])
JET = list(CHART.jet_coords())
x, y = ex.var("x"), ex.var("y")


def largest(devs):
    # max(0.0, *devs), a NaN among them winning
    out = 0.0
    for dev in devs:
        if dev > out or dev != dev:
            out = dev
    return out


def reference(deviation, rng, names, box, guards, samples):
    names = set(names)
    for g in guards:
        names |= ex.free_vars(g.expr)
    cells = hz.intervals(names, box)
    worst, witness = 0.0, {}
    for _ in range(samples):
        pt = hz.draw_point(rng, cells, guards)
        try:
            dev = deviation(pt)
        except NumericDomain as err:
            raise NumericDomain(f"{err} at point {hz._round_point(pt)}") from err
        if dev > worst or dev != dev and worst == worst:
            worst, witness = dev, pt
    return worst, hz._round_point(witness)


def pairs_deviation(pairs):
    return lambda pt: largest(abs(ex.evaluate_numeric(a, pt)
                                  - ex.evaluate_numeric(b, pt))
                              for a, b in pairs)


def fd_deviation(L, dL, z):
    def dev(pt):
        ex.evaluate_numeric(L, pt)
        got = ex.evaluate_numeric(dL, pt)
        hi, lo = dict(pt), dict(pt)
        hi[z] += 1e-5
        lo[z] -= 1e-5
        want = (ex.evaluate_numeric(L, hi)
                - ex.evaluate_numeric(L, lo)) / (2 * 1e-5)
        return abs(got - want) / (1.0 + abs(want))
    return dev


def fd_reference(lag, rng, box, guards, samples):
    return [reference(fd_deviation(lag.L, d, z), rng, ex.free_vars(lag.L) | {z},
                      box, guards, samples) for z, d in lag.partials.items()]


def fd_kernel(lag, rng, box, guards, samples):
    """Every run of `hz.finite_differences`, called in order."""
    return [run() for run in hz.finite_differences(lag, rng, box, guards,
                                                   samples)]


def outcome(run, seed):
    """(results as hex and witnesses, or the error) and the stream state."""
    rng = random.Random(seed)
    try:
        got = run(rng)
    except NumericDomain as err:
        return ("error", str(err)), rng.getstate()
    if isinstance(got, tuple):
        got = [got]
    return [(w.hex(), {k: v.hex() for k, v in pt.items()})
            for w, pt in got], rng.getstate()


def same(kernel, per_point, seed=5):
    want = outcome(per_point, seed)
    assert outcome(kernel, seed) == want
    return want[0]


def guards_for(r, names):
    """None, one or two guards on the seeded expressions over `names`."""
    return tuple(Guard(randgen.smooth_expr(r, names, depth=1),
                       r.choice((">", "<")), r.uniform(-0.5, 0.5))
                 for _ in range(r.randint(0, 2)))


@pytest.mark.parametrize("seed", range(900, 912))
def test_finite_differences_match_the_per_point_path(seed):
    r = randgen.rng(seed)
    names = r.sample(JET, r.randint(1, 5))
    lag = lg.Lagrangian(CHART, randgen.smooth_expr(r, names, depth=3))
    box = {n: (-0.5, 1.5) for n in r.sample(JET, 2)}
    guards = guards_for(r, names)
    same(lambda rng: fd_kernel(lag, rng, box, guards, 30),
         lambda rng: fd_reference(lag, rng, box, guards, 30), seed)


@pytest.mark.parametrize("seed", range(920, 932))
def test_form_pairs_match_the_per_point_path(seed):
    # numeric_check samples a Form as the pairs of its coefficients
    r = randgen.rng(seed)
    names = ["x", "y", "z"]
    space = fm.jet_space(CHART)
    lhs = fm.Form(space, 1, {(k,): randgen.smooth_expr(r, names)
                             for k in r.sample(JET, 3)})
    rhs = fm.Form(space, 1, {(k,): randgen.smooth_expr(r, names)
                             for k in r.sample(JET, 3)})
    pairs = [(lhs.coeffs.get(k, ex.ZERO), rhs.coeffs.get(k, ex.ZERO))
             for k in sorted(set(lhs.coeffs) | set(rhs.coeffs))]
    guards = guards_for(r, names)
    used = set().union(*(ex.free_vars(e) for pair in pairs for e in pair))
    args = (used, {"x": (0.0, 2.0)}, guards, 40)
    same(lambda rng: hz.sample_worst(pairs, rng, *args),
         lambda rng: reference(pairs_deviation(pairs), rng, *args), seed)

    def check(_):   # numeric_check seeds its own stream
        res = hz.numeric_check(hz.IdentityCheck(
            "form", lhs, rhs, box=args[1], samples=40, seed=seed, guards=guards))
        return res.max_dev, res.witness
    assert outcome(check, seed)[0] == outcome(
        lambda rng: reference(pairs_deviation(pairs), rng, *args), seed)[0]


@pytest.mark.parametrize("seed", range(940, 948))
def test_conservation_matches_the_per_point_path(seed):
    r = randgen.rng(seed)
    mech = ch.make_chart(["t"], ["q"])
    v = ex.var("d(q,t)")
    lag = lg.Lagrangian(mech, ex.mul(ex.pow_(v, 2), ex.add(v, randgen.smooth_expr(
        r, ["q", "d(q,t)"], depth=2))))
    cur = no.noether_current(lag, fm.VectorField(fm.total_space(mech),
                                                 {"q": ex.ONE}))
    section = ch.SectionE(mech, (ex.mul(ex.var("t"), randgen.smooth_expr(
        r, ["t"], depth=2)),))
    residual = no.check_conservation(cur, section, samples=1).residual
    coeffs = list(residual.coeffs.values())
    assert coeffs

    def check(_):   # check_conservation seeds its own stream
        rep = no.check_conservation(cur, section, samples=30, seed=seed,
                                    box={"t": (-2.0, 2.0)})
        return rep.max_dev, rep.witness
    # the residual's largest |c| at each point, as the check sampled it before
    old = lambda pt: largest(abs(ex.evaluate_numeric(c, pt))   # noqa: E731
                             for c in coeffs)
    assert outcome(check, seed)[0] == outcome(
        lambda rng: reference(old, rng, ["t"], {"t": (-2.0, 2.0)}, (), 30), seed)[0]
    pairs = [(c, ex.ZERO) for c in coeffs]
    same(lambda rng: hz.sample_worst(pairs, rng, ["t"], {}, (), 30),
         lambda rng: reference(pairs_deviation(pairs), rng, ["t"], {}, (), 30),
         seed)


def test_a_guard_that_rejects_most_draws():
    guards = (Guard(x, ">", 0.95), Guard(ex.mul(x, y), "<", 0.5))
    pairs = [(ex.func("exp", x), ex.add(ex.ONE, x))]
    got = same(lambda rng: hz.sample_worst(pairs, rng, ["x", "y"], {}, guards, 50),
               lambda rng: reference(pairs_deviation(pairs), rng, ["x", "y"], {},
                                     guards, 50))
    assert float.fromhex(got[0][0]) > 0 and float.fromhex(got[0][1]["x"]) > 0.95


def test_guards_that_cannot_hold():
    guards = (Guard(x, ">", 2.0),)
    pairs = [(x, y)]
    got = same(lambda rng: hz.sample_worst(pairs, rng, ["x", "y"], {}, guards, 5),
               lambda rng: reference(pairs_deviation(pairs), rng, ["x", "y"], {},
                                     guards, 5))
    assert got == ("error", "could not draw a sample point satisfying the guards")
    lag = lg.Lagrangian(CHART, ex.pow_(ex.var("q"), 2))
    guards = (Guard(ex.var("q"), "<", -1.5),)
    same(lambda rng: fd_kernel(lag, rng, {}, guards, 5),
         lambda rng: fd_reference(lag, rng, {}, guards, 5))


@pytest.mark.parametrize("e", [
    ex.func("sqrt", x),                                  # even root of a negative
    ex.pow_(ex.add(x, ex.rat(1, 2)), Fraction(-3, 4)),
    ex.func("log", x),                                   # log <= 0
    ex.mul(ex.Rat(10 ** 400), x),                        # too large for a float
    ex.add(x, ex.Rat(Fraction(-(10 ** 400), 7))),
])
def test_a_domain_error_names_its_point(e):
    pairs = [(ex.func("sin", y), y), (e, ex.ZERO)]
    got = same(lambda rng: hz.sample_worst(pairs, rng, ["x", "y"], {}, (), 20),
               lambda rng: reference(pairs_deviation(pairs), rng, ["x", "y"], {},
                                     (), 20))
    assert got[0] == "error" and " at point {'x': " in got[1]
    lag = lg.Lagrangian(CHART, ex.mul(ex.var("q"),
                                      ex.substitute(e, {"x": ex.var("r")})))
    got = same(lambda rng: fd_kernel(lag, rng, {}, (), 20),
               lambda rng: fd_reference(lag, rng, {}, (), 20))
    assert got[0] == "error" and " at point {" in got[1]


def at_points(e, points):
    """`e` against zero in a kernel at each of `points`, each coordinate
    drawn from a box (v, v), which draws v itself."""
    pairs = [(e, ex.ZERO)]
    for pt in points:
        box = {n: (v, v) for n, v in pt.items()}
        args = (sorted(box), box, (), 1)
        same(lambda rng: hz.sample_worst(pairs, rng, *args),
             lambda rng: reference(pairs_deviation(pairs), rng, *args))


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_the_smooth_corpus_at_its_points(seed):
    # test_compile_numeric.py's inputs, through a kernel
    for e, points in randgen.smooth_corpus(seed):
        at_points(e, points)


def test_special_shapes_and_values_at_their_points():
    for e, points in (randgen.repeated_subtree(), randgen.deep_tree(),
                      randgen.shared_dag()):
        at_points(e, points)
    at_points(ex.mul(ex.Rat(Fraction(10 ** 400 + 1, 10 ** 399)), x),
              [{"x": 0.75}])
    r = randgen.rng(21)
    for _ in range(40):   # the finite special values of test_compile_numeric
        e = randgen.smooth_expr(r, randgen.NUMERIC_NAMES, depth=3)
        at_points(e, [{"x": v, "y": 0.5, "z": -0.25}
                      for v in (0.0, 1e300, 2.0, 1 / 3)])


BIG = (1e200, 1e201)   # a product of two coordinates overflows to inf


@pytest.mark.parametrize("e, box", [
    (ex.div(ex.ONE, x), {"x": (0.0, 0.0)}),     # a box (v, v) draws v itself
    (ex.pow_(x, Fraction(-1, 2)), {"x": (0.0, 0.0)}),
    (ex.func("log", x), {"x": (0.0, 0.0)}),
    (ex.func("log", x), {"x": (-1.0, -1.0)}),
    (ex.func("sqrt", x), {"x": (-2.0, -2.0)}),
    (ex.pow_(x, Fraction(3, 4)), {"x": (-1.0, -1.0)}),
    (ex.add(x, ex.Rat(10 ** 400)), {"x": (1.0, 1.0)}),
    (ex.mul(ex.Rat(Fraction(-(10 ** 400), 7)), x), {"x": (1.0, 1.0)}),
    (ex.func("exp", x), {"x": (1000.0, 1000.0)}),
    (ex.pow_(x, 400), {"x": (1e10, 1e10)}),
    (ex.sub(ex.mul(x, y), ex.mul(x, ex.var("z"))),
     {"x": BIG, "y": BIG, "z": BIG}),           # inf - inf in fsum
    (ex.func("sin", ex.mul(x, y)), {"x": BIG, "y": BIG}),
])
def test_the_tree_walk_names_a_kernel_error(e, box):
    # the replay's error is the walk's at the kernel's first point
    pairs = [(e, ex.ZERO)]
    args = (sorted(box), box, (), 3)
    got = same(lambda rng: hz.sample_worst(pairs, rng, *args),
               lambda rng: reference(pairs_deviation(pairs), rng, *args))
    pt = hz.draw_point(random.Random(5), hz.intervals(box, box))
    with pytest.raises(NumericDomain) as walk:
        ex.evaluate_numeric(e, pt)
    assert got == ("error", f"{walk.value} at point {hz._round_point(pt)}")


def test_a_guard_that_fails_to_evaluate():
    # the guard's own domain error carries no point, as in draw_point
    guards = (Guard(ex.func("log", x), ">", -1.0),)
    pairs = [(x, x)]
    got = same(lambda rng: hz.sample_worst(pairs, rng, ["x"], {}, guards, 20),
               lambda rng: reference(pairs_deviation(pairs), rng, ["x"], {},
                                     guards, 20))
    assert got[0] == "error" and "at point" not in got[1]


def test_a_nan_deviation_fails_the_check():
    # inf - inf is NaN: max() and `>` would both pass over it
    big = {"x": (1e200, 1e201), "y": (1e200, 1e201)}
    res = hz.numeric_check(hz.IdentityCheck("c", ex.add(ex.mul(x, y), x),
                                            ex.mul(x, y), box=big))
    assert res.status == "fail" and res.max_dev != res.max_dev
    assert res.witness and "NaN" in res.detail
    loaded = json.loads(hz.SuiteReport((res,)).to_json())
    assert loaded["suite"][0]["witness"] == res.witness


@pytest.mark.parametrize("box", [
    {"x": (1e200, 1e201), "y": (1e200, 1e201)},      # NaN at every point
    {"x": (1e150, 1e160), "y": (-1e160, 1e160)},     # finite, then NaN
])
@pytest.mark.parametrize("first", [[], [(x, ex.add(x, ex.ONE))]])
def test_the_first_nan_is_the_worst_and_stays(box, first):
    # with `first`, the NaN is not the first deviation at its point
    pairs = first + [(ex.add(ex.mul(x, y), x), ex.mul(x, y))]
    got = same(lambda rng: hz.sample_worst(pairs, rng, ["x", "y"], box, (), 30),
               lambda rng: reference(pairs_deviation(pairs), rng, ["x", "y"],
                                     box, (), 30))
    assert got[0][0] == "nan"


def test_a_gap_narrower_than_the_stencil_raises_at_its_point():
    # log(q^2 - 10^-12) is undefined for |q| < 10^-6, and L at q +- 10^-5 is
    # defined across that gap.  The rule evaluates L at the point first, so
    # the q check raises at its first point in the gap; evaluating only dL/dq
    # and L at q +- h, the call returned at this seed.
    mech = ch.make_chart(["t"], ["q"])
    q = ex.var("q")
    lag = lg.Lagrangian(mech, ex.func("log", ex.add(
        ex.pow_(q, 2), ex.Rat(Fraction(-1, 10 ** 12)))))
    box = {"q": (-2e-6, 2e-6)}
    got = same(lambda rng: fd_kernel(lag, rng, box, (), 3),
               lambda rng: fd_reference(lag, rng, box, (), 3), seed=215)
    assert got == ("error", "log of non-positive value -7.54002996458792e-13"
                            " at point {'q': -4.95981e-07}")
    # the t check before it drew no point in the gap
    rng = random.Random(215)
    cells = hz.intervals({"q", "t"}, box)
    assert all(abs(hz.draw_point(rng, cells)["q"]) > 1e-6 for _ in range(3))


BOXES = [(-2e-6, 2e-6), (1e150, 1e160), (-0.5, 1.5)]


@pytest.mark.parametrize("seed", range(960, 1000))
def test_inputs_that_leave_their_domain_match_the_per_point_path(seed):
    r = randgen.rng(seed)
    names = r.sample(JET, r.randint(1, 3))
    box = {n: r.choice(BOXES) for n in r.sample(JET, 2)}
    guards = tuple(Guard(randgen.wild_expr(r, names, 1), r.choice("<>"),
                         r.uniform(-0.5, 0.5)) for _ in range(r.randint(0, 2)))
    lag = lg.Lagrangian(CHART, randgen.wild_expr(r, names, 3))
    if "abs" not in ex.to_text(lag.L):   # abs has no partials table
        same(lambda rng: fd_kernel(lag, rng, box, guards, 20),
             lambda rng: fd_reference(lag, rng, box, guards, 20), seed)
    pairs = [(randgen.wild_expr(r, names, 2), randgen.smooth_expr(r, names, 1))
             for _ in range(r.randint(1, 2))]
    used = set(names).union(*(ex.free_vars(e) for pair in pairs for e in pair))
    same(lambda rng: hz.sample_worst(pairs, rng, used, box, guards, 20),
         lambda rng: reference(pairs_deviation(pairs), rng, used, box, guards,
                               20), seed)
