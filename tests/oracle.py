"""Reference copies of the expand-always kernels, kept as a test oracle.

These are the sum, product, power, product rule and exterior derivative as
they stood before products were multiplied term by term into one
accumulator: every product of the expand pass is a full ``mul`` and every
piece of the product rule is re-merged by ``add``, with ``Fraction``
coefficients.  They build nodes only through the interned constructors
(``Rat``, ``Mul``, ``Add``, ``Pow``, ``Func``) and ``func``, so a result
that agrees structurally with the library's is the very same node, and
tests compare them with ``is``.  ``key`` is the sort key built recursively,
as ``Expr.key`` built it on first use before keys were stored at intern
time.

``cartan_forms`` is the generic exterior-algebra route to the canonical
forms, as ``lagrangian.cartan_forms`` took it before it wrote their
coefficient tables from the display formula: one ``wedge`` of theta^A with
``interior(d/dx^mu, omega)``, scaled by p^A_mu and summed, for every
non-zero momentum.
"""

import math
from fractions import Fraction

from cartanforge import expr as ex
from cartanforge import forms as fm
from cartanforge import lagrangian as lg
from cartanforge.canonical import contact_form
from cartanforge.errors import DomainFunction, NumericDomain

_F1 = Fraction(1)


def key(e):
    if isinstance(e, ex.Rat):
        return (0, str(e.value), ())
    if isinstance(e, ex.Var):
        return (1, e.name, ())
    if isinstance(e, ex.Func):
        return (2, e.fname, (key(e.arg),))
    if isinstance(e, ex.Pow):
        return (3, str(e.exponent), (key(e.base),))
    if isinstance(e, ex.Mul):
        return (4, "", tuple(key(f) for f in e.factors))
    return (5, "", tuple(key(t) for t in e.terms))


def _split_coeff(e):
    if isinstance(e, ex.Rat):
        return e.value, ex.ONE
    if isinstance(e, ex.Mul):
        fs = e.factors
        if isinstance(fs[0], ex.Rat):
            return fs[0].value, (fs[1] if len(fs) == 2 else fs[1:])
        return _F1, fs
    return _F1, e


def _term(c, monic):
    if monic is ex.ONE:
        return ex.Rat(c)
    if type(monic) is tuple:
        return ex.Mul(monic if c == 1 else (ex.Rat(c),) + monic)
    return monic if c == 1 else ex.Mul((ex.Rat(c), monic))


def add(*terms):
    flat = []
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, ex.Add):
            stack.extend(t.terms)
        else:
            flat.append(t)
    merged = {}
    for t in flat:
        c, m = _split_coeff(t)
        if c == 0:
            continue
        got = merged.get(m)
        if got is None:
            merged[m] = [c, t]
        else:
            got[0] += c
            got[1] = None
    out = []
    for m, (c, t) in merged.items():
        if t is not None:
            out.append(t)
        elif c != 0:
            out.append(_term(c, m))
    if not out:
        return ex.ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=ex.Expr.key)
    return ex.Add(out)


def mul(*factors):
    flat = []
    coeff = _F1
    stack = list(factors)
    while stack:
        f = stack.pop()
        if isinstance(f, ex.Mul):
            stack.extend(f.factors)
        elif isinstance(f, ex.Rat):
            coeff = f.value if coeff is _F1 else coeff * f.value
        else:
            flat.append(f)
    if coeff == 0:
        return ex.ZERO

    if len(flat) == 1 and isinstance(flat[0], ex.Add):
        return _scale_sum(coeff, flat[0])
    sums = [f for f in flat if isinstance(f, ex.Add)]
    if sums:
        ex._check_expansion(math.prod(len(s.terms) for s in sums))
        rest = [f for f in flat if not isinstance(f, ex.Add)]
        products = [[ex.Rat(coeff)] + rest]
        for s in sums:
            products = [p + [t] for p in products for t in s.terms]
        return add(*(mul(*p) for p in products))

    by_base = {}
    for f in flat:
        b, e = (f.base, f.exponent) if isinstance(f, ex.Pow) else (f, _F1)
        got = by_base.get(b)
        by_base[b] = (e, f) if got is None else (got[0] + e, None)
    if len(by_base) == len(flat):
        out = flat
    else:
        out = []
        for b, (e, orig) in by_base.items():
            if orig is not None:
                out.append(orig)
                continue
            if e == 0:
                continue
            p = pow_(b, e)
            c, m = _split_coeff(p)
            coeff *= c
            if type(m) is tuple:
                out.extend(m)
            elif m is not ex.ONE:
                out.append(m)
        if coeff == 0:
            return ex.ZERO
        if any(isinstance(f, ex.Add) for f in out):
            return mul(ex.Rat(coeff), *out)
        seen = {}
        for f in out:
            b, e = (f.base, f.exponent) if isinstance(f, ex.Pow) else (f, _F1)
            seen[b] = seen[b] + e if b in seen else e
        if len(seen) != len(out):
            return mul(ex.Rat(coeff), *[pow_(b, e) for b, e in seen.items()])

    out.sort(key=ex.Expr.key)
    if not out:
        return ex.Rat(coeff)
    if coeff == 1 and len(out) == 1:
        return out[0]
    if coeff == 1:
        return ex.Mul(out)
    return ex.Mul([ex.Rat(coeff)] + out)


def _scale_sum(c, s):
    if c == 1:
        return s
    terms = []
    for t in s.terms:
        tc, m = _split_coeff(t)
        terms.append(_term(tc * c, m))
    return add(*terms)


def pow_(base, exponent):
    e = exponent if type(exponent) is Fraction else Fraction(exponent)
    if e == 0:
        return ex.ONE
    if e == 1:
        return base
    if isinstance(base, ex.Rat):
        v = base.value
        if e.denominator == 1:
            if v == 0 and e < 0:
                raise NumericDomain("0 raised to a negative power")
            return (ex.Rat(v ** e.numerator) if e > 0
                    else ex.Rat(Fraction(1) / v ** (-e.numerator)))
        if v >= 0:
            root = ex._nth_root_exact(v, e.denominator)
            if root is not None:
                return pow_(ex.Rat(root), Fraction(e.numerator))
        return ex.Pow(base, e)
    if isinstance(base, ex.Pow):
        inner, ei = base.base, base.exponent
        if ei.denominator == 1 and ei.numerator % 2 == 0 and e.denominator != 1:
            return pow_(ex.Func("abs", inner), ei * e)
        return pow_(inner, ei * e)
    if isinstance(base, ex.Mul):
        if e.denominator == 1:
            return mul(*(pow_(f, e) for f in base.factors))
        return ex.Pow(base, e)
    if isinstance(base, ex.Add):
        if e.denominator == 1 and e > 0:
            result, built = base, 0
            for _ in range(e.numerator - 1):
                built += len(base.terms) * (
                    len(result.terms) if isinstance(result, ex.Add) else 1)
                ex._check_expansion(built)
                result = mul(result, base)
            return result
        return ex.Pow(base, e)
    return ex.Pow(base, e)


def differentiate(e, name):
    return _diff(e, name, {})


def _diff(e, x, memo):
    if x not in e.fvs():
        return ex.ZERO
    if isinstance(e, ex.Var):
        return ex.ONE
    if isinstance(e, ex.Add):
        return add(*(_diff(t, x, memo) for t in e.terms))
    if isinstance(e, ex.Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            df = _diff(f, x, memo)
            if df.is_zero():
                continue
            others = e.factors[:i] + e.factors[i + 1:]
            pieces.append(mul(df, *others))
        return add(*pieces) if pieces else ex.ZERO
    d = memo.get(e)
    if d is None:
        d = memo[e] = _diff_atom(e, x, memo)
    return d


def _diff_atom(e, x, memo):
    if isinstance(e, ex.Pow):
        b, n = e.base, e.exponent
        if isinstance(b, ex.Func) and b.fname == "abs":
            du = _diff(b.arg, x, memo)
            if du.is_zero():
                return ex.ZERO
            return mul(ex.Rat(n), pow_(b, n - 1), ex.func("sign", b.arg), du)
        db = _diff(b, x, memo)
        if db.is_zero():
            return ex.ZERO
        return mul(ex.Rat(n), pow_(b, n - 1), db)
    if e.fname == "sign":
        return ex.ZERO
    du = _diff(e.arg, x, memo)
    if du.is_zero():
        return ex.ZERO
    if e.fname == "sin":
        return mul(ex.func("cos", e.arg), du)
    if e.fname == "cos":
        return mul(ex.MINUS_ONE, ex.func("sin", e.arg), du)
    if e.fname == "exp":
        return mul(e, du)
    if e.fname == "log":
        return mul(pow_(e.arg, Fraction(-1)), du)
    raise DomainFunction("abs has no symbolic derivative rule")


def exterior_d(a):
    sp = a.space
    out = {}
    for key, c in a.coeffs.items():
        for i, name in enumerate(sp.coords):
            if i in key:
                continue
            dc = differentiate(c, name)
            if dc.is_zero():
                continue
            sign, merged = fm._merge_keys((i,), key)
            if sign < 0:
                dc = mul(ex.MINUS_ONE, dc)
            out[merged] = add(out.get(merged, ex.ZERO), dc)
    return fm.Form(sp, a.degree + 1, out)


def cartan_forms(lag):
    ch = lag.chart
    js = fm.jet_space(ch)
    om = fm.volume_form(js)
    vt = fm.zero_form(js, ch.n_plus_1)
    for y in ch.fiber_names:
        th = contact_form(ch, y)
        for x in ch.base_names:
            p = lag.momentum(y, x)
            if p.is_zero():
                continue
            vt = vt + fm.wedge(th, fm.interior(fm.coordinate_field(js, x), om)).scale(p)
    big_theta = vt + om.scale(lag.L)
    return lg.CartanForms(vt, big_theta,
                          fm.exterior_d(big_theta).scale(ex.MINUS_ONE))
