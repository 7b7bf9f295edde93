"""Immutable, interned symbolic scalar expressions with a fixed canonical form.

Every coefficient in the geometric layers is an ``Expr``.  The normal form is
deliberately small and predictable:

* exact rational arithmetic on arbitrary-precision integers: a node holds
  each rational as a reduced (numerator, denominator) pair of ints with a
  positive denominator, and ``Rat.value`` and ``Pow.exponent`` return the
  equal ``Fraction`` only where the API reads them,
* sums flattened, like terms merged, terms sorted by a total structural order,
* products flattened, distributed over sums (an explicit expand pass that
  raises ExpressionTooLarge beyond MAX_EXPANSION products), same-base
  powers merged by adding exponents,
* powers carry rational exponents with denominator a power of two
  (``sqrt`` is represented as exponent 1/2),
* function applications at rational arguments fold when exact
  (sin(0) -> 0, abs(-3) -> 3, sqrt(4) -> 2, ...).

Nothing else is rewritten: no trig identities, no ``sign(u)^2 = 1``, no
rational-function cancellation such as (x^2-1)/(x-1).  Structural equality
of normal forms is the engine's notion of symbolic equality.

Nodes are hash-consed: each comes from one intern table keyed by (tag,
payload, children), children by identity and rationals by (numerator,
denominator).  Structurally equal expressions are one object, so ``==`` and
``hash`` are identity.  A new node's sort key ``Expr.key`` is built when it
is interned, from its children's stored keys.  The table maps a key to a
weak reference that holds that key, so it keeps no dead expression alive.
A node that only cyclic garbage still refers to (a list that contains
itself and the node, say) lives until the cyclic collector runs, and a new
node of its structure can be interned before the old reference's callback
runs; the callback therefore removes the entry only if it still holds that
same reference.  Copying or pickling a node rebuilds it through its
constructor.

Sums and products of canonical terms meet in one term accumulator, a dict
from a term's factor tuple to its coefficient as a reduced (numerator,
denominator) pair of ints, the pair a ``Rat`` node holds; nodes are built
only for the surviving terms, sorted once.  No ``Fraction`` is built in the
kernels: coefficients multiply through ``_qmul`` and same-base exponents
add through ``_qadd``.  ``add`` collects its terms
there; the expand pass of a product (``_expand``, through ``_mono_mul``)
and the product rule of ``differentiate`` (``_product_rule``) put each
product there through one merge kernel, ``_merge``, which merges same-base
powers of a ``Var`` or ``Func`` and leaves any other collision to a full
product.  Each merge (a pair of factors -> the merged factor) is memoized
for one product of sums or ``sum_of_partials`` call, or for a whole
``exterior_d`` call, which passes one memo to every ``sum_of_partials`` it
makes, or for a ``Lagrangian``'s lifetime, whose tables and d Theta share
one.  A sum of many parts is one ``add(*parts)`` call, not a fold, and a
sum of products is one ``sum_of_products(products)`` call: ``_mul``
multiplies each product straight into the sum's accumulator (``mul`` is
``_mul`` with none), so a product's terms are never built as nodes of
their own, and a coefficient past MAX_RAT_BITS raises only in a term that
survives the sum.  The parser builds the opening run of rationals and atoms
of each product in one ``mul`` (README, "Symbolic kernels").

Differentiation of ``abs`` has no symbolic rule and raises, except through
even roots: d sqrt(abs(u)) = u' * sign(u) / (2*sqrt(abs(u))), with ``sign``
kept as an opaque factor that numeric evaluation resolves.  ``sign`` itself
differentiates to 0 whatever its argument, which is not differentiated (its
jump at 0 is ignored; numeric checks sample away from it with guards).

``differentiate`` and ``substitute`` (whose walk with no bindings is
``normalize``) each keep a memo from ``Pow`` and
``Func`` nodes to their result for one call, so an atom repeated across
terms (the powers of ``abs(G)`` and ``sign(G)`` in the Nambu string's
Poincare-Cartan form) is worked out once; an exception is never stored.
``differentiate``'s memo also keeps the product rule of each monic part
it meets, under the factor tuple: built once as coefficient pairs and
factor tuples, and scaled into the accumulator of every term with that
monic part.  ``sum_of_partials`` takes one memo per variable from its
caller, so ``exterior_d`` shares them, rules included, across its whole
call, and a ``Lagrangian`` passes its own to its two tables of partials
and to the ``exterior_d`` of Theta, so they live as long as it does.  No
other memo outlives its call: a memo kept for the process raised the
Nambu ``verify``'s peak RSS 22 -> 47 MB.

Numeric evaluation has two forms.  ``evaluate_numeric``, a walk over the
DAG, gives single values and the text of every error (a domain failure is a
``NumericDomain``).  ``emit_numeric`` writes the same IEEE operations as
statements, from which ``harness`` builds its sampling kernels; where one
raises, the kernel's point is replayed through the walk for the error.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from operator import attrgetter

from .errors import (
    DomainFunction,
    ExpressionTooLarge,
    NumericDomain,
    ParseError,
    UnboundVariable,
    UnknownVariable,
    location,
)

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sign")

# Most terms the expand pass of `mul` may build from one product of sums;
# an integer power of a sum counts all of its expansions together.
MAX_EXPANSION = 10_000

# Most bits of a rational's numerator or denominator: about 4,200 digits,
# inside the 4,300 digits Python converts to text by default.
MAX_RAT_BITS = 14_000

# Names the parser treats as syntax rather than ordinary identifiers.
RESERVED_NAMES = frozenset(FUNCTIONS) | {"sqrt", "d", "dd", "a", "b"}


class Expr:
    """Base class; concrete nodes are Rat, Var, Add, Mul, Pow, Func."""

    __slots__ = ("_skey", "_fvs", "__weakref__")

    def key(self):
        # (rank, payload, children) nested tuples: a total structural order
        return self._skey

    def fvs(self):
        s = getattr(self, "_fvs", None)
        if s is None:
            if isinstance(self, Var):
                s = frozenset((self.name,))
            else:   # a child's own set when it holds the union
                sets = [c.fvs() for c in _children(self)]
                s = frozenset().union(*sets)
                for t in sets:
                    if len(t) == len(s):
                        s = t
                        break
            object.__setattr__(self, "_fvs", s)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __repr__(self):
        return f"Expr[{to_text(self)}]"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the interning constructor
        return type(self), tuple(getattr(self, n) for n in type(self).__slots__)

    def is_zero(self):
        return self is ZERO


def _children(e):
    """The child nodes of `e`, left to right."""
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    if isinstance(e, (Rat, Var)):
        return ()
    raise TypeError(f"not an Expr: {e!r}")


# (tag, payload, children) -> _Ref to the live node of that structure
_TABLE = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)   # its table key: no functools.partial per node


def _evict(ref):
    # a newer node may be interned under ref.key already (see module docstring)
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


def _intern(cls, k, *fields):
    """The live node interned under `k`, or a new one holding `fields`."""
    r = _TABLE.get(k)
    e = r() if r is not None else None
    if e is None:
        e = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(e, name, value)
        object.__setattr__(e, "_skey", e._make_key())
        ref = _TABLE[k] = _Ref(e, _evict)
        ref.key = k
    return e


_KEY = attrgetter("_skey")


def _pair(value, den=1):
    """The reduced pair (n, d), d > 0, of value / den; as ``Fraction(value,
    den)`` takes them (ints, Fractions, text), and raising as it raises."""
    if type(value) is int and type(den) is int and den:
        g = math.gcd(value, den)
        if den < 0:
            g = -g
        return value // g, den // g
    if den == 1 and type(value) is Fraction:
        return value.numerator, value.denominator
    v = Fraction(value) if den == 1 else Fraction(value, den)
    return v.numerator, v.denominator


def _qtext(n, d):
    """The text of the rational n/d, exactly ``str(Fraction(n, d))``."""
    return str(n) if d == 1 else f"{n}/{d}"


def _rational_text(n, d):
    """The text of a new node's rational, which must fit MAX_RAT_BITS."""
    if max(n.bit_length(), d.bit_length()) > MAX_RAT_BITS:
        raise ExpressionTooLarge(f"a rational would pass {MAX_RAT_BITS} bits")
    return _qtext(n, d)


class Rat(Expr):
    """A rational number, held as a reduced pair: ``num``, and ``den`` > 0."""

    __slots__ = ("num", "den")

    def __new__(cls, value, den=1):
        return _rat(*_pair(value, den))

    @property
    def value(self):
        return Fraction(self.num, self.den)

    def _make_key(self):
        return (0, _rational_text(self.num, self.den), ())


def _rat(n, d=1):
    """The Rat of the pair (n, d), which must be reduced with d > 0."""
    return _intern(Rat, (0, n, d), n, d)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        if not name or not isinstance(name, str):
            raise UnknownVariable(f"invalid variable name: {name!r}")
        return _intern(cls, (1, name), name)

    def _make_key(self):
        return (1, self.name, ())


class Func(Expr):
    __slots__ = ("fname", "arg")

    def __new__(cls, fname, arg):
        return _intern(cls, (2, fname, arg), fname, arg)

    def _make_key(self):
        return (2, self.fname, (self.arg._skey,))


class Pow(Expr):
    """``base`` to the rational exponent ``num``/``den``, a reduced pair."""

    __slots__ = ("base", "num", "den")

    def __new__(cls, base, exponent, den=1):
        return _pow(base, *_pair(exponent, den))

    @property
    def exponent(self):
        return Fraction(self.num, self.den)

    def _make_key(self):
        return (3, _rational_text(self.num, self.den), (self.base._skey,))


def _pow(base, n, d):
    """The Pow node of `base` and the pair (n, d), reduced with d > 0."""
    return _intern(Pow, (3, base, n, d), base, n, d)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        factors = tuple(factors)
        return _intern(cls, (4, factors), factors)

    def _make_key(self):
        return (4, "", tuple(f._skey for f in self.factors))


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        terms = tuple(terms)
        return _intern(cls, (5, terms), terms)

    def _make_key(self):
        return (5, "", tuple(t._skey for t in self.terms))


ZERO = _rat(0)
ONE = _rat(1)
MINUS_ONE = _rat(-1)


def rat(p, q=1):
    return Rat(p, q)


def var(name):
    return Var(name)


# ---------------------------------------------------------------------------
# canonicalizing constructors
# ---------------------------------------------------------------------------

def _split_coeff(e):
    """Split a canonical term into (numerator, denominator, factor tuple).

    The factor tuple is the monic part, sorted and with distinct bases; like
    terms merge under it, so merging interns no monic node."""
    if isinstance(e, Mul):
        fs = e.factors
        if isinstance(fs[0], Rat):
            return fs[0].num, fs[0].den, fs[1:]
        return 1, 1, fs
    if isinstance(e, Rat):
        return e.num, e.den, ()
    return 1, 1, (e,)


def _qmul(n, d, m, e):
    """The reduced pair of (n/d) * (m/e), both reduced; when either is 0,
    only the numerator 0 is meaningful."""
    g, h = math.gcd(n, e), math.gcd(m, d)
    return (n // g) * (m // h), (d // h) * (e // g)


def _qadd(n, d, m, e):
    """The reduced pair of n/d + m/e, both reduced; a sum of 0 is 0/1."""
    p, q = n * e + m * d, d * e
    g = math.gcd(p, q)
    return p // g, q // g


def _term(n, d, fs):
    """The canonical term (n/d) * fs; inverse of _split_coeff."""
    if not fs:
        return _rat(n, d)
    if n == 1 and d == 1:
        return fs[0] if len(fs) == 1 else Mul(fs)
    return Mul((_rat(n, d),) + fs)


def _merge(by_base, fs, merges):
    """Merge the factors `fs` into `by_base` (base -> factor) in place, or
    return False when ``mul`` must fold the product: a shared base other
    than a Var or Func (``pow_`` can fold it to a rational, a sum or a base
    that merges again).  Same-base powers of a Var or Func merge by adding
    exponents, once per pair of factors in the caller's `merges` memo.  A
    base occurs at most once in `fs`, and no factor is a sum."""
    for f in fs:
        b = f.base if type(f) is Pow else f
        g = by_base.get(b)
        if g is None:
            by_base[b] = f
        elif type(b) is Var or type(b) is Func:
            m = merges.get((g, f))
            if m is None:
                fn, fd = (f.num, f.den) if f is not b else (1, 1)
                gn, gd = (g.num, g.den) if g is not b else (1, 1)
                m = merges[g, f] = pow_(b, *_qadd(fn, fd, gn, gd))
            by_base[b] = m
        else:
            return False
    return True


def _monic(by_base):
    """The sorted factor tuple of a merged base map."""
    return tuple(sorted([f for f in by_base.values() if f is not ONE], key=_KEY))


def _mono_mul(fa, fb, merges):
    """The factor tuple of the product of two factor tuples, or None when
    ``mul`` must fold it (see ``_merge``)."""
    if not fa or not fb:
        return fa or fb
    by_base = {}
    if _merge(by_base, fa, merges) and _merge(by_base, fb, merges):
        return _monic(by_base)
    return None


def _put(acc, n, d, fs, t=None):
    """Add (n/d) * fs to a term accumulator: factor tuple -> [numerator,
    denominator, the term's node while unmerged and unscaled]."""
    got = acc.get(fs)
    if got is None:
        acc[fs] = [n, d, t]
    else:   # a sum of 0 reduces to 0/1
        m, e = got[0] * d + n * got[1], got[1] * d
        g = math.gcd(m, e)
        got[:] = m // g, e // g, None


def _collect(acc, e, c=None):
    """Add c * e (c None for 1, else a reduced pair) to acc; return acc."""
    for t in e.terms if type(e) is Add else (e,):
        if t is not ZERO:
            n, d, fs = _split_coeff(t)
            if c is None:
                _put(acc, n, d, fs, t)
            else:
                _put(acc, *_qmul(n, d, *c), fs)
    return acc


def _sum(acc):
    """The canonical sum in an accumulator: surviving terms only, sorted once."""
    out = [_term(n, d, fs) if t is None else t
           for fs, (n, d, t) in acc.items() if n]
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_KEY)
    return Add(out)


def add(*terms):
    """Canonical sum: flatten, merge like terms, sort, drop zeros."""
    acc = {}
    for t in terms:
        _collect(acc, t)
    return _sum(acc)


def mul(*factors):
    """Canonical product: flatten, distribute over sums, merge powers."""
    return _mul(factors, None)


def sum_of_products(products):
    """The canonical sum of the products of the factor tuples in `products`,
    ``add(*(mul(*p) for p in products))``: each product is multiplied
    straight into one term accumulator, so nodes are built only for the
    terms that survive the sum.  A coefficient past MAX_RAT_BITS therefore
    raises only when its term survives."""
    acc = {}
    for p in products:
        if len(p) == 1:   # a canonical node is its own product
            _collect(acc, p[0])
        else:
            _mul(p, acc)
    return _sum(acc)


def _mul(factors, acc):
    """The canonical product of `factors`; with a term accumulator `acc`,
    its terms are added there instead, and no node of it is built."""
    flat = []
    cn = cd = 1   # the rational coefficient, a reduced pair
    stack = list(factors)
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(f.factors)
        elif isinstance(f, Rat):
            cn, cd = _qmul(cn, cd, f.num, f.den)
        else:
            flat.append(f)
    if cn == 0:
        return ZERO

    sums = [f for f in flat if isinstance(f, Add)]
    if sums:
        out = {} if acc is None else acc
        if len(flat) == 1:
            # a rational times a sum: rescale the terms, which stay as they are
            _collect(out, flat[0], None if cn == 1 and cd == 1 else (cn, cd))
        else:
            _expand(out, cn, cd, flat, sums)
        return _sum(out) if acc is None else None

    # merge same-base powers
    by_base = {}   # base node -> (exponent pair, the factor while unmerged)
    for f in flat:
        b, n, d = (f.base, f.num, f.den) if isinstance(f, Pow) else (f, 1, 1)
        got = by_base.get(b)
        by_base[b] = (n, d, f) if got is None else (*_qadd(got[0], got[1], n, d), None)
    if len(by_base) == len(flat):   # distinct bases: already canonical
        out = flat
    else:
        out = []
        for b, (n, d, orig) in by_base.items():
            if orig is not None:  # untouched canonical factor
                out.append(orig)
                continue
            pn, pd, fs = _split_coeff(pow_(b, n, d))   # ONE when n == 0
            cn, cd = _qmul(cn, cd, pn, pd)
            out.extend(fs)
        # pow_ can fold a merged power to a sum, or to factors whose bases
        # merge again (sqrt(x*y)^2 -> x*y beside x): one more product settles it
        if (Add in map(type, out)
                or len({f.base if type(f) is Pow else f for f in out}) != len(out)):
            return _mul((_rat(cn, cd), *out), acc)

    out.sort(key=_KEY)
    if acc is not None:
        _put(acc, cn, cd, tuple(out))
        return None
    if not out:
        return _rat(cn, cd)
    if cn == 1 and cd == 1:
        return out[0] if len(out) == 1 else Mul(out)
    return Mul([_rat(cn, cd)] + out)


def _expand(acc, cn, cd, flat, sums):
    """The expand pass: add (cn/cd) times the product of `flat`, which holds
    the `sums`, to `acc` term by term; a product the monomial kernel
    declines is a full product."""
    _check_expansion(math.prod(len(s.terms) for s in sums))
    merges = {}
    prods = [(cn, cd, (), ())]   # (n, d, factors, pieces)
    rest = [(f,) for f in flat if not isinstance(f, Add)]
    for group in rest + [s.terms for s in sums]:
        split = [(t, *_split_coeff(t)) for t in group]
        prods = [(*_qmul(n, d, tn, td),
                  None if fs is None else _mono_mul(fs, tfs, merges), ts + (t,))
                 for n, d, fs, ts in prods for t, tn, td, tfs in split]
    for n, d, fs, ts in prods:
        if fs is None:
            _mul((_rat(cn, cd), *ts), acc)
        else:
            _put(acc, n, d, fs)


def _check_expansion(products):
    if products > MAX_EXPANSION:
        raise ExpressionTooLarge(
            f"expansion would build {products} terms "
            f"(limit {MAX_EXPANSION})")


def _iroot(m, n):
    """The exact n-th root of the integer m >= 0, or None."""
    if m in (0, 1):
        return m
    # integer Newton iteration down from a power of two above the root
    r = 1 << -(-m.bit_length() // n)
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            return r if r ** n == m else None
        r = s


def pow_(base, exponent, den=None):
    """Canonical power with rational exponent: an int, ``Fraction`` or text,
    or with `den` given, the pair (exponent, den), reduced with den > 0."""
    if den is None:
        exponent, den = _pair(exponent)
    n, d = exponent, den
    if n == 0:
        return ONE
    if n == 1 and d == 1:
        return base

    if isinstance(base, Rat):
        vn, vd = base.num, base.den
        if d == 1:
            if vn == 0 and n < 0:
                raise NumericDomain("0 raised to a negative power")
            bits = max(abs(vn), vd).bit_length()
            if (bits - 1) * abs(n) >= MAX_RAT_BITS:   # a lower bound
                raise ExpressionTooLarge(
                    f"{_qtext(vn, vd)}^{n} would pass {MAX_RAT_BITS} bits")
            if n > 0:
                return _rat(vn ** n, vd ** n)
            p, q = vd ** -n, vn ** -n
            return _rat(p, q) if q > 0 else _rat(-p, -q)
        if vn >= 0:
            p, q = _iroot(vn, d), _iroot(vd, d)
            if p is not None and q is not None:
                return pow_(_rat(p, q), n, 1)
        return _pow(base, n, d)

    if isinstance(base, Pow):
        inner, bn, bd = base.base, base.num, base.den
        if bd == 1 and bn % 2 == 0 and d != 1:
            # (u^even)^(p/q) == (|u|^even)^(p/q); keep the abs explicit
            return pow_(Func("abs", inner), *_qmul(bn, bd, n, d))
        return pow_(inner, *_qmul(bn, bd, n, d))

    if isinstance(base, Mul):
        if d == 1:
            return mul(*(pow_(f, n, 1) for f in base.factors))
        return _pow(base, n, d)

    if isinstance(base, Add):
        if d == 1 and n > 0:
            # one expansion per factor; a binomial's power gains only one
            # term per factor, so the bound counts the products of them all
            result, built = base, 0
            for _ in range(n - 1):
                built += len(base.terms) * (
                    len(result.terms) if isinstance(result, Add) else 1)
                _check_expansion(built)
                result = mul(result, base)
            return result
        return _pow(base, n, d)

    return _pow(base, n, d)


# function -> {argument pair: value pair} where the value is rational
_EXACT_AT = {
    "sin": {(0, 1): (0, 1)},
    "cos": {(0, 1): (1, 1)},
    "exp": {(0, 1): (1, 1)},
    "log": {(1, 1): (0, 1)},
}


def func(fname, arg):
    """Canonical function application; sqrt lowers to exponent 1/2."""
    if fname == "sqrt":
        return pow_(arg, 1, 2)
    if fname not in FUNCTIONS:
        raise ParseError(f"unknown function {fname!r}")
    if isinstance(arg, Rat):
        exact = _EXACT_AT.get(fname, {}).get((arg.num, arg.den))
        if exact is not None:
            return _rat(*exact)
        if fname == "abs":
            return _rat(abs(arg.num), arg.den)
        if fname == "sign":
            return ZERO if arg.num == 0 else (ONE if arg.num > 0 else MINUS_ONE)
    if fname == "abs" and isinstance(arg, Func) and arg.fname == "abs":
        return arg
    return Func(fname, arg)


def sub(a, b):
    return sum_of_products(((a,), (MINUS_ONE, b)))


def div(a, b):
    return mul(a, pow_(b, -1, 1))


def normalize(e):
    """Rebuild bottom-up through the canonicalizing constructors: the
    substitution walk with no bindings.

    Idempotent: normal forms pass through unchanged.
    """
    return _subst(e, {}, {})


def free_vars(e):
    return e.fvs()


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def differentiate(e, name):
    """Exact partial derivative with respect to the variable `name`.

    Other variables are constants.  ``abs`` admits no symbolic rule and
    raises DomainFunction unless its argument does not depend on `name`;
    rational powers of ``abs`` use the sign-factor rule (see module
    docstring).
    """
    return _diff(e, name, {})


def _diff(e, x, memo):
    # memo, for this call's variable only: Pow/Func node -> derivative, and
    # a product term's factor tuple -> its product rule (_diff_into)
    if x not in e.fvs():
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, (Add, Mul)):
        return sum_of_partials(((1, e, x),), {x: memo})
    d = memo.get(e)
    if d is None:
        # an exception (abs) propagates before anything is stored
        d = memo[e] = _diff_atom(e, x, memo)
    return d


def _diff_into(acc, e, x, memo, merges, c=None):
    """Add c * de/dx (c None for 1, else a reduced pair) to acc.  A product
    term scales the product rule of its monic part, which `memo` keeps under
    the factor tuple for the rest of the call."""
    for t in e.terms if type(e) is Add else (e,):
        if type(t) is not Mul:
            _collect(acc, _diff(t, x, memo), c)
            continue
        if x not in t.fvs():
            continue
        tn, td, fs = _split_coeff(t)
        cn, cd = (tn, td) if c is None else _qmul(tn, td, *c)
        rule = memo.get(fs)
        if rule is None:
            rule = memo[fs] = _product_rule(fs, x, memo, merges)
        products, declined = rule
        for un, ud, p in products:
            _put(acc, *_qmul(cn, cd, un, ud), p)
        for others, u in declined:
            _collect(acc, mul(_rat(tn, td), *others, u), c)


def _product_rule(fs, x, memo, merges):
    """d(fs)/dx for a monic part `fs`, as (numerator, denominator, factor
    tuple) products the monomial kernel merged and (cofactors, term) pairs
    it declined, which a full ``mul`` folds.  Each cofactor's base map is
    built once and copied for every term of its factor's derivative."""
    products, declined = [], []
    for i, f in enumerate(fs):
        df = _diff(f, x, memo)
        if df is ZERO:
            continue
        others = fs[:i] + fs[i + 1:]
        base = {}
        _merge(base, others, merges)   # distinct bases: nothing to decline
        for u in df.terms if type(df) is Add else (df,):
            un, ud, ufs = _split_coeff(u)
            by_base = dict(base)
            if _merge(by_base, ufs, merges):
                products.append((un, ud, _monic(by_base)))
            else:
                declined.append((others, u))
    return products, declined


def sum_of_partials(parts, memos, merges=None):
    """Canonical sum of s * de/dx over (s, e, x) in `parts`, s an integer,
    in one accumulator; `memos` maps each x to a ``_diff`` memo the caller
    shares, and `merges` is a merge memo it may share."""
    acc = {}
    if merges is None:
        merges = {}
    for s, e, x in parts:
        _diff_into(acc, e, x, memos[x], merges, None if s == 1 else (s, 1))
    return _sum(acc)


def _diff_atom(e, x, memo):
    """Derivative of a Pow or Func node that depends on `x`."""
    if isinstance(e, Pow):   # n/d - 1 is (n - d)/d, reduced as n/d is
        b, n, d = e.base, e.num, e.den
        if isinstance(b, Func) and b.fname == "abs":
            du = _diff(b.arg, x, memo)
            if du.is_zero():
                return ZERO
            return mul(_rat(n, d), pow_(b, n - d, d), func("sign", b.arg), du)
        db = _diff(b, x, memo)
        if db.is_zero():
            return ZERO
        return mul(_rat(n, d), pow_(b, n - d, d), db)
    if isinstance(e, Func):
        if e.fname == "sign":
            return ZERO
        du = _diff(e.arg, x, memo)
        if du.is_zero():
            return ZERO
        if e.fname == "sin":
            return mul(func("cos", e.arg), du)
        if e.fname == "cos":
            return mul(MINUS_ONE, func("sin", e.arg), du)
        if e.fname == "exp":
            return mul(e, du)
        if e.fname == "log":
            return mul(pow_(e.arg, -1, 1), du)
        if e.fname == "abs":
            raise DomainFunction(
                "abs has no symbolic derivative rule (only even roots of abs do)")
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e, bindings):
    """Simultaneous substitution of variables by expressions, rebuilt
    through the canonicalizing constructors (with no bindings, ``normalize``)."""
    return _subst(e, bindings, {})


def _subst(e, b, memo):
    # memo: Pow/Func node -> its substituted form, for this call only
    if isinstance(e, Rat):
        return e
    if isinstance(e, Var):
        return b.get(e.name, e)
    if isinstance(e, Add):
        return sum_of_products(
            tuple(_subst(f, b, memo) for f in t.factors) if type(t) is Mul
            else (_subst(t, b, memo),) for t in e.terms)
    if isinstance(e, Mul):
        return mul(*(_subst(f, b, memo) for f in e.factors))
    r = memo.get(e)
    if r is None:
        if isinstance(e, Pow):
            r = pow_(_subst(e.base, b, memo), e.num, e.den)
        elif isinstance(e, Func):
            r = func(e.fname, _subst(e.arg, b, memo))
        else:
            raise TypeError(f"not an Expr: {e!r}")
        memo[e] = r
    return r


def evaluate_numeric(e, point):
    """IEEE double evaluation; every free variable must be bound.  Each
    distinct subtree is evaluated once per call, so the time follows the
    expression's DAG, not its tree."""
    try:
        return _eval(e, point, {})
    except OverflowError as exc:
        raise NumericDomain(f"overflow: {exc}") from exc
    except ValueError as exc:   # inf - inf in fsum, sin or cos of inf
        raise NumericDomain(f"invalid operation: {exc}") from exc


def _eval(e, p, memo):
    v = memo.get(e)
    if v is not None:
        return v
    if isinstance(e, Rat):
        v = e.num / e.den   # float(Fraction)'s division, OverflowError included
    elif isinstance(e, Var):
        try:
            v = float(p[e.name])
        except KeyError:
            raise UnboundVariable(f"no value bound for {e.name!r}") from None
    elif isinstance(e, Add):
        v = math.fsum(_eval(t, p, memo) for t in e.terms)
    elif isinstance(e, Mul):
        v = 1.0
        for f in e.factors:
            v *= _eval(f, p, memo)
    elif isinstance(e, Pow):
        b = _eval(e.base, p, memo)
        n, d = e.num, e.den
        if d != 1 and b < 0.0:
            raise NumericDomain(f"even root of negative value {b}")
        if b == 0.0 and n < 0:
            raise NumericDomain("division by zero")
        v = b ** (n if d == 1 else n / d)
    elif isinstance(e, Func):
        u = _eval(e.arg, p, memo)
        if e.fname == "log" and u <= 0.0:
            raise NumericDomain(f"log of non-positive value {u}")
        v = _FUNCS[e.fname](u)
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[e] = v
    return v


_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
          "abs": abs, "sign": lambda u: float((u > 0.0) - (u < 0.0))}


class _Escape(ArithmeticError):
    """Raised inside compiled code where the tree walk raises NumericDomain
    without Python raising first (an even root of a negative value)."""


NUMERIC_NS = {"_fsum": math.fsum, "_float": float, "_sin": math.sin,
              "_cos": math.cos, "_exp": math.exp, "_log": math.log,
              "_Escape": _Escape,
              # every class a compiled operation can raise; the tree walk
              # then raises its own error for the same operation
              "_Rerun": (ArithmeticError, LookupError, TypeError, ValueError)}


def emit_numeric(e, names, lines, consts):
    """Append to `lines` a statement for each subtree of `e` missing from
    `names` (subtree -> local or literal; a ``Var`` missing there is read
    from the point ``p``) and return what holds `e`'s value.  The statements
    perform the tree walk's IEEE operations in its order on the same values,
    so results agree bit for bit: one local per distinct subtree, rationals
    converted once (one too large for a float is bound in `consts` and
    converted where its statement runs), ``math.fsum`` over terms in term
    order, products left to right from 1.0."""
    # post-order walk, children left to right as the tree walk visits them
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if node in names:
            continue
        if isinstance(node, Rat):
            try:
                names[node] = f"({node.num / node.den!r})"
            except OverflowError:
                names[node] = f"v{len(lines)}"
                consts[f"_c{len(lines)}"] = node.value
                lines.append(f"{names[node]} = _float(_c{len(lines)})")
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(_children(node)))
            continue
        if isinstance(node, Var):
            rhs = f"_float(p[{node.name!r}])"
        elif isinstance(node, Add):
            rhs = f"_fsum(({''.join(names[t] + ', ' for t in node.terms)}))"
        elif isinstance(node, Mul):
            rhs = " * ".join(["1.0"] + [names[f] for f in node.factors])
        elif isinstance(node, Pow):
            b, n, d = names[node.base], node.num, node.den
            if d == 1:
                rhs = f"{b} ** ({n})"
            else:
                # Python raises for 0.0 to a negative power and on overflow,
                # but returns a complex for a negative base: escape first
                lines.append(f"if {b} < 0.0: raise _Escape")
                rhs = f"{b} ** {n / d!r}"
        elif node.fname == "abs":
            rhs = f"abs({names[node.arg]})"
        elif node.fname == "sign":
            u = names[node.arg]
            rhs = f"1.0 if {u} > 0.0 else (-1.0 if {u} < 0.0 else 0.0)"
        else:   # sin, cos, exp, log: math raises where the tree walk does
            rhs = f"_{node.fname}({names[node.arg]})"
        names[node] = f"v{len(lines)}"
        lines.append(f"{names[node]} = {rhs}")
    return names[e]


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def _print_pow(e):
    num, den = e.num, e.den
    base = to_text(e.base)
    if isinstance(e.base, (Add, Mul)) or (isinstance(e.base, Rat)
                                          and (e.base.num < 0 or e.base.den != 1)):
        base = f"({base})"
    if den == 1:
        return f"{base}^{num}"
    # base^num re-parses to a power of base only for a Var or Func base or a
    # sum to a negative power: otherwise the power goes outside the roots
    outer = num != 1 and (isinstance(e.base, (Rat, Mul))
                          or isinstance(e.base, Add) and num > 0)
    inner = base if num == 1 or outer else f"{base}^{num}"
    while den > 1:
        if den % 2:
            raise ValueError(f"unprintable exponent denominator {den}")
        inner = f"sqrt({inner})"
        den //= 2
    return f"{inner}^{num}" if outer else inner


def _term_text(n, d, fs):
    """The text of the canonical term (n/d) * fs, n > 0, built from the
    pair and the factor tuple without interning the term."""
    if not fs:
        return _qtext(n, d)
    text = "*".join(map(to_text, fs))
    return text if n == 1 and d == 1 else f"{_qtext(n, d)}*{text}"


def to_text(e):
    """Canonical text; re-parses to a structurally equal expression."""
    if isinstance(e, Rat):
        return _qtext(e.num, e.den)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Func):
        return f"{e.fname}({to_text(e.arg)})"
    if isinstance(e, Pow):
        return _print_pow(e)
    if isinstance(e, Mul):
        n, d, fs = _split_coeff(e)
        return ("-" if n < 0 else "") + _term_text(abs(n), d, fs)
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            n, d, fs = _split_coeff(t)
            sign = ("-" if i == 0 else " - ") if n < 0 else ("" if i == 0 else " + ")
            parts.append(sign + _term_text(abs(n), d, fs))
        return "".join(parts)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# parser for the expression grammar
# ---------------------------------------------------------------------------
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' signed_int)?
#   base   := number | ident | func '(' expr ')' | jet '(' ident,... ')'
#           | '(' expr ')'
#
# Jet coordinate references d(y,x), dd(y,x,x), a(y,x), b(y,x,x) parse to
# variables with exactly that spelling; a chart may canonicalize them later.

_JET_ARITY = {"d": 2, "a": 2, "dd": 3, "b": 3}
# only ASCII digits: str.isdigit() also takes '²' or '①', which int() refuses
_DIGITS = frozenset("0123456789")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.toks = []
        self._scan()
        self.i = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i + 1
                while j < n and t[j] in _DIGITS:
                    j += 1
                if j < n and t[j] == ".":
                    j += 1
                    while j < n and t[j] in _DIGITS:
                        j += 1
                m = j   # the mantissa's end
                if j < n and t[j] in "eE":
                    k = j + 1
                    if k < n and t[k] in "+-":
                        k += 1
                    if k < n and t[k] in _DIGITS:
                        j = k + 1
                        while j < n and t[j] in _DIGITS:
                            j += 1
                # Fraction(text) converts every digit and builds 10^|exp| first
                if m - i > 4_300 or j - m > 6:
                    self.error(f"number of {j - i} characters is too large", i)
                self.toks.append(("num", t[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (t[j].isalpha() or t[j] in _DIGITS or t[j] == "_"):
                    j += 1
                self.toks.append(("ident", t[i:j], i))
                i = j
                continue
            if ch in "+-*/^(),":
                self.toks.append((ch, ch, i))
                i += 1
                continue
            self.error(f"unexpected character {ch!r}", i)
        self.toks.append(("end", "", n))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def error(self, msg, pos):
        raise ParseError(msg, *location(self.text, pos))


def parse(text, validate=None):
    """Parse expression text to a canonical Expr.

    `validate` is an optional callable invoked on every plain variable or jet
    reference name; it may raise, or return a canonical replacement name
    (used by charts to symmetrize second-jet index order).
    """
    toks = _Tokens(text)
    try:
        e = _parse_expr(toks, validate)
    except RecursionError:
        toks.error("expression nested too deeply", toks.peek()[2])
    tail = toks.peek()
    if tail[0] != "end":
        toks.error(f"unexpected trailing input {tail[1]!r}", tail[2])
    return e


def _parse_expr(toks, val):
    op = toks.next()[0] if toks.peek()[0] == "-" else "+"
    terms = []
    while True:
        terms.append(_parse_term(toks, val, 1 if op == "+" else -1))
        if toks.peek()[0] not in ("+", "-"):
            return add(*terms)
        op = toks.next()[0]


def _parse_term(toks, val, sign):
    """`sign` (1 or -1) times the factors joined by '*' and '/', multiplied
    as the left-to-right fold ``mul(e, f)`` (``div``) gives them: ``mul`` is
    not associative on powers of a rational or a product.  The opening run
    of rationals and atoms (a Var, a Func or a Pow of either) is one ``mul``,
    with the sign in its coefficient; their merges never fold further, so it
    equals the fold.  Each rational is interned as it joins the coefficient,
    so an oversized one raises where the fold raised it."""
    n, d, atoms = 1, 1, []   # the opening run: coefficient pair and atoms
    e = None                 # the fold, from the first factor after the run
    op = None
    while True:
        f = _parse_factor(toks, val)
        if op == "/":
            f = pow_(f, -1, 1)
        t = type(f)
        if e is not None:
            e = mul(e, f)
        elif t is Rat:
            n, d = _qmul(n, d, f.num, f.den)
            _rat(n, d)   # an oversized coefficient raises here, as in the fold
        elif t is Var or t is Func or t is Pow and type(f.base) in (Var, Func):
            atoms.append(f)
        else:
            e = f if op is None else mul(_run(n, d, atoms), f)
        if toks.peek()[0] not in ("*", "/"):
            if e is None:
                return _run(sign * n, d, atoms)
            return e if sign == 1 else mul(MINUS_ONE, e)
        op = toks.next()[0]


def _run(n, d, atoms):
    """``mul(_rat(n, d), *atoms)``, with no call for a lone factor."""
    if not atoms:
        return _rat(n, d)
    if len(atoms) == 1 and n == 1 and d == 1:
        return atoms[0]
    return mul(_rat(n, d), *atoms)


def _parse_factor(toks, val):
    e = _parse_base(toks, val)
    if toks.peek()[0] == "^":
        toks.next()
        sign = 1
        if toks.peek()[0] == "-":
            toks.next()
            sign = -1
        tok = toks.expect("num")
        if not tok[1].isdigit():
            toks.error(f"exponent must be an integer, found {tok[1]!r}", tok[2])
        e = pow_(e, sign * int(tok[1]))
    return e


def _parse_base(toks, val):
    tok = toks.next()
    kind, text = tok[0], tok[1]
    if kind == "num":
        return _rat(int(text)) if text.isdigit() else Rat(text)
    if kind == "(":
        e = _parse_expr(toks, val)
        toks.expect(")")
        return e
    if kind == "ident":
        if toks.peek()[0] == "(":
            if text == "sqrt" or text in FUNCTIONS:
                toks.next()
                arg = _parse_expr(toks, val)
                toks.expect(")")
                return func(text, arg)
            if text in _JET_ARITY:
                toks.next()
                args = [toks.expect("ident")[1]]
                for _ in range(_JET_ARITY[text] - 1):
                    toks.expect(",")
                    args.append(toks.expect("ident")[1])
                toks.expect(")")
                name = f"{text}({','.join(args)})"
                if val is not None:
                    name = val(name) or name
                return Var(name)
            toks.error(f"unknown function {text!r}", tok[2])
        if text in RESERVED_NAMES:
            toks.error(f"{text!r} is reserved and cannot stand alone", tok[2])
        if val is not None:
            text = val(text) or text
        return Var(text)
    toks.error(f"unexpected token {text!r}", tok[2])
