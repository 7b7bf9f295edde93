"""Exterior calculus over a chart's coordinate spaces.

A ``Space`` fixes the ordered coordinate list a form or vector field may
reference; the order determines every wedge sign.  Three spaces matter:
the base (x only), the total space (x, y), and the first jet (x, y, v).

Forms store a map from strictly increasing tuples of coordinate indices to
coefficient expressions; zero coefficients are dropped on construction, so
a form is zero iff its table is empty.
"""

from __future__ import annotations

from . import expr as ex
from .chart import JetChart
from .errors import ChartMismatch, DegreeZero, MissingInverse
from .record import Record

BASE, TOTAL, JET = "base", "total", "jet"


class Space(Record):
    chart: JetChart
    level: str
    coords: tuple

    def index(self, name):
        try:
            return self.coords.index(name)
        except ValueError:
            raise ChartMismatch(f"{name!r} is not a coordinate of this space") from None


def base_space(chart):
    return Space(chart, BASE, chart.base_names)


def total_space(chart):
    return Space(chart, TOTAL, chart.e_coords())


def jet_space(chart):
    return Space(chart, JET, chart.jet_coords())


def _same_space(a, b):
    if a.space != b.space:
        raise ChartMismatch(f"operands live on different spaces "
                            f"({a.space.level} vs {b.space.level})")


class Form(Record):
    space: Space
    degree: int
    coeffs: dict  # increasing index tuple -> Expr

    def __post_init__(self):
        clean = {}
        for key, c in self.coeffs.items():
            key = tuple(key)
            if list(key) != sorted(set(key)):
                raise ValueError(f"non-increasing wedge key {key}")
            if len(key) != self.degree:
                raise ValueError(f"key {key} does not match degree {self.degree}")
            if not c.is_zero():
                clean[key] = c
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return self._plus(other, ())

    def __sub__(self, other):
        return self._plus(other, (ex.MINUS_ONE,))

    def _plus(self, other, sign):
        """self + sign * other, `sign` a factor tuple: a key both forms hold
        is one sum of products, so no negated copy of `other` is built.  The
        keys keep their order: self's first, then other's new ones."""
        _same_space(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = ex.sum_of_products(((out.get(k, ex.ZERO),), (*sign, c)))
        return Form(self.space, self.degree, out)

    def scale(self, e):
        return Form(self.space, self.degree,
                    {k: ex.mul(e, c) for k, c in self.coeffs.items()})

    def coefficient(self, *names):
        idx = tuple(sorted(self.space.index(n) for n in names))
        return self.coeffs.get(idx, ex.ZERO)

    def as_scalar(self):
        if self.degree != 0:
            raise ValueError("not a 0-form")
        return self.coeffs.get((), ex.ZERO)

    def describe(self):
        """Stable text rendering 'expr * dz1^dz2 + ...' in key order."""
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            mono = "^".join(
                f"d({n})" if "(" in n else f"d{n}"
                for n in (self.space.coords[i] for i in key))
            c = ex.to_text(self.coeffs[key])
            parts.append(f"({c}) {mono}".strip())
        return " + ".join(parts)


def zero_form(space, degree=0):
    return Form(space, degree, {})


def scalar_form(space, e):
    return Form(space, 0, {(): e})


def d_coord(space, name):
    """The basis 1-form d(name)."""
    return Form(space, 1, {(space.index(name),): ex.ONE})


def volume_form(space):
    """dx^0 ^ ... ^ dx^n on any space over the chart."""
    idx = tuple(space.index(x) for x in space.chart.base_names)
    return Form(space, len(idx), {idx: ex.ONE})


def _merge_keys(k1, k2):
    """Merge two increasing tuples; return (sign, merged) or (0, None)."""
    if set(k1) & set(k2):
        return 0, None
    merged = []
    sign = 1
    i = j = 0
    while i < len(k1) and j < len(k2):
        if k1[i] < k2[j]:
            merged.append(k1[i])
            i += 1
        else:
            # k2[j] jumps over the remaining len(k1)-i entries of k1
            if (len(k1) - i) % 2:
                sign = -sign
            merged.append(k2[j])
            j += 1
    merged.extend(k1[i:])
    merged.extend(k2[j:])
    return sign, tuple(merged)


def wedge(a, b):
    _same_space(a, b)
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            sign, key = _merge_keys(k1, k2)
            if sign:
                out.setdefault(key, []).append((ex.rat(sign), c1, c2))
    return Form(a.space, a.degree + b.degree,
                {k: ex.sum_of_products(ps) for k, ps in out.items()})


def exterior_d(a, factor=1, memos=None, merges=None):
    """`factor` * d of a form, `factor` an integer.  Contributions are
    grouped by output key, and each output coefficient is built in one
    accumulator, one key at a time, the factor taken into each part's sign.
    One derivative memo per coordinate, which also keeps the product rule of
    each monic part, and one merge memo serve the whole call: the caller's
    `memos` (coordinate -> ``_diff`` memo, one for every coordinate of the
    space) and `merges` when it passes them, as `Lagrangian` does for d
    Theta, else fresh ones that die with the call."""
    sp = a.space
    parts = {}   # output key -> [(sign, coefficient, coordinate)]
    for key, c in a.coeffs.items():
        for i, name in enumerate(sp.coords):
            if i not in key and name in ex.free_vars(c):
                sign, merged = _merge_keys((i,), key)
                parts.setdefault(merged, []).append((factor * sign, c, name))
    if memos is None:
        memos, merges = {name: {} for name in sp.coords}, {}
    return Form(sp, a.degree + 1, {k: ex.sum_of_partials(ps, memos, merges)
                                   for k, ps in parts.items()})


class VectorField(Record):
    space: Space
    comps: dict  # coordinate name -> Expr

    def __post_init__(self):
        clean = {}
        for name, c in self.comps.items():
            self.space.index(name)
            if not c.is_zero():
                clean[name] = c
        object.__setattr__(self, "comps", clean)

    def component(self, name):
        return self.comps.get(name, ex.ZERO)

    def apply(self, e):
        """Directional derivative of a scalar: X(f)."""
        declared = set(self.space.coords)
        return ex.sum_of_products((c, ex.differentiate(e, name, declared=declared))
                                  for name, c in self.comps.items())

    def __add__(self, other):
        _same_space(self, other)
        out = dict(self.comps)
        for n, c in other.comps.items():
            out[n] = ex.add(out.get(n, ex.ZERO), c)
        return VectorField(self.space, out)

    def describe(self):
        if not self.comps:
            return "0"
        names = sorted(self.comps, key=self.space.index)
        return " + ".join(f"({ex.to_text(self.comps[n])}) d/d{n}" for n in names)


def coordinate_field(space, name):
    return VectorField(space, {name: ex.ONE})


def interior(X, a):
    """Contraction in the first slot; degree drops by one."""
    _same_space(X, a)
    if a.degree == 0:
        raise DegreeZero("interior product of a 0-form")
    out = {}
    for key, c in a.coeffs.items():
        for pos, idx in enumerate(key):
            comp = X.component(a.space.coords[idx])
            if comp.is_zero():
                continue
            rest = key[:pos] + key[pos + 1:]
            out.setdefault(rest, []).append((ex.rat((-1) ** pos), comp, c))
    return Form(a.space, a.degree - 1,
                {k: ex.sum_of_products(ps) for k, ps in out.items()})


def lie_derivative(X, a):
    """Cartan formula L(X) = i(X) d + d i(X); on 0-forms just X(f)."""
    _same_space(X, a)
    if a.degree == 0:
        return scalar_form(a.space, X.apply(a.as_scalar()))
    return interior(X, exterior_d(a)) + exterior_d(interior(X, a))


def bracket(X, Y):
    """Lie bracket of vector fields: [X, Y](f) = X(Y(f)) - Y(X(f))."""
    _same_space(X, Y)
    out = {}
    for name in X.space.coords:
        c = ex.sub(X.apply(Y.component(name)), Y.apply(X.component(name)))
        if not c.is_zero():
            out[name] = c
    return VectorField(X.space, out)


class VectorValuedForm(Record):
    """A tuple of forms indexed by a frame (one entry per fiber coordinate)."""
    frame: str
    comps: tuple

    def __post_init__(self):
        degs = {f.degree for f in self.comps}
        sps = {f.space for f in self.comps}
        if len(degs) > 1 or len(sps) > 1:
            raise ChartMismatch("vector-valued form components disagree")

    def is_zero(self):
        return all(f.is_zero() for f in self.comps)


# ---------------------------------------------------------------------------
# coordinate maps and pullback
# ---------------------------------------------------------------------------

class CoordMap(Record):
    """A smooth map source -> target given by target-coordinate expressions.

    `components` maps every target coordinate name to an expression over the
    source coordinates.
    """
    source: Space
    target: Space
    components: dict

    def __post_init__(self):
        comps = dict(self.components)
        src = set(self.source.coords)
        for name in self.target.coords:
            if name not in comps:
                if name in src:
                    comps[name] = ex.var(name)
                else:
                    raise ChartMismatch(f"map is missing a component for {name!r}")
            extra = ex.free_vars(comps[name]) - src
            if extra:
                raise ChartMismatch(
                    f"component for {name!r} uses non-source names {sorted(extra)}")
        object.__setattr__(self, "components", comps)

    def compose_subst(self, e):
        return ex.substitute(e, self.components)

    def differential(self, name):
        """d(component for target coordinate `name`) as a 1-form on source."""
        declared = set(self.source.coords)
        comp = self.components[name]
        out = {}
        for i, w in enumerate(self.source.coords):
            dc = ex.differentiate(comp, w, declared=declared)
            if not dc.is_zero():
                out[(i,)] = dc
        return Form(self.source, 1, out)


def compose_maps(outer, inner):
    """outer o inner (inner applied first)."""
    if inner.target != outer.source:
        raise ChartMismatch("maps do not compose")
    comps = {name: inner.compose_subst(ce) for name, ce in outer.components.items()}
    return CoordMap(inner.source, outer.target, comps)


def replace_covectors(a, space, covector, coefficient=None):
    """Replace each basis covector dz^i of `a` by the 1-form covector(i) on
    `space`, and each coefficient c by coefficient(c), then expand.  Per
    term the 1-forms are wedged first, so the coefficient, usually the
    largest expression, is multiplied in once, and not at all when the
    wedge vanishes.  covector(i) is called once per index."""
    ones = {}
    out = {}
    for key, c in a.coeffs.items():
        factor = None
        for idx in key:
            if idx not in ones:
                ones[idx] = covector(idx)
            factor = ones[idx] if factor is None else wedge(factor, ones[idx])
            if factor.is_zero():
                break
        else:
            c = coefficient(c) if coefficient else c
            if factor is None:
                out[()] = [(c,)]
                continue
            for k, f in factor.coeffs.items():
                out.setdefault(k, []).append((c, f))
    return Form(space, a.degree, {k: ex.sum_of_products(ps) for k, ps in out.items()})


def pullback(cm, a):
    """Pull a form on cm.target back to cm.source."""
    if a.space != cm.target:
        raise ChartMismatch("form does not live on the map's target space")
    return replace_covectors(
        a, cm.source, lambda i: cm.differential(cm.target.coords[i]),
        cm.compose_subst)


def section_map(section):
    """The base -> (total|jet) coordinate map of a section."""
    ch = section.chart
    comps = dict(section.substitution())
    target = jet_space(ch) if hasattr(section, "g") else total_space(ch)
    return CoordMap(base_space(ch), target, comps)


def pullback_by_section(section, a):
    """Pull back along a section of E -> M or J1E -> M."""
    return pullback(section_map(section), a)


def pullback_vvf(cm, vvf):
    return VectorValuedForm(vvf.frame, tuple(pullback(cm, f) for f in vvf.comps))


class FiberedMap(Record):
    """Fiber-preserving self-map of the total space with declared base inverse.

    base_components: target base coordinate -> Expr in base coordinates.
    fiber_components: target fiber coordinate -> Expr in (base, fiber).
    base_inverse: source base coordinate -> Expr in base coordinates, the
    symbolic inverse of the base part (identity may be omitted).
    """
    chart: JetChart
    base_components: dict
    fiber_components: dict
    base_inverse: dict = None

    def __post_init__(self):
        from .errors import NotFiberPreserving
        ch = self.chart
        for x in ch.base_names:
            comp = self.base_components.get(x)
            if comp is None:
                raise ChartMismatch(f"missing base component for {x!r}")
            extra = ex.free_vars(comp) - set(ch.base_names)
            if extra:
                raise NotFiberPreserving(
                    f"base component for {x!r} depends on {sorted(extra)}")
        for y in ch.fiber_names:
            if y not in self.fiber_components:
                raise ChartMismatch(f"missing fiber component for {y!r}")

    def is_strong(self):
        return all(self.base_components[x] == ex.var(x) for x in self.chart.base_names)

    def total_map(self):
        comps = dict(self.base_components)
        comps.update(self.fiber_components)
        sp = total_space(self.chart)
        return CoordMap(sp, sp, comps)

    def inverse_base_jacobian(self):
        """(J^{-1})^nu_mu = d(PhiM^{-1})^nu/dx^mu composed with PhiM.

        For a strong map this is the identity without needing the inverse.
        """
        ch = self.chart
        if self.is_strong():
            return {(xn, xm): (ex.ONE if xn == xm else ex.ZERO)
                    for xn in ch.base_names for xm in ch.base_names}
        if not self.base_inverse:
            raise MissingInverse("a symbolic inverse of the base map is required")
        inv = {x: self.base_inverse.get(x, ex.var(x)) for x in ch.base_names}
        # check it really inverts the base part
        fwd = self.base_components
        for x in ch.base_names:
            back = ex.substitute(inv[x], fwd)
            if back != ex.var(x):
                raise MissingInverse(
                    f"declared inverse fails on {x!r}: got {ex.to_text(back)}")
        table = {}
        declared = set(ch.base_names)
        for xn in ch.base_names:
            for xm in ch.base_names:
                dinv = ex.differentiate(inv[xn], xm, declared=declared)
                table[(xn, xm)] = ex.substitute(dinv, fwd)
        return table
