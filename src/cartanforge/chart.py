"""Coordinate model of a fibered space, its first jet, and jet symbols.

A chart declares base coordinates x^mu (mu = 0..n, with volume form
dx^0 ^ dx^1 ^ ... ^ dx^n in exactly that order) and fiber coordinates y^A
(A running over the declared fiber names).  All derived coordinate names are
generated with a fixed spelling that the expression grammar can also write:

    d(y,x)      first-jet coordinate  v^A_mu
    a(y,x)      repeated-jet slot     a^A_rho       (prolonged f-components)
    b(y,x,x')   repeated-jet slot     b^A_{rho,mu}  (NOT symmetric)
    dd(y,x,x')  second-jet symbol     w^A_{mu,nu}   (symmetric; stored with
                                       the two base indices in chart order)

Everything here is an immutable value; sections are global expressions on
one chart (no atlases).
"""

from __future__ import annotations

import re

from . import expr as ex
from .errors import DuplicateName, EmptyAxis, UnknownCoordinate
from .record import Record

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def v_name(y, x):
    return f"d({y},{x})"


def a_name(y, x):
    return f"a({y},{x})"


def b_name(y, xr, xm):
    return f"b({y},{xr},{xm})"


def w_name(y, x1, x2):
    return f"dd({y},{x1},{x2})"


class JetChart(Record):
    base_names: tuple
    fiber_names: tuple

    @property
    def n_plus_1(self):
        return len(self.base_names)

    @property
    def n_fields(self):
        return len(self.fiber_names)

    def v_names(self):
        """First-jet names, fiber-major: all mu for y^0, then y^1, ..."""
        return tuple(v_name(y, x) for y in self.fiber_names for x in self.base_names)

    def e_coords(self):
        return self.base_names + self.fiber_names

    def jet_coords(self):
        return self.base_names + self.fiber_names + self.v_names()

    def w(self, y, x1, x2):
        """Symmetric accessor: dd(y, x1, x2) with indices put in chart order."""
        i1 = self.base_names.index(x1)
        i2 = self.base_names.index(x2)
        if i1 > i2:
            x1, x2 = x2, x1
        return w_name(y, x1, x2)

    def canonical_name(self, name):
        """Validate a coordinate reference; symmetrize dd index order.

        Used as the parser's validation hook.  Raises UnknownCoordinate for
        names that do not belong to any of this chart's coordinate layers.
        """
        m = re.match(r"(d|dd|a|b)\((.*)\)\Z", name)
        if m is None:
            if name in self.base_names or name in self.fiber_names:
                return name
            raise UnknownCoordinate(f"{name!r} is not a coordinate of this chart")
        kind, args = m.group(1), m.group(2).split(",")
        y = args[0]
        if y not in self.fiber_names:
            raise UnknownCoordinate(f"{y!r} is not a fiber coordinate")
        for xc in args[1:]:
            if xc not in self.base_names:
                raise UnknownCoordinate(f"{xc!r} is not a base coordinate")
        if kind == "dd":
            return self.w(y, args[1], args[2])
        return name

    def parse(self, text):
        return ex.parse(text, validate=self.canonical_name)


def make_chart(base_names, fiber_names):
    """Build a chart, checking the name rules.

    Raises EmptyAxis when either axis is empty and DuplicateName when names
    repeat, collide across axes, or shadow a reserved spelling.
    """
    base = tuple(base_names)
    fiber = tuple(fiber_names)
    if not base or not fiber:
        raise EmptyAxis("base and fiber must each declare at least one coordinate")
    seen = set()
    for name in base + fiber:
        if not _IDENT.match(name or ""):
            raise DuplicateName(f"invalid coordinate name {name!r}")
        if name in ex.RESERVED_NAMES:
            raise DuplicateName(f"{name!r} collides with a reserved name")
        if name in seen:
            raise DuplicateName(f"coordinate {name!r} declared twice")
        seen.add(name)
    return JetChart(base, fiber)


def _check_base_only(chart, e, what):
    extra = ex.free_vars(e) - set(chart.base_names)
    if extra:
        raise UnknownCoordinate(
            f"{what} must depend on base coordinates only; found {sorted(extra)}")


class SectionE(Record):
    """Section of the configuration bundle: y^A = phi^A(x)."""
    chart: JetChart
    components: tuple  # Expr per fiber name, base variables only

    def __post_init__(self):
        if len(self.components) != self.chart.n_fields:
            raise UnknownCoordinate("one component per fiber coordinate required")
        for c in self.components:
            _check_base_only(self.chart, c, "a section component")

    def component(self, y):
        return self.components[self.chart.fiber_names.index(y)]

    def substitution(self):
        """Fiber coordinate -> component expression."""
        return dict(zip(self.chart.fiber_names, self.components))


class SectionJ1(Record):
    """Section of the jet bundle over the base: (f^A(x), g^A_mu(x))."""
    chart: JetChart
    f: tuple            # Expr per fiber name
    g: dict  # v-name -> Expr

    def __post_init__(self):
        for c in self.f:
            _check_base_only(self.chart, c, "a jet-section f component")
        for name in self.chart.v_names():
            if name not in self.g:
                raise UnknownCoordinate(f"missing jet-section component {name}")
            _check_base_only(self.chart, self.g[name], "a jet-section g component")

    def substitution(self):
        out = dict(zip(self.chart.fiber_names, self.f))
        out.update(self.g)
        return out

    def base_section(self):
        """The underlying section pi^1 o psi of the configuration bundle."""
        return SectionE(self.chart, self.f)


def total_derivative(chart, e, x):
    """D_mu e = de/dx^mu + v^B_mu de/dy^B + w^B_{nu,mu} de/dv^B_nu, mu = x,
    with the symmetric second-jet symbols dd(b,nu,mu) in the second-order
    slot.  Absent and zero partials are skipped."""
    declared = set(chart.jet_coords())
    free = ex.free_vars(e)
    slots = [(v_name(b, x), b) for b in chart.fiber_names]
    slots += [(chart.w(b, nu, x), v_name(b, nu))
              for b in chart.fiber_names for nu in chart.base_names]
    products = [(ex.differentiate(e, x, declared=declared),)]
    for coefficient, name in slots:
        if name in free:
            d = ex.differentiate(e, name, declared=declared)
            if not d.is_zero():
                products.append((ex.var(coefficient), d))
    return ex.sum_of_products(products)


def prolong_section(phi: SectionE) -> SectionJ1:
    """First prolongation: g^A_mu = d(phi^A)/d(x^mu)."""
    ch = phi.chart
    g = {}
    for y, comp in zip(ch.fiber_names, phi.components):
        for x in ch.base_names:
            g[v_name(y, x)] = ex.differentiate(comp, x, declared=ch.base_names)
    return SectionJ1(ch, phi.components, g)


def prolong_sectionJ1(psi: SectionJ1) -> dict:
    """Repeated-jet coordinates of j^1(psi): a^A_rho and b^A_{rho,mu}.

    The b table is not symmetrized; psi need not be holonomic.
    """
    ch = psi.chart
    out = {}
    for y, comp in zip(ch.fiber_names, psi.f):
        for x in ch.base_names:
            out[a_name(y, x)] = ex.differentiate(comp, x, declared=ch.base_names)
    for y in ch.fiber_names:
        for xr in ch.base_names:
            gexpr = psi.g[v_name(y, xr)]
            for xm in ch.base_names:
                out[b_name(y, xr, xm)] = ex.differentiate(
                    gexpr, xm, declared=ch.base_names)
    return out
