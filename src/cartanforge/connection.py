"""Ehresmann connections on the configuration bundle and jet fields above it.

A connection is a Christoffel table Gamma^A_mu(x, y); the horizontal frame
it spans is H_mu = d/dx^mu + Gamma^A_mu d/dy^A.  A jet field one level up is
a pair of tables F^A_rho(x, y, v), G^A_{rho,mu}(x, y, v) whose horizontal
frame is H_mu = d/dx^mu + F^A_mu d/dy^A + G^A_{rho,mu} d/dv^A_rho.

Curvature is stored on the increasing-pair basis dx^mu ^ dx^eta (mu < eta);
the coefficient there equals the vertical part of [H_mu, H_eta], which the
test suite checks against an independent bracket computation.
"""

from __future__ import annotations

from . import expr as ex
from .chart import SectionE, SectionJ1, v_name
from .errors import ChartMismatch, UnknownCoordinate
from .forms import (
    Form,
    VectorField,
    VectorValuedForm,
    interior,
    jet_space,
    total_space,
    zero_form,
)
from .record import Record


class Connection(Record):
    chart: object
    gamma: dict  # (fiber name, base name) -> Expr

    def __post_init__(self):
        ch = self.chart
        allowed = set(ch.e_coords())
        table = {}
        for y in ch.fiber_names:
            for x in ch.base_names:
                g = self.gamma.get((y, x), ex.ZERO)
                extra = ex.free_vars(g) - allowed
                if extra:
                    raise UnknownCoordinate(
                        f"Gamma[{y},{x}] depends on {sorted(extra)}; "
                        "jet coordinates are not allowed")
                table[(y, x)] = g
        object.__setattr__(self, "gamma", table)

    def shift(self, gamma_table):
        """The connection nabla + gamma; the difference of two connections
        is always such a purely fiber-valued, v-independent table."""
        out = {k: ex.add(v, gamma_table.get(k, ex.ZERO))
               for k, v in self.gamma.items()}
        return Connection(self.chart, out)

    def difference(self, other):
        if self.chart != other.chart:
            raise ChartMismatch("connections on different charts")
        return {k: ex.sub(self.gamma[k], other.gamma[k]) for k in self.gamma}

    def horizontal_frame(self):
        """H_mu = d/dx^mu + Gamma^A_mu d/dy^A on the total space."""
        sp = total_space(self.chart)
        frame = []
        for x in self.chart.base_names:
            comps = {x: ex.ONE}
            for y in self.chart.fiber_names:
                comps[y] = self.gamma[(y, x)]
            frame.append(VectorField(sp, comps))
        return frame


def horizontal_split(conn, X):
    """X = f^mu H_mu + (g^A - f^mu Gamma^A_mu) d/dy^A."""
    ch = conn.chart
    sp = total_space(ch)
    if X.space != sp:
        raise ChartMismatch("expected a vector field on the total space")
    hor = {}
    ver = {}
    for x in ch.base_names:
        f = X.component(x)
        if not f.is_zero():
            hor[x] = f
    for y in ch.fiber_names:
        lift = ex.sum_of_products((X.component(x), conn.gamma[(y, x)])
                                  for x in ch.base_names)
        hor[y] = lift
        ver[y] = ex.sub(X.component(y), lift)
    return VectorField(sp, hor), VectorField(sp, ver)


class Curvature(Record):
    """Vertical-bundle-valued 2-form over the total space."""
    chart: object
    form: VectorValuedForm

    def coefficient(self, y, x_mu, x_eta):
        comp = self.form.comps[self.chart.fiber_names.index(y)]
        i = self.chart.base_names.index(x_mu)
        j = self.chart.base_names.index(x_eta)
        if i == j:
            return ex.ZERO
        c = comp.coefficient(x_mu, x_eta)
        return c if i < j else ex.mul(ex.MINUS_ONE, c)

    def is_zero(self):
        return self.form.is_zero()


def curvature(conn):
    """R^B_{mu eta} = dGamma^B_eta/dx^mu - dGamma^B_mu/dx^eta
                    + Gamma^A_mu dGamma^B_eta/dy^A - Gamma^A_eta dGamma^B_mu/dy^A
    on the basis dx^mu ^ dx^eta with mu < eta."""
    ch = conn.chart
    sp = total_space(ch)
    declared = set(ch.e_coords())

    def lift(mu, g):
        """The products of dg/dx^mu + Gamma^A_mu dg/dy^A."""
        return [(ex.differentiate(g, mu, declared=declared),)] + [
            (conn.gamma[(a, mu)], ex.differentiate(g, a, declared=declared))
            for a in ch.fiber_names]

    comps = []
    for b in ch.fiber_names:
        table = {}
        for i, xm in enumerate(ch.base_names):
            for xe in ch.base_names[i + 1:]:   # Form drops a zero
                table[(sp.index(xm), sp.index(xe))] = ex.sum_of_products(
                    lift(xm, conn.gamma[(b, xe)])
                    + [(ex.MINUS_ONE, *p) for p in lift(xe, conn.gamma[(b, xm)])])
        comps.append(Form(sp, 2, table))
    return Curvature(ch, VectorValuedForm("d/dy", tuple(comps)))


def mixed_partial_obstruction(conn, phi: SectionE):
    """d_eta(Gamma^A_mu o phi) - d_mu(Gamma^A_eta o phi): the necessary
    condition a solved section would satisfy; a nonzero entry witnesses why
    no section can solve the integral equations at that point."""
    ch = conn.chart
    sub = phi.substitution()
    out = {}
    for y in ch.fiber_names:
        for i, xm in enumerate(ch.base_names):
            for xe in ch.base_names[i + 1:]:
                gm = ex.substitute(conn.gamma[(y, xm)], sub)
                ge = ex.substitute(conn.gamma[(y, xe)], sub)
                out[(y, xm, xe)] = ex.sub(
                    ex.differentiate(gm, xe, declared=ch.base_names),
                    ex.differentiate(ge, xm, declared=ch.base_names))
    return out


def integral_residual(conn, phi: SectionE):
    """r^A_mu = d(phi^A)/dx^mu - Gamma^A_mu o phi; zero iff phi integral."""
    ch = conn.chart
    if phi.chart != ch:
        raise ChartMismatch("section lives on a different chart")
    sub = phi.substitution()
    out = {}
    for y in ch.fiber_names:
        for x in ch.base_names:
            out[(y, x)] = ex.sub(
                ex.differentiate(phi.component(y), x, declared=ch.base_names),
                ex.substitute(conn.gamma[(y, x)], sub))
    return out


# ---------------------------------------------------------------------------
# jet fields over the jet space
# ---------------------------------------------------------------------------

class JetField2(Record):
    """Tables (F^A_rho, G^A_{rho,mu}) of a 1-jet field over the jet space."""
    chart: object
    F: dict  # (fiber, base) -> Expr in (x, y, v)
    G: dict  # (fiber, base rho, base mu) -> Expr

    def __post_init__(self):
        ch = self.chart
        allowed = set(ch.jet_coords())
        ftab, gtab = {}, {}
        for y in ch.fiber_names:
            for xr in ch.base_names:
                f = self.F.get((y, xr), ex.ZERO)
                if ex.free_vars(f) - allowed:
                    raise UnknownCoordinate(f"F[{y},{xr}] leaves the jet chart")
                ftab[(y, xr)] = f
                for xm in ch.base_names:
                    g = self.G.get((y, xr, xm), ex.ZERO)
                    if ex.free_vars(g) - allowed:
                        raise UnknownCoordinate(f"G[{y},{xr},{xm}] leaves the jet chart")
                    gtab[(y, xr, xm)] = g
        object.__setattr__(self, "F", ftab)
        object.__setattr__(self, "G", gtab)

    def horizontal_frame(self):
        """H_mu = d/dx^mu + F^A_mu d/dy^A + G^A_{rho,mu} d/dv^A_rho."""
        ch = self.chart
        sp = jet_space(ch)
        frame = []
        for xm in ch.base_names:
            comps = {xm: ex.ONE}
            for y in ch.fiber_names:
                comps[y] = self.F[(y, xm)]
                for xr in ch.base_names:
                    comps[v_name(y, xr)] = self.G[(y, xr, xm)]
            frame.append(VectorField(sp, comps))
        return frame


def sopde_project(yf: JetField2):
    """True iff the field is a second-order equation: the jet-exchange
    projection keeps the F-slots, so this holds iff F^A_rho == v^A_rho
    identically."""
    ch = yf.chart
    return all(ex.sub(yf.F[(y, x)], ex.var(v_name(y, x))).is_zero()
               for y in ch.fiber_names for x in ch.base_names)


def integral_residual2(yf: JetField2, psi: SectionJ1):
    """Residuals of  df^A/dx = F o psi  and  dg^A_rho/dx = G o psi."""
    ch = yf.chart
    if psi.chart != ch:
        raise ChartMismatch("section lives on a different chart")
    sub = psi.substitution()
    f_res, g_res = {}, {}
    for y in ch.fiber_names:
        comp = psi.f[ch.fiber_names.index(y)]
        for xm in ch.base_names:
            f_res[(y, xm)] = ex.sub(
                ex.differentiate(comp, xm, declared=ch.base_names),
                ex.substitute(yf.F[(y, xm)], sub))
            for xr in ch.base_names:
                g_res[(y, xr, xm)] = ex.sub(
                    ex.differentiate(psi.g[v_name(y, xr)], xm,
                                     declared=ch.base_names),
                    ex.substitute(yf.G[(y, xr, xm)], sub))
    return f_res, g_res


def jetfield_contract(yf: JetField2, xi: Form):
    """Slot the horizontal frame into the first n+1 arguments of xi.

    Forms of degree below n+1 contract to zero.  The base frame is fixed to
    the coordinate fields d/dx^mu; rescalings of the volume form recover the
    general multilinear version, which nothing downstream needs.
    """
    ch = yf.chart
    sp = jet_space(ch)
    if xi.space != sp:
        raise ChartMismatch("contraction expects a jet-space form")
    if xi.degree < ch.n_plus_1:
        return zero_form(sp, 0)
    out = xi
    for H in yf.horizontal_frame():
        out = interior(H, out)
    return out


def jetfield_curvature_residuals(yf: JetField2):
    """Vertical components of [H_mu, H_eta]; all zero iff integrable."""
    from .forms import bracket
    ch = yf.chart
    frame = yf.horizontal_frame()
    out = {}
    for i, xm in enumerate(ch.base_names):
        for j in range(i + 1, ch.n_plus_1):
            br = bracket(frame[i], frame[j])
            for name, c in br.comps.items():
                out[(xm, ch.base_names[j], name)] = c
    return out

