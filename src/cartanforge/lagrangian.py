"""Lagrangian densities and the structures they induce.

Everything is phrased against the chart's volume form dx^0 ^ ... ^ dx^n.
The three canonical forms are built from the local expressions

    vartheta = p^A_mu theta^A ^ i(d/dx^mu) omega,   p^A_mu = dL/dv^A_mu
    Theta    = vartheta + L omega
    Omega    = -d Theta

`Lagrangian.partials` maps every jet coordinate z to dL/dz, built whole on
first use and kept on the instance (not a field: equality and hashing see
only `chart` and `L`); `cartan_forms` keeps its result there too.  The
momenta, both Euler-Lagrange routes, `energy_density`,
`legendre_difference`, `noether.total_variation` and the catalog's
finite-difference check all read it.  The routes the catalog compares the
constructions against take their own d(L omega) and never read it:
`vartheta_intrinsic`, `energy_intrinsic` and hypothesis (b) of
`noether.jetfield_noether_check`.

The constructors only build: `cartan_forms` and `energy_density` follow
these display formulas.  The independent intrinsic routes, contractions
through the vertical endomorphisms, are `vartheta_intrinsic` and
`energy_intrinsic`; the identity catalog (`harness.run_identity_catalog`)
compares each pair, which pins the orientation conventions down
mechanically.

The Euler-Lagrange equations come by two routes, along sections
(`derive_el`) and for second-order jet fields (`jetfield_el`).  Both are
dL/dy^A - D_mu(dL/dv^A_mu) with the one total derivative
`chart.total_derivative`; they differ only in what fills its second-order
slot: the second-jet symbols dd(y,x,x'), symmetric by construction, or the
jet field's unknowns G(y,x_rho,x_mu).  Either output is affine
(quasi-linear) in that slot by first-orderedness of the Lagrangian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import expr as ex
from .canonical import contact_form, vertical_endo_S, vertical_endo_V
from .chart import SectionE, total_derivative, v_name
from .connection import JetField2, jetfield_contract, sopde_project
from .errors import ChartMismatch, UnknownCoordinate
from .forms import (
    coordinate_field,
    exterior_d,
    interior,
    jet_space,
    volume_form,
    wedge,
    zero_form,
)


@dataclass(frozen=True)
class Lagrangian:
    chart: object
    L: object  # Expr over the jet coordinates

    def __post_init__(self):
        extra = ex.free_vars(self.L) - set(self.chart.jet_coords())
        if extra:
            raise UnknownCoordinate(
                f"Lagrangian references non-jet names {sorted(extra)}")

    @cached_property
    def partials(self):
        """dL/dz for every jet coordinate z, taken once on first use; a
        partial with no symbolic rule (`abs`) raises on that first use."""
        return {z: ex.differentiate(self.L, z) for z in self.chart.jet_coords()}

    def momentum(self, y, x):
        """p^A_mu = dL/dv^A_mu."""
        return self.partials[v_name(y, x)]


@dataclass(frozen=True)
class CartanForms:
    vartheta: object
    theta: object   # Poincare-Cartan (n+1)-form
    omega: object   # Poincare-Cartan (n+2)-form


def vartheta_intrinsic(lag):
    """i(V) d(L omega) through honest contractions; the independent route."""
    return vertical_endo_V(lag.chart).contract_with_dL(lag.L)


def cartan_forms(lag):
    """All three canonical forms, built from the display formula for
    vartheta; the catalog compares it with `vartheta_intrinsic`.  Built once
    per Lagrangian object and kept on it, like `partials`, so they live as
    long as the Lagrangian does."""
    cf = lag.__dict__.get("cartan_forms")
    if cf is not None:
        return cf
    ch = lag.chart
    js = jet_space(ch)
    om = volume_form(js)
    vt = zero_form(js, ch.n_plus_1)
    for y in ch.fiber_names:
        th = contact_form(ch, y)
        for x in ch.base_names:
            p = lag.momentum(y, x)
            if p.is_zero():
                continue
            vt = vt + wedge(th, interior(coordinate_field(js, x), om)).scale(p)
    big_theta = vt + om.scale(lag.L)
    big_omega = exterior_d(big_theta).scale(ex.MINUS_ONE)
    cf = lag.__dict__["cartan_forms"] = CartanForms(vt, big_theta, big_omega)
    return cf


# ---------------------------------------------------------------------------
# Euler-Lagrange system for sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ELSystem:
    chart: object
    components: dict = field(compare=False)  # fiber name -> Expr

    def residuals_along(self, phi: SectionE):
        """Substitute a section and its first and second derivatives."""
        ch = self.chart
        if phi.chart != ch:
            raise ChartMismatch("section lives on a different chart")
        sub = dict(phi.substitution())
        for y in ch.fiber_names:
            comp = phi.component(y)
            firsts = {}
            for x in ch.base_names:
                firsts[x] = ex.differentiate(comp, x, declared=ch.base_names)
                sub[v_name(y, x)] = firsts[x]
            for i, x1 in enumerate(ch.base_names):
                for x2 in ch.base_names[i:]:
                    sub[ch.w(y, x1, x2)] = ex.differentiate(
                        firsts[x1], x2, declared=ch.base_names)
        return {y: ex.substitute(c, sub) for y, c in self.components.items()}


def _el_equations(lag, second):
    """EL_A = dL/dy^A - D_mu(dL/dv^A_mu), with `second` naming the
    second-order slot of D_mu (see `chart.total_derivative`)."""
    ch = lag.chart
    out = {}
    for y in ch.fiber_names:
        terms = [lag.partials[y]]
        for x in ch.base_names:
            d = total_derivative(ch, lag.momentum(y, x), x, second)
            terms.append(ex.mul(ex.MINUS_ONE, d))
        out[y] = ex.add(*terms)
    return out


def derive_el(lag):
    """EL_A over the extended chart: the second-order slot of D_mu holds the
    symmetric symbols dd(y,x,x')."""
    return ELSystem(lag.chart, _el_equations(lag, lag.chart.w))


# ---------------------------------------------------------------------------
# energy density and the Legendre difference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyDensity:
    chart: object
    connection: object
    E: object  # Expr over the jet coordinates

    def density(self):
        return volume_form(jet_space(self.chart)).scale(self.E)


def energy_density(lag, conn):
    """E = p^A_mu (v^A_mu - Gamma^A_mu) - L, built from the display formula;
    the catalog compares it with `energy_intrinsic`."""
    ch = lag.chart
    if conn.chart != ch:
        raise ChartMismatch("connection lives on a different chart")
    e = ex.mul(ex.MINUS_ONE, lag.L)
    for y in ch.fiber_names:
        for x in ch.base_names:
            e = ex.add(e, ex.mul(lag.momentum(y, x),
                                 ex.sub(ex.var(v_name(y, x)),
                                        conn.gamma[(y, x)])))
    return EnergyDensity(ch, conn, e)


def energy_intrinsic(lag, conn):
    """i(S - V) d(L omega) - L omega through honest contractions; the
    independent route to E omega."""
    ch = lag.chart
    diff = vertical_endo_S(ch, conn) - vertical_endo_V(ch)
    return diff.contract_with_dL(lag.L) - volume_form(jet_space(ch)).scale(lag.L)


def legendre_difference(lag, gamma_table):
    """The (n+1)-form  -gamma^A_mu p^A_mu omega;  equals the change of the
    energy density under nabla -> nabla + gamma for any base connection."""
    ch = lag.chart
    allowed = set(ch.e_coords())
    total = ex.ZERO
    for y in ch.fiber_names:
        for x in ch.base_names:
            g = gamma_table.get((y, x), ex.ZERO)
            if ex.free_vars(g) - allowed:
                raise UnknownCoordinate(
                    f"gamma[{y},{x}] must not depend on jet coordinates")
            total = ex.sub(total, ex.mul(g, lag.momentum(y, x)))
    return volume_form(jet_space(ch)).scale(total)


# ---------------------------------------------------------------------------
# Euler-Lagrange equations for jet fields
# ---------------------------------------------------------------------------

def g_unknown(y, x_rho, x_mu):
    return f"G({y},{x_rho},{x_mu})"


@dataclass(frozen=True)
class JetFieldReport:
    is_sopde: bool
    omega_residual: object          # the contracted Poincare-Cartan form
    reduced_residuals: dict = field(compare=False)
    curvature_residuals: dict = field(compare=False)

    def solves(self):
        return (self.is_sopde and self.omega_residual.is_zero()
                and all(v.is_zero() for v in self.curvature_residuals.values()))


@dataclass(frozen=True)
class LinearSolveReport:
    rank: int
    consistent: bool
    pivots: dict = field(compare=False)    # unknown -> Expr over frees + chart
    free: tuple = ()

    def is_unique(self):
        return self.consistent and not self.free


@dataclass(frozen=True)
class ELJetProblem:
    """Reduced equations for a second-order ansatz with the G-table unknown.

    Each equation is affine in the symbols G(y,x_rho,x_mu); `solve` runs a
    small fraction-free-ish elimination over the expression field and
    reports a parametrized solution set instead of failing on singular
    Hessians.
    """
    lagrangian: Lagrangian
    unknowns: tuple
    equations: dict = field(compare=False)  # fiber name -> Expr

    def solve(self):
        rows = []
        zero_sub = {u: ex.ZERO for u in self.unknowns}
        for y in sorted(self.equations):
            eq = self.equations[y]
            coeffs = [ex.differentiate(eq, u, declared=set(self.unknowns)
                                       | ex.free_vars(eq)) for u in self.unknowns]
            rhs = ex.mul(ex.MINUS_ONE, ex.substitute(eq, zero_sub))
            rows.append((coeffs, rhs))

        nuns = len(self.unknowns)
        pivot_cols = []
        used = [False] * len(rows)
        for col in range(nuns):
            pick = None
            for i, (coeffs, _) in enumerate(rows):
                if not used[i] and not coeffs[col].is_zero():
                    pick = i
                    break
            if pick is None:
                continue
            used[pick] = True
            pivot_cols.append((pick, col))
            pc = rows[pick][0][col]
            for j, (coeffs, rhs) in enumerate(rows):
                if j == pick or coeffs[col].is_zero():
                    continue
                factor = ex.div(coeffs[col], pc)
                newc = [ex.sub(c, ex.mul(factor, pcj))
                        for c, pcj in zip(coeffs, rows[pick][0])]
                newr = ex.sub(rhs, ex.mul(factor, rows[pick][1]))
                rows[j] = (newc, newr)

        consistent = True
        for i, (coeffs, rhs) in enumerate(rows):
            if not used[i] and all(c.is_zero() for c in coeffs) and not rhs.is_zero():
                consistent = False

        pivot_set = {col for _, col in pivot_cols}
        free = tuple(self.unknowns[c] for c in range(nuns) if c not in pivot_set)
        pivots = {}
        for i, col in pivot_cols:
            coeffs, rhs = rows[i]
            expr = rhs
            for c in range(nuns):
                if c == col or coeffs[c].is_zero():
                    continue
                expr = ex.sub(expr, ex.mul(coeffs[c], ex.var(self.unknowns[c])))
            pivots[self.unknowns[col]] = ex.div(expr, coeffs[col])
        return LinearSolveReport(len(pivot_cols), consistent, pivots, free)

    def check(self, yf: JetField2):
        """Full report for a candidate jet field."""
        from .connection import jetfield_curvature_residuals
        lag = self.lagrangian
        ch = lag.chart
        is_sopde = sopde_project(yf)
        omega_l = cartan_forms(lag).omega
        contracted = jetfield_contract(yf, omega_l)
        gsub = {g_unknown(y, xr, xm): yf.G[(y, xr, xm)]
                for y in ch.fiber_names
                for xr in ch.base_names for xm in ch.base_names}
        reduced = {y: ex.substitute(eq, gsub) for y, eq in self.equations.items()}
        return JetFieldReport(is_sopde, contracted, reduced,
                              jetfield_curvature_residuals(yf))


def jetfield_el(lag):
    """Equations dL/dy^A - D^Y_mu(dL/dv^A_mu) = 0 for a second-order field:
    the second-order slot of D^Y_mu holds the unknowns G^B_{rho,mu}."""
    ch = lag.chart
    unknowns = tuple(g_unknown(y, xr, xm)
                     for y in ch.fiber_names
                     for xr in ch.base_names for xm in ch.base_names)
    return ELJetProblem(lag, unknowns, _el_equations(lag, g_unknown))
