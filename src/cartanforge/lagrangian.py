"""Lagrangian densities and the structures they induce.

Everything is phrased against the chart's volume form dx^0 ^ ... ^ dx^n.
The coefficient tables of vartheta and Theta are written straight from the
local expressions, and Omega is taken as -d Theta:

    vartheta = p^A_mu theta^A ^ i(d/dx^mu) omega,   p^A_mu = dL/dv^A_mu
    Theta    = vartheta + L omega
    Omega    = -d Theta

`Lagrangian.partials` maps every jet coordinate z to dL/dz, built whole on
first use and kept on the instance (not a field: equality and hashing see
only `chart` and `L`); `second_partials`, `drift` and `cartan_forms` keep
theirs there too.  The momenta, both Euler-Lagrange routes,
`energy_density`, `legendre_difference`, `noether.total_variation` and the
catalog's finite-difference check all read `partials`.  The routes the
catalog compares the constructions against take their own derivatives and
never read it: `vartheta_intrinsic` and `energy_intrinsic` contract dL/dv,
taken along only the velocities they contract
(`VerticalEndomorphism.contract_with_dL`), and hypothesis (b) of
`noether.jetfield_noether_check` takes its own d(L omega).  Each
coefficient these constructions write as a sum of products (the drift and
both Euler-Lagrange routes, `energy_density`, `legendre_difference`, the
rows and pivots of `ELJetProblem.solve`) is one `ex.sum_of_products` call.

The two tables and Omega = -d Theta take their derivatives through one
``_diff`` memo per jet coordinate and one merge memo, also kept on the
instance: the product rule of each monic part of L and of the momenta
(Theta's coefficients) is built once, and lives as long as the Lagrangian.
The catalog's d Omega keeps its memos for its own call only.

The constructors only build: `cartan_forms` and `energy_density` follow
these display formulas.  The independent intrinsic routes, contractions
through the vertical endomorphisms, are `vartheta_intrinsic` and
`energy_intrinsic`; the identity catalog (`harness.run_identity_catalog`)
compares each pair, which pins the orientation conventions down
mechanically.

The Euler-Lagrange equations come by two routes, along sections
(`derive_el`) and for second-order jet fields (`jetfield_el`).  As L is
first order, both are affine in the second-order slot s of D_mu:
EL_A = a_A - H^{mu nu}_{AB} s^B_{nu mu} with H = d2L/dv^A_mu dv^B_nu, read
with the drift a_A (`Lagrangian.drift`, built once for both routes and
`ELJetProblem.solve`) from the one table `Lagrangian.second_partials`.  The
routes differ only in what fills s: the symmetric second-jet symbols
dd(y,x,x') or the jet field's unknowns G(y,x_rho,x_mu).
"""

from __future__ import annotations

from functools import cached_property

from . import expr as ex
from .canonical import vertical_endo_S, vertical_endo_V
from .chart import SectionE, v_name
from .connection import JetField2, jetfield_contract, sopde_project
from .errors import ChartMismatch, UnknownCoordinate
from .forms import Form, exterior_d, jet_space, volume_form
from .record import Record


class Lagrangian(Record):
    chart: object
    L: object  # Expr over the jet coordinates

    def __post_init__(self):
        extra = ex.free_vars(self.L) - set(self.chart.jet_coords())
        if extra:
            raise UnknownCoordinate(
                f"Lagrangian references non-jet names {sorted(extra)}")

    @cached_property
    def _memos(self):
        """One ``_diff`` memo per jet coordinate and one merge memo, shared by
        `partials`, `second_partials` and the exterior derivative of Theta:
        the product rule of each monic part is built once per coordinate, and
        lives as long as this Lagrangian."""
        return {z: {} for z in self.chart.jet_coords()}, {}

    @cached_property
    def partials(self):
        """dL/dz for every jet coordinate z, taken once on first use; a
        partial with no symbolic rule (`abs`) raises on that first use."""
        return {z: ex.sum_of_partials(((1, self.L, z),), *self._memos)
                for z in self.chart.jet_coords()}

    @cached_property
    def second_partials(self):
        """(v, z) -> d(dL/dv)/dz for every velocity v and jet coordinate z
        where it is not zero; for z a velocity this is the Hessian H."""
        table = {(v, z): ex.sum_of_partials(((1, self.partials[v], z),), *self._memos)
                 for v in self.chart.v_names() for z in self.chart.jet_coords()}
        return {k: d for k, d in table.items() if not d.is_zero()}

    @cached_property
    def drift(self):
        """y^A -> a_A = dL/dy^A - H[v, x_mu] - v^B_mu H[v, y^B], v = v^A_mu:
        EL_A with the second-order slot of D_mu left out (`_el_equations`)."""
        ch, h = self.chart, self.second_partials
        out = {}
        for y in ch.fiber_names:
            products = [(self.partials[y],)]
            for x in ch.base_names:
                v = v_name(y, x)
                slots = [(ex.ONE, x)] + [(ex.var(v_name(b, x)), b)
                                         for b in ch.fiber_names]
                products += [(ex.MINUS_ONE, c, h[(v, z)])
                             for c, z in slots if (v, z) in h]
            out[y] = ex.sum_of_products(products)
        return out

    def momentum(self, y, x):
        """p^A_mu = dL/dv^A_mu."""
        return self.partials[v_name(y, x)]


class CartanForms(Record):
    vartheta: object
    theta: object   # Poincare-Cartan (n+1)-form
    omega: object   # Poincare-Cartan (n+2)-form


def vartheta_intrinsic(lag):
    """i(V) d(L omega) through honest contractions; the independent route."""
    return vertical_endo_V(lag.chart).contract_with_dL(lag.L)


def cartan_forms(lag):
    """All three canonical forms, their tables written from the display
    formula: with m base coordinates and y^A at jet index m + A,
    theta^A ^ i(d/dx^mu) omega has (-1)^(mu+m-1) on the key (0..m-1 without
    mu, m + A) and -v^A_mu on omega's.  The catalog compares vartheta with
    `vartheta_intrinsic`.  Omega = -d Theta takes its sign inside
    `exterior_d`'s accumulators and the Lagrangian's derivative memos.  Kept
    on the Lagrangian, like `partials`, so they live as long as it does."""
    cf = lag.__dict__.get("cartan_forms")
    if cf is not None:
        return cf
    ch = lag.chart
    js = jet_space(ch)
    m = ch.n_plus_1
    om = tuple(range(m))
    table, on_om = {}, []
    for a, y in enumerate(ch.fiber_names):
        for mu, x in enumerate(ch.base_names):
            p = lag.momentum(y, x)
            if p.is_zero():
                continue
            table[om[:mu] + om[mu + 1:] + (m + a,)] = (
                p if (mu + m) % 2 else ex.mul(ex.MINUS_ONE, p))
            on_om.append((ex.MINUS_ONE, ex.var(v_name(y, x)), p))
    vt_om = ex.sum_of_products(on_om)
    vt = Form(js, m, {**table, om: vt_om})
    big_theta = Form(js, m, {**table, om: ex.add(lag.L, vt_om)})
    big_omega = exterior_d(big_theta, -1, *lag._memos)
    cf = lag.__dict__["cartan_forms"] = CartanForms(vt, big_theta, big_omega)
    return cf


# ---------------------------------------------------------------------------
# Euler-Lagrange system for sections
# ---------------------------------------------------------------------------

class ELSystem(Record):
    chart: object
    components: dict  # fiber name -> Expr

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
    """EL_A = dL/dy^A - D_mu(dL/dv^A_mu) from `Lagrangian.second_partials`:
    D_mu p^A_mu = H[v, x_mu] + v^B_mu H[v, y^B] + second(B,nu,mu) H[v, v^B_nu]
    with v = v^A_mu, so EL_A is the drift a_A less the last sum."""
    ch = lag.chart
    h = lag.second_partials
    out = {}
    for y, a in lag.drift.items():
        products = [(a,)]
        for x in ch.base_names:
            v = v_name(y, x)
            slots = [(second(b, nu, x), v_name(b, nu))
                     for b in ch.fiber_names for nu in ch.base_names]
            products += [(ex.MINUS_ONE, ex.var(s), h[(v, z)])
                         for s, z in slots if (v, z) in h]
        out[y] = ex.sum_of_products(products)
    return out


def derive_el(lag):
    """EL_A over the extended chart: the second-order slot of D_mu holds the
    symmetric symbols dd(y,x,x')."""
    return ELSystem(lag.chart, _el_equations(lag, lag.chart.w))


# ---------------------------------------------------------------------------
# energy density and the Legendre difference
# ---------------------------------------------------------------------------

class EnergyDensity(Record):
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
    e = ex.sum_of_products([(ex.MINUS_ONE, lag.L)] + [
        (lag.momentum(y, x), ex.sub(ex.var(v_name(y, x)), conn.gamma[(y, x)]))
        for y in ch.fiber_names for x in ch.base_names])
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
    products = []
    for y in ch.fiber_names:
        for x in ch.base_names:
            g = gamma_table.get((y, x), ex.ZERO)
            if ex.free_vars(g) - allowed:
                raise UnknownCoordinate(
                    f"gamma[{y},{x}] must not depend on jet coordinates")
            products.append((ex.MINUS_ONE, g, lag.momentum(y, x)))
    return volume_form(jet_space(ch)).scale(ex.sum_of_products(products))


# ---------------------------------------------------------------------------
# Euler-Lagrange equations for jet fields
# ---------------------------------------------------------------------------

def g_unknown(y, x_rho, x_mu):
    return f"G({y},{x_rho},{x_mu})"


def _g_slots(ch):
    """(y, x_rho, x_mu) of every unknown, in the order of `unknowns`."""
    return [(y, xr, xm) for y in ch.fiber_names
            for xr in ch.base_names for xm in ch.base_names]


class JetFieldReport(Record):
    is_sopde: bool
    omega_residual: object          # the contracted Poincare-Cartan form
    reduced_residuals: dict
    curvature_residuals: dict

    def solves(self):
        return (self.is_sopde and self.omega_residual.is_zero()
                and all(v.is_zero() for v in self.curvature_residuals.values()))


class LinearSolveReport(Record):
    rank: int
    consistent: bool
    pivots: dict  # unknown -> Expr over frees + chart
    free: tuple = ()


class ELJetProblem(Record):
    """Reduced equations for a second-order ansatz with the G-table unknown.

    Each equation is affine in the symbols G(y,x_rho,x_mu); `solve` reads
    its matrix -H and right-hand side -a_A from `Lagrangian.second_partials`,
    runs Gauss-Jordan elimination with `ex.div`, pivoting on the first
    structurally non-zero entry of each column, and reports a parametrized
    solution set instead of failing on singular Hessians.
    """
    lagrangian: Lagrangian
    unknowns: tuple
    equations: dict  # fiber name -> Expr

    def solve(self):
        lag = self.lagrangian
        h = lag.second_partials
        rows = []
        for y in sorted(self.equations):
            keys = [(v_name(y, xm), v_name(b, xr)) for b, xr, xm in _g_slots(lag.chart)]
            coeffs = [ex.mul(ex.MINUS_ONE, h[k]) if k in h else ex.ZERO for k in keys]
            rows.append((coeffs, ex.mul(ex.MINUS_ONE, lag.drift[y])))

        nuns = len(self.unknowns)
        pivot_cols = []
        used = [False] * len(rows)
        for col in range(nuns):
            pick = next((i for i, (coeffs, _) in enumerate(rows)
                         if not used[i] and not coeffs[col].is_zero()), None)
            if pick is None:
                continue
            used[pick] = True
            pivot_cols.append((pick, col))
            pc = rows[pick][0][col]
            for j, (coeffs, rhs) in enumerate(rows):
                if j == pick or coeffs[col].is_zero():
                    continue
                factor = ex.div(coeffs[col], pc)
                newc = [ex.sum_of_products(((c,), (ex.MINUS_ONE, factor, pcj)))
                        for c, pcj in zip(coeffs, rows[pick][0])]
                newr = ex.sum_of_products(
                    ((rhs,), (ex.MINUS_ONE, factor, rows[pick][1])))
                rows[j] = (newc, newr)

        consistent = not any(
            not used[i] and all(c.is_zero() for c in coeffs) and not rhs.is_zero()
            for i, (coeffs, rhs) in enumerate(rows))

        pivot_set = {col for _, col in pivot_cols}
        free = tuple(self.unknowns[c] for c in range(nuns) if c not in pivot_set)
        pivots = {}
        for i, col in pivot_cols:
            coeffs, rhs = rows[i]
            expr = ex.sum_of_products([(rhs,)] + [
                (ex.MINUS_ONE, coeffs[c], ex.var(self.unknowns[c]))
                for c in range(nuns) if c != col and not coeffs[c].is_zero()])
            pivots[self.unknowns[col]] = ex.div(expr, coeffs[col])
        return LinearSolveReport(len(pivot_cols), consistent, pivots, free)

    def check(self, yf: JetField2):
        """Full report for a candidate jet field."""
        from .connection import jetfield_curvature_residuals
        lag = self.lagrangian
        is_sopde = sopde_project(yf)
        omega_l = cartan_forms(lag).omega
        contracted = jetfield_contract(yf, omega_l)
        gsub = {g_unknown(*s): yf.G[s] for s in _g_slots(lag.chart)}
        reduced = {y: ex.substitute(eq, gsub) for y, eq in self.equations.items()}
        return JetFieldReport(is_sopde, contracted, reduced,
                              jetfield_curvature_residuals(yf))


def jetfield_el(lag):
    """Equations dL/dy^A - D^Y_mu(dL/dv^A_mu) = 0 for a second-order field:
    the second-order slot of D^Y_mu holds the unknowns G^B_{rho,mu}."""
    unknowns = tuple(g_unknown(*s) for s in _g_slots(lag.chart))
    return ELJetProblem(lag, unknowns, _el_equations(lag, g_unknown))
