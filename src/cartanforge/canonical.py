"""Canonical structures of the first jet space.

Contact forms theta^A = dy^A - v^A_mu dx^mu, the structure form, contact
reduction, the holonomy test, the two vertical endomorphisms, and canonical
prolongation of vector fields and fiber-preserving maps.  Both
prolongations use the one total derivative D_mu (`chart.total_derivative`;
the Euler-Lagrange equations take its terms from the Lagrangian's table
`second_partials`); contact reduction and `forms.pullback` share one loop
that replaces basis covectors by 1-forms (`forms.replace_covectors`).

The S endomorphism is always embedded through a connection: its covector
slots are dy^A - Gamma^A_mu dx^mu.  The connection-free version exists only
against an abstract dual frame, which this representation has no room for;
connection-independence of everything built from V alone is a tested
property instead.
"""

from __future__ import annotations

from . import expr as ex
from .chart import SectionE, SectionJ1, total_derivative, v_name
from .errors import ChartMismatch, NotOnEChart
from .forms import (
    CoordMap,
    Form,
    VectorField,
    VectorValuedForm,
    coordinate_field,
    d_coord,
    interior,
    jet_space,
    pullback,
    pullback_by_section,
    replace_covectors,
    total_space,
    volume_form,
    wedge,
    zero_form,
)
from .record import Record


def _dy_minus(chart, y, slope):
    """The jet-space 1-form dy - slope[(y, x)] dx^x summed over the base."""
    js = jet_space(chart)
    table = {(js.index(y),): ex.ONE}
    for x in chart.base_names:
        table[(js.index(x),)] = ex.mul(ex.MINUS_ONE, slope[(y, x)])
    return Form(js, 1, table)


def contact_form(chart, y):
    """theta^A = dy^A - v^A_mu dx^mu for the fiber coordinate y."""
    return _dy_minus(chart, y, {(y, x): ex.var(v_name(y, x)) for x in chart.base_names})


def contact_basis(chart):
    return tuple(contact_form(chart, y) for y in chart.fiber_names)


def structure_form(chart):
    """The vertical-bundle-valued 1-form with components theta^A."""
    return VectorValuedForm("d/dy", contact_basis(chart))


def vertical_differential(phi: SectionE, at=None):
    """Projector matrix of T_yE onto the vertical part along Im(phi).

    Rows and columns follow the total-space coordinate order (base, fiber);
    base columns carry -d(phi^A)/d(x^mu), fiber columns the identity.  `at`
    may bind base coordinates to expressions to anchor the matrix at one
    point of the image.
    """
    ch = phi.chart
    nb, nf = ch.n_plus_1, ch.n_fields
    size = nb + nf
    m = [[ex.ZERO] * size for _ in range(size)]
    for ai, y in enumerate(ch.fiber_names):
        row = nb + ai
        for mi, x in enumerate(ch.base_names):
            slope = ex.differentiate(phi.component(y), x, declared=ch.base_names)
            if at:
                slope = ex.substitute(slope, at)
            m[row][mi] = ex.mul(ex.MINUS_ONE, slope)
        m[row][nb + ai] = ex.ONE
    return m


class ContactReduction(Record):
    reduced: Form
    combination: dict  # fiber name -> Form


def contact_reduce(a):
    """Split a jet-space form as  a = sum_A theta^A ^ combination[A] + reduced.

    `reduced` contains no dy^A differentials; a 1-form lies in the contact
    module iff reduced == 0, and a higher form built by wedging contact forms
    against anything lands entirely in the combination part.
    """
    sp = a.space
    ch = sp.chart
    if sp != jet_space(ch):
        raise ChartMismatch("contact reduction expects a jet-space form")
    if a.degree == 0:
        return ContactReduction(a, {y: zero_form(sp, 0) for y in ch.fiber_names})

    fiber_idx = {sp.index(y): y for y in ch.fiber_names}
    # dy^A -> [theta-marker at the same slot] + v^A_mu dx^mu, and back
    to_contact = {i: d_coord(sp, name) for i, name in enumerate(sp.coords)}
    from_contact = dict(to_contact)
    for i, y in fiber_idx.items():
        from_contact[i] = contact_form(ch, y)
        to_contact[i] = to_contact[i] + (to_contact[i] - from_contact[i])
    rewritten = replace_covectors(a, sp, to_contact.get)

    reduced = {}
    combo = {y: {} for y in ch.fiber_names}
    for key, c in rewritten.coeffs.items():
        pos = next((p for p, idx in enumerate(key) if idx in fiber_idx), None)
        if pos is None:
            reduced[key] = c
            continue
        rest = key[:pos] + key[pos + 1:]   # y's slot and rest give key: set once
        combo[fiber_idx[key[pos]]][rest] = ex.mul(ex.rat((-1) ** pos), c)
    combo = {y: replace_covectors(Form(sp, a.degree - 1, t), sp, from_contact.get)
             for y, t in combo.items()}
    return ContactReduction(Form(sp, a.degree, reduced), combo)


class HolonomyReport(Record):
    holonomic: bool
    residuals: tuple  # one base-space 1-form per fiber coordinate


def is_holonomic(psi: SectionJ1):
    """psi annihilates the structure form iff it is a prolongation."""
    res = tuple(pullback_by_section(psi, th)
                for th in contact_basis(psi.chart))
    return HolonomyReport(all(r.is_zero() for r in res), res)


class VerticalEndomorphism(Record):
    """Covector-slot representation of S, V, or their difference.

    One 1-form per fiber coordinate; the output slots are the fixed pattern
    d/dv^A_nu (x) d/dx^nu summed over nu, which is all the contractions used
    anywhere in this package need.
    """
    kind: str
    chart: object
    covectors: tuple

    def __sub__(self, other):
        if self.chart != other.chart:
            raise ChartMismatch("endomorphisms on different charts")
        covs = tuple(a - b for a, b in zip(self.covectors, other.covectors))
        return VerticalEndomorphism(f"{self.kind}-{other.kind}", self.chart, covs)

    def contract_with_dL(self, lag_expr):
        """i(endo) d(L*omega), assembled through honest interior products.

        The d/dv output slot contracts against dL: i(d/dv) dL is dL/dv, so
        L is differentiated only along the velocities contracted, never
        along the coordinates whose partials no slot reads.  The d/dx slot
        contracts against the volume form, leaving covector ^ (n-form).
        """
        ch = self.chart
        js = jet_space(ch)
        omega = volume_form(js)
        out = {}
        for y, cov in zip(ch.fiber_names, self.covectors):
            for x in ch.base_names:
                slot = ex.differentiate(lag_expr, v_name(y, x))
                if slot.is_zero():
                    continue
                piece = wedge(cov, interior(coordinate_field(js, x), omega))
                for k, c in piece.coeffs.items():
                    out.setdefault(k, []).append((slot, c))
        return Form(js, ch.n_plus_1, {k: ex.sum_of_products(ps) for k, ps in out.items()})


def vertical_endo_V(chart):
    return VerticalEndomorphism("V", chart, contact_basis(chart))


def vertical_endo_S(chart, connection):
    if connection.chart != chart:
        raise ChartMismatch("connection lives on a different chart")
    covs = tuple(_dy_minus(chart, y, connection.gamma) for y in chart.fiber_names)
    return VerticalEndomorphism("S", chart, covs)


def prolong_vectorfield(Z: VectorField):
    """Canonical prolongation of a vector field on the total space.

    v-components:  D_mu beta^A - v^A_rho D_mu alpha^rho
    which covers non-projectable fields; when alpha does not depend on y the
    projectable formula is recovered.
    """
    ch = Z.space.chart
    if Z.space != total_space(ch):
        raise NotOnEChart("prolongation expects a vector field on the total space")
    d_alpha = {(rho, mu): total_derivative(ch, Z.component(rho), mu)
               for rho in ch.base_names for mu in ch.base_names}
    comps = dict(Z.comps)
    for y in ch.fiber_names:
        for mu in ch.base_names:
            products = [(total_derivative(ch, Z.component(y), mu),)]
            for rho in ch.base_names:
                if not d_alpha[(rho, mu)].is_zero():
                    products.append((ex.MINUS_ONE, ex.var(v_name(y, rho)),
                                     d_alpha[(rho, mu)]))
            comps[v_name(y, mu)] = ex.sum_of_products(products)
    return VectorField(jet_space(ch), comps)


def pullback_by_map(phi_map, a):
    """Pull a form back by a fiber-preserving map.

    Total-space forms use the map itself; jet-space forms use its canonical
    prolongation (which may require the declared base inverse).
    """
    ch = phi_map.chart
    if a.space == total_space(ch):
        return pullback(phi_map.total_map(), a)
    if a.space == jet_space(ch):
        return pullback(prolong_diffeo(phi_map), a)
    raise ChartMismatch("form lives on neither the total nor the jet space")


def prolong_diffeo(phi_map):
    """Jet-space coordinate map of a fiber-preserving diffeomorphism.

    v'^A_mu = D_nu(Phi^A) (J^-1)^nu_mu with J the Jacobian of the base part;
    strong maps need no declared inverse.
    """
    ch = phi_map.chart
    js = jet_space(ch)
    jinv = phi_map.inverse_base_jacobian()
    comps = dict(phi_map.base_components)
    comps.update(phi_map.fiber_components)
    for y in ch.fiber_names:
        slope = {nu: total_derivative(ch, phi_map.fiber_components[y], nu)
                 for nu in ch.base_names}
        for mu in ch.base_names:
            comps[v_name(y, mu)] = ex.sum_of_products(
                (slope[nu], jinv[(nu, mu)]) for nu in ch.base_names
                if not jinv[(nu, mu)].is_zero())
    return CoordMap(js, js, comps)
