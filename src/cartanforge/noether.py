"""Symmetry tests, Noether currents, and conservation checks.

The total variation of a Lagrangian under a vector field Z = alpha^mu d/dx^mu
+ beta^A d/dy^A on the total space is

    delta_Z L = (j1 Z) L + L * sum_mu d(alpha^mu)/dx^mu

and Z generates a symmetry exactly when this normalizes to zero (for
vertical Z the divergence term drops and the test is just (j1 Z) L = 0).
(j1 Z) L is j1 Z contracted with the Lagrangian's table of partials,
`Lagrangian.partials`.
The conserved current is the n-form i(j1 Z) Theta_L; along a solution
section its pullback is closed: ``conservation_residual`` is zero.
``check_conservation`` decides that with the catalog's one zero test,
``harness.zero_verdict``, drawing the base coordinates; the residual's
``is_zero()`` is the symbolic verdict.
"""

from __future__ import annotations

from . import expr as ex
from .canonical import contact_basis, contact_reduce, prolong_vectorfield
from .chart import SectionE, prolong_section
from .connection import jetfield_contract
from .errors import ChartMismatch, HypothesisViolated, NotOnEChart
from .forms import (
    exterior_d,
    interior,
    jet_space,
    lie_derivative,
    pullback_by_section,
    total_space,
    volume_form,
)
from .lagrangian import cartan_forms
from .record import Record, field


class SymmetryReport(Record):
    variation: object      # delta_Z L
    is_symmetry: bool
    prolonged: object      # j1 Z


def total_variation(lag, Z):
    """Symmetry test for a vector field on the total space."""
    ch = lag.chart
    if Z.space != total_space(ch):
        raise NotOnEChart("symmetry generators live on the total space")
    j1 = prolong_vectorfield(Z)
    declared = set(ch.e_coords())
    delta = ex.sum_of_products(
        [(c, lag.partials[n]) for n, c in j1.comps.items()]
        + [(lag.L, ex.differentiate(Z.component(x), x, declared=declared))
           for x in ch.base_names])
    return SymmetryReport(delta, delta.is_zero(), j1)


class NoetherCurrent(Record):
    lagrangian: object
    generator: object      # Z on the total space
    prolonged: object      # j1 Z
    J: object              # n-form on the jet space


def noether_current(lag, Z):
    """J(Z) = i(j1 Z) Theta_L; computing it does not require Z to be a
    symmetry, conservation does."""
    j1 = prolong_vectorfield(Z)
    theta_l = cartan_forms(lag).theta
    return NoetherCurrent(lag, Z, j1, interior(j1, theta_l))


class ConservationReport(Record):
    conserved: bool
    residual: object       # d of the pulled-back current, a base-space form
    max_dev: float = 0.0
    witness: dict = field(default_factory=dict)


def conservation_residual(current, phi: SectionE):
    """d[(j1 phi)^* J] along the section, a base-space form; zero iff the
    current is conserved."""
    if phi.chart != current.lagrangian.chart:
        raise ChartMismatch("section lives on a different chart")
    return exterior_d(pullback_by_section(prolong_section(phi), current.J))


def check_conservation(current, phi: SectionE, samples=100, tol=1e-9, seed=0,
                       box=None, guards=()):
    """The conservation residual, its coefficients sampled over the base
    coordinates in `box` (name -> (lo, hi), [-1, 1] where it declares none)
    at points the `guards` accept."""
    from .harness import zero_verdict  # harness imports this module
    residual = conservation_residual(current, phi)
    ok, worst, witness, _ = zero_verdict(residual, seed, box or {}, guards,
                                         samples, tol,
                                         current.lagrangian.chart.base_names)
    return ConservationReport(ok, residual, worst, witness)


class NoetherJetReport(Record):
    conserved: bool
    residual: object       # i(Y) d(xi - i(X) Theta_L)


def jetfield_noether_check(lag, yf, X, xi, alpha):
    """Conservation statement for jet fields solving the field equations.

    The caller supplies the decomposition L(X)(L omega) = d(xi) + alpha; the
    engine verifies the hypotheses and reports whether the contracted current
    differential vanishes:

      (a) X preserves the contact module: every L(X) theta^A reduces into it;
      (b) the declared decomposition holds exactly;
      (c) alpha lies in the contact ideal.
    """
    ch = lag.chart
    js = jet_space(ch)
    if X.space != js:
        raise ChartMismatch("the symmetry candidate must live on the jet space")
    for y, th in zip(ch.fiber_names, contact_basis(ch)):
        red = contact_reduce(lie_derivative(X, th)).reduced
        if not red.is_zero():
            raise HypothesisViolated(
                "a", f"L(X) theta^{y} has reduced part {red.describe()}")
    density = volume_form(js).scale(lag.L)
    decomp = lie_derivative(X, density) - exterior_d(xi) - alpha
    if not decomp.is_zero():
        raise HypothesisViolated(
            "b", f"L(X)(L omega) - d(xi) - alpha = {decomp.describe()}")
    if not contact_reduce(alpha).reduced.is_zero():
        raise HypothesisViolated("c", "alpha has a part outside the contact ideal")
    theta_l = cartan_forms(lag).theta
    current = xi - interior(X, theta_l)
    residual = jetfield_contract(yf, exterior_d(current))
    return NoetherJetReport(residual.is_zero(), residual)
