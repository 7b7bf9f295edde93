"""Symmetry tests, Noether currents, and conservation checks.

The total variation of a Lagrangian under a vector field Z = alpha^mu d/dx^mu
+ beta^A d/dy^A on the total space is

    delta_Z L = (j1 Z) L + L * sum_mu d(alpha^mu)/dx^mu

and Z generates a symmetry exactly when this normalizes to zero (for
vertical Z the divergence term drops and the test is just (j1 Z) L = 0).
(j1 Z) L is j1 Z contracted with the Lagrangian's table of partials,
`Lagrangian.partials`.
The conserved current is the n-form i(j1 Z) Theta_L; along a solution
section its pullback is closed, which is checked either symbolically or by
seeded sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SymmetryReport:
    variation: object      # delta_Z L
    is_symmetry: bool
    prolonged: object      # j1 Z


def total_variation(lag, Z):
    """Symmetry test for a vector field on the total space."""
    ch = lag.chart
    if Z.space != total_space(ch):
        raise NotOnEChart("symmetry generators live on the total space")
    j1 = prolong_vectorfield(Z)
    delta = ex.add(*(ex.mul(c, lag.partials[n]) for n, c in j1.comps.items()))
    declared = set(ch.e_coords())
    for x in ch.base_names:
        delta = ex.add(delta, ex.mul(
            lag.L, ex.differentiate(Z.component(x), x, declared=declared)))
    return SymmetryReport(delta, delta.is_zero(), j1)


@dataclass(frozen=True)
class NoetherCurrent:
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


@dataclass(frozen=True)
class ConservationReport:
    conserved: bool
    mode: str
    residual: object       # d of the pulled-back current, a base-space form
    max_dev: float = 0.0
    witness: dict = field(default_factory=dict, compare=False)


def check_conservation(current, phi: SectionE, mode="symbolic",
                       samples=100, tol=1e-9, seed=0, box=None):
    """d[(j1 phi)^* J] along the section; zero iff the current is conserved.
    The numeric mode samples the base coordinates in `box` (name ->
    (lo, hi), [-1, 1] where it declares none)."""
    from .harness import sample_worst  # harness imports this module
    lag = current.lagrangian
    if phi.chart != lag.chart:
        raise ChartMismatch("section lives on a different chart")
    psi = prolong_section(phi)
    residual = exterior_d(pullback_by_section(psi, current.J))
    if mode == "symbolic" or residual.is_zero():
        # an exact zero deviates by 0.0 at every point: nothing to sample
        return ConservationReport(residual.is_zero(), mode, residual)
    worst, witness = sample_worst(
        [(c, ex.ZERO) for c in residual.coeffs.values()],
        random.Random(seed), lag.chart.base_names, box or {}, (), samples)
    return ConservationReport(worst <= tol, "numeric", residual, worst, witness)


@dataclass(frozen=True)
class NoetherJetReport:
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
