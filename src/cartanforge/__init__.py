"""Symbolic-numeric engine for first-order Lagrangian field theory on jet bundles.

From a declared bundle chart and a Lagrangian function, the package builds
the canonical geometry of the first jet space (contact forms, vertical
endomorphisms, prolongations), derives Euler-Lagrange equations in section
and jet-field form, computes connection-dependent energy densities,
curvature, symmetries, and conserved currents, and verifies the identities
relating them both symbolically and at seeded sample points.
"""

from .chart import (
    JetChart,
    SectionE,
    SectionJ1,
    make_chart,
    prolong_section,
    prolong_sectionJ1,
)
from .connection import (
    Connection,
    JetField2,
    curvature,
    horizontal_split,
    integral_residual,
    integral_residual2,
    jetfield_contract,
    sopde_project,
)
from .expr import (
    Expr,
    differentiate,
    evaluate_numeric,
    free_vars,
    normalize,
    parse,
    substitute,
    to_text,
)
from .canonical import (
    contact_basis,
    contact_reduce,
    is_holonomic,
    prolong_diffeo,
    prolong_vectorfield,
    pullback_by_map,
    structure_form,
    vertical_differential,
    vertical_endo_S,
    vertical_endo_V,
)
from .forms import (
    FiberedMap,
    Form,
    VectorField,
    VectorValuedForm,
    exterior_d,
    interior,
    lie_derivative,
    pullback_by_section,
    wedge,
)
from .harness import IdentityCheck, numeric_check, run_identity_catalog
from .lagrangian import (
    Lagrangian,
    cartan_forms,
    derive_el,
    energy_density,
    jetfield_el,
    legendre_difference,
)
from .noether import (
    check_conservation,
    jetfield_noether_check,
    noether_current,
    total_variation,
)
from .problem import Problem, parse_problem

__version__ = "0.1.0"
