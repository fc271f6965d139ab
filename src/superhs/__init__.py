"""Supersymmetric Hunter-Saxton toolkit.

Exact symbolic verification of the system's algebraic structure (geodesic
derivation, bi-Hamiltonian formulation, supersymmetry, superspace form,
Lax-pair compatibility, recursion eigenrelations, conservation laws) on top of
an embedded graded differential-polynomial engine, plus a pseudospectral
integrator on the circle with Grassmann-valued fields.

The integrator's names (``evolve``, ``evaluate``, ``SolverConfig``, ...) are
imported from ``superhs.numerics`` when first used, so ``import superhs``
alone does not load numpy.
"""
from .algebra import (
    EVEN,
    ODD,
    FieldSymbol,
    JetFactor,
    ParityError,
    SymExpr,
    lam_power,
    theta_factor,
)
from .calculus import (
    SuperfieldExpr,
    berezin,
    dt,
    dx,
    first_variation,
    substitute,
    superD,
    theta_expand,
)
from .density import (
    canonical_density,
    equals_mod_dx,
    euler_x,
    euler_xt,
    integrate_x,
    is_total_x_derivative,
    variational_derivative,
)
from .reporting import TOOL_VERSION, CheckResult, VerificationReport
from .sexpr import from_sexpr, to_sexpr
from .structures import (
    CHECKS,
    SUITE_NAMES,
    AlgebraElement,
    EvolutionSystem,
    LaxAnsatz,
    apply_J1,
    apply_J2,
    bilinear_B,
    conservation_check,
    geodesic_system,
    hamiltonian_densities,
    inner_product,
    lax_compatibility,
    lie_bracket,
    closing_ansatz,
    run_suite,
)

__version__ = TOOL_VERSION

# served by the module ``__getattr__`` (PEP 562)
_NUMERIC = frozenset({
    "BlowUpError",
    "GridState",
    "SolverConfig",
    "Trajectory",
    "conserved_quantities",
    "evaluate",
    "evolve",
    "initial_state",
    "residual_check",
    "rhs_once_integrated",
    "step",
})


def __getattr__(name):
    if name in _NUMERIC:
        from . import numerics

        return getattr(numerics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _NUMERIC)
