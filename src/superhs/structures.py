"""The supersymmetric Hunter-Saxton system and its verification checks.

Everything specific to the system lives here.  The only hand-written geometry
is in superspace: the bracket U*V_x - V*U_x + DU*DV/2 and the H^1 metric, the
Berezin integral of U_x*DV, with U = u + theta*phi.  The component bracket and
metric are read off them, expanded once per process into bilinear terms; B of
the geodesic flow, the flow, the first Hamiltonian operator J1 and H1 are read
off those two as variational derivatives (``_images``).  Beside them stand the
second Hamiltonian operator and one check per claimed identity (geodesic
derivation, bi-Hamiltonian and Lagrangian formulations, supersymmetry,
superspace form, Lax pair, recursion eigenrelations, conservation and the Lie
algebra axioms).  Conservation is decided by flux certificates, which
``density.reduce_mod_dx`` finds on the constrained jets of the flow; this
module uses only the public names of ``density``.

Every check recomputes its identity from first principles at call time and
carries a deliberately perturbed negative control, guarding against an engine
that normalises everything to zero.  Checks are pure and independent, and
take no arguments: a check is a fixed identity, not a sample.  Each is
declared once, with the ``_check`` decorator, which times it, turns its
failure list into a ``CheckResult`` and registers it in ``CHECKS`` in
definition order.  The parity of every algebra element, evolution system,
gradient pair and Lax ansatz is checked by ``algebra.require_parity``.

Pseudodifferential inverses never appear: each identity that formally involves
an inverse operator is verified in a composed, inverse-free form (for the
second Hamiltonian leg, ``m_t = -d/dx(dH2/du)`` and ``eta_t = -dH2/dxi``; for
the recursion operator, the eigenrelation is multiplied through by the
squared-eigenfunction substitution).
"""
from __future__ import annotations

import functools
import time
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .algebra import (
    EVEN,
    ODD,
    FieldSymbol,
    JetFactor,
    SymExpr,
    lam_power,
    require_parity,
    theta_factor,
)
from .calculus import (
    berezin,
    dt,
    dx,
    first_variation,
    jet_derivative,
    substitute,
    superD,
    theta_expand,
)
from .density import (
    RuleSet,
    canonical_density,
    euler_xt,
    integrate_x,
    is_total_x_derivative,
    partial_jet,
    reduce_mod_dx,
    variational_derivative,
)
from .reporting import CheckResult
from .sexpr import to_sexpr

HALF = Fraction(1, 2)

Failures = List[Tuple[str, SymExpr]]  # (label, nonzero residual) pairs of a check

# component fields of the system
U = FieldSymbol("u", EVEN)
XI = FieldSymbol("xi", ODD)
# auxiliary component fields for bracket/metric identities
V = FieldSymbol("v", EVEN)
W = FieldSymbol("w", EVEN)
PHI = FieldSymbol("phi", ODD)
PSI = FieldSymbol("psi", ODD)
CHI = FieldSymbol("chi", ODD)
# formal constants: gauge means of the once-integrated flow, odd parameter tau
A_GAUGE = FieldSymbol("agauge", EVEN, constant=True)
B_GAUGE = FieldSymbol("bgauge", ODD, constant=True)
TAU = FieldSymbol("tau", ODD, constant=True)
# velocity potentials (u_t and xi_t renamed, with zero spatial mean)
P_VEL = FieldSymbol("p", EVEN)
Q_VEL = FieldSymbol("q", ODD)
# superspace fields
SUPER_U = FieldSymbol("U", EVEN, superspace=True)
SUPER_G = FieldSymbol("G", EVEN, superspace=True)
SUPER_M = FieldSymbol("M", ODD, superspace=True)
SUPER_A = FieldSymbol("A", EVEN, superspace=True)
SUPER_B = FieldSymbol("B", ODD, superspace=True)
SUPER_C = FieldSymbol("C", EVEN, superspace=True)


def op_A0(e: SymExpr) -> SymExpr:
    """The even leg of the metric operator, -d2/dx2."""
    return -dx(dx(e))


def op_A1(e: SymExpr) -> SymExpr:
    """The odd leg of the metric operator, -d/dx."""
    return -dx(e)


class AlgebraElement:
    """A pair (even function, odd function) of the superconformal algebra."""

    __slots__ = ("even_part", "odd_part")

    def __init__(self, even_part: SymExpr, odd_part: SymExpr):
        require_parity(even_part, EVEN, "even_part")
        require_parity(odd_part, ODD, "odd_part")
        self.even_part, self.odd_part = even_part, odd_part

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.even_part == other.even_part and self.odd_part == other.odd_part


def superspace_bracket(a: SymExpr, b: SymExpr) -> SymExpr:
    """The superconformal bracket of even superfields, A*B_x - B*A_x + DA*DB/2."""
    return a * dx(b) - b * dx(a) + HALF * (superD(a) * superD(b))


def berezin_metric(a: SymExpr, b: SymExpr) -> SymExpr:
    """The H^1 metric density of even superfields: the Berezin integral of A_x*DB."""
    return berezin(dx(a) * superD(b))


# the generic pair x0 + theta*x1, y0 + theta*y1 of ``_geometry``: its fields meet no other
# expression, and every x-jet sorts before every y-jet
_PAIR = tuple(FieldSymbol(name, parity) for name, parity in (("x0", EVEN), ("x1", ODD), ("y0", EVEN), ("y1", ODD)))


@functools.lru_cache(maxsize=None)
def _geometry() -> Tuple[Tuple[Tuple[Fraction, JetFactor, JetFactor], ...], ...]:
    """The bracket's even and odd parts and the metric at the generic pair, as terms c*f*g.

    Expanded once per process, on first use; f is an x-jet and g a y-jet.
    """
    x0, x1, y0, y1 = (field() for field in _PAIR)
    a, b = x0 + theta_factor() * x1, y0 + theta_factor() * y1
    bracket = theta_expand(superspace_bracket(a, b))
    forms = (bracket.body, bracket.soul, berezin_metric(a, b))
    return tuple(tuple((c, f, g) for (_lam, (f, g)), c in e.terms()) for e in forms)


def _read_off(tables, x: AlgebraElement, y: AlgebraElement) -> List[SymExpr]:
    """The tables' forms at (x, y): a jet of the generic pair becomes that derivative of x's or y's part."""
    parts = dict(zip(_PAIR, (x.even_part, x.odd_part, y.even_part, y.odd_part)))
    needed = dict.fromkeys(f for table in tables for _c, *pair in table for f in pair)
    jets = {f: jet_derivative(parts[f.symbol], 0, f.dx) for f in needed}
    return [sum((c * (jets[f] * jets[g]) for c, f, g in table), SymExpr.zero()) for table in tables]


def lie_bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The superconformal bracket in components: the body and theta part of ``superspace_bracket``."""
    return AlgebraElement(*_read_off(_geometry()[:2], x, y))


def generic_elements() -> Tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """The generic elements x = (u, phi), y = (v, psi), z = (w, chi) of the algebra."""
    return AlgebraElement(U(), PHI()), AlgebraElement(V(), PSI()), AlgebraElement(W(), CHI())


def inner_product(x: AlgebraElement, y: AlgebraElement) -> SymExpr:
    """The H^1 inner product in components, u_x*v_x + phi_x*psi: ``berezin_metric`` read off."""
    return _read_off(_geometry()[2:], x, y)[0]


# the fresh generic element z of ``_images``: no other field is named z0 or z1
_Z0, _Z1 = FieldSymbol("z0", EVEN), FieldSymbol("z1", ODD)


def _images(pairing: Callable[[AlgebraElement], SymExpr]) -> Tuple[SymExpr, SymExpr]:
    """(r0, r1) with pairing(z) = r0*z_even - r1*z_odd mod dx: its variational derivatives in z."""
    rho = pairing(AlgebraElement(_Z0(), _Z1()))
    return variational_derivative(rho, _Z0), -variational_derivative(rho, _Z1)


def bilinear_B(x: AlgebraElement, y: AlgebraElement) -> Tuple[SymExpr, SymExpr]:
    """Images (A0*B0, A1*B1) of the geodesic bilinear operator, <x,[y,z]> = <B(x,y),z>.

    Read off the bracket and the metric by ``_images``.  B itself would need
    operator inverses; only these images are ever used.
    """
    return _images(lambda z: inner_product(x, lie_bracket(y, z)))


class EvolutionSystem:
    """Right-hand sides of the evolution of m = -u_xx and eta = -xi_xx.

    No ``__slots__``: ``functools.cached_property`` keeps its values in the
    instance ``__dict__``.
    """

    def __init__(self, rhs_m: SymExpr, rhs_eta: SymExpr):
        require_parity(rhs_m, EVEN, "rhs_m")
        require_parity(rhs_eta, ODD, "rhs_eta")
        self.rhs_m, self.rhs_eta = rhs_m, rhs_eta

    @functools.cached_property
    def _potentials(self) -> Tuple[SymExpr, SymExpr]:
        return -integrate_x(self.rhs_m), -integrate_x(self.rhs_eta)

    def once_integrated_potentials(self) -> Tuple[SymExpr, SymExpr]:
        """Local parts of u_tx and xi_tx on the circle (gauge constants apart).

        The x-antiderivatives of -rhs_m and -rhs_eta, from ``integrate_x`` once per
        system; a right-hand side that is not a total x-derivative raises ``ValueError``.
        """
        return self._potentials

    @functools.cached_property
    def _rules(self) -> RuleSet:
        pot_u, pot_xi = self.once_integrated_potentials()
        return RuleSet({
            U.jet(dt=1): P_VEL(),
            XI.jet(dt=1): Q_VEL(),
            P_VEL.jet(dx=1): pot_u - A_GAUGE(),
            Q_VEL.jet(dx=1): pot_xi - B_GAUGE(),
        })

    def rules_velocity(self) -> RuleSet:
        """The flow's one rule set: zero-mean velocity potentials p = u_t, q = xi_t.

        Prolongation gives u_txx -> p_xx -> -rhs_m and xi_txx -> q_xx -> -rhs_eta.
        Built once per system, the first time it is asked for, and returned as
        the same read-only ``RuleSet`` on every call, which keeps the ``dx``
        images ``reduce_mod_dx`` builds under it for as long as the system lives.
        """
        return self._rules

    def bosonic_reduction(self) -> "EvolutionSystem":
        return EvolutionSystem(self.rhs_m.without_fields([XI]), SymExpr.zero())


# the flow's velocity (u, xi_x): its metric image (-u_xx, -xi_xx) is the momentum (m, eta)
_FLOW = AlgebraElement(U(), XI(dx=1))


@functools.lru_cache(maxsize=None)
def geodesic_system() -> EvolutionSystem:
    """The Euler-Arnold flow m_t = A0*B0, eta_t = A1*B1 at the velocity (u, xi_x).

    Derived from the bracket and the metric through ``bilinear_B``.  Memoized:
    every caller in a process shares one system, so its potentials, its rule
    set and the images cached on that rule set are built once.
    """
    return EvolutionSystem(*bilinear_B(_FLOW, _FLOW))


def hamiltonian_densities() -> Tuple[SymExpr, SymExpr]:
    """H1 and H2 densities in the component fields; H1 is half the metric at the flow's velocity."""
    h1 = HALF * inner_product(_FLOW, _FLOW)
    h2 = HALF * (U() * U(dx=1) ** 2 - U() * XI(dx=1) * XI(dx=2))
    return h1, h2


def apply_J1(p_m: SymExpr, p_eta: SymExpr) -> Tuple[SymExpr, SymExpr]:
    """First Hamiltonian operator applied to a gradient pair, m and eta expanded.

    Derived as the Lie-Poisson operator of the bracket at (m, eta) = A*(u, xi_x):
    its rows are B's images at the flow's velocity and the pair.
    """
    require_parity(p_m, EVEN, "first gradient component")
    require_parity(p_eta, ODD, "second gradient component")
    return bilinear_B(_FLOW, AlgebraElement(p_m, p_eta))


def apply_J2(p_m: SymExpr, p_eta: SymExpr) -> Tuple[SymExpr, SymExpr]:
    """Second Hamiltonian operator: diag(d3/dx3, d2/dx2)."""
    require_parity(p_m, EVEN, "first gradient component")
    require_parity(p_eta, ODD, "second gradient component")
    return dx(dx(dx(p_m))), dx(dx(p_eta))


# ---------------------------------------------------------------------------
# shared helpers for the checks


def _zero(label: str, expr: SymExpr, failures: Failures) -> None:
    if not expr.is_zero():
        failures.append((label, expr))


def _eq(label: str, lhs: SymExpr, rhs: SymExpr, failures: Failures) -> None:
    _zero(label, lhs - rhs, failures)


def _nonzero(label: str, expr: SymExpr, failures: Failures) -> None:
    if expr.is_zero():
        failures.append((label + " (negative control vanished)", expr))


def _exact(label: str, expr: SymExpr, failures: Failures) -> None:
    if not is_total_x_derivative(expr):
        failures.append((label, expr))


def _flow_rules(system: EvolutionSystem, failures: Failures) -> Optional[RuleSet]:
    """The flow's ``rules_velocity``; None, with one failure recorded, if it has no potentials."""
    try:
        return system.rules_velocity()
    except ValueError:  # a right-hand side is not a total x-derivative
        rhs = system.rhs_m if not is_total_x_derivative(system.rhs_m) else system.rhs_eta
        failures.append(("flow has no once-integrated potential", canonical_density(rhs)))
        return None


def _bad_bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    # an extra -a_x*b_odd/2 unbalances the odd slot's derivative weight and breaks Jacobi,
    # unlike a rescaled phi*psi term, which gives an isomorphic algebra
    good = lie_bracket(a, b)
    return AlgebraElement(good.even_part, good.odd_part - HALF * (dx(a.even_part) * b.odd_part))


CHECKS: Dict[str, Callable[[], CheckResult]] = {}


def _check(check_id: str, detail: str = ""):
    """Declare a verification check: time it, build its ``CheckResult``, register it in ``CHECKS``.

    The body takes a fresh failure list and appends ``(label, residual)``
    pairs to it.  The declared check takes no arguments and keeps the body's
    name; a failing check's labels go ahead of ``detail``.
    """

    def declare(body: Callable[[Failures], None]) -> Callable[[], CheckResult]:
        @functools.wraps(body)
        def check() -> CheckResult:
            clock = time.perf_counter
            t0 = clock()
            failures: Failures = []
            body(failures)
            elapsed = clock() - t0
            if failures:
                labels = "; ".join(label for label, _ in failures)
                note = f"{labels} || {detail}" if detail else labels
                return CheckResult(check_id, False, to_sexpr(failures[0][1]), elapsed, note)
            return CheckResult(check_id, True, "", elapsed, detail)

        CHECKS[check_id] = check
        return check

    return declare


# ---------------------------------------------------------------------------
# checks


@_check("bracket")
def check_bracket(failures: Failures) -> None:
    """Bracket and metric: closed-form pair identities, and B's images read off them."""
    xe, ye, _ = generic_elements()

    bos = lie_bracket(AlgebraElement(U(), SymExpr.zero()), AlgebraElement(V(), SymExpr.zero()))
    _eq("bracket bosonic even part", bos.even_part, U() * V(dx=1) - U(dx=1) * V(), failures)
    _zero("bracket bosonic odd part", bos.odd_part, failures)

    self_bracket = lie_bracket(xe, xe)
    _zero("self bracket even", self_bracket.even_part, failures)
    _zero("self bracket odd", self_bracket.odd_part, failures)

    ferm = lie_bracket(AlgebraElement(SymExpr.zero(), PHI()), AlgebraElement(SymExpr.zero(), PSI()))
    _eq("bracket fermionic even part", ferm.even_part, HALF * (PHI() * PSI()), failures)
    _zero("bracket fermionic odd part", ferm.odd_part, failures)

    ip = inner_product(xe, ye)
    _eq("inner product integrand", ip, U(dx=1) * V(dx=1) + PHI(dx=1) * PSI(), failures)
    _exact("inner product operator form", ip - (U() * op_A0(V()) + PHI() * op_A1(PSI())), failures)
    _exact("inner product symmetry", ip - inner_product(ye, xe), failures)

    p0, p1 = bilinear_B(xe, ye)
    _eq("image A0*B0 of B", p0, _EXPECTED_B[0], failures)
    _eq("image A1*B1 of B", p1, _EXPECTED_B[1], failures)

    # negative control: the perturbation pairs with phi_x into the odd image
    _, bad_p1 = _images(lambda z: inner_product(xe, _bad_bracket(ye, z)))
    _nonzero("B read off a perturbed bracket differs", bad_p1 - _EXPECTED_B[1], failures)


_EXPECTED_B = (  # B's images at the generic pair x = (u, phi), y = (v, psi)
    2 * (U(dx=2) * V(dx=1)) + U(dx=3) * V()
    + Fraction(3, 2) * (PSI(dx=1) * PHI(dx=1)) + HALF * (PSI() * PHI(dx=2)),
    Fraction(3, 2) * (V(dx=1) * PHI(dx=1)) + V() * PHI(dx=2) + HALF * (PSI() * U(dx=2)),
)
_EXPECTED_RHS_M = (
    2 * (U(dx=1) * U(dx=2)) + U() * U(dx=3) + HALF * (XI(dx=1) * XI(dx=3))
)
_EXPECTED_RHS_ETA = (
    U() * XI(dx=3) + Fraction(3, 2) * (U(dx=1) * XI(dx=2)) + HALF * (U(dx=2) * XI(dx=1))
)


@_check("geodesic")
def check_geodesic(failures: Failures) -> None:
    """The assembled geodesic flow reproduces the evolution system term-for-term."""
    system = geodesic_system()
    _eq("rhs_m", system.rhs_m, _EXPECTED_RHS_M, failures)
    _eq("rhs_eta", system.rhs_eta, _EXPECTED_RHS_ETA, failures)

    bosonic = system.bosonic_reduction()
    _eq("bosonic reduction", bosonic.rhs_m, 2 * (U(dx=1) * U(dx=2)) + U() * U(dx=3), failures)
    _zero("bosonic reduction eta", bosonic.rhs_eta, failures)

    wrong = _EXPECTED_RHS_M + HALF * (XI(dx=1) * XI(dx=3))
    _nonzero("perturbed target differs", system.rhs_m - wrong, failures)


@_check(
    "biham",
    detail="both formulations verified; compatibility of the operator pair (pencil) not verified",
)
def check_biham(failures: Failures) -> None:
    """Both Hamiltonian formulations of the flow, in inverse-free form."""
    system = geodesic_system()
    h1, h2 = hamiltonian_densities()

    # first structure: gradients of H1 in (m, eta) are (u, xi_x), since the
    # (u, xi) gradients factor through the metric operator
    _eq("dH1/du = A0 u", variational_derivative(h1, U), op_A0(U()), failures)
    _eq("dH1/dxi = A0 xi_x", variational_derivative(h1, XI), op_A0(XI(dx=1)), failures)
    row1, row2 = apply_J1(U(), XI(dx=1))
    _eq("J1 leg row 1", row1, _EXPECTED_RHS_M, failures)
    _eq("J1 leg row 2", row2, _EXPECTED_RHS_ETA, failures)

    # J1's rows at (v, psi) are B's images at the generic pair with phi = xi_x
    y = AlgebraElement(V(), PSI())
    want1, want2 = (substitute(image, {PHI.jet(): XI(dx=1)}) for image in _EXPECTED_B)
    r1, r2 = apply_J1(y.even_part, y.odd_part)
    _eq("J1 row 1 at (v, psi)", r1, want1, failures)
    _eq("J1 row 2 at (v, psi)", r2, want2, failures)
    _, bad_r2 = _images(lambda z: inner_product(_FLOW, _bad_bracket(y, z)))
    _nonzero("J1 read off a perturbed bracket differs", bad_r2 - want2, failures)

    # second structure: J2 composed with the inverse metric collapses to
    # (-d/dx, -1) acting on the (u, xi) gradients of H2
    grad_u = variational_derivative(h2, U)
    grad_xi = variational_derivative(h2, XI)
    _eq(
        "dH2/du closed form",
        grad_u,
        -HALF * (U(dx=1) ** 2 + 2 * (U() * U(dx=2)) + XI(dx=1) * XI(dx=2)),
        failures,
    )
    _eq(
        "dH2/dxi closed form",
        grad_xi,
        -HALF * (2 * (U() * XI(dx=3)) + 3 * (U(dx=1) * XI(dx=2)) + U(dx=2) * XI(dx=1)),
        failures,
    )
    _eq("J2 leg row 1", -dx(grad_u), system.rhs_m, failures)
    _eq("J2 leg row 2", -grad_xi, system.rhs_eta, failures)

    # bosonic reduction of both legs
    bos_row1, _ = apply_J1(U(), SymExpr.zero())
    _eq("bosonic J1 leg", bos_row1.without_fields([XI]), system.bosonic_reduction().rhs_m, failures)
    _eq(
        "bosonic J2 leg",
        -dx(grad_u.without_fields([XI])),
        system.bosonic_reduction().rhs_m,
        failures,
    )

    _nonzero("sign-flipped J2 leg differs", dx(grad_u) - system.rhs_m, failures)


def action_density() -> SymExpr:
    """Integrand of the space-time action whose critical points are the flow."""
    return (
        U(dt=1) * U(dx=1)
        - XI(dt=1) * XI(dx=2)
        + U() * U(dx=1) ** 2
        - U() * XI(dx=1) * XI(dx=2)
    )


@_check("lagrangian")
def check_lagrangian(failures: Failures) -> None:
    """Space-time Euler operators of the action vanish on the flow (``rules_velocity``)."""
    rules = _flow_rules(geodesic_system(), failures)
    if rules is None:
        return
    sigma = action_density()

    e_u = euler_xt(sigma, U)
    e_xi = euler_xt(sigma, XI)
    _eq(
        "dS/du is twice the once-integrated residual",
        e_u,
        -2 * U(dx=1, dt=1)
        - U(dx=1) ** 2
        - 2 * (U() * U(dx=2))
        - XI(dx=1) * XI(dx=2),
        failures,
    )
    _eq(
        "dS/dxi is twice the second-line residual",
        e_xi,
        -2 * XI(dx=2, dt=1)
        - 2 * (U() * XI(dx=3))
        - 3 * (U(dx=1) * XI(dx=2))
        - U(dx=2) * XI(dx=1),
        failures,
    )
    _zero("dS/du vanishes on the flow", substitute(dx(e_u), rules), failures)
    _zero("dS/dxi vanishes on the flow", substitute(e_xi, rules), failures)

    null_rules = {U.jet(dx=2, dt=1): SymExpr.zero(), XI.jet(dx=2, dt=1): SymExpr.zero()}
    _nonzero("non-solution rule leaves a residual", substitute(dx(e_u), null_rules), failures)


def susy_variation() -> Mapping[FieldSymbol, SymExpr]:
    """The odd transformation du = tau*xi_x, dxi = tau*u."""
    return {U: TAU() * XI(dx=1), XI: TAU() * U()}


@_check("susy")
def check_susy(failures: Failures) -> None:
    """First-order invariance of both equations under the odd transformation (``rules_velocity``)."""
    system = geodesic_system()
    rules = _flow_rules(system, failures)
    if rules is None:
        return
    residual_1 = U(dx=2, dt=1) + system.rhs_m
    residual_2 = XI(dx=2, dt=1) + system.rhs_eta

    var = susy_variation()
    _zero("line 1 invariant", substitute(first_variation(residual_1, var), rules), failures)
    _zero("line 2 invariant", substitute(first_variation(residual_2, var), rules), failures)

    bad = {U: TAU() * XI(dx=1), XI: TAU() * U(dx=1)}
    bad_res = substitute(first_variation(residual_2, bad), rules)
    _nonzero("perturbed transformation breaks invariance", bad_res, failures)


def superspace_rhs() -> SymExpr:
    """Right-hand side of the superspace evolution of M = -D^3 U."""
    Uj = SUPER_U
    return (
        Uj() * Uj(dx=2, dtheta=1)
        + HALF * (Uj(dtheta=1) * Uj(dx=2))
        + Fraction(3, 2) * (Uj(dx=1) * Uj(dx=1, dtheta=1))
    )


def superfield_u_components() -> SymExpr:
    """The component expansion u + theta*xi_x of the even superfield."""
    return U() + theta_factor() * XI(dx=1)


@_check("superspace")
def check_superspace(failures: Failures) -> None:
    """Theta-expansion of the superspace equation gives back the component system."""
    system = geodesic_system()

    expand_u = {SUPER_U.jet(): superfield_u_components()}
    rhs = substitute(superspace_rhs(), expand_u)
    parts = theta_expand(rhs)

    m_superfield = substitute(-SUPER_U(dx=1, dtheta=1), expand_u)
    _eq(
        "M = -phi_x + theta*m with phi = xi_x",
        m_superfield,
        -XI(dx=2) + theta_factor() * (-U(dx=2)),
        failures,
    )

    # M_t = -xi_txx - theta*u_txx, so body matches eta_t and soul matches m_t
    _eq("soul component reproduces the m equation", parts.soul, system.rhs_m, failures)
    _eq("body component reproduces the eta equation", parts.body, system.rhs_eta, failures)

    # negative control: wrong coefficient on the last superspace term
    bad_rhs = substitute(
        superspace_rhs() - HALF * (SUPER_U(dx=1) * SUPER_U(dx=1, dtheta=1)), expand_u
    )
    _nonzero("perturbed superspace equation differs", theta_expand(bad_rhs).soul - system.rhs_m, failures)


# ---------------------------------------------------------------------------
# Lax pair


class LaxBasisError(ValueError):
    """Reduction left a monomial outside the span of {G, DG, G_x}."""


class LaxAnsatz:
    """Coefficient superfields of the sought linear-flow part G_t = A G + B DG + C G_x."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: SymExpr, b: SymExpr, c: SymExpr):
        require_parity(a, EVEN, "A")
        require_parity(b, ODD, "B")
        require_parity(c, EVEN, "C")
        self.a, self.b, self.c = a, b, c


def closing_ansatz() -> LaxAnsatz:
    """A = U_x/2, B = -DU/2, C = lam - U."""
    return LaxAnsatz(
        HALF * SUPER_U(dx=1),
        -HALF * SUPER_U(dtheta=1),
        lam_power(1) - SUPER_U(),
    )


def formal_ansatz() -> LaxAnsatz:
    """Undetermined coefficient superfields, for deriving the general equations."""
    return LaxAnsatz(SUPER_A(), SUPER_B(), SUPER_C())


def lax_compatibility(ansatz: LaxAnsatz) -> Dict[str, SymExpr]:
    """Coefficient equations of the compatibility of the linear system.

    Expands d/dt(M G/(2 lam)) - D^3(A G + B DG + C G_x), replaces G_t and
    D^3 G by the linear system (closed under prolongation), and collects the
    coefficients of G, DG and G_x with the G-jet commuted to the right end.
    Returns residuals keyed 'G', 'DG', 'Gx': each must vanish for
    compatibility; the 'G' residual carries a formal M_t jet.
    """
    g_t_rhs = ansatz.a * SUPER_G() + ansatz.b * SUPER_G(dtheta=1) + ansatz.c * SUPER_G(dx=1)
    half_lam = HALF * lam_power(-1)
    rules = {
        SUPER_G.jet(dt=1): g_t_rhs,
        SUPER_G.jet(dx=1, dtheta=1): half_lam * (SUPER_M() * SUPER_G()),
    }
    lhs = dt(half_lam * (SUPER_M() * SUPER_G()))
    rhs = superD(superD(superD(g_t_rhs)))
    compat = substitute(lhs - rhs, rules)

    basis = {
        SUPER_G.jet(): "G",
        SUPER_G.jet(dtheta=1): "DG",
        SUPER_G.jet(dx=1): "Gx",
    }
    for (lam, factors), coeff in compat.terms():
        g_jets = [f for f in factors if f.symbol == SUPER_G]
        if len(g_jets) != 1 or g_jets[0] not in basis:
            offender = SymExpr.monomial(coeff, factors, lam=lam)
            raise LaxBasisError(f"monomial outside reduction basis: {offender}")
    return {name: partial_jet(compat, jet) for jet, name in basis.items()}


def general_coefficient_equations() -> Dict[str, SymExpr]:
    """Closed forms of the three compatibility equations for formal A, B, C."""
    A, B, C, M = SUPER_A, SUPER_B, SUPER_C, SUPER_M
    d = superD
    eq_g = (
        M(dt=1)
        - 2 * lam_power(1) * d(A(dx=1))
        - d(B()) * M()
        - d(C()) * d(M())
        - C(dx=1) * M()
        + B() * d(M())
        - C() * M(dx=1)
    )
    eq_dg = (
        d(B(dx=1))
        - HALF * lam_power(-1) * (d(C()) * M())
        + A(dx=1)
        + lam_power(-1) * (B() * M())
    )
    eq_gx = d(C(dx=1)) + d(A()) - B(dx=1)
    return {"G": eq_g, "DG": eq_dg, "Gx": eq_gx}


@_check("lax")
def check_lax(failures: Failures) -> None:
    """Compatibility of the linear system: general equations and the closed ansatz."""
    # general coefficient identification with formal A, B, C
    general = lax_compatibility(formal_ansatz())
    expected = general_coefficient_equations()
    _eq(
        "coefficient of G matches its closed form",
        2 * lam_power(1) * general["G"],
        expected["G"],
        failures,
    )
    _eq("coefficient of DG matches", general["DG"], -expected["DG"], failures)
    _eq("coefficient of Gx matches", general["Gx"], -expected["Gx"], failures)

    # the derived coefficients close the system
    closed = lax_compatibility(closing_ansatz())
    _zero("DG residual vanishes for the ansatz", closed["DG"], failures)
    _zero("Gx residual vanishes for the ansatz", closed["Gx"], failures)
    # ... and the G equation is the superspace evolution: M_t = RHS(U) after
    # expanding M = -D^3 U everywhere except the formal M_t jet
    eq_g = 2 * lam_power(1) * closed["G"]  # = M_t - E(M, U)
    e_part = -(eq_g - SUPER_M(dt=1))  # E(M, U)
    expand_m = {SUPER_M.jet(): -SUPER_U(dx=1, dtheta=1)}
    _eq(
        "G equation is the superspace evolution",
        substitute(e_part, expand_m),
        superspace_rhs(),
        failures,
    )

    # component form of the x-part: D^3 G = M G/(2 lam) with G = g + theta*nu
    g_f = FieldSymbol("g", EVEN)
    nu_f = FieldSymbol("nu", ODD)
    mcomp = FieldSymbol("mcomp", EVEN)
    g_component = g_f() + theta_factor() * nu_f()
    m_component = -PHI(dx=1) + theta_factor() * mcomp()
    xpart = superD(superD(superD(g_component))) - HALF * lam_power(-1) * (
        m_component * g_component
    )
    comp = theta_expand(xpart)
    _eq(
        "x-part body: nu_x = -phi_x g/(2 lam)",
        comp.body,
        nu_f(dx=1) + HALF * lam_power(-1) * (PHI(dx=1) * g_f()),
        failures,
    )
    _eq(
        "x-part soul: g_xx = (m g + phi_x nu)/(2 lam)",
        comp.soul,
        g_f(dx=2) - HALF * lam_power(-1) * (mcomp() * g_f() + PHI(dx=1) * nu_f()),
        failures,
    )

    # negative control: transport-only ansatz forces M_t = lam*M_x, not the flow
    trivial = lax_compatibility(LaxAnsatz(SymExpr.zero(), SymExpr.zero(), lam_power(1)))
    _zero("trivial ansatz still closes DG", trivial["DG"], failures)
    _zero("trivial ansatz still closes Gx", trivial["Gx"], failures)
    e_triv = -(2 * lam_power(1) * trivial["G"] - SUPER_M(dt=1))
    _eq("trivial ansatz gives pure transport", e_triv, lam_power(1) * SUPER_M(dx=1), failures)
    _nonzero(
        "transport differs from the superspace flow",
        substitute(e_triv, expand_m) - superspace_rhs(),
        failures,
    )


@_check("recursion")
def check_recursion(failures: Failures) -> None:
    """Recursion-operator eigenrelations on squared eigenfunctions, inverse-free."""
    # bosonic: with psi_xx = m psi/(2 lam), (m d/dx + d/dx m)(psi^2) = lam d3/dx3(psi^2)
    mb = FieldSymbol("mfield", EVEN)
    psi_b = FieldSymbol("psib", EVEN)
    sq = psi_b() ** 2
    lhs = mb() * dx(sq) + dx(mb() * sq)
    rhs = lam_power(1) * dx(dx(dx(sq)))
    good_rule = {psi_b.jet(dx=2): HALF * lam_power(-1) * (mb() * psi_b())}
    _zero("bosonic eigenrelation", substitute(lhs - rhs, good_rule), failures)

    bad_rule = {psi_b.jet(dx=2): lam_power(-1) * (mb() * psi_b())}
    _nonzero("wrong-factor bosonic control", substitute(lhs - rhs, bad_rule), failures)

    # super: with D^3 G = M G/(2 lam), -K1(G^2) = lam D^5(G^2)
    def k1(arg: SymExpr) -> SymExpr:
        return -HALF * (
            SUPER_M() * dx(arg) + 2 * dx(SUPER_M() * arg) + SUPER_M(dtheta=1) * superD(arg)
        )

    gsq = SUPER_G() ** 2
    d5 = jet_derivative(gsq, 0, 5, superspace=True)
    super_rule = {SUPER_G.jet(dx=1, dtheta=1): HALF * lam_power(-1) * (SUPER_M() * SUPER_G())}
    super_residual = substitute(-k1(gsq) - lam_power(1) * d5, super_rule)
    _zero("super eigenrelation", super_residual, failures)

    bad_super = {SUPER_G.jet(dx=1, dtheta=1): lam_power(-1) * (SUPER_M() * SUPER_G())}
    _nonzero(
        "wrong-factor super control",
        substitute(-k1(gsq) - lam_power(1) * d5, bad_super),
        failures,
    )


# ---------------------------------------------------------------------------
# conservation


_P, _Q = P_VEL.jet(), Q_VEL.jet()


def _droppable(key) -> bool:
    """Terms whose x-integral vanishes by the zero-mean gauge: const * p or const * q."""
    fields = [f for f in key[1] if not f.symbol.constant]
    return len(fields) == 1 and fields[0] in (_P, _Q)


def conservation_check(density: SymExpr, system: Optional[EvolutionSystem] = None) -> bool:
    """Is d/dt of the density a total x-derivative along the flow?

    The time derivative is taken with the once-integrated equations of motion
    (velocity potentials p, q with zero spatial mean, formal gauge constants).
    A flux certificate ``flow_dt = d/dx(F) + droppable`` is then sought on the
    constrained jets by ``density.reduce_mod_dx``.  Its F holds the monomials
    that rewriting by leading terms reaches, plus products of p, q and constant
    jets of velocity degree 1 to d + 1 with at most c constant factors, where d
    and c are the largest velocity degree and constant count in what the
    rewriting leaves.  A found certificate proves that the integral vanishes;
    failure within that bound reports non-conservation.
    """
    if system is None:
        system = geodesic_system()
    rules = system.rules_velocity()
    return not reduce_mod_dx(substitute(dt(density), rules), rules, _droppable)[0]


@_check("conservation")
def check_conservation(failures: Failures) -> None:
    """H1 and H2 are conserved; the quadratic control density is not."""
    system = geodesic_system()
    if _flow_rules(system, failures) is None:
        return
    h1, h2 = hamiltonian_densities()
    if not conservation_check(h1, system):
        failures.append(("H1 not conserved", h1))
    if not conservation_check(h2, system):
        failures.append(("H2 not conserved", h2))
    if conservation_check(U() ** 2, system):
        failures.append(("control density u^2 reported conserved", U() ** 2))


# ---------------------------------------------------------------------------
# Lie-superalgebra axioms: proven on generic elements


def _jacobi_defect(bracket: Callable[[AlgebraElement, AlgebraElement], AlgebraElement],
                   x: AlgebraElement, y: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    t1, t2, t3 = (bracket(a, bracket(b, c)) for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))
    return AlgebraElement(t1.even_part + t2.even_part + t3.even_part, t1.odd_part + t2.odd_part + t3.odd_part)


def _lie_axioms(case: str, x: AlgebraElement, y: AlgebraElement, z: AlgebraElement, failures: Failures):
    anti, anti_rev = lie_bracket(x, y), lie_bracket(y, x)
    _zero(f"antisymmetry even ({case})", anti.even_part + anti_rev.even_part, failures)
    _zero(f"antisymmetry odd ({case})", anti.odd_part + anti_rev.odd_part, failures)
    defect = _jacobi_defect(lie_bracket, x, y, z)
    _zero(f"jacobi even ({case})", defect.even_part, failures)
    _zero(f"jacobi odd ({case})", defect.odd_part, failures)


@_check("jacobi", detail="generic identity")
def check_jacobi(failures: Failures) -> None:
    """Antisymmetry and the Jacobi identity: a proof on the generic elements.

    ``lie_bracket`` is a bilinear differential operator with constant
    coefficients, so every element with graded coefficient expressions is an
    image of ``generic_elements()`` under a parity-preserving substitution that
    commutes with ``dx``, and the generic identities prove the axioms for all
    of them.
    """
    x, y, z = generic_elements()
    _lie_axioms("generic", x, y, z, failures)

    bad = _jacobi_defect(_bad_bracket, x, y, z)
    if bad.even_part.is_zero() and bad.odd_part.is_zero():
        failures.append(("perturbed bracket passed Jacobi (negative control)", SymExpr.zero()))


# ---------------------------------------------------------------------------
# registry

SUITE_NAMES = tuple(CHECKS)


def run_suite(names: Iterable[str]) -> List[CheckResult]:
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}")
        results.append(CHECKS[name]())
    return results
