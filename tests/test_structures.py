import inspect
import random
from fractions import Fraction

import pytest

from superhs.algebra import EVEN, ODD, FieldSymbol, ParityError, SymExpr, lam_power, theta_factor
from superhs.calculus import dx, substitute, theta_expand
from superhs import structures
from superhs.density import equals_mod_dx, is_total_x_derivative
from superhs.sexpr import to_sexpr
from helpers import random_element, random_x_poly, sampled_lie_failures
from superhs.structures import (
    CHI,
    PHI,
    PSI,
    SUPER_G,
    SUPER_M,
    SUPER_U,
    U,
    V,
    W,
    XI,
    AlgebraElement,
    EvolutionSystem,
    LaxAnsatz,
    LaxBasisError,
    apply_J1,
    apply_J2,
    bilinear_B,
    check_jacobi,
    conservation_check,
    general_coefficient_equations,
    geodesic_system,
    hamiltonian_densities,
    inner_product,
    inner_product_operator_form,
    lax_compatibility,
    lie_bracket,
    closing_ansatz,
    run_suite,
    SUITE_NAMES,
    superfield_u_components,
    superspace_rhs,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# bracket and metric


def test_bracket_bosonic_pair():
    got = lie_bracket(AlgebraElement(U(), SymExpr.zero()), AlgebraElement(V(), SymExpr.zero()))
    assert got.even_part == U() * V(dx=1) - U(dx=1) * V()
    assert got.odd_part.is_zero()


def test_bracket_vanishes_on_diagonal():
    x = AlgebraElement(U(), PHI())
    got = lie_bracket(x, x)
    assert got.even_part.is_zero() and got.odd_part.is_zero()


def test_bracket_fermionic_pair():
    got = lie_bracket(AlgebraElement(SymExpr.zero(), PHI()), AlgebraElement(SymExpr.zero(), PSI()))
    assert got.even_part == HALF * (PHI() * PSI())
    assert got.odd_part.is_zero()


def test_bracket_full_odd_component():
    got = lie_bracket(AlgebraElement(U(), PHI()), AlgebraElement(V(), PSI()))
    want = (
        U() * PSI(dx=1)
        - HALF * (U(dx=1) * PSI())
        - PHI(dx=1) * V()
        + HALF * (PHI() * V(dx=1))
    )
    assert got.odd_part == want


def test_inner_product_integrands():
    x = AlgebraElement(U(), SymExpr.zero())
    y = AlgebraElement(V(), SymExpr.zero())
    assert inner_product(x, y) == U(dx=1) * V(dx=1)
    f = AlgebraElement(SymExpr.zero(), PHI())
    assert inner_product(f, f) == PHI(dx=1) * PHI()
    assert equals_mod_dx(U(dx=1) * V(dx=1), -(U() * V(dx=2)))


def test_inner_product_operator_form_equivalent():
    x = AlgebraElement(U(), PHI())
    y = AlgebraElement(V(), PSI())
    assert equals_mod_dx(
        inner_product(x, y), inner_product_operator_form(x, y)
    )


def test_element_parity_validation():
    with pytest.raises(ParityError):
        AlgebraElement(XI(), SymExpr.zero())
    with pytest.raises(ParityError):
        AlgebraElement(SymExpr.zero(), U())


def test_bilinear_images_on_diagonal():
    x = AlgebraElement(U(), SymExpr.zero())
    a0b0, a1b1 = bilinear_B(x, x)
    assert a0b0 == 2 * (U(dx=1) * U(dx=2)) + U() * U(dx=3)
    assert a1b1.is_zero()

    f = AlgebraElement(SymExpr.zero(), PHI())
    a0b0_f, _ = bilinear_B(f, f)
    assert a0b0_f == HALF * (PHI() * PHI(dx=2))


def test_bilinear_defining_property_symbolic():
    x = AlgebraElement(U(), PHI())
    y = AlgebraElement(V(), PSI())
    z = AlgebraElement(W(), CHI())
    lhs = inner_product(x, lie_bracket(y, z))
    p0, p1 = bilinear_B(x, y)
    assert is_total_x_derivative(lhs - (p0 * W() - p1 * CHI()))


# ---------------------------------------------------------------------------
# geodesic assembly and Hamiltonian structure

RHS_M = 2 * (U(dx=1) * U(dx=2)) + U() * U(dx=3) + HALF * (XI(dx=1) * XI(dx=3))
RHS_ETA = U() * XI(dx=3) + Fraction(3, 2) * (U(dx=1) * XI(dx=2)) + HALF * (U(dx=2) * XI(dx=1))


def test_geodesic_reproduces_system():
    system = geodesic_system()
    assert system.rhs_m == RHS_M
    assert system.rhs_eta == RHS_ETA


def test_geodesic_bosonic_reduction():
    system = geodesic_system().bosonic_reduction()
    assert system.rhs_m == 2 * (U(dx=1) * U(dx=2)) + U() * U(dx=3)
    assert system.rhs_eta.is_zero()


POT_U = -(U() * U(dx=2) + HALF * (U(dx=1) ** 2) + HALF * (XI(dx=1) * XI(dx=2)))
POT_XI = -(U() * XI(dx=2) + HALF * (U(dx=1) * XI(dx=1)))


def test_once_integrated_rules_consistent():
    system = geodesic_system()
    pot_u, pot_xi = system.once_integrated_potentials()
    assert dx(pot_u) == -RHS_M
    assert dx(pot_xi) == -RHS_ETA
    assert (pot_u, pot_xi) == (POT_U, POT_XI)
    bosonic = system.bosonic_reduction()
    assert bosonic.once_integrated_potentials() == (POT_U.without_fields([XI]), SymExpr.zero())


def test_non_exact_rhs_has_no_potential():
    system = EvolutionSystem(U() * U(dx=2), SymExpr.zero())
    with pytest.raises(ValueError, match="not a total x-derivative"):
        system.once_integrated_potentials()
    with pytest.raises(ValueError, match="not a total x-derivative"):
        system.rules_velocity()


def test_apply_J1_on_first_gradients():
    row1, row2 = apply_J1(U(), XI(dx=1))
    assert row1 == RHS_M
    assert row2 == RHS_ETA


def test_apply_J2_composition_on_second_gradients():
    _, h2 = hamiltonian_densities()
    from superhs.density import variational_derivative

    grad_u = variational_derivative(h2, U)
    grad_xi = variational_derivative(h2, XI)
    assert -dx(grad_u) == RHS_M
    assert -grad_xi == RHS_ETA


def test_apply_J2_is_diagonal_derivatives():
    r1, r2 = apply_J2(U(), XI())
    assert r1 == U(dx=3)
    assert r2 == XI(dx=2)


def test_J_operators_reject_wrong_parity():
    with pytest.raises(ParityError):
        apply_J1(XI(), XI())
    with pytest.raises(ParityError):
        apply_J2(U(), U())


def test_evolution_system_parity_guard():
    with pytest.raises(ParityError):
        EvolutionSystem(XI(), XI())


# ---------------------------------------------------------------------------
# superspace


def test_superspace_components_give_component_system():
    system = geodesic_system()
    expand = {SUPER_U.jet(): superfield_u_components()}
    parts = theta_expand(substitute(superspace_rhs(), expand))
    assert parts.soul == system.rhs_m
    assert parts.body == system.rhs_eta


def test_superfield_m_expansion():
    expand = {SUPER_U.jet(): superfield_u_components()}
    m_exp = substitute(-SUPER_U(dx=1, dtheta=1), expand)
    assert m_exp == -XI(dx=2) - theta_factor() * U(dx=2)


# ---------------------------------------------------------------------------
# Lax pair


def test_lax_general_equations_match_closed_forms():
    from superhs.structures import formal_ansatz

    general = lax_compatibility(formal_ansatz())
    expected = general_coefficient_equations()
    assert 2 * lam_power(1) * general["G"] == expected["G"]
    assert general["DG"] == -expected["DG"]
    assert general["Gx"] == -expected["Gx"]


def test_lax_closing_ansatz_closes():
    closed = lax_compatibility(closing_ansatz())
    assert closed["DG"].is_zero()
    assert closed["Gx"].is_zero()
    eq_g = 2 * lam_power(1) * closed["G"]
    e_part = -(eq_g - SUPER_M(dt=1))
    expanded = substitute(e_part, {SUPER_M.jet(): -SUPER_U(dx=1, dtheta=1)})
    assert expanded == superspace_rhs()


def test_lax_transport_control_fails():
    trivial = lax_compatibility(LaxAnsatz(SymExpr.zero(), SymExpr.zero(), lam_power(1)))
    e_triv = -(2 * lam_power(1) * trivial["G"] - SUPER_M(dt=1))
    assert e_triv == lam_power(1) * SUPER_M(dx=1)
    expanded = substitute(e_triv, {SUPER_M.jet(): -SUPER_U(dx=1, dtheta=1)})
    assert not (expanded - superspace_rhs()).is_zero()


def test_lax_reports_out_of_basis_monomials():
    # a G-dependent coefficient makes the reduced system quadratic in G
    with pytest.raises(LaxBasisError):
        lax_compatibility(LaxAnsatz(SUPER_G(), SymExpr.zero(), lam_power(1)))


# ---------------------------------------------------------------------------
# conservation


def test_hamiltonians_conserved_and_control_rejected():
    system = geodesic_system()
    h1, h2 = hamiltonian_densities()
    assert conservation_check(h1, system)
    assert conservation_check(h2, system)
    assert not conservation_check(U() ** 2, system)


def test_quadratic_density_conserved_only_for_bosonic_flow():
    # u_x**2/2 alone is the invariant of the bosonic reduction; the fermion
    # coupling feeds it, so under the full flow only the completed H1 survives
    full = geodesic_system()
    bosonic = full.bosonic_reduction()
    quad = HALF * U(dx=1) ** 2
    assert conservation_check(quad, bosonic)
    assert not conservation_check(quad, full)


def test_conserved_combinations_with_exact_noise():
    # any rational combination of the two invariants, polluted by a total
    # derivative, must still be recognized
    import random
    from superhs.calculus import dx as ddx

    system = geodesic_system()
    h1, h2 = hamiltonian_densities()
    rng = random.Random(4242)
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]

    def rand_poly():
        total = SymExpr.zero()
        for _ in range(rng.randint(1, 2)):
            factors = [
                rng.choice([U, U, XI]).jet(dx=rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            ]
            total = total + SymExpr.monomial(rng.choice(coeffs), factors)
        return total

    for _ in range(8):
        combo = (
            rng.choice(coeffs) * h1
            + rng.choice(coeffs) * h2
            + ddx(rand_poly())
        )
        assert conservation_check(combo, system)


def test_exact_and_gauge_mean_densities_are_conserved():
    from superhs.calculus import dx as ddx

    system = geodesic_system()
    # total derivatives are trivially conserved
    assert conservation_check(ddx(U() * U(dx=1) ** 2), system)
    assert conservation_check(2 * (U(dx=1) ** 2 * U(dx=2)), system)
    # the field means are conserved by the zero-mean gauge on the velocities
    assert conservation_check(U(), system)
    assert conservation_check(XI(), system)


def test_conservation_verdict_depends_only_on_the_integral():
    # a total x-derivative added to a density leaves its integral, so its verdict, unchanged
    system = geodesic_system()
    h1, h2 = hamiltonian_densities()
    assert conservation_check(U(dx=1), system)
    assert conservation_check(h1 + U(dx=1), system)
    rng = random.Random(7)
    for rho in (h1, h2, U(dx=1) * XI(dx=1), U() ** 2):
        verdict = conservation_check(rho, system)
        parity = rho.parity()
        for _ in range(5):
            f = random_x_poly(rng, (U, XI), max_dx=2).filter_terms(
                lambda key, _c: sum(g.parity for g in key[1]) % 2 == parity
            )
            assert conservation_check(rho + dx(f), system) == verdict


# ---------------------------------------------------------------------------
# randomized algebra axioms


def test_antisymmetry_randomized():
    rng = random.Random(41)
    for _ in range(50):
        x, y = random_element(rng), random_element(rng)
        fwd = lie_bracket(x, y)
        rev = lie_bracket(y, x)
        assert (fwd.even_part + rev.even_part).is_zero()
        assert (fwd.odd_part + rev.odd_part).is_zero()


def test_jacobi_check_passes():
    result = check_jacobi()
    assert result.passed, result.detail
    assert sampled_lie_failures(50, seed=123) == []


# fresh symbols that random_element never draws, so one substitution pass suffices
A_EVEN = FieldSymbol("a", EVEN)
B_EVEN = FieldSymbol("b", EVEN)
ALPHA = FieldSymbol("alpha", ODD)
BETA = FieldSymbol("beta", ODD)


def test_generic_bracket_specialises_to_sampled_pairs():
    # substituting elements into the generic bracket gives their bracket, which
    # is what makes the generic Jacobi and antisymmetry identities a proof
    generic = lie_bracket(AlgebraElement(A_EVEN(), ALPHA()), AlgebraElement(B_EVEN(), BETA()))
    rng = random.Random(2024)
    for _ in range(20):
        x, y = random_element(rng), random_element(rng)
        rules = {
            A_EVEN.jet(): x.even_part,
            ALPHA.jet(): x.odd_part,
            B_EVEN.jet(): y.even_part,
            BETA.jet(): y.odd_part,
        }
        direct = lie_bracket(x, y)
        assert substitute(generic.even_part, rules) == direct.even_part
        assert substitute(generic.odd_part, rules) == direct.odd_part


def _bracket_with(odd_weight, phi_psi, ux_v=1):
    """The bracket with the odd action's weight and the phi*psi and u_x*v coefficients as parameters."""

    def bracket(x, y):
        u, phi = x.even_part, x.odd_part
        v, psi = y.even_part, y.odd_part
        even = u * dx(v) - ux_v * (dx(u) * v) + phi_psi * (phi * psi)
        odd = u * dx(psi) - odd_weight * (dx(u) * psi) - dx(phi) * v + odd_weight * (phi * dx(v))
        return AlgebraElement(even, odd)

    return bracket


def test_bracket_family_contains_the_bracket():
    x, y, _ = structures.generic_elements()
    assert _bracket_with(HALF, HALF)(x, y) == lie_bracket(x, y)


def test_generic_step_passes_on_its_own():
    result = check_jacobi()
    assert result.passed, result.detail
    assert result.detail == "generic identity"


def test_generic_jacobi_catches_a_weight_one_odd_action(monkeypatch):
    # weight 1 keeps the bracket antisymmetric, so only the Jacobi step can see it
    monkeypatch.setattr(structures, "lie_bracket", _bracket_with(1, HALF))
    result = check_jacobi()
    assert not result.passed
    labels = result.detail.split(" || ")[0].split("; ")
    assert labels == ["jacobi even (generic)", "jacobi odd (generic)"]


def test_rescaled_phi_psi_term_is_an_isomorphic_algebra(monkeypatch):
    # (u, phi) -> (u, sqrt(2) phi) maps the phi*psi coefficient 1/2 to 1, so Jacobi still holds
    monkeypatch.setattr(structures, "lie_bracket", _bracket_with(HALF, 1))
    result = check_jacobi()
    assert result.passed, result.detail


@pytest.mark.parametrize(
    "odd_weight, phi_psi, ux_v, lie",
    [
        (HALF, HALF, 1, True),
        (1, HALF, 1, False),
        (0, HALF, 1, False),
        (Fraction(3, 2), HALF, 1, False),
        (HALF, 0, 1, True),
        (HALF, -1, 1, True),
        (HALF, 1, 1, True),
        (HALF, HALF, 2, False),
        (1, 1, 1, False),
    ],
)
def test_generic_proof_agrees_with_sampled_triples(monkeypatch, odd_weight, phi_psi, ux_v, lie):
    # the generic step is a proof, so sampled triples can only confirm its verdict
    monkeypatch.setattr(structures, "lie_bracket", _bracket_with(odd_weight, phi_psi, ux_v))
    assert check_jacobi().passed is lie
    assert (sampled_lie_failures(20, seed=123) == []) is lie


@pytest.mark.parametrize("odd_weight, phi_psi", [(1, HALF), (HALF, 1)])
def test_lie_poisson_pairing_pins_the_bracket(monkeypatch, odd_weight, phi_psi):
    monkeypatch.setattr(structures, "lie_bracket", _bracket_with(odd_weight, phi_psi))
    result = structures.check_biham()
    assert not result.passed
    assert result.detail.split(" || ")[0] == "J1 is Lie-Poisson for the bracket"


# ---------------------------------------------------------------------------
# suite registry


def test_full_suite_passes():
    results = run_suite(SUITE_NAMES)
    assert len(results) == 10
    for result in results:
        assert result.passed, f"{result.check_id}: {result.detail}"
        assert result.residual == ""


def test_registry_holds_the_declared_checks_in_order():
    assert SUITE_NAMES == (
        "bracket", "geodesic", "biham", "lagrangian", "susy",
        "superspace", "lax", "recursion", "conservation", "jacobi",
    )
    for name, check in structures.CHECKS.items():
        assert check is getattr(structures, f"check_{name}")
        assert check.__name__ == f"check_{name}"
        # wraps sets __wrapped__, so look at the declared check, not the body
        assert not inspect.signature(check, follow_wrapped=False).parameters
    # negative control: following __wrapped__ finds the body's failure list
    assert list(inspect.signature(check_jacobi).parameters) == ["failures"]


def test_check_harness_builds_results(monkeypatch):
    monkeypatch.setattr(structures, "CHECKS", {})

    @structures._check("bad", detail="two cases")
    def check_bad(failures):
        failures.append(("first", U()))
        failures.append(("second", XI()))

    @structures._check("good", detail="two cases")
    def check_good(failures):
        pass

    assert structures.CHECKS == {"bad": check_bad, "good": check_good}
    bad = check_bad()
    assert (bad.check_id, bad.passed, bad.detail) == ("bad", False, "first; second || two cases")
    assert bad.residual == to_sexpr(U())
    good = check_good()
    assert (good.check_id, good.passed, good.residual, good.detail) == ("good", True, "", "two cases")
    assert good.elapsed >= 0.0


def test_unknown_suite_name_raises():
    with pytest.raises(KeyError):
        run_suite(["bogus"])
