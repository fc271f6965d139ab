import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

from superhs.algebra import EVEN, ODD, FieldSymbol, ParityError, SymExpr, lam_power, theta_factor
from superhs.calculus import dt, dx, first_variation, substitute, superD, theta_expand
from superhs import cli, density, structures
from superhs.density import equals_mod_dx, euler_xt, integrate_x, is_total_x_derivative, reduce_mod_dx
from superhs.sexpr import to_sexpr
from helpers import (
    random_element,
    random_x_poly,
    ref_apply_J1,
    ref_bilinear_B,
    ref_inner_product,
    ref_inner_product_operator_form,
    ref_k1,
    ref_lie_bracket,
    ref_superspace_rhs,
    sampled_lie_failures,
)
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
    TAU,
    action_density,
    apply_J1,
    apply_J2,
    berezin_metric,
    bilinear_B,
    check_jacobi,
    conservation_check,
    general_coefficient_equations,
    geodesic_system,
    hamiltonian_densities,
    inner_product,
    lax_compatibility,
    lie_bracket,
    closing_ansatz,
    coadjoint,
    generic_elements,
    run_suite,
    SUITE_NAMES,
    superfield_u_components,
    superspace_rhs,
    susy_variation,
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
        inner_product(x, y), ref_inner_product_operator_form(x, y)
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


def test_component_geometry_is_read_off_superspace(fresh_flow_memo, monkeypatch):
    # lie_bracket and inner_product equal the component formulas term for term
    x, y, z = generic_elements()
    flow = structures._FLOW
    rng = random.Random(11)
    pairs = [(x, y), (flow, flow), (y, z)] + [(random_element(rng), random_element(rng)) for _ in range(20)]
    for a, b in pairs:
        assert lie_bracket(a, b) == ref_lie_bracket(a, b)
        assert inner_product(a, b) == ref_inner_product(a, b)
    assert check_jacobi().passed

    # negative control: with the 1/2 on DU*DV set to 1, the generic bracket differs and Jacobi fails
    def unit_weight(a, b):
        return a * dx(b) - b * dx(a) + superD(a) * superD(b)

    monkeypatch.setattr(structures, "superspace_bracket", unit_weight)
    structures._geometry.cache_clear()
    bad = lie_bracket(x, y)
    assert bad.even_part != ref_lie_bracket(x, y).even_part
    assert bad.odd_part != ref_lie_bracket(x, y).odd_part
    assert inner_product(x, y) == ref_inner_product(x, y)
    assert not check_jacobi().passed


def test_derived_operators_equal_the_closed_forms():
    # B and J1 are read off the bracket and the metric; the references are coefficient formulas
    pairs = [generic_elements()[:2]]
    rng = random.Random(5)
    pairs += [(random_element(rng), random_element(rng)) for _ in range(40)]
    for x, y in pairs:
        assert bilinear_B(x, y) == ref_bilinear_B(x, y)
        assert apply_J1(y.even_part, y.odd_part) == ref_apply_J1(y.even_part, y.odd_part)


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


def test_velocity_rules_prolong_to_the_second_order_rules():
    # the flow's one rule set, prolonged, makes the replacements of the
    # second-order rules u_txx -> -rhs_m, xi_txx -> -rhs_eta
    system = geodesic_system()
    second_order = {U.jet(dx=2, dt=1): -system.rhs_m, XI.jet(dx=2, dt=1): -system.rhs_eta}
    sigma = action_density()
    line_1 = U(dx=2, dt=1) + system.rhs_m
    line_2 = XI(dx=2, dt=1) + system.rhs_eta
    perturbed = {U: TAU() * XI(dx=1), XI: TAU() * U(dx=1)}
    targets = {
        "dx(E_u)": dx(euler_xt(sigma, U)),
        "E_xi": euler_xt(sigma, XI),
        "susy line 1": first_variation(line_1, susy_variation()),
        "susy line 2": first_variation(line_2, susy_variation()),
        "perturbed variation": first_variation(line_2, perturbed),
    }
    for label, target in targets.items():
        assert substitute(target, system.rules_velocity()) == substitute(target, second_order), label
    assert substitute(targets["perturbed variation"], second_order)


def test_conservation_check_derives_the_potentials_once(monkeypatch):
    calls = []

    def counting(e):
        calls.append(e)
        return integrate_x(e)

    monkeypatch.setattr(structures, "integrate_x", counting)
    # a cold derivation: the memoized system an earlier test built is dropped
    geodesic_system.cache_clear()
    assert structures.check_conservation().passed
    assert len(calls) == 2
    calls.clear()
    assert all(result.passed for result in run_suite(SUITE_NAMES))
    assert len(calls) == 0


def test_one_system_and_one_read_only_rule_set():
    system = geodesic_system()
    assert geodesic_system() is system
    rules = system.rules_velocity()
    assert system.rules_velocity() is rules
    # the rule set keeps images built under it, so no caller may change it
    with pytest.raises(TypeError):
        rules[U.jet(dt=1)] = SymExpr.zero()
    assert rules[U.jet(dt=1)] == structures.P_VEL()


def test_no_rule_set_answers_for_another(monkeypatch):
    # images are cached per rule set under a TermKey; a cache keyed by the
    # TermKey alone would carry the full flow's images into the bosonic one
    full = geodesic_system()
    quad = HALF * U(dx=1) ** 2
    verdicts = [conservation_check(quad, system) for system in (full, full.bosonic_reduction(), full)]
    assert verdicts == [False, True, False]

    first = structures.check_conservation()
    built = []

    def counting(e, rules, *args):
        built.append(e)
        return substitute(e, rules, *args)

    monkeypatch.setattr(density, "substitute", counting)
    second = structures.check_conservation()
    assert built == []
    assert (second.passed, second.residual, second.detail) == (first.passed, first.residual, first.detail)
    # negative control: a new system's rule set builds its own images under the spy
    assert conservation_check(quad, full.bosonic_reduction())
    assert built


def test_rule_set_keeps_its_reduced_pure_velocity_rows(monkeypatch):
    # a repeat reduction under one rule set takes its pure-velocity rows from the
    # rule set; a fresh system's rule set, which keeps nothing yet, reduces them again
    system = geodesic_system()
    target = substitute(dt(hamiltonian_densities()[1]), system.rules_velocity())
    calls = []
    insort = density.insort

    def counting(*args):
        calls.append(args)
        return insort(*args)

    monkeypatch.setattr(density, "insort", counting)

    def reduce(flow, droppable):
        calls.clear()
        out = reduce_mod_dx(target, flow.rules_velocity(), droppable)
        return out, len(calls)

    reduce(system, structures._droppable)
    warm, warm_calls = reduce(system, structures._droppable)
    cold, cold_calls = reduce(EvolutionSystem(system.rhs_m, system.rhs_eta), structures._droppable)
    assert warm == cold and not warm[0]  # H2 is conserved
    assert 10 * warm_calls < cold_calls
    # rows are kept per droppable: without one, the kept rows give a fresh rule set's answer
    assert reduce(system, None)[0] == reduce(EvolutionSystem(system.rhs_m, system.rhs_eta), None)[0]


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


def test_J2_is_the_operator_of_the_Berezin_cocycle():
    # omega(X, Y) = <X_x, Y> is the Berezin integral of U_xx*DV, and J2 is read off it
    # as J1 is read off the bracket
    def omega(x, y):
        return inner_product(AlgebraElement(dx(x.even_part), dx(x.odd_part)), y)

    x, y, _ = generic_elements()
    f, g = (e.even_part + theta_factor() * e.odd_part for e in (x, y))
    assert omega(x, y) == berezin_metric(dx(f), g)
    for y in (AlgebraElement(V(), PSI()), AlgebraElement(U(), XI(dx=1))):
        j2 = apply_J2(y.even_part, y.odd_part)
        assert structures._images(lambda z: omega(z, y)) == j2
        # controls: the reversed order gives -J2, and the metric itself (k = 1) is not J2
        assert structures._images(lambda z: omega(y, z)) == tuple(-r for r in j2)
        assert structures._images(lambda z: inner_product(z, y)) != j2


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


def test_superspace_flow_and_K1_are_the_one_coadjoint_action(monkeypatch):
    # the flow is -ad*_U M at M = -D^3 U and K1 is -ad*_(.) M, term for term the old formulas
    assert superspace_rhs() == ref_superspace_rhs()
    assert superspace_rhs() == -coadjoint(SUPER_U(), -SUPER_U(dx=1, dtheta=1))
    for f in (SUPER_G(), SUPER_G() ** 2):
        assert -coadjoint(f, SUPER_M()) == ref_k1(f)
    assert all(result.passed for result in run_suite(SUITE_NAMES))

    # negative control: with -DF*DM/2 the flow, the Lax G equation and the eigenrelation fail
    def flipped(f, m):
        return f * dx(m) + Fraction(3, 2) * (dx(f) * m) - HALF * (superD(f) * superD(m))

    with monkeypatch.context() as patch:
        patch.setattr(structures, "coadjoint", flipped)
        assert superspace_rhs() != ref_superspace_rhs()
        assert -structures.coadjoint(SUPER_G() ** 2, SUPER_M()) != ref_k1(SUPER_G() ** 2)
        results = {result.check_id: result for result in run_suite(SUITE_NAMES)}
    assert [name for name, result in results.items() if not result.passed] == ["superspace", "lax", "recursion"]
    assert "ad*_F M pairs with Z as -M with [F, Z]" in results["superspace"].detail.split("; ")
    assert all(result.passed for result in run_suite(SUITE_NAMES))


def test_superspace_pairings_pin_the_momentum(monkeypatch):
    # M = +D^3 U breaks the metric pairing, whatever else it leaves consistent
    with monkeypatch.context() as patch:
        patch.setattr(structures, "momentum", lambda a: superD(superD(superD(a))))
        result = structures.check_superspace()
    assert not result.passed
    assert "the metric pairs F with Z as -D^3 F" in result.detail.split("; ")
    assert structures.check_superspace().passed


def test_action_density_is_the_kinetic_terms_plus_twice_H2():
    old = U(dt=1) * U(dx=1) - XI(dt=1) * XI(dx=2) + U() * U(dx=1) ** 2 - U() * XI(dx=1) * XI(dx=2)
    assert action_density() == old


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


def test_flux_certificates_hold_on_the_constrained_jets():
    # the witness of reduce_mod_dx is a flux F: what d/dt(rho) leaves after
    # d/dx(F), both under the velocity rules, is const * p or const * q
    system = geodesic_system()
    rules = system.rules_velocity()
    h1, h2 = hamiltonian_densities()

    def certificate(rho):
        flow_dt = substitute(dt(rho), rules)
        residual, flux = reduce_mod_dx(flow_dt, rules, structures._droppable)
        return flow_dt, residual, flux

    for rho in (h1, h2, U(dx=1) * XI(dx=1), TAU() * U(dx=1) * XI(dx=1)):
        flow_dt, residual, flux = certificate(rho)
        assert not residual
        leftover = flow_dt - substitute(dx(flux), rules)
        assert all(structures._droppable(key) for key, _c in leftover.terms())
    assert certificate(U() ** 2)[1]


_H1, _H2 = hamiltonian_densities()
_A, _B = structures.A_GAUGE(), structures.B_GAUGE()
# (name, density, conserved under the full flow, conserved under the bosonic
# flow or None when the density holds xi)
_VERDICTS = [
    ("H1", _H1, True, None),
    ("H2", _H2, True, None),
    ("u^2", U() ** 2, False, False),
    ("u_x^2/2", HALF * U(dx=1) ** 2, False, True),
    ("u", U(), True, True),
    ("xi", XI(), True, None),
    ("u_x", U(dx=1), True, True),
    ("H1 + u_x", _H1 + U(dx=1), True, None),
    ("u_x xi_x", U(dx=1) * XI(dx=1), True, None),
    ("u xi", U() * XI(), False, None),
    ("u_x^2 xi_x", U(dx=1) ** 2 * XI(dx=1), False, None),
    ("u u_x^2", U() * U(dx=1) ** 2, False, True),
    ("u_xx^2", U(dx=2) ** 2, False, False),
    ("u^2 u_x^2", U() ** 2 * U(dx=1) ** 2, False, False),
    ("u_x^4", U(dx=1) ** 4, False, False),
    ("xi_x xi_xx", XI(dx=1) * XI(dx=2), False, None),
    ("u_x xi_x xi_xx", U(dx=1) * XI(dx=1) * XI(dx=2), False, None),
    ("u^3", U() ** 3, False, False),
    ("u_x^3", U(dx=1) ** 3, False, False),
    ("u_xx xi_x xi_xx", U(dx=2) * XI(dx=1) * XI(dx=2), False, None),
    ("u u_xx^2", U() * U(dx=2) ** 2, False, False),
    # formal constants as coefficients
    ("tau u_x xi_x", TAU() * U(dx=1) * XI(dx=1), True, None),
    ("tau u xi", TAU() * U() * XI(), False, None),
    ("A H1", _A * _H1, True, None),
    ("A u^2", _A * U() ** 2, False, None),
    ("B u", _B * U(), True, None),
    ("B u_x xi_x", _B * U(dx=1) * XI(dx=1), True, None),
    ("A^2 u", _A * _A * U(), True, None),
    ("u_x^2 xi_x xi_xx", U(dx=1) ** 2 * XI(dx=1) * XI(dx=2), False, None),
    ("u u_x xi_x xi_xx", U() * U(dx=1) * XI(dx=1) * XI(dx=2), False, None),
]
_VERDICT_CASES = [
    pytest.param(flow, rho, verdict, id=f"{flow}: {name}")
    for name, rho, *verdicts in _VERDICTS
    for flow, verdict in zip(("full", "bosonic"), verdicts)
    if verdict is not None
]


def _multisets(n_kinds: int, size: int) -> int:
    return math.comb(n_kinds + size - 1, size)


@pytest.mark.parametrize("flow, rho, verdict", _VERDICT_CASES)
def test_conservation_verdicts_within_the_stated_closure(monkeypatch, flow, rho, verdict):
    # conservation_check's docstring bounds the pure-velocity rows: products of
    # p, q and constant jets (from the rewriting's residual and the rules' right
    # sides) of velocity degree 1..d+1 with at most c constant factors
    system = geodesic_system() if flow == "full" else geodesic_system().bosonic_reduction()
    rules = system.rules_velocity()
    velocity = (structures.P_VEL.jet(), structures.Q_VEL.jet())
    rule_constants = {f for rhs in rules.values() for key, _c in rhs.terms() for f in key[1] if f.symbol.constant}
    calls = []

    def recording(target, generators):
        calls.append((dict(target), len(generators)))
        return reduce_against(target, generators)

    reduce_against = density._reduce_against
    monkeypatch.setattr(density, "_reduce_against", recording)
    assert conservation_check(rho, system) is verdict
    if not verdict:
        assert len(calls) == 1  # a residual is left only after the pure-velocity step
    for target, n_rows in calls:
        degree = max(sum(f in velocity for f in factors) for _lam, factors in target)
        n_constants = max(sum(f.symbol.constant for f in factors) for _lam, factors in target)
        constants = rule_constants | {f for _lam, fs in target for f in fs if f.symbol.constant}
        lams = {lam for lam, _fs in target}
        bound = (
            len(lams)
            * sum(_multisets(len(velocity), n) for n in range(1, degree + 2))
            * sum(_multisets(len(constants), n) for n in range(n_constants + 1))
        )
        assert 0 < n_rows <= bound


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


@pytest.fixture
def fresh_flow_memo():
    # geodesic_system() calls lie_bracket, which reads the superspace bracket's expansion from
    # its own memo: neither a flow nor an expansion memoized under a patch may outlive it
    structures._geometry.cache_clear()
    geodesic_system.cache_clear()
    yield
    structures._geometry.cache_clear()
    geodesic_system.cache_clear()


@pytest.mark.parametrize("odd_weight, phi_psi", [(1, HALF), (HALF, 1)])
def test_lie_poisson_pairing_pins_the_bracket(fresh_flow_memo, monkeypatch, odd_weight, phi_psi):
    # a warm memo holds the flow of the true bracket, a cold one builds it from the patched bracket
    for warm in (True, False):
        geodesic_system.cache_clear()
        if warm:
            geodesic_system()
        with monkeypatch.context() as patch:
            patch.setattr(structures, "lie_bracket", _bracket_with(odd_weight, phi_psi))
            bracket = structures.check_bracket()
            biham = structures.check_biham()
        assert not bracket.passed
        assert "image A1*B1 of B" in bracket.detail.split(" || ")[0].split("; ")
        assert not biham.passed
        assert "J1 row 2 at (v, psi)" in biham.detail.split(" || ")[0].split("; ")


def _metric_with_odd_weight(weight):
    """The H^1 density u_x*v_x + weight*phi_x*psi."""

    def metric(x, y):
        return dx(x.even_part) * dx(y.even_part) + weight * (dx(x.odd_part) * y.odd_part)

    return metric


def test_flow_without_potentials_fails_the_checks_that_need_them(fresh_flow_memo, monkeypatch):
    # a doubled phi_x*psi term leaves rhs_eta with no x-antiderivative; each check runs
    # once on a cleared memo and once on the memo holding the patched flow
    names = ("lagrangian", "susy", "conservation")
    assert inner_product(*generic_elements()[:2]) == _metric_with_odd_weight(1)(*generic_elements()[:2])
    with monkeypatch.context() as patch:
        patch.setattr(structures, "inner_product", _metric_with_odd_weight(2))
        flow = geodesic_system()
        assert is_total_x_derivative(flow.rhs_m) and not is_total_x_derivative(flow.rhs_eta)
        residual = to_sexpr(density.canonical_density(flow.rhs_eta))
        for cold, name in itertools.product((True, False), names):
            if cold:
                geodesic_system.cache_clear()
            result = structures.CHECKS[name]()
            assert not result.passed
            assert result.detail == "flow has no once-integrated potential"
            assert result.residual == residual
        assert cli.main(["verify", "--suite", ",".join(names)]) == 1
    # negative control: with the true metric the same checks pass
    geodesic_system.cache_clear()
    assert all(result.passed for result in run_suite(names))


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
