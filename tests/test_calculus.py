import random
from fractions import Fraction

import pytest

from superhs.algebra import EVEN, ODD, FieldSymbol, ParityError, SymExpr, theta_factor
from superhs.calculus import (
    SubstitutionError,
    berezin,
    dt,
    dx,
    first_variation,
    jet_derivative,
    substitute,
    superD,
    theta_expand,
)

from helpers import random_expr

u = FieldSymbol("u", EVEN)
v = FieldSymbol("v", EVEN)
xi = FieldSymbol("xi", ODD)
phi = FieldSymbol("phi", ODD)
psi = FieldSymbol("psi", ODD)
tau = FieldSymbol("tau", ODD, constant=True)
G = FieldSymbol("G", EVEN, superspace=True)
M = FieldSymbol("M", ODD, superspace=True)


def test_dx_leibniz():
    assert dx(u() * u(dx=1)) == u(dx=1) ** 2 + u() * u(dx=2)


def test_dx_odd_square_drops():
    assert dx(xi() * xi(dx=1)) == xi() * xi(dx=2)


def test_dx_three_factor_fermionic():
    got = dx(u() * xi(dx=1) * xi(dx=2))
    want = u(dx=1) * xi(dx=1) * xi(dx=2) + u() * xi(dx=1) * xi(dx=3)
    assert got == want


def test_theta_is_constant():
    assert dx(theta_factor()).is_zero()
    assert dt(theta_factor()).is_zero()
    assert dt(u() * theta_factor()) == theta_factor() * u(dt=1)


def test_constants_are_constant():
    assert dx(tau() * u()) == tau() * u(dx=1)
    assert dt(tau()).is_zero()


def test_superD_on_theta():
    assert superD(theta_factor()) == SymExpr.scalar(1)


def test_superD_component_superfield():
    sf = u() + theta_factor() * phi()
    assert superD(sf) == phi() + theta_factor() * u(dx=1)


def test_superD_squares_to_dx_randomized():
    rng = random.Random(17)
    for _ in range(120):
        e = random_expr(rng, allow_theta=True)
        assert (superD(superD(e)) - dx(e)).is_zero()


def test_superD_squares_to_dx_on_superspace_jets():
    rng = random.Random(19)
    for _ in range(40):
        factors = []
        for _ in range(rng.randint(1, 3)):
            sym = rng.choice([G, M])
            factors.append(sym.jet(dx=rng.randint(0, 2), dtheta=rng.randint(0, 1)))
        e = SymExpr.monomial(rng.choice([1, -2, Fraction(1, 2)]), factors)
        assert (superD(superD(e)) - dx(e)).is_zero()


def test_superD_graded_leibniz():
    # D(ab) = (Da)b + (-1)^|a| a(Db) for homogeneous a, b
    a = xi(dx=1)  # odd
    b = u() + u(dx=2)  # even
    lhs = superD(a * b)
    rhs = superD(a) * b - a * superD(b)
    assert (lhs - rhs).is_zero()


def test_substitute_base_rule():
    assert substitute(u(dt=1), {u.jet(dt=1): -(u() * u(dx=1))}) == -(u() * u(dx=1))


def test_substitute_prolongation():
    f = FieldSymbol("f", EVEN)
    got = substitute(u(dx=2, dt=1), {u.jet(dt=1): f()})
    assert got == f(dx=2)


def test_substitute_nilpotent_collapse():
    got = substitute(xi() * u(dt=1), {u.jet(dt=1): xi() * xi(dx=1)})
    assert got.is_zero()


def test_substitute_parity_mismatch_raises():
    with pytest.raises(ParityError):
        substitute(u(dt=1), {u.jet(dt=1): xi()})


def test_substitute_iterates_to_fixpoint():
    # rule chain: u_t -> v_x, and v_x -> u (applies inside the first rewrite)
    rules = {u.jet(dt=1): v(dx=1), v.jet(dx=1): u()}
    assert substitute(u(dt=1), rules) == u()
    # prolonged: u_tx -> v_xx -> u_x
    assert substitute(u(dx=1, dt=1), rules) == u(dx=1)


def test_substitute_nontermination_guard():
    rules = {u.jet(): u() * SymExpr.scalar(1) + u()}  # u -> 2u forever
    with pytest.raises(SubstitutionError):
        substitute(u(), rules, max_rewrites=50)


def test_substitute_superspace_d_jets():
    # D^3 G -> M G, then D^4 G prolongs through the graded Leibniz rule
    rules = {G.jet(dx=1, dtheta=1): M() * G()}
    got = substitute(G(dx=2), rules)  # G_xx = D(D^3 G)
    want = M(dtheta=1) * G() - M() * G(dtheta=1)
    assert got == want


def test_theta_expand_and_berezin():
    e = u() * v() + theta_factor() * (u(dx=1) * v(dx=1))
    parts = theta_expand(e)
    assert parts.body == u() * v()
    assert parts.soul == u(dx=1) * v(dx=1)
    assert parts.reconstruct() == e
    assert berezin(theta_factor() * (u(dx=1) * v(dx=1))) == u(dx=1) * v(dx=1)
    assert berezin(u() * v()).is_zero()


def test_berezin_metric_integrand():
    # (D^2 U)(D V) with U = u + theta phi, V = v + theta psi
    U_c = u() + theta_factor() * phi()
    V_c = v() + theta_factor() * psi()
    d2u = superD(superD(U_c))
    dv = superD(V_c)
    assert berezin(d2u * dv) == u(dx=1) * v(dx=1) + phi(dx=1) * psi()


def test_first_variation_in_place_signs():
    # vary xi in xi*xi_x along delta xi = tau*u: both slots replaced in place
    e = xi() * xi(dx=1)
    var = first_variation(e, {xi: tau() * u()})
    want = (tau() * u()) * xi(dx=1) + xi() * (tau() * u(dx=1))
    assert var == want


def test_first_variation_parity_check():
    with pytest.raises(ParityError):
        first_variation(u(), {u: xi()})
    with pytest.raises(ParityError, match="not parity homogeneous"):
        first_variation(u(), {u: u() + xi()})


def test_jet_derivative_composes_t_then_x_steps():
    rng = random.Random(41)
    for _ in range(20):
        e = random_expr(rng, allow_theta=True)
        assert jet_derivative(e, 1, 2) == dx(dx(dt(e)))
        assert jet_derivative(e, 0, 0) == e
    big_u = FieldSymbol("U", EVEN, superspace=True)
    assert jet_derivative(big_u(), 1, 3, superspace=True) == big_u(dx=1, dt=1, dtheta=1)
